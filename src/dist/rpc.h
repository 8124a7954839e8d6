#ifndef VISUALROAD_DIST_RPC_H_
#define VISUALROAD_DIST_RPC_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace visualroad::dist {

/// Frame magic ("VRPC" little-endian) and the protocol version carried in
/// every frame header. A version bump is a handshake-time rejection, not a
/// silent parse divergence.
inline constexpr uint32_t kRpcMagic = 0x43505256;  // 'V''R''P''C' in LE bytes.
inline constexpr uint8_t kRpcVersion = 5;

/// Hard ceiling on a frame payload. A header announcing more than this is
/// rejected before any payload allocation — the defense against a corrupt or
/// hostile length field.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// RPC methods the worker serves.
enum class MethodId : uint8_t {
  kHello = 0,         // Handshake: magic + version -> version + pid.
  kSetup = 1,         // Ship WorkerSetup; worker builds dataset + engine.
  kExecuteRange = 2,  // Execute a sub-range of query instances.
  kShutdown = 3,      // Graceful exit; worker acks then leaves its loop.
  kCacheExport = 4,   // Snapshot the worker's semantic-cache entries.
  kCacheImport = 5,   // Seed the worker's semantic cache with shipped entries.
};

/// Frame roles. Error responses carry a serialized Status as payload.
enum class FrameType : uint8_t {
  kRequest = 0,
  kResponseOk = 1,
  kResponseError = 2,
};

/// One decoded frame. On the wire a frame is:
///   u32 magic | u32 length | u8 version | u8 type | u8 method | u8 reserved
///   | u64 correlation_id | u32 payload_size | payload bytes | u32 crc32
/// where `length` counts everything after itself and the CRC covers
/// [version .. payload]. All integers little-endian.
struct Frame {
  FrameType type = FrameType::kRequest;
  MethodId method = MethodId::kHello;
  /// Correlates a response to its request. A connection carries one call at
  /// a time, so a response with any other id is DataLoss.
  uint64_t correlation_id = 0;
  std::vector<uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected) over `size` bytes.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Serialises a frame to wire bytes (magic through CRC).
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Serialised Status for error-response payloads.
std::vector<uint8_t> EncodeStatusPayload(const Status& status);
Status DecodeStatusPayload(const std::vector<uint8_t>& payload);

/// A connected stream socket carrying framed RPC messages. Movable, not
/// copyable; closes its descriptor on destruction. Not thread-safe — one
/// owner drives a connection at a time (the coordinator serialises calls per
/// worker link).
class RpcConnection {
 public:
  RpcConnection() = default;
  /// Adopts an already-connected descriptor (accept side, socketpair tests).
  explicit RpcConnection(int fd) : fd_(fd) {}
  RpcConnection(RpcConnection&& other) noexcept;
  RpcConnection& operator=(RpcConnection&& other) noexcept;
  ~RpcConnection();

  /// Connects to a Unix-domain socket, retrying until `timeout` elapses (the
  /// listener may not be bound yet when a freshly spawned worker is slow).
  static StatusOr<RpcConnection> ConnectUnix(const std::string& path,
                                             std::chrono::milliseconds timeout);

  /// Writes one frame. Partial sends are continued; a peer that vanished
  /// surfaces as IoError (SIGPIPE suppressed).
  Status SendFrame(const Frame& frame);

  /// Reads one frame. `timeout` <= 0 blocks indefinitely. Errors:
  ///  - IoError "rpc receive timeout" when the deadline passes;
  ///  - DataLoss on EOF mid-frame, bad magic, or checksum mismatch;
  ///  - InvalidArgument on an oversized payload announcement (rejected
  ///    before allocation) or an unknown protocol version.
  /// Every error closes the connection, a timeout included: the rest of an
  /// interrupted frame would otherwise be read as the start of the next one.
  /// Callers reconnect.
  StatusOr<Frame> RecvFrame(std::chrono::milliseconds timeout);

  bool open() const { return fd_ >= 0; }
  void Close();

 private:
  /// RecvFrame without the close on failure.
  StatusOr<Frame> ReadFrame(std::chrono::milliseconds timeout);
  /// Reads exactly `size` bytes into `out`, waiting until `deadline` when
  /// `has_deadline`.
  Status ReadExactly(uint8_t* out, size_t size,
                     std::chrono::steady_clock::time_point deadline,
                     bool has_deadline);

  int fd_ = -1;
};

/// A bound, listening Unix-domain socket. Unlinks any stale socket file on
/// bind and removes the file again on close, so a restarted worker can
/// re-listen on the same pid-qualified path.
class RpcListener {
 public:
  RpcListener() = default;
  RpcListener(RpcListener&& other) noexcept;
  RpcListener& operator=(RpcListener&& other) noexcept;
  ~RpcListener();

  static StatusOr<RpcListener> ListenUnix(const std::string& path);

  /// Blocks until one connection arrives.
  StatusOr<RpcConnection> Accept();

  const std::string& path() const { return path_; }
  bool open() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Request/response client over one connection: one call at a time, each
/// with a fresh correlation id, error payloads decoded back into Status.
class RpcClient {
 public:
  explicit RpcClient(RpcConnection connection)
      : connection_(std::move(connection)) {}

  /// Hello exchange: sends magic + version, expects the worker's version and
  /// pid back. A version mismatch is FailedPrecondition.
  Status Handshake(std::chrono::milliseconds timeout);

  /// One call: send the request, then block for its response. A `timeout`
  /// > 0 bounds the wait; when it passes, the connection is closed, so no
  /// call is ever abandoned on a live stream. A response carrying another
  /// call's correlation id is DataLoss.
  StatusOr<std::vector<uint8_t>> Call(
      MethodId method, const std::vector<uint8_t>& payload,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0));

  /// Worker pid learned at handshake (0 before).
  int64_t worker_pid() const { return worker_pid_; }

  bool open() const { return connection_.open(); }
  void Close() { connection_.Close(); }
  RpcConnection& connection() { return connection_; }

 private:
  RpcConnection connection_;
  uint64_t next_correlation_ = 1;
  int64_t worker_pid_ = 0;
};

namespace internal {
/// Milliseconds to hand poll() while waiting for `deadline`: 0 once the
/// deadline has passed, otherwise at least 1 — poll() treats a 0 budget as an
/// immediate return, so rounding a sub-millisecond remainder down to 0 would
/// turn the tail of every wait into a busy loop.
int PollBudgetMs(std::chrono::steady_clock::time_point deadline);
}  // namespace internal

}  // namespace visualroad::dist

#endif  // VISUALROAD_DIST_RPC_H_
