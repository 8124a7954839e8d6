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
inline constexpr uint8_t kRpcVersion = 4;

/// Hard ceiling on a frame payload. A header announcing more than this is
/// rejected before any payload allocation — the defense against a corrupt or
/// hostile length field.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// RPC methods the worker serves.
enum class MethodId : uint8_t {
  kHello = 0,         // Handshake: magic + version -> version + pid.
  kSetup = 1,         // Ship WorkerSetup; worker builds dataset + engine.
  kExecuteRange = 2,  // Execute a sub-range of query instances.
  kHealth = 3,        // Liveness probe -> pid.
  kStats = 4,         // Cumulative engine stats.
  kShutdown = 5,      // Graceful exit; worker acks then leaves its loop.
  kCacheExport = 6,   // Snapshot the worker's semantic-cache entries.
  kCacheImport = 7,   // Seed the worker's semantic cache with shipped entries.
};

/// Frame roles. Error responses carry a serialized Status as payload.
enum class FrameType : uint8_t {
  kRequest = 0,
  kResponseOk = 1,
  kResponseError = 2,
};

/// One decoded frame. On the wire a frame is:
///   u32 magic | u32 length | u8 version | u8 type | u8 method | u8 reserved
///   | u64 correlation_id | u64 deadline_micros | u32 payload_size
///   | payload bytes | u32 crc32
/// where `length` counts everything after itself and the CRC covers
/// [version .. payload]. All integers little-endian.
struct Frame {
  FrameType type = FrameType::kRequest;
  MethodId method = MethodId::kHello;
  /// Correlates a response to its request; a client discards frames whose
  /// id does not match the call in flight (stale responses after a timeout).
  uint64_t correlation_id = 0;
  /// Absolute deadline in steady-clock microseconds (comparable across
  /// processes on one machine); 0 = no deadline. A server receiving an
  /// already-expired request rejects it without executing.
  uint64_t deadline_micros = 0;
  std::vector<uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected) over `size` bytes.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Steady-clock now in microseconds (the deadline clock).
uint64_t NowMicros();

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
  ///  - IoError "rpc receive timeout" when the deadline passes mid-frame;
  ///  - DataLoss on EOF mid-frame, bad magic, or checksum mismatch;
  ///  - InvalidArgument on an oversized payload announcement (rejected
  ///    before allocation) or an unknown protocol version.
  /// A timeout is RESUMABLE: bytes of the interrupted frame stay buffered
  /// and the next RecvFrame picks up where this one stopped, so abandoning
  /// a call on its deadline never desynchronises the stream. The straggler
  /// path depends on this — a late oversize response is skipped whole by
  /// correlation id, not torn mid-frame. The DataLoss / InvalidArgument
  /// errors do leave the stream unsynchronised; callers close and reconnect.
  StatusOr<Frame> RecvFrame(std::chrono::milliseconds timeout);

  bool open() const { return fd_ >= 0; }
  void Close();

 private:
  /// Appends socket bytes to `partial_` until it holds at least `target`
  /// bytes of the in-progress frame. A deadline expiry returns IoError with
  /// `partial_` intact (the resumability above); EOF and socket errors are
  /// terminal.
  Status FillBuffer(size_t target,
                    std::chrono::steady_clock::time_point deadline,
                    bool has_deadline);

  int fd_ = -1;
  /// Bytes of the inbound frame currently being assembled (prefix included).
  /// Non-empty only when a RecvFrame timed out mid-frame.
  std::vector<uint8_t> partial_;
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

  /// Accepts one connection; `timeout` <= 0 blocks indefinitely.
  StatusOr<RpcConnection> Accept(std::chrono::milliseconds timeout);

  const std::string& path() const { return path_; }
  bool open() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Request/response client over one connection: assigns correlation ids,
/// propagates deadlines, discards stale responses, and decodes error
/// payloads back into Status.
class RpcClient {
 public:
  explicit RpcClient(RpcConnection connection)
      : connection_(std::move(connection)) {}

  /// Hello exchange: sends magic + version, expects the worker's version and
  /// pid back. A version mismatch is FailedPrecondition.
  Status Handshake(std::chrono::milliseconds timeout);

  /// One call: send request, await the matching response. `timeout` bounds
  /// the wait for the response (the straggler detector) and is also shipped
  /// as the frame deadline so the worker can refuse expired work.
  StatusOr<std::vector<uint8_t>> Call(MethodId method,
                                      const std::vector<uint8_t>& payload,
                                      std::chrono::milliseconds timeout);

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
/// Bumps vr_rpc_deadline_expirations_total; the worker serve loop calls this
/// when it refuses an already-expired request.
void CountDeadlineExpiration();

/// Milliseconds to hand poll() while waiting for `deadline`: 0 once the
/// deadline has passed, otherwise at least 1 — poll() treats a 0 budget as an
/// immediate return, so rounding a sub-millisecond remainder down to 0 would
/// turn the tail of every wait into a busy loop.
int PollBudgetMs(std::chrono::steady_clock::time_point deadline);
}  // namespace internal

}  // namespace visualroad::dist

#endif  // VISUALROAD_DIST_RPC_H_
