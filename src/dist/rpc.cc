#include "dist/rpc.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <thread>

#include "common/metrics.h"
#include "common/serialize.h"

namespace visualroad::dist {
namespace {

/// Header bytes after the length field: version, type, method, reserved,
/// correlation, payload_size.
constexpr size_t kHeaderSize = 4 + 8 + 4;

struct RpcMetrics {
  metrics::Counter& frames_sent;
  metrics::Counter& frames_received;
  metrics::Counter& bytes_sent;
  metrics::Counter& bytes_received;
  metrics::Counter& checksum_failures;
  metrics::Counter& frame_rejects;
  metrics::Counter& calls;

  static RpcMetrics& Get() {
    static RpcMetrics* instruments = [] {
      metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
      return new RpcMetrics{
          registry.GetCounter("vr_rpc_frames_sent_total",
                              "RPC frames written to a peer"),
          registry.GetCounter("vr_rpc_frames_received_total",
                              "RPC frames successfully read and verified"),
          registry.GetCounter("vr_rpc_bytes_sent_total",
                              "Wire bytes written across all RPC connections"),
          registry.GetCounter("vr_rpc_bytes_received_total",
                              "Wire bytes read across all RPC connections"),
          registry.GetCounter("vr_rpc_checksum_failures_total",
                              "Received frames dropped for a CRC mismatch"),
          registry.GetCounter(
              "vr_rpc_frame_rejects_total",
              "Received frames rejected before payload read (bad magic, "
              "unknown version, oversized length)"),
          registry.GetCounter("vr_rpc_calls_total",
                              "Request/response round trips initiated"),
      };
    }();
    return *instruments;
  }
};

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256>* table = [] {
    auto* t = new std::array<uint32_t, 256>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      (*t)[i] = c;
    }
    return t;
  }();
  return *table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  const std::array<uint32_t, 256>& table = CrcTable();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  ByteWriter body;
  body.U8(kRpcVersion);
  body.U8(static_cast<uint8_t>(frame.type));
  body.U8(static_cast<uint8_t>(frame.method));
  body.U8(0);  // Reserved.
  body.U64(frame.correlation_id);
  body.U32(static_cast<uint32_t>(frame.payload.size()));
  const std::vector<uint8_t>& header = body.bytes();

  ByteWriter out;
  out.U32(kRpcMagic);
  out.U32(static_cast<uint32_t>(header.size() + frame.payload.size() + 4));
  std::vector<uint8_t> bytes = out.Take();
  bytes.insert(bytes.end(), header.begin(), header.end());
  bytes.insert(bytes.end(), frame.payload.begin(), frame.payload.end());
  uint32_t crc = Crc32(bytes.data() + 8, bytes.size() - 8);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

std::vector<uint8_t> EncodeStatusPayload(const Status& status) {
  ByteWriter writer;
  writer.U8(static_cast<uint8_t>(status.code()));
  writer.Str(status.message());
  return writer.Take();
}

Status DecodeStatusPayload(const std::vector<uint8_t>& payload) {
  ByteCursor cursor(payload);
  uint8_t code = cursor.U8();
  std::string message = cursor.Str();
  if (!cursor.ok()) {
    return Status::DataLoss("malformed rpc error payload");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

RpcConnection::RpcConnection(RpcConnection&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

RpcConnection& RpcConnection::operator=(RpcConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

RpcConnection::~RpcConnection() { Close(); }

void RpcConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<RpcConnection> RpcConnection::ConnectUnix(
    const std::string& path, std::chrono::milliseconds timeout) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IoError(std::string("socket: ") + ::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return RpcConnection(fd);
    }
    int err = errno;
    ::close(fd);
    // A freshly spawned worker may not have bound yet; retry until the
    // budget runs out for the transient cases.
    if ((err == ENOENT || err == ECONNREFUSED) &&
        std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    return Status::IoError("connect " + path + ": " + ::strerror(err));
  }
}

Status RpcConnection::SendFrame(const Frame& frame) {
  if (fd_ < 0) return Status::IoError("rpc connection closed");
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("rpc send: ") + ::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  RpcMetrics::Get().frames_sent.Increment();
  RpcMetrics::Get().bytes_sent.Increment(static_cast<double>(bytes.size()));
  return Status::Ok();
}

Status RpcConnection::ReadExactly(
    uint8_t* out, size_t size, std::chrono::steady_clock::time_point deadline,
    bool has_deadline) {
  size_t have = 0;
  while (have < size) {
    if (has_deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, internal::PollBudgetMs(deadline));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("rpc poll: ") + ::strerror(errno));
      }
      if (ready == 0) return Status::IoError("rpc receive timeout");
    }
    ssize_t n = ::recv(fd_, out + have, size - have, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("rpc recv: ") + ::strerror(errno));
    }
    if (n == 0) {
      return Status::DataLoss(have == 0 ? "rpc connection closed by peer"
                                        : "truncated rpc frame");
    }
    have += static_cast<size_t>(n);
    RpcMetrics::Get().bytes_received.Increment(static_cast<double>(n));
  }
  return Status::Ok();
}

StatusOr<Frame> RpcConnection::RecvFrame(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status::IoError("rpc connection closed");
  StatusOr<Frame> frame = ReadFrame(timeout);
  // A failed read leaves the stream at an unknown offset: what is left of
  // the frame would be parsed as the next frame's header.
  if (!frame.ok()) Close();
  return frame;
}

StatusOr<Frame> RpcConnection::ReadFrame(std::chrono::milliseconds timeout) {
  bool has_deadline = timeout.count() > 0;
  auto deadline = std::chrono::steady_clock::now() + timeout;

  uint8_t prefix[8];
  VR_RETURN_IF_ERROR(
      ReadExactly(prefix, sizeof(prefix), deadline, has_deadline));
  ByteCursor prefix_cursor(prefix, sizeof(prefix));
  uint32_t magic = prefix_cursor.U32();
  uint32_t length = prefix_cursor.U32();
  if (magic != kRpcMagic) {
    RpcMetrics::Get().frame_rejects.Increment();
    return Status::DataLoss("bad rpc frame magic");
  }
  // The announced length covers the fixed header plus payload plus CRC; an
  // oversized announcement is rejected before any allocation.
  if (length < kHeaderSize + 4 || length > kHeaderSize + kMaxFramePayload + 4) {
    RpcMetrics::Get().frame_rejects.Increment();
    return Status::InvalidArgument("oversized or undersized rpc frame");
  }

  std::vector<uint8_t> body(length);
  VR_RETURN_IF_ERROR(ReadExactly(body.data(), length, deadline, has_deadline));

  uint32_t stored_crc = body[length - 4] |
                        (static_cast<uint32_t>(body[length - 3]) << 8) |
                        (static_cast<uint32_t>(body[length - 2]) << 16) |
                        (static_cast<uint32_t>(body[length - 1]) << 24);
  if (Crc32(body.data(), length - 4) != stored_crc) {
    RpcMetrics::Get().checksum_failures.Increment();
    return Status::DataLoss("rpc frame checksum mismatch");
  }

  ByteCursor cursor(body.data(), length - 4);
  uint8_t version = cursor.U8();
  if (version != kRpcVersion) {
    RpcMetrics::Get().frame_rejects.Increment();
    return Status::InvalidArgument("unknown rpc protocol version " +
                                   std::to_string(version));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(cursor.U8());
  frame.method = static_cast<MethodId>(cursor.U8());
  cursor.U8();  // Reserved.
  frame.correlation_id = cursor.U64();
  uint32_t payload_size = cursor.U32();
  if (!cursor.ok() || payload_size != length - kHeaderSize - 4) {
    return Status::DataLoss("rpc frame header/payload size mismatch");
  }
  frame.payload.assign(body.begin() + static_cast<long>(kHeaderSize),
                       body.begin() + static_cast<long>(kHeaderSize) +
                           static_cast<long>(payload_size));
  RpcMetrics::Get().frames_received.Increment();
  return frame;
}

RpcListener::RpcListener(RpcListener&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

RpcListener& RpcListener::operator=(RpcListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

RpcListener::~RpcListener() { Close(); }

void RpcListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

StatusOr<RpcListener> RpcListener::ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // A stale file from a crashed predecessor.

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + ::strerror(errno));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("bind " + path + ": " + ::strerror(err));
  }
  if (::listen(fd, 8) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    return Status::IoError("listen " + path + ": " + ::strerror(err));
  }
  RpcListener listener;
  listener.fd_ = fd;
  listener.path_ = path;
  return listener;
}

StatusOr<RpcConnection> RpcListener::Accept() {
  if (fd_ < 0) return Status::IoError("rpc listener closed");
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return RpcConnection(fd);
    if (errno != EINTR) {
      return Status::IoError(std::string("accept: ") + ::strerror(errno));
    }
  }
}

Status RpcClient::Handshake(std::chrono::milliseconds timeout) {
  ByteWriter hello;
  hello.U32(kRpcMagic);
  hello.U8(kRpcVersion);
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                      Call(MethodId::kHello, hello.Take(), timeout));
  ByteCursor cursor(response);
  uint8_t version = cursor.U8();
  uint64_t pid = cursor.U64();
  if (!cursor.ok()) return Status::DataLoss("malformed hello response");
  if (version != kRpcVersion) {
    return Status::FailedPrecondition(
        "rpc version mismatch: worker speaks v" + std::to_string(version) +
        ", coordinator speaks v" + std::to_string(kRpcVersion));
  }
  worker_pid_ = static_cast<int64_t>(pid);
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> RpcClient::Call(
    MethodId method, const std::vector<uint8_t>& payload,
    std::chrono::milliseconds timeout) {
  RpcMetrics::Get().calls.Increment();
  Frame request;
  request.type = FrameType::kRequest;
  request.method = method;
  request.correlation_id = next_correlation_++;
  request.payload = payload;
  VR_RETURN_IF_ERROR(connection_.SendFrame(request));

  VR_ASSIGN_OR_RETURN(Frame response, connection_.RecvFrame(timeout));
  if (response.correlation_id != request.correlation_id) {
    // Calls on a connection never overlap, so the stream is out of step.
    connection_.Close();
    return Status::DataLoss("rpc response carries another call's id");
  }
  if (response.type == FrameType::kResponseError) {
    return DecodeStatusPayload(response.payload);
  }
  if (response.type != FrameType::kResponseOk) {
    return Status::DataLoss("unexpected rpc frame type in response");
  }
  return std::move(response.payload);
}

namespace internal {

int PollBudgetMs(std::chrono::steady_clock::time_point deadline) {
  auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
  // A sub-millisecond remainder truncates to 0, which poll() treats as an
  // immediate return — round up to 1 ms so an unexpired deadline still waits.
  return static_cast<int>(std::max<int64_t>(remaining.count(), 1));
}

}  // namespace internal

}  // namespace visualroad::dist
