#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/rpc.h"
#include "dist/worker.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"
#include "driver/vcd.h"
#include "queries/semantic_cache.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"
#include "video/container/vrmp.h"

namespace visualroad::dist {
namespace {

using std::chrono::milliseconds;

// --- RPC framing ---

TEST(RpcFramingTest, Crc32KnownVector) {
  // The standard IEEE 802.3 check value for "123456789".
  const char* data = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(data), 9), 0xCBF43926u);
}

/// A connected socketpair wrapped as two RpcConnections.
struct Pipe {
  RpcConnection a;
  RpcConnection b;
  static Pipe Make() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return Pipe{RpcConnection(fds[0]), RpcConnection(fds[1])};
  }
};

TEST(RpcFramingTest, FrameRoundTrip) {
  Pipe pipe = Pipe::Make();
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.method = MethodId::kExecuteRange;
  frame.correlation_id = 0xDEADBEEFCAFEull;
  frame.payload = {1, 2, 3, 250, 251, 252};
  ASSERT_TRUE(pipe.a.SendFrame(frame).ok());
  auto received = pipe.b.RecvFrame(milliseconds(1000));
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->type, frame.type);
  EXPECT_EQ(received->method, frame.method);
  EXPECT_EQ(received->correlation_id, frame.correlation_id);
  EXPECT_EQ(received->payload, frame.payload);
}

TEST(RpcFramingTest, TruncatedFrameIsDataLoss) {
  Frame frame;
  frame.payload = std::vector<uint8_t>(64, 7);
  std::vector<uint8_t> wire = EncodeFrame(frame);
  ASSERT_GT(wire.size(), 10u);
  // Half a frame, then EOF: SendFrame always writes whole frames, so push
  // the truncated wire image through a raw socketpair fd instead.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size() / 2, 0),
            static_cast<ssize_t>(wire.size() / 2));
  ::close(fds[0]);
  auto received = reader.RecvFrame(milliseconds(1000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
}

TEST(RpcFramingTest, CorruptChecksumIsDataLoss) {
  Frame frame;
  frame.payload = {10, 20, 30, 40};
  std::vector<uint8_t> wire = EncodeFrame(frame);
  wire[wire.size() - 5] ^= 0x40;  // Flip a payload bit; CRC no longer matches.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ::close(fds[0]);
  auto received = reader.RecvFrame(milliseconds(1000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(received.status().message().find("checksum"), std::string::npos);
}

TEST(RpcFramingTest, OversizedFrameRejectedBeforeAllocation) {
  Frame frame;
  frame.payload = {1};
  std::vector<uint8_t> wire = EncodeFrame(frame);
  // Announce a length beyond the payload ceiling in the length field
  // (bytes 4..7, little-endian).
  uint32_t huge = kMaxFramePayload + 1024;
  wire[4] = static_cast<uint8_t>(huge);
  wire[5] = static_cast<uint8_t>(huge >> 8);
  wire[6] = static_cast<uint8_t>(huge >> 16);
  wire[7] = static_cast<uint8_t>(huge >> 24);
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto received = reader.RecvFrame(milliseconds(1000));
  ::close(fds[0]);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kInvalidArgument);
}

TEST(RpcFramingTest, BadMagicIsDataLoss) {
  Frame frame;
  std::vector<uint8_t> wire = EncodeFrame(frame);
  wire[0] ^= 0xFF;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto received = reader.RecvFrame(milliseconds(1000));
  ::close(fds[0]);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
}

TEST(RpcFramingTest, PollBudgetNeverBusyLoopsBeforeDeadline) {
  // Past deadline: no budget, the caller's timeout check fires.
  EXPECT_EQ(internal::PollBudgetMs(std::chrono::steady_clock::now() -
                                   milliseconds(5)),
            0);
  // A sub-millisecond remainder must still hand poll() a >= 1ms budget;
  // rounding it down to 0 turns the tail of every wait into a busy loop.
  EXPECT_GE(internal::PollBudgetMs(std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(500)),
            1);
  int far = internal::PollBudgetMs(std::chrono::steady_clock::now() +
                                   milliseconds(50));
  EXPECT_GE(far, 1);
  EXPECT_LE(far, 51);
}

TEST(RpcFramingTest, TimeoutMidFrameClosesTheConnection) {
  // A frame delivered in two halves across a receive timeout. The timed-out
  // receive closes the connection, so the next RecvFrame fails instead of
  // returning the frame late or parsing its tail as a new frame.
  Frame frame;
  frame.type = FrameType::kResponseOk;
  frame.correlation_id = 77;
  frame.payload = std::vector<uint8_t>(4096, 0x5A);
  std::vector<uint8_t> wire = EncodeFrame(frame);
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  size_t half = wire.size() / 2;
  ASSERT_EQ(::send(fds[0], wire.data(), half, 0), static_cast<ssize_t>(half));

  auto timed_out = reader.RecvFrame(milliseconds(50));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kIoError);
  EXPECT_NE(timed_out.status().message().find("timeout"), std::string::npos);
  EXPECT_FALSE(reader.open());

  // The rest may find the reader gone; MSG_NOSIGNAL keeps SIGPIPE away.
  (void)::send(fds[0], wire.data() + half, wire.size() - half, MSG_NOSIGNAL);
  ::close(fds[0]);
  EXPECT_FALSE(reader.RecvFrame(milliseconds(1000)).ok());
}

TEST(RpcFramingTest, ResponseForAnotherCallIsDataLoss) {
  // Calls on a connection never overlap, so a response whose correlation id
  // is not the call's means the stream is out of step: the call fails at
  // once and closes the connection instead of waiting for its own response.
  Pipe pipe = Pipe::Make();
  Frame other;
  other.type = FrameType::kResponseOk;
  other.correlation_id = 999;  // The client's first call carries id 1.
  ASSERT_TRUE(pipe.b.SendFrame(other).ok());
  RpcClient client(std::move(pipe.a));
  auto response = client.Call(MethodId::kCacheExport, {}, milliseconds(2000));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss)
      << response.status().ToString();
  EXPECT_FALSE(client.open());
}

// --- Count fields are bounded by the payload ---

TEST(ProtocolDecodeTest, ResponseCountBeyondPayloadIsDataLoss) {
  auto decoded = DecodeExecuteResponse({0xFF, 0xFF, 0xFF, 0xFF});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolDecodeTest, DetectionCountsBeyondPayloadAreDataLoss) {
  ByteWriter entry;  // One cache entry's fields, up to its detections.
  entry.U32(1);
  entry.U64(7);
  entry.Str("");
  entry.F64(0.5);
  entry.I32(96);
  entry.I32(54);
  entry.F64(15.0);
  ByteWriter frames = entry;  // Claims 2^32-1 frames.
  frames.U32(0xFFFFFFFF);
  ByteWriter detections = entry;  // One frame claiming 2^32-1 detections.
  detections.U32(1);
  detections.U32(0xFFFFFFFF);
  for (const ByteWriter* payload : {&frames, &detections}) {
    auto decoded = DecodeCacheEntries(payload->bytes());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

// --- Cache shipping payload ---

TEST(CacheShippingTest, CacheEntriesRoundTrip) {
  queries::SemanticEntry entry;
  entry.key.stream = 0xABCDEF0123ull;
  entry.key.model = "miniyolo/test/v1";
  entry.key.threshold = 0.25;
  entry.width = 96;
  entry.height = 54;
  entry.fps = 15.0;
  entry.detections.resize(2);
  vision::Detection det;
  det.object_class = sim::ObjectClass::kVehicle;
  det.box.x0 = 1;
  det.box.y0 = 2;
  det.box.x1 = 33;
  det.box.y1 = 44;
  det.score = 0.875;
  det.entity_id = 42;
  entry.detections[1].push_back(det);
  entry.RecomputeBytes();

  std::vector<uint8_t> wire =
      EncodeCacheEntries({std::make_shared<const queries::SemanticEntry>(entry)});
  auto decoded = DecodeCacheEntries(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  const queries::SemanticEntry& got = (*decoded)[0];
  EXPECT_EQ(got.key.stream, entry.key.stream);
  EXPECT_EQ(got.key.model, entry.key.model);
  EXPECT_EQ(got.key.threshold, entry.key.threshold);
  EXPECT_EQ(got.width, 96);
  EXPECT_EQ(got.height, 54);
  EXPECT_EQ(got.fps, 15.0);
  ASSERT_EQ(got.detections.size(), 2u);
  EXPECT_TRUE(got.detections[0].empty());
  ASSERT_EQ(got.detections[1].size(), 1u);
  const vision::Detection& d = got.detections[1][0];
  EXPECT_EQ(d.object_class, det.object_class);
  EXPECT_EQ(d.box.x0, det.box.x0);
  EXPECT_EQ(d.box.y0, det.box.y0);
  EXPECT_EQ(d.box.x1, det.box.x1);
  EXPECT_EQ(d.box.y1, det.box.y1);
  EXPECT_EQ(d.score, det.score);
  EXPECT_EQ(d.entity_id, det.entity_id);
  EXPECT_GT(got.bytes, 0);

  // A truncated payload is rejected, not misparsed.
  std::vector<uint8_t> truncated(wire.begin(), wire.end() - 3);
  auto rejected = DecodeCacheEntries(truncated);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);

  // The empty snapshot (a cold donor) round-trips too.
  auto empty = DecodeCacheEntries(EncodeCacheEntries({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// --- Worker server (in-process) ---

/// Knobs for the in-process worker harness beyond the spawn default.
struct InProcessWorkerConfig {
  bool exit_on_disconnect = false;
  /// When set, the harness's dataset factory counts its invocations here —
  /// how the staging tests prove a staged setup never regenerated pixels.
  std::atomic<int>* factory_calls = nullptr;
  /// Wire the sharded-store dataset loader (what worker_main.cc installs),
  /// enabling staged Setup.
  bool staged_loader = false;
};

/// Runs RunWorkerServer on a background thread against a throwaway socket;
/// stops it via a Shutdown RPC on destruction.
class InProcessWorker {
 public:
  explicit InProcessWorker(bool exit_on_disconnect = false)
      : InProcessWorker(InProcessWorkerConfig{exit_on_disconnect}) {}

  explicit InProcessWorker(const InProcessWorkerConfig& harness) {
    static int seq = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("vr-dist-test-" + std::to_string(::getpid()) + "-" +
              std::to_string(seq++) + ".sock"))
                .string();
    WorkerServerOptions options;
    options.socket_path = path_;
    options.exit_on_disconnect = harness.exit_on_disconnect;
    std::atomic<int>* factory_calls = harness.factory_calls;
    options.dataset_factory = [factory_calls](
                                  const sim::CityConfig& config,
                                  const sim::GeneratorOptions& generator) {
      if (factory_calls != nullptr) ++*factory_calls;
      return driver::PrepareDataset(config, generator);
    };
    if (harness.staged_loader) {
      options.dataset_loader = [](const storage::ShardedStore& store) {
        return driver::LoadDatasetSharded(store);
      };
    }
    thread_ = std::thread([options] {
      Status status = RunWorkerServer(options);
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  ~InProcessWorker() {
    auto connected = RpcConnection::ConnectUnix(path_, milliseconds(2000));
    if (connected.ok()) {
      RpcClient client(std::move(connected).value());
      (void)client.Call(MethodId::kShutdown, {}, milliseconds(2000));
    }
    if (thread_.joinable()) thread_.join();
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::thread thread_;
};

TEST(WorkerServerTest, HandshakeAndHealth) {
  InProcessWorker worker;
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  EXPECT_EQ(client.worker_pid(), ::getpid());  // In-process server.
}

TEST(WorkerServerTest, ExecuteRangeBeforeSetupIsFailedPrecondition) {
  InProcessWorker worker;
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  ExecuteRangeRequest request;
  auto response = client.Call(MethodId::kExecuteRange,
                              EncodeExecuteRequest(request), milliseconds(2000));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WorkerServerTest, SurvivesReconnect) {
  InProcessWorker worker(/*exit_on_disconnect=*/false);
  {
    auto first = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
    ASSERT_TRUE(first.ok());
    RpcClient client(std::move(first).value());
    ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  }  // Connection dropped without Shutdown.
  auto second = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  RpcClient client(std::move(second).value());
  EXPECT_TRUE(client.Handshake(milliseconds(2000)).ok());
}

// --- Worker process lifecycle ---

std::string TestSocketPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("vr-dist-proc-" + std::to_string(::getpid()) + "-" + tag + ".sock"))
      .string();
}

TEST(WorkerProcessTest, SpawnHandshakeKillReapsChild) {
  std::string binary = DefaultWorkerBinary();
  ASSERT_FALSE(binary.empty());
  ASSERT_TRUE(std::filesystem::exists(binary)) << binary;
  // The socket path carries this (supervisor) process's pid, so concurrent
  // test runs cannot collide.
  std::string path = TestSocketPath("reap");
  EXPECT_NE(path.find(std::to_string(::getpid())), std::string::npos);

  auto spawned = WorkerProcess::Spawn(binary, path);
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  WorkerProcess process = std::move(spawned).value();
  int pid = process.pid();
  ASSERT_GT(pid, 0);
  EXPECT_NE(pid, ::getpid());

  auto connected = RpcConnection::ConnectUnix(path, milliseconds(10000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(5000)).ok());
  EXPECT_EQ(client.worker_pid(), pid);

  process.Kill();
  // Reaped: the pid no longer names a process (or at least not our zombie).
  errno = 0;
  int probe = ::kill(pid, 0);
  EXPECT_TRUE(probe == -1 && errno == ESRCH) << "worker not reaped";
}

TEST(WorkerProcessTest, ReconnectAfterWorkerRestart) {
  std::string binary = DefaultWorkerBinary();
  ASSERT_FALSE(binary.empty());
  std::string path = TestSocketPath("restart");

  auto first = WorkerProcess::Spawn(binary, path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  {
    auto connected = RpcConnection::ConnectUnix(path, milliseconds(10000));
    ASSERT_TRUE(connected.ok());
    RpcClient client(std::move(connected).value());
    ASSERT_TRUE(client.Handshake(milliseconds(5000)).ok());
  }
  first->Kill();

  // A replacement worker re-binds the same path (stale socket unlinked on
  // bind) and a fresh connection handshakes cleanly.
  auto second = WorkerProcess::Spawn(binary, path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto connected = RpcConnection::ConnectUnix(path, milliseconds(10000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(5000)).ok());
  EXPECT_EQ(client.worker_pid(), second->pid());
}

// --- Locality ---

TEST(ShardedStoreTest, NodeBytesForPrefix) {
  storage::StoreOptions options;
  options.root = (std::filesystem::temp_directory_path() /
                  ("vr-dist-store-" + std::to_string(::getpid())))
                     .string();
  std::filesystem::remove_all(options.root);
  options.num_nodes = 3;
  options.replication = 2;
  options.block_size = 64;
  auto opened = storage::ShardedStore::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  ASSERT_TRUE(store.Put("vss/camera_0/base.var",
                        std::vector<uint8_t>(200, 1)).ok());
  ASSERT_TRUE(store.Put("vss/camera_1/base.var",
                        std::vector<uint8_t>(100, 2)).ok());

  std::vector<int64_t> camera0 = store.NodeBytesForPrefix("vss/camera_0/");
  ASSERT_EQ(camera0.size(), 3u);
  int64_t total0 = camera0[0] + camera0[1] + camera0[2];
  EXPECT_EQ(total0, 200 * 2);  // Replication counted.

  // The prefix filter excludes the other stream.
  std::vector<int64_t> all = store.NodeBytesForPrefix("vss/");
  int64_t total_all = all[0] + all[1] + all[2];
  EXPECT_EQ(total_all, 200 * 2 + 100 * 2);

  EXPECT_EQ(store.NodeBytesForPrefix("vss/camera_9/"),
            std::vector<int64_t>(3, 0));
  std::filesystem::remove_all(options.root);
}

TEST(CoordinatorInternalTest, LocalityHintFollowsTheStreamObject) {
  // A store re-staged from an older layout keeps the camera's old stream
  // object next to the current one. The hint must follow the object reads
  // come from, even when the stale one holds more bytes elsewhere.
  storage::StoreOptions options;
  options.root = (std::filesystem::temp_directory_path() /
                  ("vr-dist-home-" + std::to_string(::getpid())))
                     .string();
  std::filesystem::remove_all(options.root);
  options.num_nodes = 3;
  options.replication = 1;
  options.block_size = 64;
  auto opened = storage::ShardedStore::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  const std::string stream =
      storage::StreamObjectName(storage::CameraStreamName(0));
  ASSERT_TRUE(store.DisableNode(1).ok());
  ASSERT_TRUE(store.DisableNode(2).ok());
  ASSERT_TRUE(store.Put(stream, std::vector<uint8_t>(100, 1)).ok());
  ASSERT_TRUE(store.EnableNode(1).ok());
  ASSERT_TRUE(store.EnableNode(2).ok());
  ASSERT_TRUE(store.DisableNode(0).ok());
  ASSERT_TRUE(store.Put("vss/camera_0/96x54_base.var",
                        std::vector<uint8_t>(400, 2)).ok());
  ASSERT_TRUE(store.EnableNode(0).ok());

  std::vector<int64_t> prefix = store.NodeBytesForPrefix("vss/camera_0/");
  EXPECT_EQ(prefix[0], 100);
  EXPECT_GT(std::max(prefix[1], prefix[2]), 100);
  EXPECT_EQ(internal::StreamHomeNode(store, 0), 0);
  EXPECT_EQ(internal::StreamHomeNode(store, 1), -1);  // Nothing staged.
  std::filesystem::remove_all(options.root);
}

// --- Coordinator ---

class CoordinatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_.scale_factor = 1;
    config_.width = 96;
    config_.height = 54;
    config_.duration_seconds = 0.5;
    config_.fps = 15;
    config_.seed = 41;
    auto dataset = driver::PrepareDataset(config_);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::vector<queries::QueryInstance> SampleBatch(queries::QueryId id,
                                                         int count,
                                                         uint64_t seed = 7) {
    Pcg32 rng(seed, 11);
    queries::SamplerOptions sampler;
    std::vector<queries::QueryInstance> batch;
    for (int i = 0; i < count; ++i) {
      auto instance = queries::SampleQueryInstance(id, *dataset_, rng, sampler);
      EXPECT_TRUE(instance.ok()) << instance.status().ToString();
      batch.push_back(std::move(instance).value());
    }
    return batch;
  }

  static CoordinatorOptions BaseOptions(int workers) {
    CoordinatorOptions options;
    options.workers = workers;
    options.setup.config = config_;
    options.setup.engine = "PipelineEngine";
    options.dataset = dataset_;
    return options;
  }

  static sim::CityConfig config_;
  static sim::Dataset* dataset_;
};

sim::CityConfig CoordinatorTest::config_;
sim::Dataset* CoordinatorTest::dataset_ = nullptr;

TEST_F(CoordinatorTest, ByteIdenticalToSingleProcess) {
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 4);
  std::vector<queries::QueryInstance> boxes =
      SampleBatch(queries::QueryId::kQ2c, 2, /*seed=*/9);
  batch.insert(batch.end(), boxes.begin(), boxes.end());

  // Single-process reference: the same engine architecture, run directly.
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  std::vector<systems::QueryOutput> direct;
  for (const queries::QueryInstance& instance : batch) {
    auto output = engine->Execute(instance, *dataset_,
                                  systems::OutputMode::kWrite, "");
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    direct.push_back(std::move(output).value());
  }

  // Four workers, the acceptance configuration: N workers vs direct Execute.
  Coordinator coordinator(BaseOptions(4));
  ASSERT_TRUE(coordinator.Start().ok());
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  EXPECT_GT(stats.chunks_dispatched, 0);
  EXPECT_GT(stats.worker_busy_seconds, 0.0);

  for (size_t i = 0; i < batch.size(); ++i) {
    const DistInstanceOutcome& outcome = (*outcomes)[i];
    ASSERT_EQ(outcome.state, DistInstanceOutcome::kSucceeded) << outcome.error;
    EXPECT_GE(outcome.worker, 0);
    // Byte identity: the encoded result container must match the
    // single-process run exactly.
    video::container::Container got, want;
    got.video = outcome.output.video;
    want.video = direct[i].video;
    EXPECT_EQ(video::container::Mux(got), video::container::Mux(want))
        << "instance " << i;
    // Semantic identity for the detection query.
    ASSERT_EQ(outcome.output.detections.size(), direct[i].detections.size());
    for (size_t f = 0; f < direct[i].detections.size(); ++f) {
      ASSERT_EQ(outcome.output.detections[f].size(),
                direct[i].detections[f].size());
      for (size_t d = 0; d < direct[i].detections[f].size(); ++d) {
        const vision::Detection& a = outcome.output.detections[f][d];
        const vision::Detection& b = direct[i].detections[f][d];
        EXPECT_EQ(a.box.x0, b.box.x0);
        EXPECT_EQ(a.box.y0, b.box.y0);
        EXPECT_EQ(a.box.x1, b.box.x1);
        EXPECT_EQ(a.box.y1, b.box.y1);
        EXPECT_EQ(a.score, b.score);
      }
    }
  }
}

TEST_F(CoordinatorTest, DeadWorkerWorkIsRedispatched) {
  fault::FaultProfile profile;
  profile.name = "crash-test";
  profile.prob(fault::Site::kWorkerCrash) = 1.0;
  fault::FaultInjector faults(profile, 17);

  CoordinatorOptions options = BaseOptions(3);
  options.faults = &faults;
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 6);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const DistInstanceOutcome& outcome : *outcomes) {
    EXPECT_EQ(outcome.state, DistInstanceOutcome::kSucceeded) << outcome.error;
  }
  // With p=1.0 every worker but the guarded survivor dies.
  EXPECT_GE(stats.workers_lost, 1);
  EXPECT_GE(stats.chunks_redispatched, 1);
  EXPECT_EQ(coordinator.live_workers(), 1);
}

TEST_F(CoordinatorTest, RpcSendFaultsAreRetried) {
  fault::FaultProfile profile;
  profile.name = "sendfault-test";
  profile.prob(fault::Site::kRpcSend) = 0.5;
  fault::FaultInjector faults(profile, 23);

  CoordinatorOptions options = BaseOptions(2);
  options.faults = &faults;
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 8);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const DistInstanceOutcome& outcome : *outcomes) {
    EXPECT_EQ(outcome.state, DistInstanceOutcome::kSucceeded) << outcome.error;
  }
  EXPECT_GT(stats.rpc_retries, 0);
  EXPECT_GT(faults.injected(fault::Site::kRpcSend), 0);
}

TEST_F(CoordinatorTest, StressManySmallChunks) {
  // TSan target: three dispatch threads, per-instance chunks, shared queue
  // and merge path under contention.
  CoordinatorOptions options = BaseOptions(3);
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 12);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const DistInstanceOutcome& outcome : *outcomes) {
    EXPECT_EQ(outcome.state, DistInstanceOutcome::kSucceeded) << outcome.error;
  }
  EXPECT_GE(stats.chunks_dispatched, 12);
}

// --- Dispatch arithmetic ---

TEST(CoordinatorInternalTest, NonNegativeModFoldsNegativeIndices) {
  // C++ % keeps the dividend's sign: -1 % 3 == -1, which previously walked
  // off the front of the per-worker share vector.
  EXPECT_EQ(internal::NonNegativeMod(-1, 3), 2);
  EXPECT_EQ(internal::NonNegativeMod(-3, 3), 0);
  EXPECT_EQ(internal::NonNegativeMod(-4, 3), 2);
  EXPECT_EQ(internal::NonNegativeMod(0, 3), 0);
  EXPECT_EQ(internal::NonNegativeMod(7, 3), 1);
  EXPECT_EQ(internal::NonNegativeMod(5, 0), 0);  // Degenerate fleet.
}

TEST_F(CoordinatorTest, NegativeVideoIndexDispatchesWithoutCorruption) {
  // Regression: a negative (unset) video_index or pano_group used to index
  // the share vector at -1 during partitioning. The batch must dispatch
  // cleanly; the invalid instances fail gracefully on the worker.
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 3);
  queries::QueryInstance bad = batch[0];
  bad.video_index = -1;
  batch.push_back(bad);
  queries::QueryInstance pano = batch[1];
  pano.id = queries::QueryId::kQ9;
  pano.pano_group = -2;
  batch.push_back(pano);

  Coordinator coordinator(BaseOptions(2));
  ASSERT_TRUE(coordinator.Start().ok());
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*outcomes)[i].state, DistInstanceOutcome::kSucceeded)
        << (*outcomes)[i].error;
  }
  EXPECT_NE((*outcomes)[3].state, DistInstanceOutcome::kSucceeded);
  EXPECT_NE((*outcomes)[4].state, DistInstanceOutcome::kSucceeded);
}

// --- Storage staging ---

TEST_F(CoordinatorTest, StagedSetupLoadsFromStoreWithoutRegenerating) {
  storage::StoreOptions store_options;
  store_options.root = (std::filesystem::temp_directory_path() /
                        ("vr-dist-stage-" + std::to_string(::getpid())))
                           .string();
  std::filesystem::remove_all(store_options.root);
  auto opened = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  ASSERT_TRUE(driver::SaveDatasetSharded(*dataset_, store).ok());
  {
    storage::VssOptions vss_options;
    vss_options.store = &store;
    auto vss = storage::VideoStorageService::Open(vss_options);
    ASSERT_TRUE(vss.ok()) << vss.status().ToString();
    ASSERT_TRUE(driver::IngestDatasetVss(*dataset_, **vss).ok());
  }

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  metrics::Counter& stagings =
      registry.GetCounter("vr_dist_dataset_stagings_total", "");
  metrics::Counter& regenerations =
      registry.GetCounter("vr_dist_dataset_regenerations_total", "");
  double stagings_before = stagings.Value();
  double regenerations_before = regenerations.Value();

  std::atomic<int> factory_calls{0};
  InProcessWorkerConfig harness;
  harness.factory_calls = &factory_calls;
  harness.staged_loader = true;
  InProcessWorker worker(harness);
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());

  WorkerSetup setup;
  setup.config = config_;
  setup.engine = "PipelineEngine";
  setup.store_root = store_options.root;
  auto setup_response =
      client.Call(MethodId::kSetup, EncodeWorkerSetup(setup),
                  milliseconds(120000));
  ASSERT_TRUE(setup_response.ok()) << setup_response.status().ToString();

  // The acceptance property: zero worker-side dataset regenerations.
  EXPECT_EQ(factory_calls.load(), 0);
  EXPECT_EQ(stagings.Value() - stagings_before, 1.0);
  EXPECT_EQ(regenerations.Value() - regenerations_before, 0.0);

  // The staged worker's results stay byte-identical to direct execution
  // against the locally generated dataset.
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 1);
  ExecuteRangeRequest request;
  request.mode = systems::OutputMode::kWrite;
  RangeItem item;
  item.index = 0;
  item.instance = batch[0];
  request.items.push_back(item);
  auto response = client.Call(MethodId::kExecuteRange,
                              EncodeExecuteRequest(request), milliseconds(120000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto results = DecodeExecuteResponse(*response);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  ASSERT_EQ((*results)[0].outcome, InstanceResult::kSucceeded)
      << (*results)[0].error;

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto direct = engine->Execute(batch[0], *dataset_,
                                systems::OutputMode::kWrite, "");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  video::container::Container got, want;
  got.video = (*results)[0].output.video;
  want.video = direct->video;
  EXPECT_EQ(video::container::Mux(got), video::container::Mux(want));
  std::filesystem::remove_all(store_options.root);
}

TEST_F(CoordinatorTest, StagedSetupWithoutLoaderIsFailedPrecondition) {
  // A staged Setup against a worker with no dataset loader must refuse
  // loudly, never silently fall back to regeneration.
  InProcessWorker worker;  // Harness default: factory only, no loader.
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  WorkerSetup setup;
  setup.config = config_;
  setup.store_root = "/nonexistent/store/root";
  auto response = client.Call(MethodId::kSetup, EncodeWorkerSetup(setup),
                              milliseconds(10000));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

// --- Semantic-cache shipping ---

TEST_F(CoordinatorTest, PreSeedShipsLocalCacheEntriesToWorkers) {
  // Materialize detections locally, with the cache attached.
  queries::SemanticCache cache;
  std::vector<queries::QueryInstance> batch =
      SampleBatch(queries::QueryId::kQ2c, 2, /*seed=*/9);
  systems::EngineOptions engine_options;
  engine_options.semantic_cache = &cache;
  auto engine = systems::MakePipelineEngine(engine_options);
  std::vector<systems::QueryOutput> direct;
  for (const queries::QueryInstance& instance : batch) {
    auto output = engine->Execute(instance, *dataset_,
                                  systems::OutputMode::kWrite, "");
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    direct.push_back(std::move(output).value());
  }
  ASSERT_GT(cache.stats().entries, 0);

  // A coordinator pointed at the same cache ships its entries to every
  // worker before dispatch; results stay byte-identical (the cache holds
  // exactly what the workers would have computed).
  CoordinatorOptions options = BaseOptions(2);
  options.semantic_cache = &cache;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  EXPECT_GT(stats.cache_entries_shipped, 0);
  EXPECT_GT(stats.cache_bytes_shipped, 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    const DistInstanceOutcome& outcome = (*outcomes)[i];
    ASSERT_EQ(outcome.state, DistInstanceOutcome::kSucceeded) << outcome.error;
    video::container::Container got, want;
    got.video = outcome.output.video;
    want.video = direct[i].video;
    EXPECT_EQ(video::container::Mux(got), video::container::Mux(want))
        << "instance " << i;
  }
}

TEST_F(CoordinatorTest, LostWorkersRespawnAndWarmFromSurvivorCache) {
  fault::FaultProfile profile;
  profile.name = "heal-test";
  profile.prob(fault::Site::kWorkerCrash) = 1.0;
  fault::FaultInjector faults(profile, 17);

  CoordinatorOptions options = BaseOptions(3);
  options.faults = &faults;
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  // Batch 1 kills every worker but the guarded survivor; its Q2c work
  // populates the survivor's semantic cache.
  std::vector<queries::QueryInstance> first =
      SampleBatch(queries::QueryId::kQ2c, 3, /*seed=*/9);
  DistBatchStats stats1;
  auto outcomes1 = coordinator.ExecuteBatch(first, systems::OutputMode::kWrite,
                                            "", &stats1);
  ASSERT_TRUE(outcomes1.ok()) << outcomes1.status().ToString();
  EXPECT_GE(stats1.workers_lost, 1);
  ASSERT_EQ(coordinator.live_workers(), 1);

  // Between batches the fleet heals: lost slots respawn and each
  // replacement is warmed from the survivor's exported cache.
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  metrics::Counter& respawned =
      registry.GetCounter("vr_dist_workers_respawned_total", "");
  metrics::Counter& shipped_entries =
      registry.GetCounter("vr_dist_cache_shipped_entries_total", "");
  metrics::Counter& shipped_bytes =
      registry.GetCounter("vr_dist_cache_shipped_bytes_total", "");
  const double respawned_before = respawned.Value();
  const double entries_before = shipped_entries.Value();
  const double bytes_before = shipped_bytes.Value();
  coordinator.Heal();
  EXPECT_EQ(coordinator.live_workers(), 3);
  EXPECT_GE(respawned.Value() - respawned_before, 1.0);
  EXPECT_GT(shipped_entries.Value() - entries_before, 0.0);
  EXPECT_GT(shipped_bytes.Value() - bytes_before, 0.0);

  std::vector<queries::QueryInstance> second =
      SampleBatch(queries::QueryId::kQ1, 3);
  auto outcomes2 = coordinator.ExecuteBatch(second, systems::OutputMode::kWrite,
                                            "", nullptr);
  ASSERT_TRUE(outcomes2.ok()) << outcomes2.status().ToString();
  for (const DistInstanceOutcome& outcome : *outcomes2) {
    EXPECT_EQ(outcome.state, DistInstanceOutcome::kSucceeded) << outcome.error;
  }
}

// --- Driver integration ---

TEST_F(CoordinatorTest, DriverDistributedBatchMatchesAndValidates) {
  driver::VcdOptions vcd_options;
  vcd_options.workers = 2;
  vcd_options.validate = true;
  vcd_options.seed = 0x5EED;
  driver::VisualCityDriver vcd(*dataset_, vcd_options);

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->workers, 2);
  EXPECT_EQ(result->succeeded, result->instances);
  EXPECT_EQ(result->failed, 0);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
  EXPECT_GT(result->worker_busy_seconds, 0.0);

  // Distributed online execution is rejected, not silently serialised.
  driver::VcdOptions online = vcd_options;
  online.execution_mode = systems::ExecutionMode::kOnline;
  driver::VisualCityDriver online_vcd(*dataset_, online);
  auto rejected = online_vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, DriverStagedDistributedBatchValidates) {
  // --workers composed with --storage: the driver stages the dataset into
  // the shared store and the worker processes attach to it instead of
  // regenerating; results still validate against the reference.
  storage::StoreOptions store_options;
  store_options.root = (std::filesystem::temp_directory_path() /
                        ("vr-dist-vcd-stage-" + std::to_string(::getpid())))
                           .string();
  std::filesystem::remove_all(store_options.root);
  auto opened = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  storage::VssOptions vss_options;
  vss_options.store = &store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();

  driver::VcdOptions vcd_options;
  vcd_options.workers = 2;
  vcd_options.validate = true;
  vcd_options.storage = vss->get();
  driver::VisualCityDriver vcd(*dataset_, vcd_options);

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->workers, 2);
  EXPECT_EQ(result->succeeded, result->instances);
  EXPECT_EQ(result->failed, 0);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
  // The driver staged the dataset manifest into the shared store.
  EXPECT_TRUE(store.Get("dataset.vrds").ok());
  std::filesystem::remove_all(store_options.root);
}

TEST_F(CoordinatorTest, DriverRestagesAStoreOfAnotherDataset) {
  // Regression: cluster staging skipped a store whose manifest listed as
  // many assets, and VSS staging a stream of the same frame count, so
  // workers attached to a store staged for another city served its streams.
  sim::CityConfig other_config = config_;
  other_config.seed = config_.seed + 1;
  auto other = driver::PrepareDataset(other_config);
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  storage::StoreOptions store_options;
  store_options.root = (std::filesystem::temp_directory_path() /
                        ("vr-dist-restage-" + std::to_string(::getpid())))
                           .string();
  std::filesystem::remove_all(store_options.root);
  auto opened = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  storage::VssOptions vss_options;
  vss_options.store = &store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();
  ASSERT_TRUE(driver::SaveDatasetSharded(*other, store).ok());
  ASSERT_TRUE(driver::IngestDatasetVss(*other, **vss).ok());

  driver::VcdOptions vcd_options;
  vcd_options.workers = 2;
  vcd_options.validate = true;
  vcd_options.storage = vss->get();
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  {
    driver::VisualCityDriver vcd(*dataset_, vcd_options);
    auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->succeeded, result->instances);
    EXPECT_GT(result->validation.checked, 0);
    EXPECT_EQ(result->validation.passed, result->validation.checked);
  }

  // A second driver over the same dataset finds it staged and writes nothing.
  const int64_t written = store.stats().bytes_written;
  driver::VisualCityDriver again(*dataset_, vcd_options);
  auto result = again.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->validation.passed, result->validation.checked);
  EXPECT_EQ(store.stats().bytes_written, written);
  std::filesystem::remove_all(store_options.root);
}

TEST_F(CoordinatorTest, DriverRepairsTheFleetOutsideTheMeasuredWindow) {
  // Every dispatch crashes its worker (the last one is spared), so the
  // second batch starts with lost workers. Their respawn, Setup and cache
  // warm-start are provisioning: none of it may run inside a "vcd:" span,
  // the measured window.
  fault::FaultProfile profile;
  profile.name = "crash-every-dispatch";
  profile.prob(fault::Site::kWorkerCrash) = 1.0;
  fault::FaultInjector faults(profile, 17);

  driver::VcdOptions vcd_options;
  vcd_options.workers = 3;
  vcd_options.faults = &faults;
  vcd_options.trace = true;
  const size_t first_event = trace::EventCount();
  driver::VisualCityDriver vcd(*dataset_, vcd_options);
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  for (queries::QueryId id : {queries::QueryId::kQ2c, queries::QueryId::kQ1}) {
    auto result = vcd.RunQueryBatch(*engine, id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->succeeded, result->instances);
  }
  std::vector<trace::Event> events = trace::EventsSince(first_event);
  trace::SetEnabled(false);

  std::vector<const trace::Event*> windows;
  std::vector<const trace::Event*> repairs;
  for (const trace::Event& event : events) {
    if (event.name.rfind("vcd:", 0) == 0) windows.push_back(&event);
    if (event.name == "dist:heal" || event.name == "dist:cache_ship") {
      repairs.push_back(&event);
    }
  }
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_FALSE(repairs.empty()) << "the second batch found no worker lost";
  for (const trace::Event* repair : repairs) {
    for (const trace::Event* window : windows) {
      bool overlaps = repair->start_us < window->start_us + window->dur_us &&
                      window->start_us < repair->start_us + repair->dur_us;
      EXPECT_FALSE(overlaps) << repair->name << " runs inside " << window->name;
    }
  }
}

TEST_F(CoordinatorTest, FaultedDriverRunCompletesWithValidResults) {
  // The acceptance scenario: a cluster-profile run that kills workers
  // mid-batch still completes with validated results via re-dispatch.
  auto profile = fault::ProfileByName("cluster");
  ASSERT_TRUE(profile.ok());
  fault::FaultInjector faults(*profile, 0x5EED);

  driver::VcdOptions vcd_options;
  vcd_options.workers = 3;
  vcd_options.validate = true;
  vcd_options.faults = &faults;
  driver::VisualCityDriver vcd(*dataset_, vcd_options);

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->succeeded, result->instances);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
}

}  // namespace
}  // namespace visualroad::dist
