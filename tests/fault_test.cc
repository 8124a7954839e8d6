#include "common/fault.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"
#include "systems/video_source.h"
#include "video/codec/codec.h"

namespace visualroad::fault {
namespace {

TEST(FaultProfileTest, NamedProfilesResolve) {
  auto none = ProfileByName("none");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->any());
  for (const char* name : {"flaky", "lossy"}) {
    auto profile = ProfileByName(name);
    ASSERT_TRUE(profile.ok()) << name;
    EXPECT_TRUE(profile->any()) << name;
    EXPECT_EQ(profile->name, name);
  }
  auto bad = ProfileByName("catastrophic");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  auto profile = ProfileByName("flaky");
  ASSERT_TRUE(profile.ok());
  FaultInjector a(*profile, 42);
  FaultInjector b(*profile, 42);
  for (int i = 0; i < 256; ++i) {
    for (int s = 0; s < kSiteCount; ++s) {
      Site site = static_cast<Site>(s);
      EXPECT_EQ(a.ShouldInject(site), b.ShouldInject(site))
          << SiteName(site) << " draw " << i;
    }
  }
  EXPECT_GT(a.injected(Site::kStoreReadFlap), 0);
}

TEST(FaultInjectorTest, SitesDrawIndependentStreams) {
  // Extra draws at one site must not shift another site's schedule: each
  // site owns its own substream. Injector `b` interleaves heavy rtp_loss
  // traffic; the store_read_flap outcomes still match injector `a`.
  auto profile = ProfileByName("flaky");
  ASSERT_TRUE(profile.ok());
  FaultInjector a(*profile, 7);
  FaultInjector b(*profile, 7);
  std::vector<bool> from_a;
  for (int i = 0; i < 128; ++i) from_a.push_back(a.ShouldInject(Site::kStoreReadFlap));
  for (int i = 0; i < 128; ++i) {
    for (int extra = 0; extra < 3; ++extra) b.ShouldInject(Site::kRtpLoss);
    EXPECT_EQ(b.ShouldInject(Site::kStoreReadFlap), from_a[static_cast<size_t>(i)])
        << "draw " << i;
  }
}

TEST(FaultInjectorTest, ZeroProbabilityStillConsumesTheStream) {
  // A "none" run draws the same stream as a faulty one, so flipping one
  // site's probability later cannot shift the schedule (stream stability).
  auto none = ProfileByName("none");
  ASSERT_TRUE(none.ok());
  FaultInjector injector(*none, 3);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(injector.ShouldInject(Site::kRtpLoss));
  }
  EXPECT_EQ(injector.draws(Site::kRtpLoss), 64);
  EXPECT_EQ(injector.injected(Site::kRtpLoss), 0);
}

/// The vr_retry_giveups_total sample of `site`.
double Giveups(Site site) {
  return metrics::MetricsRegistry::Global()
      .GetCounter("vr_retry_giveups_total", "",
                  "site=\"" + std::string(SiteName(site)) + "\"")
      .Value();
}

TEST(RetryPolicyTest, FirstTrySuccessMakesOneAttempt) {
  RetryPolicy policy(Site::kStoreReadFlap, RetryOptions{});
  int attempts = 0;
  int64_t retries_before = ThreadRetries();
  EXPECT_TRUE(policy.Run([] { return Status::Ok(); }, &attempts).ok());
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(ThreadRetries(), retries_before);
}

TEST(RetryPolicyTest, TransientFailureRetriesUntilSuccess) {
  RetryPolicy policy(Site::kStoreReadFlap, RetryOptions{});
  int calls = 0;
  int attempts = 0;
  int64_t retries_before = ThreadRetries();
  Status status = policy.Run(
      [&] {
        return ++calls < 3 ? Status::IoError("transient") : Status::Ok();
      },
      &attempts);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(ThreadRetries() - retries_before, 2);
}

TEST(RetryPolicyTest, NonRetryableErrorReturnsImmediately) {
  RetryPolicy policy(Site::kStoreReadFlap, RetryOptions{});
  int attempts = 0;
  Status status =
      policy.Run([] { return Status::NotFound("no such file"); }, &attempts);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(attempts, 1);
}

TEST(RetryPolicyTest, ExhaustedAttemptsGiveUpWithLastError) {
  RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::microseconds(100);
  options.max_backoff = std::chrono::microseconds(200);
  RetryPolicy policy(Site::kStoreReadFlap, options);
  int attempts = 0;
  double giveups_before = Giveups(Site::kStoreReadFlap);
  Status status =
      policy.Run([] { return Status::IoError("still down"); }, &attempts);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(Giveups(Site::kStoreReadFlap) - giveups_before, 1);
}

TEST(RetryPolicyTest, DeadlineBoundsTheRetryTail) {
  RetryOptions options;
  options.max_attempts = 1000;
  options.initial_backoff = std::chrono::microseconds(2000);
  options.max_backoff = std::chrono::microseconds(2000);
  options.deadline = std::chrono::microseconds(5000);
  RetryPolicy policy(Site::kStoreReadFlap, options);
  int attempts = 0;
  auto start = std::chrono::steady_clock::now();
  Status status =
      policy.Run([] { return Status::IoError("forever"); }, &attempts);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start).count();
  EXPECT_FALSE(status.ok());
  EXPECT_LT(attempts, 1000);
  // The deadline (5 ms) caps total sleeping; generous margin for CI noise.
  EXPECT_LT(elapsed, 1.0);
}

TEST(RetryPolicyTest, RetryableCodeSet) {
  EXPECT_TRUE(IsRetryable(StatusCode::kIoError));
  EXPECT_TRUE(IsRetryable(StatusCode::kDataLoss));
  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kOutOfRange));
  EXPECT_FALSE(IsRetryable(StatusCode::kFailedPrecondition));
}

}  // namespace
}  // namespace visualroad::fault

namespace visualroad::storage {
namespace {

namespace fs = std::filesystem;

using video::codec::EncodedVideo;

EncodedVideo MakeStream(int frames, int width, int height, int gop_length,
                        uint64_t seed) {
  video::Video video;
  video.fps = 15;
  for (int f = 0; f < frames; ++f) {
    video::Frame frame(width, height);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        double value = 128 + 90 * std::sin((x + f * 2 + seed) * 0.11) *
                                 std::cos((y + f) * 0.07);
        frame.SetPixel(x, y, static_cast<uint8_t>(value), 120, 134);
      }
    }
    video.frames.push_back(std::move(frame));
  }
  video::codec::EncoderConfig config;
  config.qp = 20;
  config.gop_length = gop_length;
  auto encoded = video::codec::ParallelEncode(video, config);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return *encoded;
}

bool SameBitstream(const EncodedVideo& a, const EncodedVideo& b) {
  if (a.FrameCount() != b.FrameCount()) return false;
  for (int i = 0; i < a.FrameCount(); ++i) {
    if (a.frames[static_cast<size_t>(i)].data !=
        b.frames[static_cast<size_t>(i)].data) {
      return false;
    }
  }
  return true;
}

class FaultServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified so parallel ctest shards of this binary (each its own
    // process, each with counter_ == 0) never share a temp tree.
    root_ = (fs::temp_directory_path() /
             ("vr_fault_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))).string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::unique_ptr<ShardedStore> OpenStore(const std::string& subdir,
                                          fault::FaultInjector* faults = nullptr) {
    StoreOptions options;
    options.root = root_ + "/" + subdir;
    options.block_size = 512;
    options.metrics_label = "fault_test";
    options.faults = faults;
    auto store = ShardedStore::Open(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::make_unique<ShardedStore>(std::move(store).value());
  }

  std::string root_;
  static int counter_;
};

int FaultServiceTest::counter_ = 0;

/// Acceptance: with faults disabled, attaching a "none" injector changes no
/// result byte anywhere — store reads, VSS reads and the online feed all
/// match a build with no injector at all.
TEST_F(FaultServiceTest, FaultsOffIsByteIdenticalToNoInjector) {
  auto none = fault::ProfileByName("none");
  ASSERT_TRUE(none.ok());
  fault::FaultInjector injector(*none, 11);

  EncodedVideo original = MakeStream(12, 64, 36, 4, 21);

  auto plain_store = OpenStore("plain");
  auto faulty_store = OpenStore("faulty", &injector);

  VssOptions plain_options;
  plain_options.store = plain_store.get();
  auto plain = VideoStorageService::Open(plain_options);
  ASSERT_TRUE(plain.ok());
  VssOptions faulty_options;
  faulty_options.store = faulty_store.get();
  auto faulty = VideoStorageService::Open(faulty_options);
  ASSERT_TRUE(faulty.ok());

  ASSERT_TRUE((*plain)->Ingest("cam", original).ok());
  ASSERT_TRUE((*faulty)->Ingest("cam", original).ok());

  auto a = (*plain)->ReadVideo("cam");
  auto b = (*faulty)->ReadVideo("cam");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(SameBitstream(**a, **b));

  // The online feed delivers the identical frame sequence.
  systems::VideoSource clean =
      systems::VideoSource::Online(&original, 10000.0);
  systems::VideoSource injected =
      systems::VideoSource::Online(&original, 10000.0, &injector);
  while (!clean.AtEnd()) {
    auto a = clean.Next();
    auto b = injected.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ((*a)->data, (*b)->data);
  }
  EXPECT_EQ(injected.frames_degraded(), 0);
}

/// Tentpole: a flaky-profile run against the storage read path completes
/// with the same bytes as a clean run, absorbing injected flaps as retries
/// — and the same seed reproduces the same retry count.
TEST_F(FaultServiceTest, FlakyReadsRetryToTheSameBytes) {
  auto flaky = fault::ProfileByName("flaky");
  ASSERT_TRUE(flaky.ok());
  flaky->slow_read_delay = std::chrono::microseconds(10);

  std::vector<uint8_t> payload(4000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 31) & 0xFF);
  }

  auto run = [&](uint64_t seed) {
    fault::FaultInjector injector(*flaky, seed);
    auto store = OpenStore("run" + std::to_string(counter_++), &injector);
    EXPECT_TRUE(store->Put("blob", payload).ok());
    for (int i = 0; i < 10; ++i) {
      auto loaded = store->Get("blob");
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      if (loaded.ok()) {
        EXPECT_EQ(*loaded, payload);
      }
    }
    return store->stats();
  };

  StoreStats first = run(77);
  StoreStats second = run(77);
  // Injected flaps produced retries; the deterministic schedule makes the
  // two same-seed runs agree exactly.
  EXPECT_GT(first.read_retries + first.replica_failovers, 0);
  EXPECT_EQ(first.read_retries, second.read_retries);
  EXPECT_EQ(first.replica_failovers, second.replica_failovers);
  EXPECT_EQ(first.write_replacements, second.write_replacements);
}

/// Satellite: Ingest replacing a video while readers stream it. Readers may
/// observe the old or the new video, or a clean error — never a crash, hang,
/// or torn read.
TEST_F(FaultServiceTest, IngestDuringConcurrentReadsStaysCoherent) {
  auto store = OpenStore("ingest_race");
  VssOptions options;
  options.store = store.get();
  options.resident_bytes = 0;
  auto vss = VideoStorageService::Open(options);
  ASSERT_TRUE(vss.ok());
  EncodedVideo first = MakeStream(8, 64, 36, 4, 41);
  EncodedVideo second = MakeStream(12, 64, 36, 4, 42);
  ASSERT_TRUE((*vss)->Ingest("cam", first).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> incoherent{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto range = (*vss)->ReadRange("cam", 0, 4);
        if (!range.ok()) continue;  // Clean error during replacement is fine.
        if (range->video->FrameCount() < 4) ++incoherent;
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE((*vss)->Ingest("cam", round % 2 == 0 ? second : first).ok());
  }
  stop.store(true);
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(incoherent.load(), 0);
  // The final catalog state reads back cleanly.
  auto read = (*vss)->ReadVideo("cam");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(SameBitstream(**read, first));
}

/// Single-flight leaders that fail must propagate the failure to their
/// waiters instead of leaving them blocked (or silently re-leading forever).
TEST_F(FaultServiceTest, SingleFlightWaitersObserveLeaderFailure) {
  auto store = OpenStore("leader_fail");
  VssOptions options;
  options.store = store.get();
  options.resident_bytes = 0;
  auto vss = VideoStorageService::Open(options);
  ASSERT_TRUE(vss.ok());
  ASSERT_TRUE((*vss)->Ingest("cam", MakeStream(8, 64, 36, 4, 51)).ok());

  // Kill enough datanodes that the fetch cannot be served: every leader's
  // fetch fails, and every waiter must see that failure.
  for (int node = 0; node < 3; ++node) {
    ASSERT_TRUE(store->DisableNode(node).ok());
  }
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto read = (*vss)->ReadVideo("cam");
      if (!read.ok()) ++errors;
    });
  }
  for (std::thread& thread : threads) thread.join();
  // No thread hung; every read surfaced the storage failure.
  EXPECT_EQ(errors.load(), kThreads);

  // Recovery: once the nodes return, the same read succeeds.
  for (int node = 0; node < 3; ++node) {
    ASSERT_TRUE(store->EnableNode(node).ok());
  }
  auto read = (*vss)->ReadVideo("cam");
  EXPECT_TRUE(read.ok()) << read.status().ToString();
}

}  // namespace
}  // namespace visualroad::storage
