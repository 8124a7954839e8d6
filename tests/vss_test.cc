#include "storage/vss.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"
#include "systems/vdbms.h"
#include "video/codec/codec.h"
#include "video/codec/gop_cache.h"

namespace visualroad::storage {
namespace {

namespace fs = std::filesystem;

using video::codec::EncodedVideo;

bool SameBitstream(const EncodedVideo& a, const EncodedVideo& b) {
  if (a.FrameCount() != b.FrameCount()) return false;
  for (int i = 0; i < a.FrameCount(); ++i) {
    const auto& fa = a.frames[static_cast<size_t>(i)];
    const auto& fb = b.frames[static_cast<size_t>(i)];
    if (fa.keyframe != fb.keyframe || fa.qp != fb.qp || fa.data != fb.data) {
      return false;
    }
  }
  return true;
}

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

class VssTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified so parallel ctest shards of this binary (each its own
    // process, each with counter_ == 0) never share a temp tree.
    root_ = (fs::temp_directory_path() /
             ("vr_vss_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))).string();
    StoreOptions store_options;
    store_options.root = root_;
    store_options.num_nodes = 4;
    store_options.replication = 2;
    store_options.block_size = 512;
    store_options.metrics_label = "vss_test";
    auto store = ShardedStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::make_unique<ShardedStore>(std::move(store).value());
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  VssOptions Options() {
    VssOptions options;
    options.store = store_.get();
    return options;
  }

  std::unique_ptr<VideoStorageService> OpenService(const VssOptions& options) {
    auto service = VideoStorageService::Open(options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  std::string root_;
  std::unique_ptr<ShardedStore> store_;
  static int counter_;
};

int VssTest::counter_ = 0;

TEST_F(VssTest, IngestReadBackIsByteIdentical) {
  auto vss = OpenService(Options());
  EncodedVideo original = MakeStream(12, 64, 36, 4, 1);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->width, 64);
  EXPECT_EQ(entry->identity, video::codec::StreamIdentity(original));
  auto read = vss->ReadVideo("cam");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(SameBitstream(**read, original));
  EXPECT_EQ(vss->stats().base_hits, 1);

  // A second read is served from the resident stream cache.
  auto again = vss->ReadVideo("cam");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), read->get());
  EXPECT_EQ(vss->stats().resident_hits, 1);
}

TEST_F(VssTest, RangeReadFetchesOnlyCoveringSegments) {
  VssOptions options = Options();
  options.resident_bytes = 0;  // Force every read to the store.
  auto vss = OpenService(options);
  EncodedVideo original = MakeStream(16, 64, 36, 4, 2);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  StoreStats store_before = store_->stats();
  // Frames [5, 9) live in GOPs 1 and 2 (of four 4-frame GOPs).
  auto range = vss->ReadRange("cam", 5, 4);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->first_frame, 4);
  ASSERT_EQ(range->video->FrameCount(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(range->video->frames[static_cast<size_t>(i)].data,
              original.frames[static_cast<size_t>(i + 4)].data);
  }
  VssStats stats = vss->stats();
  EXPECT_EQ(stats.range_reads, 1);
  EXPECT_EQ(stats.segments_fetched, 2);
  EXPECT_LT(stats.bytes_fetched, static_cast<int64_t>(original.TotalBytes()));
  // The store served a strict subset of the stream object's blocks.
  EXPECT_GT(store_->stats().partial_reads, store_before.partial_reads);
}

TEST_F(VssTest, ReadRangeValidatesBounds) {
  auto vss = OpenService(Options());
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(8, 32, 32, 4, 3)).ok());
  EXPECT_FALSE(vss->ReadRange("cam", -1, 2).ok());
  EXPECT_FALSE(vss->ReadRange("cam", 0, 0).ok());
  EXPECT_FALSE(vss->ReadRange("cam", 6, 3).ok());
  EXPECT_FALSE(vss->ReadRange("missing", 0, 1).ok());
  EXPECT_EQ(vss->ReadVideo("missing").status().code(), StatusCode::kNotFound);
}

TEST_F(VssTest, CatalogAndVariantsSurviveReopen) {
  EncodedVideo original = MakeStream(12, 64, 36, 4, 5);
  {
    auto vss = OpenService(Options());
    ASSERT_TRUE(vss->Ingest("cam", original).ok());
  }
  auto reopened = OpenService(Options());
  EXPECT_TRUE(reopened->Contains("cam"));
  auto entry = reopened->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->frame_count, 12);
  EXPECT_EQ(entry->segments.size(), 3u);
  // The identity of the ingested bitstream survives the reopen.
  EXPECT_EQ(entry->identity, video::codec::StreamIdentity(original));

  auto read = reopened->ReadVideo("cam");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(SameBitstream(**read, original));
  EXPECT_EQ(video::codec::StreamIdentity(**read), entry->identity);
}

/// The start of a catalog of one video "x" of `frames` frames whose segment
/// count follows.
ByteWriter CatalogOfOneVideo(uint32_t frames = 0) {
  ByteWriter writer;
  writer.U32(0x32565256);  // "VRV2".
  writer.U32(1);           // Videos.
  writer.Str("x");
  writer.U8(0);    // Profile.
  writer.I32(64);  // Width.
  writer.I32(36);  // Height.
  writer.F64(15);  // Fps.
  writer.U32(frames);
  writer.U64(0);  // Identity.
  return writer;
}

TEST_F(VssTest, SegmentCountBeyondCatalogIsDataLoss) {
  ByteWriter writer = CatalogOfOneVideo();
  writer.U32(0xFFFFFFFFu);  // Segments.
  ASSERT_EQ(writer.bytes().size(), 46u);
  ASSERT_TRUE(store_->Put("vss/catalog.vrvc", writer.bytes()).ok());
  auto service = VideoStorageService::Open(Options());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kDataLoss);
}

TEST_F(VssTest, SegmentFrameCountBeyondSegmentIsDataLoss) {
  // A catalog and a 12-byte segment that both claim 2^28 frames. The
  // segment header's count is bounded by the bytes after it, so the read
  // fails cleanly instead of sizing 2^28 frames.
  constexpr uint32_t kFrames = 1u << 28;
  ByteWriter segment;
  segment.U32(0x31475356);  // "VSG1".
  segment.U32(0);           // First frame.
  segment.U32(kFrames);
  ASSERT_TRUE(store_->Put("vss/x/base.var", segment.bytes()).ok());
  ByteWriter writer = CatalogOfOneVideo(kFrames);
  writer.U32(1);   // Segments.
  writer.U64(0);   // Offset.
  writer.U64(12);  // Length.
  writer.U32(0);   // First frame.
  writer.U32(kFrames);
  ASSERT_TRUE(store_->Put("vss/catalog.vrvc", writer.bytes()).ok());
  auto vss = OpenService(Options());
  auto read = vss->ReadVideo("x");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST_F(VssTest, SegmentOutsideItsReadIsDataLoss) {
  // Two segments listed out of order: the read spans from the first one's
  // offset to the last one's end, which holds none of the first segment's
  // bytes. The extent is DataLoss, never a parse past the bytes read.
  ByteWriter segment;
  segment.U32(0x31475356);  // "VSG1".
  segment.U32(0);           // First frame.
  segment.U32(0);           // Frames.
  std::vector<uint8_t> object = segment.bytes();
  object.insert(object.end(), segment.bytes().begin(), segment.bytes().end());
  ASSERT_TRUE(store_->Put("vss/x/base.var", object).ok());
  ByteWriter writer = CatalogOfOneVideo();
  writer.U32(2);  // Segments.
  for (uint64_t offset : {12u, 0u}) {
    writer.U64(offset);
    writer.U64(12);  // Length.
    writer.U32(0);   // First frame.
    writer.U32(0);   // Frames.
  }
  ASSERT_TRUE(store_->Put("vss/catalog.vrvc", writer.bytes()).ok());
  auto vss = OpenService(Options());
  auto read = vss->ReadVideo("x");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST_F(VssTest, TieredCatalogOpensEmptyAndRestages) {
  // A catalog of the earlier tiered layout ("VRVS" magic) opens as an empty
  // service, so the next staging ingests over it.
  ByteWriter tiered;
  tiered.U32(0x53565256);  // "VRVS".
  tiered.U64(0);           // Its use clock.
  tiered.U32(1);           // Videos, whose records are not read.
  ASSERT_TRUE(store_->Put("vss/catalog.vrvc", tiered.bytes()).ok());
  EncodedVideo original = MakeStream(8, 64, 36, 4, 16);
  {
    auto vss = OpenService(Options());
    EXPECT_FALSE(vss->Contains("cam"));
    ASSERT_TRUE(vss->Ingest("cam", original).ok());
  }
  auto reopened = OpenService(Options());
  auto read = reopened->ReadVideo("cam");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(SameBitstream(**read, original));

  // Any other magic, and a truncated catalog, are still DataLoss.
  ByteWriter unknown;
  unknown.U32(0x12345678);
  unknown.U32(0);
  ASSERT_TRUE(store_->Put("vss/catalog.vrvc", unknown.bytes()).ok());
  EXPECT_EQ(VideoStorageService::Open(Options()).status().code(),
            StatusCode::kDataLoss);
  ByteWriter truncated = CatalogOfOneVideo(8);
  ASSERT_TRUE(store_->Put("vss/catalog.vrvc", truncated.bytes()).ok());
  EXPECT_EQ(VideoStorageService::Open(Options()).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(VssTest, SingleFlightCoalescesConcurrentTranscodes) {
  // Concurrent cold readers of one stream share a single fetch of its
  // segments; every reader gets the same bitstream.
  auto vss = OpenService(Options());
  EncodedVideo original = MakeStream(12, 64, 36, 4, 6);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const EncodedVideo>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto read = vss->ReadVideo("cam");
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      results[static_cast<size_t>(t)] = *read;
    });
  }
  for (std::thread& thread : threads) thread.join();
  VssStats stats = vss->stats();
  EXPECT_EQ(stats.base_hits, 1);
  EXPECT_EQ(stats.segments_fetched, 3);
  EXPECT_EQ(stats.bytes_fetched, vss->Describe("cam")->Bytes());
  EXPECT_EQ(stats.resident_hits, kThreads - 1);
  ASSERT_NE(results[0], nullptr);
  EXPECT_TRUE(SameBitstream(*results[0], original));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)], results[0]);
  }
}

TEST_F(VssTest, ConcurrentReadsSurviveDatanodeFailure) {
  VssOptions options = Options();
  options.resident_bytes = 0;  // Every range read goes to the store.
  auto vss = OpenService(options);
  EncodedVideo original = MakeStream(16, 64, 36, 4, 7);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  // A datanode goes dark; replication must absorb it as fail-overs, never
  // as query failures, for range reads and whole-stream reads alike.
  ASSERT_TRUE(store_->DisableNode(0).ok());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        int first = (t * 2 + round) % 12;
        auto range = vss->ReadRange("cam", first, 4);
        ASSERT_TRUE(range.ok()) << range.status().ToString();
        ASSERT_GE(first, range->first_frame);
        const auto& got =
            range->video->frames[static_cast<size_t>(first - range->first_frame)];
        EXPECT_EQ(got.data, original.frames[static_cast<size_t>(first)].data);
      }
      auto whole = vss->ReadVideo("cam");
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      EXPECT_TRUE(SameBitstream(**whole, original));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(store_->stats().replica_failovers, 0);
}

TEST_F(VssTest, IngestReplacesVideoAndDropsStaleVariants) {
  auto vss = OpenService(Options());
  EncodedVideo first = MakeStream(12, 64, 36, 4, 10);
  ASSERT_TRUE(vss->Ingest("cam", first).ok());
  ASSERT_TRUE(vss->ReadVideo("cam").ok());  // Makes the stream resident.

  EncodedVideo second = MakeStream(8, 64, 36, 4, 11);
  ASSERT_TRUE(vss->Ingest("cam", second).ok());
  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->frame_count, 8);
  EXPECT_EQ(entry->identity, video::codec::StreamIdentity(second));
  auto read = vss->ReadVideo("cam");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(SameBitstream(**read, second));
  // The stale resident stream was dropped: the read fetched the new one.
  EXPECT_EQ(vss->stats().resident_hits, 0);
  EXPECT_EQ(vss->stats().base_hits, 2);
}

TEST_F(VssTest, RejectsInvalidIngestAndOptions) {
  auto vss = OpenService(Options());
  EXPECT_FALSE(vss->Ingest("", MakeStream(4, 32, 32, 4, 12)).ok());
  EXPECT_FALSE(vss->Ingest("cam", EncodedVideo{}).ok());
  VssOptions bad;
  EXPECT_FALSE(VideoStorageService::Open(bad).ok());  // No store.
}

}  // namespace
}  // namespace visualroad::storage

namespace visualroad::driver {
namespace {

namespace fs = std::filesystem;

/// Acceptance: a full engine pass through the storage service produces
/// byte-identical results to the in-memory path, for all three engines.
TEST(VssEngineTest, EngineResultsByteIdenticalThroughStorage) {
  sim::CityConfig config;
  config.scale_factor = 1;
  config.width = 96;
  config.height = 54;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 99;
  auto dataset = PrepareDataset(config);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  std::string root = (fs::temp_directory_path() / "vr_vss_engines").string();
  storage::StoreOptions store_options;
  store_options.root = root;
  store_options.block_size = 8192;
  store_options.metrics_label = "vss_engines";
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());
  storage::VssOptions vss_options;
  vss_options.store = &*store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();
  ASSERT_TRUE(IngestDatasetVss(*dataset, **vss).ok());

  queries::QueryInstance q1;
  q1.id = queries::QueryId::kQ1;
  q1.video_index = 0;
  q1.q1_t1 = 0.1;
  q1.q1_t2 = 0.4;
  q1.q1_rect = {8, 8, 72, 40};
  queries::QueryInstance q2a = q1;
  q2a.id = queries::QueryId::kQ2a;

  for (auto make : {systems::MakeBatchEngine, systems::MakePipelineEngine,
                    systems::MakeCascadeEngine}) {
    systems::EngineOptions plain;
    plain.threads = 2;
    video::codec::GopCache plain_cache;
    plain.gop_cache = &plain_cache;
    systems::EngineOptions stored = plain;
    video::codec::GopCache stored_cache;
    stored.gop_cache = &stored_cache;
    stored.vss = vss->get();
    auto engine_plain = make(plain);
    auto engine_stored = make(stored);
    for (const queries::QueryInstance& instance : {q1, q2a}) {
      if (!engine_plain->Supports(instance.id)) continue;
      auto a = engine_plain->Execute(instance, *dataset,
                                     systems::OutputMode::kWrite, "");
      auto b = engine_stored->Execute(instance, *dataset,
                                      systems::OutputMode::kWrite, "");
      ASSERT_TRUE(a.ok()) << engine_plain->name() << ": "
                          << a.status().ToString();
      ASSERT_TRUE(b.ok()) << engine_stored->name() << ": "
                          << b.status().ToString();
      ASSERT_EQ(a->video.FrameCount(), b->video.FrameCount());
      for (int i = 0; i < a->video.FrameCount(); ++i) {
        EXPECT_EQ(a->video.frames[static_cast<size_t>(i)].data,
                  b->video.frames[static_cast<size_t>(i)].data)
            << engine_plain->name() << " frame " << i;
      }
    }
    // The storage-backed engine actually read through the service.
    EXPECT_GT((*vss)->stats().reads + (*vss)->stats().range_reads, 0);
  }
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace visualroad::driver
