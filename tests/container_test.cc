#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/random.h"
#include "video/container/vrmp.h"

namespace visualroad::video::container {
namespace {

codec::EncodedVideo MakeEncodedVideo(int frames, uint64_t seed) {
  codec::EncodedVideo video;
  video.profile = codec::Profile::kHevcLike;
  video.width = 64;
  video.height = 36;
  video.fps = 24.0;
  Pcg32 rng(seed, 2);
  for (int i = 0; i < frames; ++i) {
    codec::EncodedFrame frame;
    frame.keyframe = i % 5 == 0;
    frame.qp = static_cast<uint8_t>(20 + (i % 10));
    size_t size = 10 + rng.NextBounded(300);
    frame.data.resize(size);
    for (uint8_t& b : frame.data) b = static_cast<uint8_t>(rng.NextBounded(256));
    video.frames.push_back(std::move(frame));
  }
  return video;
}

TEST(VrmpTest, MuxDemuxRoundTrip) {
  Container container;
  container.video = MakeEncodedVideo(12, 51);
  container.tracks.push_back({"WVTT", {'W', 'E', 'B', 'V', 'T', 'T'}});
  container.tracks.push_back({"GTRU", {1, 2, 3, 4, 5}});

  auto parsed = Demux(Mux(container));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->video.profile, container.video.profile);
  EXPECT_EQ(parsed->video.width, 64);
  EXPECT_EQ(parsed->video.height, 36);
  EXPECT_DOUBLE_EQ(parsed->video.fps, 24.0);
  ASSERT_EQ(parsed->video.frames.size(), container.video.frames.size());
  for (size_t i = 0; i < container.video.frames.size(); ++i) {
    EXPECT_EQ(parsed->video.frames[i].keyframe, container.video.frames[i].keyframe);
    EXPECT_EQ(parsed->video.frames[i].qp, container.video.frames[i].qp);
    EXPECT_EQ(parsed->video.frames[i].data, container.video.frames[i].data);
  }
  ASSERT_EQ(parsed->tracks.size(), 2u);
  EXPECT_EQ(parsed->tracks[0].kind, "WVTT");
  EXPECT_EQ(parsed->tracks[1].payload.size(), 5u);
}

TEST(VrmpTest, FindTrackLocatesByKind) {
  Container container;
  container.video = MakeEncodedVideo(1, 52);
  container.tracks.push_back({"GTRU", {9}});
  EXPECT_NE(container.FindTrack("GTRU"), nullptr);
  EXPECT_EQ(container.FindTrack("WVTT"), nullptr);
}

TEST(VrmpTest, EmptyVideoRoundTrips) {
  Container container;
  container.video.width = 8;
  container.video.height = 8;
  auto parsed = Demux(Mux(container));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->video.frames.empty());
}

TEST(VrmpTest, RejectsGarbage) {
  std::vector<uint8_t> garbage = {'n', 'o', 't', 'a', 'b', 'o', 'x'};
  EXPECT_FALSE(Demux(garbage).ok());
}

TEST(VrmpTest, RejectsTruncatedFile) {
  Container container;
  container.video = MakeEncodedVideo(4, 53);
  std::vector<uint8_t> bytes = Mux(container);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(Demux(bytes).ok());
}

TEST(VrmpTest, RejectsMissingMagic) {
  Container container;
  container.video = MakeEncodedVideo(1, 54);
  std::vector<uint8_t> bytes = Mux(container);
  // Corrupt the magic box type.
  bytes[0] = 'X';
  EXPECT_FALSE(Demux(bytes).ok());
}

TEST(VrmpTest, SkipsUnknownBoxes) {
  Container container;
  container.video = MakeEncodedVideo(2, 55);
  std::vector<uint8_t> bytes = Mux(container);
  // Append an unknown box: type "ZZZZ", size 3, payload "abc".
  const char type[] = {'Z', 'Z', 'Z', 'Z'};
  bytes.insert(bytes.end(), type, type + 4);
  uint64_t size = 3;
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<uint8_t>(size >> (8 * i)));
  bytes.push_back('a');
  bytes.push_back('b');
  bytes.push_back('c');
  auto parsed = Demux(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->video.frames.size(), 2u);
}

TEST(VrmpTest, FileRoundTrip) {
  Container container;
  container.video = MakeEncodedVideo(6, 56);
  container.tracks.push_back({"WVTT", {'x'}});
  std::string path =
      (std::filesystem::temp_directory_path() / "vrmp_test.vrmp").string();
  ASSERT_TRUE(WriteContainerFile(container, path).ok());
  auto loaded = ReadContainerFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->video.frames.size(), 6u);
  EXPECT_EQ(loaded->tracks.size(), 1u);
  std::remove(path.c_str());
}

TEST(VrmpTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadContainerFile("/nonexistent/dir/file.vrmp").ok());
}

TEST(VrmpTest, PropFrameCountBeyondIndexIsDataLoss) {
  std::vector<uint8_t> bytes = Mux(Container());
  // PROP follows the 16-byte VRMP box; after its 12-byte header, the last
  // U32 of its 24-byte payload is the frame count. Claim 2^32-1 frames
  // against an empty index.
  ASSERT_EQ(std::string(bytes.begin() + 16, bytes.begin() + 20), "PROP");
  std::fill(bytes.begin() + 48, bytes.begin() + 52, 0xFF);
  auto parsed = Demux(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(VrmpTest, IndexMdatMismatchRejected) {
  Container container;
  container.video = MakeEncodedVideo(3, 57);
  std::vector<uint8_t> bytes = Mux(container);
  // Find the MDAT box and shrink its declared size by rebuilding: easier to
  // corrupt the INDX count by truncating one frame's bytes from MDAT. We
  // instead mux a container whose last frame we enlarge after muxing the
  // index — emulate by chopping the final byte off the file (MDAT payload).
  bytes.pop_back();
  EXPECT_FALSE(Demux(bytes).ok());
}

}  // namespace
}  // namespace visualroad::video::container
