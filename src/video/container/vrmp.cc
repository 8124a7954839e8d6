#include "video/container/vrmp.h"

#include <cstring>
#include <fstream>

namespace visualroad::video::container {

namespace {

constexpr uint32_t kVersion = 1;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutF64(std::vector<uint8_t>& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Sequential little-endian reader with bounds checking.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool Read(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool ReadU32(uint32_t& v) {
    uint8_t b[4];
    if (!Read(b, 4)) return false;
    v = b[0] | (b[1] << 8) | (b[2] << 16) | (static_cast<uint32_t>(b[3]) << 24);
    return true;
  }
  bool ReadU64(uint64_t& v) {
    uint32_t lo, hi;
    if (!ReadU32(lo) || !ReadU32(hi)) return false;
    v = lo | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
  bool ReadF64(double& v) {
    uint64_t bits;
    if (!ReadU64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool ReadBytes(std::vector<uint8_t>& out, size_t n) {
    if (pos_ + n > size_) return false;
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ >= size_; }
  size_t Remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void PutBox(std::vector<uint8_t>& out, const char type[4],
            const std::vector<uint8_t>& payload) {
  out.insert(out.end(), type, type + 4);
  PutU64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

const MetadataTrack* Container::FindTrack(const std::string& kind) const {
  for (const MetadataTrack& track : tracks) {
    if (track.kind == kind) return &track;
  }
  return nullptr;
}

std::vector<uint8_t> Mux(const Container& container) {
  const codec::EncodedVideo& video = container.video;
  std::vector<uint8_t> out;

  std::vector<uint8_t> magic;
  PutU32(magic, kVersion);
  PutBox(out, "VRMP", magic);

  std::vector<uint8_t> prop;
  PutU32(prop, static_cast<uint32_t>(video.profile));
  PutU32(prop, static_cast<uint32_t>(video.width));
  PutU32(prop, static_cast<uint32_t>(video.height));
  PutF64(prop, video.fps);
  PutU32(prop, static_cast<uint32_t>(video.frames.size()));
  PutBox(out, "PROP", prop);

  std::vector<uint8_t> index;
  for (const codec::EncodedFrame& frame : video.frames) {
    PutU64(index, frame.data.size());
    index.push_back(frame.keyframe ? 1 : 0);
    index.push_back(frame.qp);
  }
  PutBox(out, "INDX", index);

  std::vector<uint8_t> mdat;
  for (const codec::EncodedFrame& frame : video.frames) {
    mdat.insert(mdat.end(), frame.data.begin(), frame.data.end());
  }
  PutBox(out, "MDAT", mdat);

  for (const MetadataTrack& track : container.tracks) {
    std::vector<uint8_t> payload;
    char kind[4] = {' ', ' ', ' ', ' '};
    for (size_t i = 0; i < 4 && i < track.kind.size(); ++i) kind[i] = track.kind[i];
    payload.insert(payload.end(), kind, kind + 4);
    payload.insert(payload.end(), track.payload.begin(), track.payload.end());
    PutBox(out, "TRAK", payload);
  }
  return out;
}

StatusOr<Container> Demux(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes.data(), bytes.size());
  Container container;
  bool seen_magic = false, seen_prop = false;
  uint32_t frame_count = 0;
  std::vector<uint64_t> frame_sizes;
  std::vector<uint8_t> key_flags, qps, mdat;

  while (!reader.AtEnd()) {
    char type[4];
    uint64_t size;
    if (!reader.Read(type, 4) || !reader.ReadU64(size)) {
      return Status::DataLoss("truncated VRMP box header");
    }
    if (size > reader.Remaining()) {
      return Status::DataLoss("VRMP box size exceeds file size");
    }
    std::vector<uint8_t> payload;
    if (!reader.ReadBytes(payload, static_cast<size_t>(size))) {
      return Status::DataLoss("truncated VRMP box payload");
    }
    ByteReader body(payload.data(), payload.size());

    if (std::memcmp(type, "VRMP", 4) == 0) {
      uint32_t version;
      if (!body.ReadU32(version)) return Status::DataLoss("bad VRMP magic box");
      if (version != kVersion) {
        return Status::InvalidArgument("unsupported VRMP version");
      }
      seen_magic = true;
    } else if (std::memcmp(type, "PROP", 4) == 0) {
      uint32_t profile, width, height;
      double fps;
      if (!body.ReadU32(profile) || !body.ReadU32(width) || !body.ReadU32(height) ||
          !body.ReadF64(fps) || !body.ReadU32(frame_count)) {
        return Status::DataLoss("bad PROP box");
      }
      if (profile > 1) return Status::InvalidArgument("unknown codec profile");
      container.video.profile = static_cast<codec::Profile>(profile);
      container.video.width = static_cast<int>(width);
      container.video.height = static_cast<int>(height);
      container.video.fps = fps;
      seen_prop = true;
    } else if (std::memcmp(type, "INDX", 4) == 0) {
      size_t count = payload.size() / 10;
      frame_sizes.resize(count);
      key_flags.resize(count);
      qps.resize(count);
      for (size_t i = 0; i < count; ++i) {
        if (!body.ReadU64(frame_sizes[i]) || !body.Read(&key_flags[i], 1) ||
            !body.Read(&qps[i], 1)) {
          return Status::DataLoss("bad INDX box");
        }
      }
    } else if (std::memcmp(type, "MDAT", 4) == 0) {
      mdat = std::move(payload);
    } else if (std::memcmp(type, "TRAK", 4) == 0) {
      if (payload.size() < 4) return Status::DataLoss("bad TRAK box");
      MetadataTrack track;
      track.kind.assign(payload.begin(), payload.begin() + 4);
      track.payload.assign(payload.begin() + 4, payload.end());
      container.tracks.push_back(std::move(track));
    }
    // Unknown boxes are skipped for forward compatibility.
  }

  if (!seen_magic) return Status::InvalidArgument("missing VRMP magic box");
  if (!seen_prop) return Status::DataLoss("missing PROP box");
  // PROP's frame count is trusted only once the INDX box, whose entry count
  // its payload size bounds, agrees with it.
  if (frame_sizes.size() != frame_count) {
    return Status::DataLoss("INDX entry count does not match PROP frame count");
  }
  container.video.frames.resize(frame_count);

  size_t offset = 0;
  for (size_t i = 0; i < frame_sizes.size(); ++i) {
    if (offset + frame_sizes[i] > mdat.size()) {
      return Status::DataLoss("MDAT shorter than the frame index claims");
    }
    codec::EncodedFrame& frame = container.video.frames[i];
    frame.keyframe = key_flags[i] != 0;
    frame.qp = qps[i];
    frame.data.assign(mdat.begin() + offset, mdat.begin() + offset + frame_sizes[i]);
    offset += frame_sizes[i];
  }
  return container;
}

Status WriteContainerFile(const Container& container, const std::string& path) {
  std::vector<uint8_t> bytes = Mux(container);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<Container> ReadContainerFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (!file.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("read failed: " + path);
  }
  return Demux(bytes);
}

}  // namespace visualroad::video::container
