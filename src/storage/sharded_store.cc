#include "storage/sharded_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/serialize.h"

namespace visualroad::storage {

namespace fs = std::filesystem;

namespace {

Status WriteFileBytes(const std::string& path, const uint8_t* data, size_t size) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  if (size > 0) {
    file.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(size));
  }
  if (!file) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 &&
      !file.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("read failed: " + path);
  }
  return bytes;
}

/// Reads [offset, offset + length) of a replica file whose total size must
/// be `expected_size` (a short file means a torn or foreign replica).
Status ReadFileSlice(const std::string& path, int64_t expected_size,
                     int64_t offset, int64_t length, uint8_t* out) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  if (static_cast<int64_t>(file.tellg()) != expected_size) {
    return Status::DataLoss("replica size mismatch: " + path);
  }
  file.seekg(offset);
  if (length > 0 &&
      !file.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(length))) {
    return Status::IoError("read failed: " + path);
  }
  return Status::Ok();
}

}  // namespace

ShardedStore::ShardedStore(StoreOptions options)
    : options_(std::move(options)),
      stats_(std::make_unique<AtomicStats>()),
      mutex_(std::make_unique<std::shared_mutex>()) {
  auto& registry = metrics::MetricsRegistry::Global();
  const std::string labels = "store=\"" + options_.metrics_label + "\"";
  instruments_.blocks_written =
      &registry.GetCounter("vr_store_blocks_written_total",
                           "Replicated blocks written to datanodes.", labels);
  instruments_.blocks_read = &registry.GetCounter(
      "vr_store_blocks_read_total", "Blocks (or block slices) read.", labels);
  instruments_.bytes_written = &registry.GetCounter(
      "vr_store_bytes_written_total",
      "Physical bytes written, replication included.", labels);
  instruments_.bytes_read = &registry.GetCounter(
      "vr_store_bytes_read_total", "Bytes delivered to readers.", labels);
  instruments_.replica_failovers = &registry.GetCounter(
      "vr_store_replica_failovers_total",
      "Replicas skipped (down or unreadable) during block reads.", labels);
  instruments_.partial_reads = &registry.GetCounter(
      "vr_store_partial_reads_total",
      "Range reads that touched a strict subset of a file's blocks.", labels);
  instruments_.read_retries = &registry.GetCounter(
      "vr_store_read_retries_total",
      "Block-read attempts beyond the first (transient failure, retried).",
      labels);
  instruments_.write_replacements = &registry.GetCounter(
      "vr_store_write_replacements_total",
      "Replica writes that failed mid-block and were re-placed.", labels);
  instruments_.bytes_reclaimed = &registry.GetCounter(
      "vr_store_bytes_reclaimed_total",
      "Physical bytes reclaimed by dropping replicas.", labels);
  instruments_.bytes_stored = &registry.GetGauge(
      "vr_store_bytes_stored",
      "Physical bytes currently stored, replication included.", labels);
}

StatusOr<ShardedStore> ShardedStore::Open(const StoreOptions& options) {
  if (options.root.empty()) return Status::InvalidArgument("store root is empty");
  if (options.num_nodes < 1) return Status::InvalidArgument("need at least 1 node");
  if (options.block_size < 16) return Status::InvalidArgument("block size too small");
  StoreOptions normalized = options;
  normalized.replication = std::clamp(options.replication, 1, options.num_nodes);

  ShardedStore store(normalized);
  std::error_code ec;
  fs::create_directories(normalized.root, ec);
  for (int n = 0; n < normalized.num_nodes; ++n) {
    fs::create_directories(store.NodeDir(n), ec);
    if (ec) return Status::IoError("cannot create datanode dir: " + store.NodeDir(n));
  }
  if (fs::exists(store.ManifestPath())) {
    VR_RETURN_IF_ERROR(store.LoadManifestLocked());
  }
  return store;
}

std::string ShardedStore::NodeDir(int node) const {
  return options_.root + "/node" + std::to_string(node);
}

std::string ShardedStore::BlockPath(int node, uint64_t block_id) const {
  return NodeDir(node) + "/blk_" + std::to_string(block_id);
}

std::string ShardedStore::ManifestPath() const {
  return options_.root + "/manifest.vrsm";
}

// --- Writer --------------------------------------------------------------

ShardedStore::Writer::Writer(Writer&& other) noexcept
    : store_(other.store_),
      name_(std::move(other.name_)),
      pending_(std::move(other.pending_)),
      blocks_(std::move(other.blocks_)),
      size_(other.size_) {
  other.store_ = nullptr;
}

ShardedStore::Writer& ShardedStore::Writer::operator=(Writer&& other) noexcept {
  if (this != &other) {
    Abandon();
    store_ = other.store_;
    name_ = std::move(other.name_);
    pending_ = std::move(other.pending_);
    blocks_ = std::move(other.blocks_);
    size_ = other.size_;
    other.store_ = nullptr;
  }
  return *this;
}

ShardedStore::Writer::~Writer() { Abandon(); }

void ShardedStore::Writer::Abandon() {
  if (store_ == nullptr) return;
  store_->DropBlocks(blocks_);
  store_ = nullptr;
}

Status ShardedStore::Writer::Append(const uint8_t* data, size_t size) {
  if (store_ == nullptr) return Status::FailedPrecondition("writer is closed");
  const size_t block_size = static_cast<size_t>(store_->options_.block_size);
  size_t consumed = 0;
  while (consumed < size) {
    size_t take = std::min(block_size - pending_.size(), size - consumed);
    pending_.insert(pending_.end(), data + consumed, data + consumed + take);
    consumed += take;
    if (pending_.size() == block_size) {
      VR_ASSIGN_OR_RETURN(BlockPlacement block,
                          store_->WriteBlock(pending_.data(), pending_.size()));
      blocks_.push_back(std::move(block));
      pending_.clear();
    }
  }
  size_ += static_cast<int64_t>(size);
  return Status::Ok();
}

Status ShardedStore::Writer::Close() {
  if (store_ == nullptr) return Status::FailedPrecondition("writer is closed");
  if (!pending_.empty() || blocks_.empty()) {
    VR_ASSIGN_OR_RETURN(BlockPlacement block,
                        store_->WriteBlock(pending_.data(), pending_.size()));
    blocks_.push_back(std::move(block));
    pending_.clear();
  }
  FileEntry entry;
  entry.size = size_;
  entry.blocks = std::move(blocks_);
  ShardedStore* store = store_;
  store_ = nullptr;  // The file now owns the blocks, even if Install fails.
  return store->Install(name_, std::move(entry));
}

StatusOr<ShardedStore::Writer> ShardedStore::OpenWriter(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty file name");
  std::shared_lock lock(*mutex_);
  int available = options_.num_nodes - static_cast<int>(disabled_nodes_.size());
  if (available < 1) return Status::ResourceExhausted("no datanodes available");
  return Writer(this, name);
}

StatusOr<BlockPlacement> ShardedStore::WriteBlock(const uint8_t* data,
                                                  size_t size) {
  std::unique_lock lock(*mutex_);
  // Prune expired flap windows while we hold the exclusive lock anyway.
  const auto now = std::chrono::steady_clock::now();
  for (auto it = flapped_nodes_.begin(); it != flapped_nodes_.end();) {
    it = (it->second <= now) ? flapped_nodes_.erase(it) : std::next(it);
  }
  int available = 0;
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (!NodeDownLocked(n)) ++available;
  }
  if (available < 1) return Status::ResourceExhausted("no datanodes available");
  int replication = std::min(options_.replication, available);

  BlockPlacement block;
  block.block_id = next_block_id_++;
  block.size = static_cast<int64_t>(size);
  // Round-robin placement over healthy nodes.
  while (static_cast<int>(block.replicas.size()) < replication) {
    int node = next_node_;
    next_node_ = (next_node_ + 1) % options_.num_nodes;
    if (NodeDownLocked(node)) continue;
    if (std::find(block.replicas.begin(), block.replicas.end(), node) !=
        block.replicas.end()) {
      continue;
    }
    block.replicas.push_back(node);
  }

  // Write each replica; a failed replica write (real, or an injected
  // kStoreWriteFail) re-places that replica on another healthy node rather
  // than failing the whole Put mid-block.
  auto write_replica = [&](int node) -> Status {
    if (options_.faults != nullptr &&
        options_.faults->ShouldInject(fault::Site::kStoreWriteFail)) {
      return Status::IoError("injected replica write failure on node " +
                             std::to_string(node));
    }
    return WriteFileBytes(BlockPath(node, block.block_id), data, size);
  };
  auto abort_block = [&](size_t written) {
    // Remove replicas written before the failure (plus any torn file at the
    // failed slot); nothing was accounted yet, so removal needs no stats.
    for (size_t r = 0; r <= written && r < block.replicas.size(); ++r) {
      std::error_code ec;
      fs::remove(BlockPath(block.replicas[r], block.block_id), ec);
    }
  };
  for (size_t i = 0; i < block.replicas.size(); ++i) {
    std::set<int> tried;
    Status write_status = write_replica(block.replicas[i]);
    tried.insert(block.replicas[i]);
    while (!write_status.ok()) {
      int replacement = -1;
      for (int probe = 0; probe < options_.num_nodes; ++probe) {
        int candidate = next_node_;
        next_node_ = (next_node_ + 1) % options_.num_nodes;
        if (NodeDownLocked(candidate) || tried.count(candidate) ||
            std::find(block.replicas.begin(), block.replicas.end(),
                      candidate) != block.replicas.end()) {
          continue;
        }
        replacement = candidate;
        break;
      }
      if (replacement < 0) {
        abort_block(i);
        return write_status;
      }
      block.replicas[i] = replacement;
      tried.insert(replacement);
      write_status = write_replica(replacement);
      if (write_status.ok()) {
        stats_->write_replacements.fetch_add(1, std::memory_order_relaxed);
        instruments_.write_replacements->Increment();
      }
    }
  }
  const int64_t physical =
      static_cast<int64_t>(size) * static_cast<int64_t>(block.replicas.size());
  stats_->blocks_written.fetch_add(1, std::memory_order_relaxed);
  stats_->bytes_written.fetch_add(physical, std::memory_order_relaxed);
  stats_->bytes_stored.fetch_add(physical, std::memory_order_relaxed);
  instruments_.blocks_written->Increment();
  instruments_.bytes_written->Increment(static_cast<double>(physical));
  instruments_.bytes_stored->Add(static_cast<double>(physical));
  return block;
}

Status ShardedStore::Install(const std::string& name, FileEntry entry) {
  std::unique_lock lock(*mutex_);
  auto it = files_.find(name);
  if (it != files_.end()) {
    DropBlocks(it->second.blocks);
    files_.erase(it);
  }
  files_[name] = std::move(entry);
  return SaveManifestLocked();
}

void ShardedStore::DropBlocks(const std::vector<BlockPlacement>& blocks) const {
  int64_t reclaimed = 0;
  for (const BlockPlacement& block : blocks) {
    for (int node : block.replicas) {
      std::error_code ec;
      if (fs::remove(BlockPath(node, block.block_id), ec) && !ec) {
        reclaimed += block.size;
      }
    }
  }
  if (reclaimed > 0) {
    stats_->bytes_stored.fetch_sub(reclaimed, std::memory_order_relaxed);
    stats_->bytes_reclaimed.fetch_add(reclaimed, std::memory_order_relaxed);
    instruments_.bytes_stored->Add(-static_cast<double>(reclaimed));
    instruments_.bytes_reclaimed->Increment(static_cast<double>(reclaimed));
  }
}

bool ShardedStore::NodeDownLocked(int node) const {
  if (disabled_nodes_.count(node)) return true;
  auto it = flapped_nodes_.find(node);
  return it != flapped_nodes_.end() &&
         it->second > std::chrono::steady_clock::now();
}

Status ShardedStore::Put(const std::string& name,
                         const std::vector<uint8_t>& bytes) {
  VR_ASSIGN_OR_RETURN(Writer writer, OpenWriter(name));
  VR_RETURN_IF_ERROR(writer.Append(bytes));
  return writer.Close();
}

// --- Read paths ----------------------------------------------------------

Status ShardedStore::ReadBlockSlice(const BlockPlacement& block,
                                    int64_t slice_offset, int64_t slice_length,
                                    uint8_t* out, const std::string& name) const {
  // One pass over the replicas: fail over on a down node, an injected
  // transient flap, or an unreadable file.
  auto read_once = [&]() -> Status {
    for (int node : block.replicas) {
      bool down = NodeDownLocked(node);
      if (!down && options_.faults != nullptr &&
          options_.faults->ShouldInject(fault::Site::kStoreReadFlap)) {
        down = true;  // Transient: the next attempt may see it healthy.
      }
      if (!down && options_.faults != nullptr) {
        options_.faults->MaybeDelay(fault::Site::kStoreSlowRead);
      }
      if (down ||
          !ReadFileSlice(BlockPath(node, block.block_id), block.size,
                         slice_offset, slice_length, out)
               .ok()) {
        stats_->replica_failovers.fetch_add(1, std::memory_order_relaxed);
        instruments_.replica_failovers->Increment();
        continue;
      }
      stats_->blocks_read.fetch_add(1, std::memory_order_relaxed);
      stats_->bytes_read.fetch_add(slice_length, std::memory_order_relaxed);
      instruments_.blocks_read->Increment();
      instruments_.bytes_read->Increment(static_cast<double>(slice_length));
      return Status::Ok();
    }
    return Status::DataLoss("all replicas unavailable for a block of " + name);
  };
  // Retry only when failures can actually heal (an injector is attached or
  // a flap window is active); permanently disabled nodes fail fast as
  // before. Note: retry sleeps run under the shared lock, which delays
  // writers but never other readers.
  if (options_.faults == nullptr && flapped_nodes_.empty()) return read_once();
  int attempts = 0;
  fault::RetryPolicy policy(fault::Site::kStoreReadFlap, options_.read_retry);
  Status status = policy.Run(read_once, &attempts);
  if (attempts > 1) {
    stats_->read_retries.fetch_add(attempts - 1, std::memory_order_relaxed);
    instruments_.read_retries->Increment(static_cast<double>(attempts - 1));
  }
  return status;
}

Status ShardedStore::Scan(
    const std::string& name,
    const std::function<Status(const uint8_t* data, size_t size)>& sink) const {
  std::shared_lock lock(*mutex_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  std::vector<uint8_t> buffer;
  for (const BlockPlacement& block : it->second.blocks) {
    buffer.resize(static_cast<size_t>(block.size));
    VR_RETURN_IF_ERROR(ReadBlockSlice(block, 0, block.size, buffer.data(), name));
    VR_RETURN_IF_ERROR(sink(buffer.data(), buffer.size()));
  }
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> ShardedStore::Get(const std::string& name) const {
  VR_ASSIGN_OR_RETURN(FileInfo info, Stat(name));
  std::vector<uint8_t> bytes;
  bytes.reserve(static_cast<size_t>(info.size));
  VR_RETURN_IF_ERROR(Scan(name, [&bytes](const uint8_t* data, size_t size) {
    bytes.insert(bytes.end(), data, data + size);
    return Status::Ok();
  }));
  return bytes;
}

StatusOr<std::vector<uint8_t>> ShardedStore::Read(const std::string& name,
                                                  int64_t offset,
                                                  int64_t length) const {
  if (offset < 0 || length < 0) return Status::OutOfRange("negative read range");
  std::shared_lock lock(*mutex_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  const FileEntry& entry = it->second;
  if (offset + length > entry.size) {
    return Status::OutOfRange("read past end of " + name);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(length));
  int64_t block_start = 0;
  int64_t out_pos = 0;
  size_t blocks_touched = 0;
  for (const BlockPlacement& block : entry.blocks) {
    int64_t block_end = block_start + block.size;
    int64_t slice_start = std::max(offset, block_start);
    int64_t slice_end = std::min(offset + length, block_end);
    if (slice_start < slice_end) {
      VR_RETURN_IF_ERROR(ReadBlockSlice(block, slice_start - block_start,
                                        slice_end - slice_start,
                                        bytes.data() + out_pos, name));
      out_pos += slice_end - slice_start;
      ++blocks_touched;
    }
    block_start = block_end;
    if (block_start >= offset + length) break;
  }
  if (blocks_touched < entry.blocks.size()) {
    stats_->partial_reads.fetch_add(1, std::memory_order_relaxed);
    instruments_.partial_reads->Increment();
  }
  return bytes;
}

// --- Catalog operations --------------------------------------------------

Status ShardedStore::Delete(const std::string& name) {
  std::unique_lock lock(*mutex_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::Ok();
  DropBlocks(it->second.blocks);
  files_.erase(it);
  return SaveManifestLocked();
}

std::vector<std::string> ShardedStore::List() const {
  std::shared_lock lock(*mutex_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, entry] : files_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

std::vector<int64_t> ShardedStore::NodeBytesForPrefix(
    const std::string& prefix) const {
  std::shared_lock lock(*mutex_);
  std::vector<int64_t> bytes(options_.num_nodes, 0);
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    for (const BlockPlacement& block : it->second.blocks) {
      for (int replica : block.replicas) {
        if (replica >= 0 && replica < options_.num_nodes) {
          bytes[replica] += block.size;
        }
      }
    }
  }
  return bytes;
}

StatusOr<ShardedStore::FileInfo> ShardedStore::Stat(const std::string& name) const {
  std::shared_lock lock(*mutex_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  return FileInfo{it->second.size, static_cast<int>(it->second.blocks.size())};
}

Status ShardedStore::DisableNode(int node) {
  if (node < 0 || node >= options_.num_nodes) {
    return Status::OutOfRange("no such node");
  }
  std::unique_lock lock(*mutex_);
  disabled_nodes_.insert(node);
  return Status::Ok();
}

Status ShardedStore::EnableNode(int node) {
  if (node < 0 || node >= options_.num_nodes) {
    return Status::OutOfRange("no such node");
  }
  std::unique_lock lock(*mutex_);
  disabled_nodes_.erase(node);
  flapped_nodes_.erase(node);
  return Status::Ok();
}

Status ShardedStore::FailDatanode(int node, std::chrono::milliseconds duration) {
  if (node < 0 || node >= options_.num_nodes) {
    return Status::OutOfRange("no such node");
  }
  if (duration.count() <= 0) {
    return Status::InvalidArgument("flap duration must be positive");
  }
  std::unique_lock lock(*mutex_);
  const auto now = std::chrono::steady_clock::now();
  for (auto it = flapped_nodes_.begin(); it != flapped_nodes_.end();) {
    it = (it->second <= now) ? flapped_nodes_.erase(it) : std::next(it);
  }
  auto expiry = now + duration;
  auto [it, inserted] = flapped_nodes_.emplace(node, expiry);
  if (!inserted && expiry > it->second) it->second = expiry;
  return Status::Ok();
}

StoreStats ShardedStore::stats() const {
  StoreStats out;
  out.blocks_written = stats_->blocks_written.load(std::memory_order_relaxed);
  out.blocks_read = stats_->blocks_read.load(std::memory_order_relaxed);
  out.bytes_written = stats_->bytes_written.load(std::memory_order_relaxed);
  out.bytes_read = stats_->bytes_read.load(std::memory_order_relaxed);
  out.replica_failovers =
      stats_->replica_failovers.load(std::memory_order_relaxed);
  out.partial_reads = stats_->partial_reads.load(std::memory_order_relaxed);
  out.read_retries = stats_->read_retries.load(std::memory_order_relaxed);
  out.write_replacements =
      stats_->write_replacements.load(std::memory_order_relaxed);
  out.bytes_stored = stats_->bytes_stored.load(std::memory_order_relaxed);
  out.bytes_reclaimed = stats_->bytes_reclaimed.load(std::memory_order_relaxed);
  return out;
}

// --- Manifest ------------------------------------------------------------

Status ShardedStore::SaveManifestLocked() const {
  ByteWriter writer;
  writer.U32(0x5652534D);  // "VRSM".
  writer.U64(next_block_id_);
  writer.U32(static_cast<uint32_t>(files_.size()));
  for (const auto& [name, entry] : files_) {
    writer.Str(name);
    writer.U64(static_cast<uint64_t>(entry.size));
    writer.U32(static_cast<uint32_t>(entry.blocks.size()));
    for (const BlockPlacement& block : entry.blocks) {
      writer.U64(block.block_id);
      writer.U64(static_cast<uint64_t>(block.size));
      writer.U32(static_cast<uint32_t>(block.replicas.size()));
      for (int node : block.replicas) writer.U32(static_cast<uint32_t>(node));
    }
  }
  const std::vector<uint8_t>& bytes = writer.bytes();
  return WriteFileBytes(ManifestPath(), bytes.data(), bytes.size());
}

Status ShardedStore::LoadManifestLocked() {
  // Smallest encodings: a file is an empty name, its size and a block count;
  // a block is its id, size and replica count; a replica is one node id.
  constexpr size_t kFileBytes = 4 + 8 + 4;
  constexpr size_t kBlockBytes = 8 + 8 + 4;
  constexpr size_t kReplicaBytes = 4;
  VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(ManifestPath()));
  ByteCursor cursor(bytes);
  if (cursor.U32() != 0x5652534D) {
    return Status::DataLoss("bad manifest magic");
  }
  next_block_id_ = cursor.U64();
  const uint32_t file_count = cursor.Count(kFileBytes);
  files_.clear();
  for (uint32_t f = 0; f < file_count && cursor.ok(); ++f) {
    std::string name = cursor.Str();
    FileEntry entry;
    entry.size = static_cast<int64_t>(cursor.U64());
    const uint32_t block_count = cursor.Count(kBlockBytes);
    for (uint32_t b = 0; b < block_count && cursor.ok(); ++b) {
      BlockPlacement block;
      block.block_id = cursor.U64();
      block.size = static_cast<int64_t>(cursor.U64());
      const uint32_t replica_count = cursor.Count(kReplicaBytes);
      for (uint32_t r = 0; r < replica_count && cursor.ok(); ++r) {
        block.replicas.push_back(static_cast<int>(cursor.U32()));
      }
      entry.blocks.push_back(std::move(block));
    }
    if (!cursor.ok()) break;
    files_[name] = std::move(entry);
  }
  if (!cursor.ok()) return Status::DataLoss("truncated manifest");
  return Status::Ok();
}

}  // namespace visualroad::storage
