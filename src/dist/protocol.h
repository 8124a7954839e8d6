#ifndef VISUALROAD_DIST_PROTOCOL_H_
#define VISUALROAD_DIST_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "queries/params.h"
#include "queries/semantic_cache.h"
#include "simulation/city.h"
#include "systems/vdbms.h"
#include "video/codec/codec.h"
#include "vision/miniyolo.h"

namespace visualroad::dist {

/// Everything a worker needs to reconstruct the coordinator's execution
/// environment. Dataset generation is deterministic in (CityConfig, codec
/// config), so shipping the configuration instead of the video corpus keeps
/// Setup frames small and guarantees the worker's inputs are byte-identical
/// to the coordinator's.
struct WorkerSetup {
  sim::CityConfig config;
  /// Codec settings the dataset was generated with.
  video::codec::EncoderConfig codec;
  /// Engine to host, by Vdbms::name() ("BatchEngine", "PipelineEngine",
  /// "CascadeEngine"; the lowercase CLI aliases also resolve).
  std::string engine = "PipelineEngine";
  /// Scalar engine configuration (pointer members — vss, caches — stay
  /// local to each process; the worker hosts its own GOP and semantic
  /// caches, which are byte-identical by contract).
  systems::EngineOptions engine_options;
  /// Reference detector configuration; every field rides the wire because
  /// detection output feeds byte-identity.
  vision::DetectorOptions detector;
  /// Storage staging: when non-empty the worker attaches read-only to the
  /// ShardedStore rooted here (the coordinator's staged dataset + VSS
  /// catalog), loads its corpus from the store instead of regenerating
  /// pixels, and reads its engine inputs through the store's VSS. The store
  /// geometry fields mirror the coordinator's StoreOptions so block
  /// placement and manifests agree across processes.
  std::string store_root;
  int store_nodes = 4;
  int store_replication = 2;
  int64_t store_block_size = int64_t{1} << 20;
};

std::vector<uint8_t> EncodeWorkerSetup(const WorkerSetup& setup);
StatusOr<WorkerSetup> DecodeWorkerSetup(const std::vector<uint8_t>& bytes);

/// One query instance tagged with its index in the coordinator's batch, so
/// results merge back into batch order regardless of which worker ran them.
struct RangeItem {
  int index = 0;
  queries::QueryInstance instance;
};

/// An ExecuteRange request: a sub-range of the batch plus the output
/// contract the coordinator's driver was given.
struct ExecuteRangeRequest {
  systems::OutputMode mode = systems::OutputMode::kWrite;
  std::string output_dir;
  std::vector<RangeItem> items;
};

std::vector<uint8_t> EncodeExecuteRequest(const ExecuteRangeRequest& request);
StatusOr<ExecuteRangeRequest> DecodeExecuteRequest(
    const std::vector<uint8_t>& bytes);

/// Per-instance outcome shipped back from a worker. `outcome` mirrors the
/// driver's three-way split.
struct InstanceResult {
  int index = 0;
  enum Outcome : uint8_t { kSucceeded = 0, kUnsupported = 1, kFailed = 2 };
  uint8_t outcome = kSucceeded;
  bool resource_exhausted = false;
  std::string error;
  systems::EngineStats stats;
  /// Worker-measured execution seconds for this instance; summed into
  /// DistBatchStats::worker_busy_seconds.
  double exec_seconds = 0.0;
  systems::QueryOutput output;
};

std::vector<uint8_t> EncodeExecuteResponse(
    const std::vector<InstanceResult>& results);
StatusOr<std::vector<InstanceResult>> DecodeExecuteResponse(
    const std::vector<uint8_t>& bytes);

/// Semantic-cache shipping payload (kCacheExport response / kCacheImport
/// request): a U32 count of ready entries, each in the layout the cache
/// persists (queries::WriteSemanticEntry: key, geometry, then per-frame
/// detections), so the wire and on-store representations cannot drift apart.
std::vector<uint8_t> EncodeCacheEntries(
    const std::vector<std::shared_ptr<const queries::SemanticEntry>>& entries);
StatusOr<std::vector<queries::SemanticEntry>> DecodeCacheEntries(
    const std::vector<uint8_t>& bytes);

}  // namespace visualroad::dist

#endif  // VISUALROAD_DIST_PROTOCOL_H_
