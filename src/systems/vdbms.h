#ifndef VISUALROAD_SYSTEMS_VDBMS_H_
#define VISUALROAD_SYSTEMS_VDBMS_H_

#include <memory>
#include <string>
#include <vector>

#include "queries/plan.h"
#include "queries/reference.h"
#include "queries/semantic_cache.h"

namespace visualroad::video::codec {
class GopCache;
}  // namespace visualroad::video::codec

namespace visualroad::storage {
class VideoStorageService;
}  // namespace visualroad::storage

namespace visualroad::systems {

/// Benchmark execution modes (Section 3.2). Offline gives the engine random
/// access to whole files; online exposes a throttled forward-only iterator.
enum class ExecutionMode {
  kOffline = 0,
  kOnline = 1,
};

/// Result handling modes (Section 3.2). Write mode persists each result so
/// the VCD can validate it (persist time included in the measured runtime);
/// streaming mode discards results.
enum class OutputMode {
  kWrite = 0,
  kStreaming = 1,
};

/// Engine configuration shared by all three systems.
struct EngineOptions {
  /// Materialisation budget for the batch engine; exceeding it triggers
  /// chunked re-decoding (the "memory thrashing" regime of Section 6.2).
  int64_t memory_budget_bytes = int64_t{192} << 20;
  /// Hard ceiling: a single materialised output larger than this fails with
  /// ResourceExhausted (the batch engine's Q4 behaviour in the paper).
  int64_t memory_fail_bytes = int64_t{768} << 20;
  /// Worker threads for batch-parallel stages.
  int threads = 4;
  /// Reference detector settings; engines override input_size per their
  /// architecture.
  vision::DetectorOptions detector;
  /// Threads for GOP-parallel output encoding (and validation decodes).
  /// 0 means the codec pool default (hardware concurrency).
  int codec_threads = 0;
  /// Decoded-GOP cache the engine routes decodes through. Null selects the
  /// process-wide GopCache::Global(); tests inject private instances.
  video::codec::GopCache* gop_cache = nullptr;
  /// Storage-backed offline mode: when set, engines read input bitstreams
  /// (whole or as GOP-aligned frame ranges) from the storage service
  /// instead of the dataset's in-memory containers. The service returns the
  /// ingested bitstream byte-for-byte, so query results are identical
  /// either way. Borrowed; must outlive the engine.
  storage::VideoStorageService* vss = nullptr;
  /// Semantic result store for materialized inference outputs. Null turns
  /// semantic caching off for the batch and cascade engines; the pipeline
  /// engine then keeps a private cache. Results are byte-identical to the
  /// uncached path by construction (both render from the same unfiltered
  /// detections). Borrowed; engines under one server share a single cache,
  /// which is what enables cross-tenant reuse. Tests inject private
  /// instances.
  queries::SemanticCache* semantic_cache = nullptr;
};

/// The outcome of one query instance.
struct QueryOutput {
  /// True when a result artefact was produced (write mode).
  bool produced = false;
  /// Encoded result video (write mode, video-producing queries).
  video::codec::EncodedVideo video;
  /// Per-frame detections (Q2(c)/Q6(a)/Q7), for semantic validation.
  std::vector<std::vector<vision::Detection>> detections;
  /// Path of the container written in write mode (empty otherwise).
  std::string written_path;
};

/// Execution counters exposed for tests and ablation benches.
struct EngineStats {
  int64_t frames_decoded = 0;
  int64_t frames_encoded = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t chunked_redecodes = 0;
  int64_t cnn_frames_full = 0;
  int64_t cnn_frames_cheap = 0;
  int64_t cnn_frames_skipped = 0;

  /// Field-wise accumulation, for summing per-call windows into a batch
  /// aggregate (the VCD merges in instance-index order so parallel and
  /// serial execution report identically).
  void Add(const EngineStats& other) {
    frames_decoded += other.frames_decoded;
    frames_encoded += other.frames_encoded;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    chunked_redecodes += other.chunked_redecodes;
    cnn_frames_full += other.cnn_frames_full;
    cnn_frames_cheap += other.cnn_frames_cheap;
    cnn_frames_skipped += other.cnn_frames_skipped;
  }
};

/// The architecture-agnostic interface every benchmarked VDBMS implements
/// (the paper expresses each query in a system-agnostic way; this interface
/// is this repository's equivalent contract).
class Vdbms {
 public:
  virtual ~Vdbms() = default;

  virtual const char* name() const = 0;

  /// Whether this system can express the query at all (NoScope-like engines
  /// support only a narrow slice; see Figure 5).
  virtual bool Supports(queries::QueryId id) const = 0;

  /// Whether Execute() may be called concurrently from multiple threads.
  /// The VCD's parallel batch mode only fans instances out to engines that
  /// opt in; stateful engines (caches keyed on shared maps, running
  /// counters without synchronisation) stay on the serial path.
  virtual bool ConcurrentSafe() const { return false; }

  /// Executes one query instance against the dataset. In write mode the
  /// result is encoded and persisted under `output_dir`.
  ///
  /// `call_stats` (optional) receives the engine counter movement of exactly
  /// this call: engines thread a per-call counter set through their stages
  /// and fold it into the cumulative stats() at the end, so the window is
  /// correct even when Execute() calls overlap on one engine — unlike a
  /// stats() before/after snapshot, which conflates whatever else ran in
  /// between. Filled (or left zero) on both success and failure.
  virtual StatusOr<QueryOutput> Execute(const queries::QueryInstance& instance,
                                        const sim::Dataset& dataset, OutputMode mode,
                                        const std::string& output_dir,
                                        EngineStats* call_stats = nullptr) = 0;

  /// Human-readable execution plan for `instance` without executing it
  /// (`vcd --explain`). Reports predicate pushdown windows, semantic-cache
  /// temperature, and the stages that run, with the prefilters the measured
  /// selectivity disabled. Engines that do not plan return "".
  virtual std::string Explain(const queries::QueryInstance& instance,
                              const sim::Dataset& dataset) {
    (void)instance;
    (void)dataset;
    return "";
  }

  /// Drops caches and transient state; the VCD may call this between
  /// batches ("a VDBMS may optionally quiesce or restart upon completing a
  /// batch", Section 3.2).
  virtual void Quiesce() {}

  /// Cumulative execution counters for this engine instance. Pure virtual:
  /// every engine maintains real counters, so a silent all-zeros default can
  /// never mask a missing implementation.
  virtual EngineStats stats() const = 0;
};

/// Factory functions for the three comparison engines (see DESIGN.md for the
/// architectural correspondence to Scanner, LightDB, and NoScope).
std::unique_ptr<Vdbms> MakeBatchEngine(const EngineOptions& options);
std::unique_ptr<Vdbms> MakePipelineEngine(const EngineOptions& options);
std::unique_ptr<Vdbms> MakeCascadeEngine(const EngineOptions& options);

/// Shared helpers for engine implementations.
namespace detail {

/// The traffic asset a query instance addresses, or an error.
StatusOr<const sim::VideoAsset*> InputAsset(const queries::QueryInstance& instance,
                                            const sim::Dataset& dataset);

/// Decoded size of one frame in bytes (YUV420).
int64_t FrameBytes(int width, int height);

/// Input frames a query instance consumes: Q8 scans every traffic stream,
/// Q9/Q10 read their whole panoramic group, everything else reads one
/// traffic stream. Feeds the VCD's throughput metrics and the query
/// server's goodput report.
int64_t InputFrameCount(const queries::QueryInstance& instance,
                        const sim::Dataset& dataset);

}  // namespace detail

}  // namespace visualroad::systems

#endif  // VISUALROAD_SYSTEMS_VDBMS_H_
