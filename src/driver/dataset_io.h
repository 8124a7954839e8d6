#ifndef VISUALROAD_DRIVER_DATASET_IO_H_
#define VISUALROAD_DRIVER_DATASET_IO_H_

#include <string>

#include "simulation/generator.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"

namespace visualroad::driver {

/// Persists a generated dataset: one container file per camera video plus a
/// dataset manifest carrying the configuration and camera placements. This
/// is how the VCD stages inputs on storage before offline benchmarking
/// (Section 3.2) — pregenerated datasets (Table 2) are shipped this way.
Status SaveDataset(const sim::Dataset& dataset, const std::string& directory);

/// Loads a dataset saved by SaveDataset, reconstructing ground truth from
/// the embedded "GTRU" tracks.
StatusOr<sim::Dataset> LoadDataset(const std::string& directory);

/// Stores a dataset into a sharded (HDFS-like) store, for the distributed
/// offline mode.
Status SaveDatasetSharded(const sim::Dataset& dataset,
                          storage::ShardedStore& store);

/// Loads a dataset from a sharded store.
StatusOr<sim::Dataset> LoadDatasetSharded(const storage::ShardedStore& store);

/// Ingests every camera video of `dataset` into the storage service, named
/// CameraStreamName(camera_id). A stream the service already holds with the
/// same StreamIdentity is left untouched, so re-staging a dataset writes
/// nothing, and staging another dataset over a store replaces its streams.
Status IngestDatasetVss(const sim::Dataset& dataset,
                        storage::VideoStorageService& vss);

/// Serialises/parses the dataset manifest (config + camera placements).
std::vector<uint8_t> SerializeDatasetManifest(const sim::Dataset& dataset);
StatusOr<sim::Dataset> ParseDatasetManifest(const std::vector<uint8_t>& bytes);

}  // namespace visualroad::driver

#endif  // VISUALROAD_DRIVER_DATASET_IO_H_
