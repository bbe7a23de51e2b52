// Binary serialization of the trained scheduler models.
//
// The paper trains its predictors offline and ships them with the runtime; this
// repo does the same so that every bench binary (and any downstream user) loads
// the one trained bundle instead of re-running the offline pass. The format is a
// simple versioned little-endian dump keyed by the TrainConfig fingerprint.
#ifndef SRC_PIPELINE_SERIALIZE_H_
#define SRC_PIPELINE_SERIALIZE_H_

#include <optional>
#include <string>

#include "src/sched/scheduler.h"

namespace litereconfig {

// Writes the bundle to a temporary file in path's directory and renames it
// over path; returns false, leaving no temporary behind, on I/O failure.
bool SaveTrainedModels(const TrainedModels& models, uint64_t fingerprint,
                       const std::string& path);

// Loads the bundle if the file exists, parses, and matches the fingerprint.
// `space` must outlive the returned models.
std::optional<TrainedModels> LoadTrainedModels(const std::string& path,
                                               uint64_t fingerprint,
                                               const BranchSpace& space);

}  // namespace litereconfig

#endif  // SRC_PIPELINE_SERIALIZE_H_
