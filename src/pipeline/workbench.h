// The shared experiment workbench used by the benches and examples.
//
// Holds one trained model bundle per device plus the train/validation datasets,
// each built on first use.
// The offline pass is expensive, so trained bundles are cached on disk (keyed by
// the TrainConfig fingerprint) under $LITERECONFIG_CACHE_DIR, defaulting to
// ./.litereconfig-cache — the first bench trains, the rest load.
#ifndef SRC_PIPELINE_WORKBENCH_H_
#define SRC_PIPELINE_WORKBENCH_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/pipeline/runner.h"
#include "src/pipeline/trainer.h"
#include "src/util/annotations.h"
#include "src/util/mutex.h"
#include "src/video/dataset.h"

namespace litereconfig {

// One cell of a protocol evaluation grid: a factory (each cell builds its own
// protocol instance, so cells never share mutable state) plus the evaluation
// configuration to run it under.
struct GridCell {
  std::function<std::unique_ptr<Protocol>()> make_protocol;
  EvalConfig config;
};

// Evaluates every cell against `validation`, fanning the cells out across
// `threads` workers (<= 0: the process default). Results are returned in cell
// order and are identical for every thread count: each cell is one
// OnlineRunner::Run, itself deterministic. Cells whose factory returns null
// yield a default (oom=false, zero) result.
std::vector<EvalResult> RunProtocolGrid(const Dataset& validation,
                                        const std::vector<GridCell>& cells,
                                        int threads = 0);

// A dataset split built on its first read and kept. A split is a pure function
// of its spec, so building it late moves no result.
class LazyDataset {
 public:
  LazyDataset(const DatasetSpec& spec, DatasetSplit split) : spec_(spec), split_(split) {}

  // The split, built by the first call. Every call, concurrent first calls
  // included, returns the same object.
  const Dataset& GetOrBuild() const;

 private:
  const DatasetSpec spec_;
  const DatasetSplit split_;
  mutable Mutex mutex_;
  mutable std::unique_ptr<Dataset> dataset_ LR_GUARDED_BY(mutex_);
};

class Workbench {
 public:
  // Process-wide workbench for a device; trains (or loads) on first use.
  static const Workbench& Get(DeviceType device);

  const TrainedModels& models() const { return models_; }

  // The cached bundle grafted onto BranchSpace::WithCpuFamily (see
  // src/sched/cpu_family.h). Derived lazily on first use — the graft is pure
  // arithmetic over the trained bundle, so it never touches the disk cache and
  // needs no cache invalidation.
  const TrainedModels& cpu_family_models() const;

  // The splits are built on first use: runs that never read one never pay
  // for it.
  const Dataset& train() const { return train_.GetOrBuild(); }
  const Dataset& validation() const { return validation_.GetOrBuild(); }
  const TrainConfig& train_config() const { return train_config_; }

  // The bench-scale configurations (also used by the examples).
  static TrainConfig DefaultTrainConfig(DeviceType device);
  static DatasetSpec DefaultValidationSpec();

 private:
  Workbench(DeviceType device);

  TrainConfig train_config_;
  LazyDataset train_;
  LazyDataset validation_;
  TrainedModels models_;
  // Lazily-derived CPU-family extension of models_ (guarded by a mutex in
  // cpu_family_models; null until first requested).
  mutable std::unique_ptr<TrainedModels> cpu_family_models_;
};

// Resolved cache directory (created on demand).
std::string CacheDir();

}  // namespace litereconfig

#endif  // SRC_PIPELINE_WORKBENCH_H_
