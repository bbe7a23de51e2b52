#include "src/pipeline/workbench.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "src/pipeline/serialize.h"
#include "src/sched/cpu_family.h"
#include "src/util/mutex.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace litereconfig {

std::vector<EvalResult> RunProtocolGrid(const Dataset& validation,
                                        const std::vector<GridCell>& cells,
                                        int threads) {
  return ThreadPool::Shared().ParallelMap(
      cells.size(),
      [&](size_t i) {
        std::unique_ptr<Protocol> protocol = cells[i].make_protocol();
        if (protocol == nullptr) {
          return EvalResult{};
        }
        return OnlineRunner::Run(*protocol, validation, cells[i].config);
      },
      ResolveThreadCount(threads));
}

std::string CacheDir() {
  const char* env = std::getenv("LITERECONFIG_CACHE_DIR");
  std::string dir = env != nullptr ? env : "./.litereconfig-cache";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

const Dataset& LazyDataset::GetOrBuild() const {
  {
    MutexLock lock(mutex_);
    if (dataset_ != nullptr) {
      return *dataset_;
    }
  }
  // Built with no lock held, so this lock never nests another. A racing first
  // read may build its own copy; the first one stored is the one every read
  // returns.
  auto built = std::make_unique<Dataset>(BuildDataset(spec_, split_));
  MutexLock lock(mutex_);
  if (dataset_ == nullptr) {
    dataset_ = std::move(built);
  }
  return *dataset_;
}

TrainConfig Workbench::DefaultTrainConfig(DeviceType device) {
  TrainConfig config;
  config.device = device;
  return config;
}

DatasetSpec Workbench::DefaultValidationSpec() {
  return DatasetSpec{/*base_seed=*/42, /*num_videos=*/30, /*frames_per_video=*/150};
}

Workbench::Workbench(DeviceType device)
    : train_config_(DefaultTrainConfig(device)),
      train_(train_config_.train_spec, DatasetSplit::kTrain),
      validation_(DefaultValidationSpec(), DatasetSplit::kVal) {
  const BranchSpace& space = BranchSpace::Default();
  uint64_t fingerprint = train_config_.Fingerprint();
  std::string path = CacheDir() + "/models_" +
                     std::string(GetDeviceProfile(device).name) + "_" +
                     StrFormat("%016llx", static_cast<unsigned long long>(fingerprint)) +
                     ".bin";
  if (auto loaded = LoadTrainedModels(path, fingerprint, space)) {
    models_ = std::move(*loaded);
    return;
  }
  std::fprintf(stderr,
               "[litereconfig] training scheduler models for %s (one-time, cached "
               "at %s)...\n",
               std::string(GetDeviceProfile(device).name).c_str(), path.c_str());
  models_ = OfflineTrainer::Train(train_config_, space);
  if (!SaveTrainedModels(models_, fingerprint, path)) {
    std::fprintf(stderr, "[litereconfig] warning: could not write model cache %s\n",
                 path.c_str());
  }
}

const TrainedModels& Workbench::cpu_family_models() const {
  // detlint: allow(mutable-global) guards the lazily-derived CPU-family bundle
  static Mutex mutex;
  MutexLock lock(mutex);
  if (cpu_family_models_ == nullptr) {
    cpu_family_models_ =
        std::make_unique<TrainedModels>(ExtendWithCpuFamily(models_));
  }
  return *cpu_family_models_;
}

const Workbench& Workbench::Get(DeviceType device) {
  using BenchMap = std::map<DeviceType, std::unique_ptr<Workbench>>;
  // detlint: allow(mutable-global) guards the lazily-built per-device cache
  static Mutex mutex;
  // detlint: allow(mutable-global) per-device cache, only mutated under mutex
  static BenchMap* benches = new BenchMap();
  MutexLock lock(mutex);
  auto it = benches->find(device);
  if (it == benches->end()) {
    it = benches->emplace(device, std::unique_ptr<Workbench>(new Workbench(device)))
             .first;
  }
  return *it->second;
}

}  // namespace litereconfig
