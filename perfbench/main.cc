// perfbench: the repository benchmark binary (perfbench/run.py builds this and
// runs it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--spans <path>]
//
// Load shape: one process, closed loop. After set-up it issues whole-workload
// calls (OnlineRunner::Run or ServeRunner::Run) back to back for --seconds and
// reports medians over those calls, with host times scaled to a reference host
// speed by a calibration loop timed around every call (see CalibrationMs in
// host.h). Every call's output is checked; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 one extra
// traced call plus per-layer replays give the per-layer metrics instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/host.h"
#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/pipeline/serialize.h"
#include "src/pipeline/workbench.h"
#include "src/util/strings.h"

namespace litereconfig::perfbench {
namespace {

// Timed calls per run, at least, however long they take.
constexpr int kMinTimedCalls = 3;
// Set-up samples per run, at least. One is taken before every timed call, so
// the samples spread over the whole run like the calls do; set-up time is
// their median.
constexpr int kMinSetups = 11;
// The host speed every host time is scaled to: a host that runs
// CalibrationMs()'s loop in this many ms (its median on the 4-vCPU Xeon VM
// the benchmark was written on).
constexpr double kReferenceCalibrationMs = 90.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        return std::nullopt;
      }
    } else if (key == "--scale") {
      args.tiny = value == "tiny";
      if (value != "tiny" && value != "full") {
        return std::nullopt;
      }
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  if (args.spans.empty()) {
    args.spans = ".bench_build/spans_" + args.workload + ".jsonl";
  }
  return args;
}

// The on-disk bundle Workbench::Get loads for the TX2 (same path and key).
std::string ModelCachePath(uint64_t fingerprint) {
  return CacheDir() + "/models_" + std::string(GetDeviceProfile(DeviceType::kTx2).name) +
         "_" + StrFormat("%016llx", static_cast<unsigned long long>(fingerprint)) +
         ".bin";
}

std::string JsonNumber(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

int Run(int argc, char** argv) {
  std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale full|tiny] [--spans <path>]\n";
    return 2;
  }
  const Args& args = *parsed;
  std::optional<WorkloadSpec> maybe_spec = MakeWorkload(args.workload, args.seed, args.tiny);
  if (!maybe_spec) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadSpec& spec = *maybe_spec;

  // The one-time cold training (or first cache load) happens here, untimed.
  const Workbench& bench = Workbench::Get(DeviceType::kTx2);
  const TrainedModels& models = bench.models();

  // Warm set-up: the model-cache load plus building the inputs. Each sample
  // rebuilds the inputs the next call uses (identical bytes: same seed).
  uint64_t fingerprint = bench.train_config().Fingerprint();
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<double> inputs_ms;
  WorkloadInputs inputs;
  auto set_up = [&]() {
    WallTimer load_timer;
    std::optional<TrainedModels> loaded =
        LoadTrainedModels(ModelCachePath(fingerprint), fingerprint, BranchSpace::Default());
    double load = load_timer.ElapsedMs();
    inputs = WorkloadInputs{};
    WallTimer inputs_timer;
    inputs = BuildInputs(spec);
    double build = inputs_timer.ElapsedMs();
    load_ms.push_back(load);
    inputs_ms.push_back(build);
    setup_s.push_back((load + build) / 1000.0);
    return loaded.has_value();
  };
  if (!set_up()) {
    std::cerr << "perfbench: cannot load the model cache " << ModelCachePath(fingerprint)
              << "\n";
    return 1;
  }

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  auto record = [&](const RunOutput& out, const std::string& reference_json) {
    ++attempted;
    std::vector<std::string> found = out.problems;
    if (!reference_json.empty() && out.json != reference_json) {
      found.push_back("result differs from the threads=1 run of the same inputs");
    }
    if (!found.empty()) {
      ++failed;
      problems.insert(problems.end(), found.begin(), found.end());
    }
  };

  // The threads=1 reference: every later result must be byte-equal to it.
  RunHooks checked;
  checked.check_gofs = true;
  RunOutput reference = RunWorkload(spec, inputs, models, 1, checked);
  record(reference, "");
  if (spec.threads != 1) {
    record(RunWorkload(spec, inputs, models, spec.threads), reference.json);
  }

  // The set-up before the reference calls is a warm-up.
  setup_s.clear();
  load_ms.clear();
  inputs_ms.clear();

  // The host's speed drifts (see CalibrationMs), so host times are scaled to
  // the reference speed: a set-up by the calibration right after it, a call
  // by the mean of the calibrations just before and just after it. Peak RSS
  // is read before and restarted after each calibration, so its buffer never
  // counts.
  double peak_rss_mb = 0.0;
  std::vector<double> calibration_ms;
  std::vector<double> setup_ref_s;
  auto calibrated_set_up = [&]() {
    set_up();
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    double ms = CalibrationMs();
    ResetPeakRss();
    calibration_ms.push_back(ms);
    setup_ref_s.push_back(setup_s.back() * kReferenceCalibrationMs / ms);
    return ms > 0.0;
  };
  bool calibrated = true;
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms_per_kframe;
  WallTimer window;
  while (window.ElapsedMicros() < args.seconds * 1e6 ||
         static_cast<int>(wall_ms.size()) < kMinTimedCalls) {
    calibrated = calibrated_set_up() && calibrated;
    RunOutput out = RunWorkload(spec, inputs, models, spec.threads);
    record(out, reference.json);
    wall_ms.push_back(out.wall_ms());
    cpu_ms_per_kframe.push_back(
        out.frames > 0 ? out.cpu_ms * 1000.0 / static_cast<double>(out.frames) : 0.0);
  }
  do {
    calibrated = calibrated_set_up() && calibrated;
  } while (static_cast<int>(setup_ref_s.size()) < kMinSetups);
  if (!calibrated) {
    std::cerr << "perfbench: the host-speed calibration could not map its buffer\n";
    return 1;
  }
  // calibration_ms[i + 1] is the calibration right after call i.
  std::vector<double> wall_ref_ms;
  std::vector<double> cpu_ref_ms_per_kframe;
  for (size_t i = 0; i < wall_ms.size(); ++i) {
    double scale = 2.0 * kReferenceCalibrationMs / (calibration_ms[i] + calibration_ms[i + 1]);
    wall_ref_ms.push_back(wall_ms[i] * scale);
    cpu_ref_ms_per_kframe.push_back(cpu_ms_per_kframe[i] * scale);
  }
  double median_wall_ms = Median(wall_ms);

  std::vector<Metric> metrics;
  std::cout << "[perfbench] workload " << spec.name << " seed " << args.seed
            << (args.tiny ? " (tiny)" : "") << ": threads " << spec.threads << ", "
            << inputs.input_frames << " input frames, " << wall_ms.size()
            << " timed calls, median " << FmtDouble(median_wall_ms, 1) << " ms ("
            << FmtDouble(Median(wall_ref_ms), 1) << " ms at the reference host speed; "
            << "calibration median " << FmtDouble(Median(calibration_ms), 1) << " ms, reference "
            << FmtDouble(kReferenceCalibrationMs, 1) << " ms)\n";
  if (args.trace) {
    std::ostringstream table;
    TracedReport traced =
        RunTraced(spec, inputs, models, median_wall_ms, reference.json, args.spans, table);
    ++attempted;
    if (!traced.problems.empty()) {
      ++failed;
      problems.insert(problems.end(), traced.problems.begin(), traced.problems.end());
    }
    metrics.push_back({"pipeline.model_load_ms", Median(load_ms), "ms"});
    metrics.push_back({"video.inputs_build_ms", Median(inputs_ms), "ms"});
    metrics.insert(metrics.end(), traced.metrics.begin(), traced.metrics.end());
    std::cout << table.str();
  } else {
    double frames = static_cast<double>(reference.frames);
    metrics.push_back({"setup_s", Median(setup_ref_s), "s"});
    metrics.push_back({"frames_per_s", frames / (Median(wall_ref_ms) / 1000.0), "frames/s"});
    metrics.push_back({"cpu_ms_per_kframe", Median(cpu_ref_ms_per_kframe), "ms/kframe"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"sim_map_pct", reference.map_pct, "%"});
    metrics.push_back({"sim_p95_ms", reference.p95_ms, "ms"});
  }

  for (const Metric& metric : metrics) {
    std::cout << "[perfbench]   " << metric.name << " = " << JsonNumber(metric.value)
              << " " << metric.unit << "\n";
  }
  for (const std::string& problem : problems) {
    std::cout << "[perfbench] FAILED CHECK: " << problem << "\n";
  }
  std::cout << "[perfbench] " << failed << " of " << attempted
            << " workload calls failed a check\n";

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << JsonNumber(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace litereconfig::perfbench

int main(int argc, char** argv) { return litereconfig::perfbench::Run(argc, argv); }
