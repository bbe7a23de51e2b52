// Summarizes a decision trace produced by litereconfig_run or serve_run
// --trace: branch usage histogram, feature usage, switch behaviour, and
// prediction quality (predicted vs realized latency). Only "decision" records
// count as decisions; every other event is tallied by name.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>

#include "src/pipeline/trace.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace litereconfig {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags("trace_summary — analyze a decision trace (JSONL).");
  flags.Define("top", "12", "branches to list in the histogram");
  if (!flags.Parse(argc, argv) || flags.positional().size() != 1) {
    flags.PrintHelp(flags.help_requested() ? std::cout : std::cerr);
    std::cerr << "usage: trace_summary [--top N] <trace.jsonl>\n";
    return flags.help_requested() ? 0 : 1;
  }
  int top = flags.GetInt("top");
  if (!flags.ok()) {
    flags.PrintHelp(std::cerr);
    return 1;
  }
  const std::string& path = flags.positional()[0];
  std::ifstream file(path);
  if (!file) {
    std::cerr << "error: cannot open " << path << "\n";
    return 1;
  }
  // Strict parse: a malformed line means the trace is truncated or corrupted,
  // and summarizing the readable prefix would silently undercount.
  std::string parse_error;
  auto parsed = TraceReader::ReadAllStrict(file, &parse_error);
  if (file.bad()) {
    std::cerr << "error: I/O failure while reading " << path << "\n";
    return 1;
  }
  if (!parsed) {
    std::cerr << "error: " << path << ": " << parse_error << "\n";
    return 1;
  }
  std::vector<DecisionRecord> records = std::move(*parsed);
  if (records.empty()) {
    std::cerr << "error: no decision records found in " << path << "\n";
    return 1;
  }

  std::map<std::string, int> branch_counts;
  std::map<std::string, int> feature_counts;
  RunningStat actual;
  RunningStat prediction_error;
  // Records per event name, and fault events per failure kind (carried in
  // branch_id).
  std::map<std::string, int> event_counts;
  std::map<std::string, int> fault_counts;
  int switches = 0;
  int infeasible = 0;
  int frames = 0;
  // Robustness accounting: deadline misses and recovery episodes (maximal
  // runs of consecutive missed decisions within one video).
  int misses = 0;
  int recovery_episodes = 0;
  int episode_gofs = 0;
  // The share of decisions served by the CPU-only family (branch ids read
  // "c<shape>_...").
  int cpu_decisions = 0;
  int cpu_frames = 0;
  uint64_t episode_video = 0;
  bool in_episode = false;
  for (const DecisionRecord& record : records) {
    ++event_counts[record.event];
    if (record.event == "fault") {
      ++fault_counts[record.branch_id];
    }
    if (record.event != "decision") {
      continue;
    }
    if (in_episode && record.video_seed != episode_video) {
      in_episode = false;
    }
    if (record.missed) {
      ++misses;
      if (!in_episode) {
        ++recovery_episodes;
        in_episode = true;
        episode_video = record.video_seed;
      }
      ++episode_gofs;
    } else {
      in_episode = false;
    }
    if (!record.branch_id.empty() && record.branch_id[0] == 'c') {
      ++cpu_decisions;
      cpu_frames += record.gof_length;
    }
    branch_counts[record.branch_id] += record.gof_length;
    for (const std::string& feature : record.features) {
      ++feature_counts[feature];
    }
    actual.Add(record.actual_frame_ms);
    if (record.predicted_frame_ms > 0.0) {
      prediction_error.Add((record.actual_frame_ms - record.predicted_frame_ms) /
                           record.predicted_frame_ms);
    }
    switches += record.switched ? 1 : 0;
    infeasible += record.infeasible ? 1 : 0;
    frames += record.gof_length;
  }
  // The predictive layer's model-maintenance events, the serving pressure
  // ladder (multi-tenant traces only), and GPU-denial family demotion and
  // restoration edges.
  auto count_of = [](const std::map<std::string, int>& counts, const char* name) {
    auto it = counts.find(name);
    return it != counts.end() ? it->second : 0;
  };
  const int decisions = count_of(event_counts, "decision");
  const int recalibrations = count_of(event_counts, "recalibrate");
  const int reanchors = count_of(event_counts, "reanchor");
  const int replans = count_of(event_counts, "replan");
  const int renegotiations = count_of(event_counts, "renegotiate");
  const int evictions = count_of(event_counts, "evict");
  const int demotions = count_of(event_counts, "demote");
  const int restorations = count_of(event_counts, "restore");

  std::cout << decisions << " decisions over " << frames << " frames; "
            << switches << " switches, " << infeasible << " infeasible.\n"
            << "per-frame latency: mean " << FmtDouble(actual.mean(), 2)
            << " ms, max " << FmtDouble(actual.max(), 2) << " ms\n"
            << "latency prediction bias: "
            << FmtDouble(prediction_error.mean() * 100.0, 1) << "% (stddev "
            << FmtDouble(prediction_error.stddev() * 100.0, 1) << "%)\n\n";

  std::vector<std::pair<int, std::string>> ranked;
  for (const auto& [branch, frame_count] : branch_counts) {
    ranked.emplace_back(frame_count, branch);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  TablePrinter table({"Branch", "Frames", "Share %"});
  for (int i = 0; i < top && i < static_cast<int>(ranked.size()); ++i) {
    table.AddRow({ranked[static_cast<size_t>(i)].second,
                  std::to_string(ranked[static_cast<size_t>(i)].first),
                  FmtDouble(100.0 * ranked[static_cast<size_t>(i)].first / frames, 1)});
  }
  table.Print(std::cout);

  if (!feature_counts.empty()) {
    std::cout << "\nContent features used per decision:\n";
    for (const auto& [feature, count] : feature_counts) {
      std::cout << "  " << feature << ": " << count << " ("
                << FmtDouble(100.0 * count / std::max(decisions, 1), 1)
                << "% of decisions)\n";
    }
  } else {
    std::cout << "\nNo content features were used (content-agnostic run).\n";
  }
  if (!fault_counts.empty()) {
    std::cout << "\nFault events:\n";
    for (const auto& [kind, count] : fault_counts) {
      std::cout << "  " << kind << ": " << count << "\n";
    }
  }
  if (misses > 0 || recalibrations > 0 || reanchors > 0 || replans > 0 ||
      renegotiations > 0 || evictions > 0) {
    std::cout << "\nRobustness:\n"
              << "  deadline misses: " << misses << " over " << recovery_episodes
              << " recovery episodes";
    if (recovery_episodes > 0) {
      std::cout << " (mean "
                << FmtDouble(static_cast<double>(episode_gofs) /
                                 recovery_episodes,
                             2)
                << " GoFs)";
    }
    std::cout << "\n  recalibrations: " << recalibrations
              << ", re-anchors: " << reanchors
              << ", pre-emptive re-plans: " << replans << "\n";
    if (renegotiations > 0 || evictions > 0) {
      std::cout << "  SLO renegotiations: " << renegotiations
                << ", evictions: " << evictions << "\n";
    }
  }
  // Denial report: windows where every GPU kernel was unavailable, and how
  // they were served. Demote/restore edges bracket CPU-fallback episodes; a
  // window with no CPU family in the branch space falls back to coasting,
  // which writes no decision records.
  const int denial_windows = count_of(fault_counts, "gpu_denied");
  if (denial_windows > 0 || demotions > 0 || restorations > 0 ||
      cpu_decisions > 0) {
    std::cout << "\nGPU denial:\n"
              << "  denial windows entered: " << denial_windows << "\n"
              << "  family demotions: " << demotions
              << ", restorations: " << restorations << "\n"
              << "  CPU-family decisions: " << cpu_decisions << " ("
              << cpu_frames << " frames, "
              << FmtDouble(100.0 * cpu_frames / std::max(frames, 1), 1)
              << "% of traced frames)\n";
    if (demotions == 0 && denial_windows > 0) {
      std::cout << "  all denial windows coasted (no CPU family in the branch "
                   "space)\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
