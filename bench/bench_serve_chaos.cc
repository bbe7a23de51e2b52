// Chaos serving bench: the StreamingService under a severe device-wide fault
// schedule (correlated contention bursts, per-stream latency outliers,
// detector failures and frame drops), graceful degradation vs naive blocking
// (EXPERIMENTS.md "Fault-tolerant serving" table).
//
// Acceptance gates (exit status):
//   1. the chaos bites: faults are injected and the pressure ladder engages
//      (coasted rounds + renegotiations + evictions > 0) under degradation;
//   2. degraded serving strictly beats naive blocking: fewer total deadline
//      misses over the same (arrival trace, fault schedule);
//   3. no strict stream is ever shed: evictions_by_class[strict] == 0;
//   4. the faulted service stays deterministic: ServeEvalJson AND the decision
//      trace byte-identical across --threads={1,2,8} for the fixed
//      (arrival_seed, fault_seed);
//   5. device-wide GPU denial (denied_severe): denied rounds occur and the
//      CPU-family service serves them with scheduled CPU detection
//      (cpu_fallback_gofs > 0). The coast-only service has nothing schedulable
//      while the device is denied, so it sheds arrivals; the family must admit
//      at least as many streams, serve strictly more frames at strictly higher
//      accuracy-weighted goodput, keep transition deadline misses under 1% of
//      served frames — and the denial run is itself thread-count invariant.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/serve_runner.h"

namespace litereconfig {
namespace {

// The benched trace: a fast arrival storm of 12 streams on the TX2 with a
// tight SLO, so the severe fault schedule pushes the service past what the
// device can carry and the pressure ladder has to act. Deterministic: same
// trace and same fault schedule every run.
ArrivalSpec BenchSpec() {
  ArrivalSpec spec;
  spec.seed = 1;
  spec.num_streams = 12;
  spec.frames_per_video = 200;
  spec.slo_ms = 25.0;
  spec.mean_interarrival_rounds = 0.25;
  return spec;
}

constexpr uint64_t kFaultSeed = 7;

ServeConfig BenchConfig(const FaultSpec& faults, bool degrade, int threads) {
  ServeConfig config;
  config.faults.spec = faults;
  config.faults.fault_seed = kFaultSeed;
  config.faults.degrade = degrade;
  config.threads = threads;
  return config;
}

struct ChaosRun {
  ServeEval eval;
  std::string json;
  std::string trace;
};

ChaosRun RunChaos(const TrainedModels& models, const ArrivalSpec& spec,
                  const FaultSpec& faults, bool degrade, int threads) {
  ChaosRun run;
  std::ostringstream trace_os;
  TraceWriter trace(trace_os);
  run.eval = ServeRunner::Run(models, spec,
                              BenchConfig(faults, degrade, threads), &trace);
  std::vector<uint64_t> stream_order;
  for (const StreamOutcome& outcome : run.eval.result.streams) {
    stream_order.push_back(outcome.stream_id);
  }
  trace.Flush(stream_order);
  run.json = ServeEvalJson(run.eval);
  run.trace = trace_os.str();
  return run;
}

int Run(int argc, char** argv) {
  int threads = BenchThreads(argc, argv);
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  ArrivalSpec spec = BenchSpec();

  WallTimer timer;
  FaultSpec severe = FaultSpec::Severe();
  ChaosRun degraded =
      RunChaos(wb.models(), spec, severe, /*degrade=*/true, threads);
  ChaosRun naive =
      RunChaos(wb.models(), spec, severe, /*degrade=*/false, threads);
  double bench_ms = timer.ElapsedMs();

  TablePrinter table({"mode", "mAP (mean/stream)", "misses", "injected",
                      "absorbed", "coasts", "renegs", "evicts (s/st/be)"});
  struct RowSpec {
    const char* name;
    const ServeEval* eval;
  };
  for (RowSpec entry : {RowSpec{"degraded", &degraded.eval},
                        RowSpec{"naive blocking", &naive.eval}}) {
    const ServeResult& r = entry.eval->result;
    table.AddRow({entry.name, FmtDouble(r.mean_accuracy * 100.0, 2),
                  std::to_string(r.total_misses),
                  std::to_string(r.faults_injected),
                  std::to_string(r.faults_absorbed),
                  std::to_string(r.coasted_rounds),
                  std::to_string(r.renegotiations),
                  StrFormat("%d/%d/%d", r.evictions_by_class[0],
                            r.evictions_by_class[1], r.evictions_by_class[2])});
  }
  table.Print(std::cout);
  std::cout << "[bench] wall time: " << FmtDouble(bench_ms, 0) << " ms\n\n";

  bool gate_ok = true;
  const ServeResult& d = degraded.eval.result;
  const ServeResult& n = naive.eval.result;
  int ladder_actions = d.coasted_rounds + d.renegotiations + d.evictions;
  if (d.faults_injected == 0 || ladder_actions == 0) {
    std::cout << "GATE FAIL: chaos does not bite (" << d.faults_injected
              << " faults injected, " << ladder_actions
              << " pressure-ladder actions)\n";
    gate_ok = false;
  } else {
    std::cout << "gate: " << d.faults_injected << " faults injected, "
              << ladder_actions << " pressure-ladder actions ("
              << d.coasted_rounds << " coasts, " << d.renegotiations
              << " renegotiations, " << d.evictions << " evictions)\n";
  }
  if (d.total_misses >= n.total_misses) {
    std::cout << "GATE FAIL: degraded misses " << d.total_misses
              << " >= naive blocking " << n.total_misses << "\n";
    gate_ok = false;
  } else {
    std::cout << "gate: degraded misses " << d.total_misses
              << " < naive blocking " << n.total_misses << "\n";
  }
  size_t strict = static_cast<size_t>(SloClass::kStrict);
  if (d.evictions_by_class[strict] != 0) {
    std::cout << "GATE FAIL: " << d.evictions_by_class[strict]
              << " strict streams evicted\n";
    gate_ok = false;
  } else {
    std::cout << "gate: zero strict evictions\n";
  }
  // Determinism under chaos: JSON and trace independent of the thread count.
  bool identical = true;
  for (int t : {1, 2, 8}) {
    ChaosRun rerun = RunChaos(wb.models(), spec, severe, /*degrade=*/true, t);
    if (rerun.json != degraded.json) {
      std::cout << "GATE FAIL: ServeEvalJson differs at --threads=" << t
                << "\n";
      identical = false;
    }
    if (rerun.trace != degraded.trace) {
      std::cout << "GATE FAIL: decision trace differs at --threads=" << t
                << "\n";
      identical = false;
    }
  }
  if (identical) {
    std::cout
        << "gate: ServeEvalJson + trace identical at --threads={1,2,8}\n";
  } else {
    gate_ok = false;
  }

  // --- Device-wide GPU denial: CPU family vs coast-only ---
  // Same arrival trace and fault seed, so denied rounds line up exactly; the
  // only lever is whether the branch space carries the CPU-only family.
  FaultSpec denied = *FaultSpec::FromName("denied_severe");
  ChaosRun cpu_run = RunChaos(wb.cpu_family_models(), spec, denied,
                              /*degrade=*/true, threads);
  ChaosRun coast_run =
      RunChaos(wb.models(), spec, denied, /*degrade=*/true, threads);
  const ServeResult& cr = cpu_run.eval.result;
  const ServeResult& kr = coast_run.eval.result;
  // Without a CPU family, nothing is schedulable during a device-wide denial:
  // admission rejects arrivals and survivors coast. The family converts that
  // shed load into CPU-served load, so the comparison is availability and
  // accuracy-weighted goodput (mean accuracy x served frames), not whole-run
  // mean accuracy over two very different served populations.
  const double cpu_goodput =
      cr.mean_accuracy * static_cast<double>(cr.total_frames);
  const double coast_goodput =
      kr.mean_accuracy * static_cast<double>(kr.total_frames);
  std::cout << "\n--- device-wide denial (denied_severe) ---\n";
  TablePrinter denial_table({"mode", "mAP (mean/stream)", "frames", "rejected",
                             "misses", "denied rounds", "CPU fallback GoFs",
                             "goodput"});
  denial_table.AddRow({"CPU family", FmtDouble(cr.mean_accuracy * 100.0, 2),
                       std::to_string(cr.total_frames),
                       std::to_string(cr.rejected),
                       std::to_string(cr.total_misses),
                       std::to_string(cr.denied_rounds),
                       std::to_string(cr.cpu_fallback_gofs),
                       FmtDouble(cpu_goodput, 1)});
  denial_table.AddRow({"coast only", FmtDouble(kr.mean_accuracy * 100.0, 2),
                       std::to_string(kr.total_frames),
                       std::to_string(kr.rejected),
                       std::to_string(kr.total_misses),
                       std::to_string(kr.denied_rounds),
                       std::to_string(kr.cpu_fallback_gofs),
                       FmtDouble(coast_goodput, 1)});
  denial_table.Print(std::cout);
  if (cr.denied_rounds == 0 || cr.cpu_fallback_gofs == 0 ||
      kr.cpu_fallback_gofs != 0) {
    std::cout << "GATE FAIL: denial does not bite as expected ("
              << cr.denied_rounds << " denied rounds, "
              << cr.cpu_fallback_gofs << " family CPU GoFs, "
              << kr.cpu_fallback_gofs << " coast CPU GoFs)\n";
    gate_ok = false;
  } else if (cr.rejected > kr.rejected || cr.total_frames <= kr.total_frames) {
    std::cout << "GATE FAIL: CPU family does not improve availability ("
              << cr.rejected << " vs " << kr.rejected << " rejected, "
              << cr.total_frames << " vs " << kr.total_frames << " frames)\n";
    gate_ok = false;
  } else if (cpu_goodput <= coast_goodput) {
    std::cout << "GATE FAIL: CPU family goodput " << FmtDouble(cpu_goodput, 1)
              << " <= coast-only " << FmtDouble(coast_goodput, 1) << "\n";
    gate_ok = false;
  } else if (static_cast<double>(cr.total_misses) >=
             0.01 * static_cast<double>(cr.total_frames)) {
    std::cout << "GATE FAIL: CPU family miss rate "
              << FmtDouble(100.0 * cr.total_misses / cr.total_frames, 3)
              << "% exceeds the 1% transition budget\n";
    gate_ok = false;
  } else {
    std::cout << "gate: denied rounds served by the CPU family — goodput "
              << FmtDouble(cpu_goodput, 1) << " > " << FmtDouble(coast_goodput, 1)
              << ", rejected " << cr.rejected << " <= " << kr.rejected
              << ", miss rate "
              << FmtDouble(100.0 * cr.total_misses / cr.total_frames, 3)
              << "%\n";
  }
  bool denial_identical = true;
  for (int t : {1, 2, 8}) {
    ChaosRun rerun =
        RunChaos(wb.cpu_family_models(), spec, denied, /*degrade=*/true, t);
    if (rerun.json != cpu_run.json || rerun.trace != cpu_run.trace) {
      std::cout << "GATE FAIL: denial run differs at --threads=" << t << "\n";
      denial_identical = false;
    }
  }
  if (denial_identical) {
    std::cout << "gate: denial ServeEvalJson + trace identical at "
                 "--threads={1,2,8}\n";
  } else {
    gate_ok = false;
  }

  std::cout << "\nserve chaos gate: " << (gate_ok ? "PASS" : "FAIL") << "\n";
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
