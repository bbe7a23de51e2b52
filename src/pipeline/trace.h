// Decision tracing: a JSON-lines record of every scheduling decision the
// runtime makes (branch, features, predictions, realized latency) plus every
// fault event the fault-injection layer reports. Attach a TraceWriter to a
// LiteReconfigProtocol to capture a run; the trace_summary tool and the
// TraceReader turn traces back into structured records.
#ifndef SRC_PIPELINE_TRACE_H_
#define SRC_PIPELINE_TRACE_H_

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/annotations.h"
#include "src/util/mutex.h"

namespace litereconfig {

struct DecisionRecord {
  // "decision" for scheduler decisions; "fault" for fault-injection events
  // (then branch_id carries the failure kind name); "recalibrate" / "reanchor"
  // for drift-triggered model updates (branch_id carries the drift kind);
  // "replan" for pre-emptive re-plans ahead of a forecast burst end.
  std::string event = "decision";
  uint64_t video_seed = 0;
  int frame = 0;
  std::string branch_id;
  // Heavy features used for the decision (names).
  std::vector<std::string> features;
  double predicted_accuracy = 0.0;
  double predicted_frame_ms = 0.0;
  double scheduler_cost_ms = 0.0;
  double switch_cost_ms = 0.0;
  // Realized GoF-amortized per-frame latency.
  double actual_frame_ms = 0.0;
  int gof_length = 0;
  bool switched = false;
  bool infeasible = false;
  // The realized GoF blew the SLO (a deadline miss).
  bool missed = false;
  double gpu_cal = 1.0;
};

class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& os) : os_(os) {}
  ~TraceWriter() { Flush(); }

  // Thread-safe. Records are formatted off-lock and buffered per video, so
  // concurrent per-video runs never interleave and the emitted trace is
  // identical at any thread count: nothing reaches the stream until Flush,
  // which writes each video's records (in write order within the video)
  // grouped by video in the order given — or, by default, in the order videos
  // first wrote a record.
  void Write(const DecisionRecord& record);

  // Drains the buffer to the stream. With `video_order`, listed videos are
  // emitted first in that order, then any remaining videos in first-write
  // order. Pass the dataset's video seeds to make multi-threaded traces
  // byte-identical to a threads=1 run.
  void Flush(const std::vector<uint64_t>& video_order = {});

  // Records written so far (buffered or flushed).
  size_t count() const {
    MutexLock lock(mu_);
    return count_;
  }

 private:
  // Only written under mu_ (by Flush); not annotated because it is a reference
  // to caller-owned state.
  std::ostream& os_;
  mutable Mutex mu_;
  size_t count_ LR_GUARDED_BY(mu_) = 0;
  // Per-video buffered lines plus the first-write order of video seeds.
  std::map<uint64_t, std::string> buffers_ LR_GUARDED_BY(mu_);
  std::vector<uint64_t> first_seen_ LR_GUARDED_BY(mu_);
};

class TraceReader {
 public:
  // Parses one JSONL line; nullopt on malformed input.
  static std::optional<DecisionRecord> ParseLine(const std::string& line);

  // Reads all records, failing loudly instead of undercounting: returns
  // nullopt on the first malformed non-blank line and describes it in *error
  // ("line N: ..."). Tools that report aggregate statistics must use this so a
  // truncated or corrupted trace cannot masquerade as a smaller clean one.
  static std::optional<std::vector<DecisionRecord>> ReadAllStrict(
      std::istream& is, std::string* error);
};

}  // namespace litereconfig

#endif  // SRC_PIPELINE_TRACE_H_
