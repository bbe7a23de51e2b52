#include "src/pipeline/trace.h"

#include <cstdlib>
#include <sstream>

#include "src/util/strings.h"

namespace litereconfig {

namespace {

// Extracts the raw token after `"key":` in our own single-line JSON output.
// Not a general JSON parser; sufficient for round-tripping TraceWriter lines.
std::optional<std::string> FindValue(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  pos += needle.size();
  if (pos >= line.size()) {
    return std::nullopt;
  }
  if (line[pos] == '"') {
    size_t end = line.find('"', pos + 1);
    if (end == std::string::npos) {
      return std::nullopt;
    }
    return line.substr(pos + 1, end - pos - 1);
  }
  if (line[pos] == '[') {
    size_t end = line.find(']', pos);
    if (end == std::string::npos) {
      return std::nullopt;
    }
    return line.substr(pos + 1, end - pos - 1);
  }
  size_t end = line.find_first_of(",}", pos);
  if (end == std::string::npos) {
    return std::nullopt;
  }
  return line.substr(pos, end - pos);
}

}  // namespace

void TraceWriter::Write(const DecisionRecord& record) {
  std::vector<std::string> quoted;
  quoted.reserve(record.features.size());
  for (const std::string& feature : record.features) {
    quoted.push_back("\"" + feature + "\"");
  }
  std::ostringstream line;
  line << "{\"event\":\"" << record.event << "\""
      << ",\"video\":" << record.video_seed << ",\"frame\":" << record.frame
      << ",\"branch\":\"" << record.branch_id << "\"";
  if (record.event == "decision") {
    line << ",\"features\":[" << Join(quoted, ",") << "]"
        << ",\"pred_acc\":" << FmtDouble(record.predicted_accuracy, 4)
        << ",\"pred_ms\":" << FmtDouble(record.predicted_frame_ms, 3)
        << ",\"sched_ms\":" << FmtDouble(record.scheduler_cost_ms, 3)
        << ",\"switch_ms\":" << FmtDouble(record.switch_cost_ms, 3)
        << ",\"actual_ms\":" << FmtDouble(record.actual_frame_ms, 3)
        << ",\"gof\":" << record.gof_length
        << ",\"switched\":" << (record.switched ? "true" : "false")
        << ",\"infeasible\":" << (record.infeasible ? "true" : "false")
        << ",\"missed\":" << (record.missed ? "true" : "false")
        << ",\"gpu_cal\":" << FmtDouble(record.gpu_cal, 4);
  }
  line << "}\n";
  MutexLock lock(mu_);
  std::string& buffer = buffers_[record.video_seed];
  if (buffer.empty()) {
    bool seen = false;
    for (uint64_t seed : first_seen_) {
      if (seed == record.video_seed) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      first_seen_.push_back(record.video_seed);
    }
  }
  buffer += line.str();
  ++count_;
}

void TraceWriter::Flush(const std::vector<uint64_t>& video_order) {
  MutexLock lock(mu_);
  for (uint64_t seed : video_order) {
    auto it = buffers_.find(seed);
    if (it != buffers_.end()) {
      os_ << it->second;
      buffers_.erase(it);
    }
  }
  for (uint64_t seed : first_seen_) {
    auto it = buffers_.find(seed);
    if (it != buffers_.end()) {
      os_ << it->second;
      buffers_.erase(it);
    }
  }
  first_seen_.clear();
  os_.flush();
}

std::optional<DecisionRecord> TraceReader::ParseLine(const std::string& line) {
  DecisionRecord record;
  auto video = FindValue(line, "video");
  auto frame = FindValue(line, "frame");
  auto branch = FindValue(line, "branch");
  if (!video || !frame || !branch) {
    return std::nullopt;
  }
  if (auto v = FindValue(line, "event")) {
    record.event = *v;
  }
  auto actual = FindValue(line, "actual_ms");
  if (record.event == "decision" && !actual) {
    return std::nullopt;
  }
  record.video_seed = std::strtoull(video->c_str(), nullptr, 10);
  record.frame = static_cast<int>(std::strtol(frame->c_str(), nullptr, 10));
  record.branch_id = *branch;
  if (actual) {
    record.actual_frame_ms = std::strtod(actual->c_str(), nullptr);
  }
  if (auto v = FindValue(line, "pred_acc")) {
    record.predicted_accuracy = std::strtod(v->c_str(), nullptr);
  }
  if (auto v = FindValue(line, "pred_ms")) {
    record.predicted_frame_ms = std::strtod(v->c_str(), nullptr);
  }
  if (auto v = FindValue(line, "sched_ms")) {
    record.scheduler_cost_ms = std::strtod(v->c_str(), nullptr);
  }
  if (auto v = FindValue(line, "switch_ms")) {
    record.switch_cost_ms = std::strtod(v->c_str(), nullptr);
  }
  if (auto v = FindValue(line, "gof")) {
    record.gof_length = static_cast<int>(std::strtol(v->c_str(), nullptr, 10));
  }
  if (auto v = FindValue(line, "switched")) {
    record.switched = *v == "true";
  }
  if (auto v = FindValue(line, "infeasible")) {
    record.infeasible = *v == "true";
  }
  if (auto v = FindValue(line, "missed")) {
    record.missed = *v == "true";
  }
  if (auto v = FindValue(line, "gpu_cal")) {
    record.gpu_cal = std::strtod(v->c_str(), nullptr);
  }
  if (auto v = FindValue(line, "features")) {
    std::stringstream ss(*v);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
        record.features.push_back(token.substr(1, token.size() - 2));
      }
    }
  }
  return record;
}

std::optional<std::vector<DecisionRecord>> TraceReader::ReadAllStrict(
    std::istream& is, std::string* error) {
  std::vector<DecisionRecord> records;
  std::string line;
  size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank line (e.g. trailing newline)
    }
    auto record = ParseLine(line);
    if (!record) {
      if (error != nullptr) {
        constexpr size_t kMaxEcho = 120;
        std::string shown = line.substr(0, kMaxEcho);
        if (line.size() > kMaxEcho) {
          shown += "...";
        }
        *error = "line " + std::to_string(line_number) +
                 ": malformed trace record: " + shown;
      }
      return std::nullopt;
    }
    records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace litereconfig
