#include "src/util/flags.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace litereconfig {

FlagSet::FlagSet(std::string description) : description_(std::move(description)) {}

void FlagSet::Define(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  assert(flags_.find(name) == flags_.end());
  flags_[name] = Flag{default_value, default_value, help, false};
  order_.push_back(name);
}

bool FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
    if (!has_value) {
      // Boolean-style flags may omit the value; otherwise consume the next arg.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        value = argv[++i];
      } else if (it->second.default_value == "false" ||
                 it->second.default_value == "true") {
        value = "true";
      } else {
        error_ = "flag --" + name + " needs a value";
        return false;
      }
    }
    it->second.value = value;
    it->second.set = true;
  }
  return true;
}

std::string FlagSet::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  assert(it != flags_.end());
  return it->second.value;
}

namespace {

// Parses the whole of `text` as an integer of type T, or returns false.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

}  // namespace

void FlagSet::Reject(const std::string& name, const std::string& want) const {
  if (error_.empty()) {
    error_ = "flag --" + name + " wants " + want + ", got '" + GetString(name) + "'";
  }
}

double FlagSet::GetDouble(const std::string& name) const {
  std::string text = GetString(name);
  errno = 0;
  char* end = nullptr;
  double value = text.empty() || std::isspace(static_cast<unsigned char>(text[0]))
                     ? 0.0
                     : std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    Reject(name, "a finite number");
    return 0.0;
  }
  return value;
}

int FlagSet::GetInt(const std::string& name) const {
  int value = 0;
  if (!ParseWhole(GetString(name), &value)) {
    Reject(name, "an integer");
    return 0;
  }
  return value;
}

uint64_t FlagSet::GetUint64(const std::string& name) const {
  uint64_t value = 0;
  if (!ParseWhole(GetString(name), &value)) {
    Reject(name, "an unsigned 64-bit integer");
    return 0;
  }
  return value;
}

bool FlagSet::GetBool(const std::string& name) const {
  std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

bool FlagSet::IsSet(const std::string& name) const {
  auto it = flags_.find(name);
  return it != flags_.end() && it->second.set;
}

void FlagSet::PrintHelp(std::ostream& os) const {
  os << description_ << "\n\nFlags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  if (!error_.empty()) {
    os << "\nerror: " << error_ << "\n";
  }
}

}  // namespace litereconfig
