// A small command-line flag parser for the tools (no external dependencies).
//
// Usage:
//   FlagSet flags("tool description");
//   flags.Define("device", "tx2", "target device: tx2 | xavier");
//   flags.Define("slo", "33.3", "latency objective in ms");
//   if (!flags.Parse(argc, argv)) { flags.PrintHelp(std::cerr); return 1; }
//   double slo = flags.GetDouble("slo");
//   if (!flags.ok()) { flags.PrintHelp(std::cerr); return 1; }
// Flags are passed as --name=value or --name value; --help is built in.
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace litereconfig {

class FlagSet {
 public:
  explicit FlagSet(std::string description);

  // Registers a flag with its default value. Must precede Parse.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  // Returns false on an unknown flag, a missing value, or --help.
  bool Parse(int argc, const char* const* argv);

  // True when --help was requested (Parse returned false without an error).
  bool help_requested() const { return help_requested_; }
  // The first parse error, or the first value a numeric getter rejected.
  const std::string& error() const { return error_; }
  bool ok() const { return error_.empty(); }

  std::string GetString(const std::string& name) const;
  // Numeric getters accept only a whole value in range: "33,3", "abc", an
  // empty value, a non-finite double or an integer outside the type's range
  // returns 0 and records an error, so a tool reads its flags, then checks
  // ok() once before doing any work.
  double GetDouble(const std::string& name) const;
  int GetInt(const std::string& name) const;
  uint64_t GetUint64(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  // Whether the flag was explicitly set on the command line.
  bool IsSet(const std::string& name) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  void PrintHelp(std::ostream& os) const;

 private:
  // Records that flag `name`'s value is not `want` (the first error wins).
  void Reject(const std::string& name, const std::string& want) const;

  struct Flag {
    std::string default_value;
    std::string value;
    std::string help;
    bool set = false;
  };

  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  // Mutable: the const numeric getters record the values they reject.
  mutable std::string error_;
};

}  // namespace litereconfig

#endif  // SRC_UTIL_FLAGS_H_
