#include "tools/lint/detlint_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "tools/lint/layer_pass.h"
#include "tools/lint/lock_pass.h"
#include "tools/lint/rng_pass.h"
#include "tools/lint/source_model.h"

namespace litereconfig {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// --- token matching ------------------------------------------------------

struct BannedToken {
  const char* token;
  // When true the token must be followed by '(' and not be preceded by a
  // member/scope accessor — it is a free-function call like rand( or time(.
  bool require_call;
  const char* rule;
  const char* message;
};

const BannedToken kBannedTokens[] = {
    {"std::random_device", false, "banned-random",
     "nondeterministic seed source; draw from src/util/rng.h (Pcg32 seeded via "
     "HashKeys)"},
    {"std::mt19937", false, "banned-random",
     "unsanctioned generator; use src/util/rng.h Pcg32 keyed by entity ids"},
    {"std::mt19937_64", false, "banned-random",
     "unsanctioned generator; use src/util/rng.h Pcg32 keyed by entity ids"},
    {"std::default_random_engine", false, "banned-random",
     "unsanctioned generator; use src/util/rng.h Pcg32 keyed by entity ids"},
    {"rand", true, "banned-random",
     "global-state RNG; use src/util/rng.h Pcg32 keyed by entity ids"},
    {"srand", true, "banned-random",
     "global-state RNG seeding; use src/util/rng.h Pcg32 keyed by entity ids"},
    {"random_shuffle", false, "banned-random",
     "unspecified RNG; shuffle with an explicit Pcg32 if order must vary"},
    {"time", true, "banned-time",
     "wall-clock read; results must be pure functions of (seeds, config)"},
    {"clock", true, "banned-time",
     "wall-clock read; results must be pure functions of (seeds, config)"},
    {"gettimeofday", true, "banned-time",
     "wall-clock read; results must be pure functions of (seeds, config)"},
    {"steady_clock", false, "banned-clock",
     "wall-clock source; bench reporting must go through bench/bench_util.h "
     "WallTimer, simulation through LatencyModel"},
    {"system_clock", false, "banned-clock",
     "wall-clock source; bench reporting must go through bench/bench_util.h "
     "WallTimer, simulation through LatencyModel"},
    {"high_resolution_clock", false, "banned-clock",
     "wall-clock source; bench reporting must go through bench/bench_util.h "
     "WallTimer, simulation through LatencyModel"},
};

const char* const kRawSyncTokens[] = {
    "std::mutex", "std::recursive_mutex", "std::timed_mutex",
    "std::shared_mutex", "std::condition_variable",
    "std::condition_variable_any", "std::lock_guard", "std::unique_lock",
    "std::scoped_lock", "std::shared_lock",
};

// Headers whose presence implies one of the banned constructs.
const std::map<std::string, const char*> kBannedIncludes = {
    {"random", "banned-random"},  {"ctime", "banned-time"},
    {"time.h", "banned-time"},    {"sys/time.h", "banned-time"},
    {"chrono", "banned-clock"},   {"unordered_map", "unordered-iter"},
    {"unordered_set", "unordered-iter"},
};

const std::map<std::string, const char*> kRawSyncIncludes = {
    {"mutex", "raw-sync"},
    {"condition_variable", "raw-sync"},
    {"shared_mutex", "raw-sync"},
};

bool ContainsWord(const std::string& code, const std::string& word) {
  return FindTokenFrom(code, word, /*require_call=*/false, 0) != std::string::npos;
}

// --- declaration scans ---------------------------------------------------

// Returns identifiers declared on this line as unordered containers, e.g.
// "std::unordered_map<K, V> index;" yields "index".
std::vector<std::string> UnorderedDeclNames(const std::string& code) {
  std::vector<std::string> names;
  for (const char* marker : {"unordered_map<", "unordered_set<"}) {
    size_t pos = code.find(marker);
    while (pos != std::string::npos) {
      size_t open = code.find('<', pos);
      int depth = 0;
      size_t i = open;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') {
          ++depth;
        } else if (code[i] == '>') {
          if (--depth == 0) {
            break;
          }
        }
      }
      if (i < code.size()) {
        size_t name_start = code.find_first_not_of(" \t*&", i + 1);
        if (name_start != std::string::npos && IsIdentifierChar(code[name_start])) {
          size_t name_end = name_start;
          while (name_end < code.size() && IsIdentifierChar(code[name_end])) {
            ++name_end;
          }
          names.push_back(code.substr(name_start, name_end - name_start));
        }
      }
      pos = code.find(marker, pos + 1);
    }
  }
  return names;
}

// Returns identifiers declared on this line with a double/float type, e.g.
// "double sum = 0.0;" yields "sum". Skips matches where the following token is
// not an identifier (template arguments, casts) or opens a parameter list (a
// function returning double).
std::vector<std::string> FloatDeclNames(const std::string& code) {
  std::vector<std::string> names;
  for (const char* marker : {"double", "float"}) {
    const std::string token = marker;
    size_t pos = FindTokenFrom(code, token, /*require_call=*/false, 0);
    while (pos != std::string::npos) {
      size_t name_start = code.find_first_not_of(" \t*&", pos + token.size());
      if (name_start != std::string::npos && IsIdentifierChar(code[name_start]) &&
          std::isdigit(static_cast<unsigned char>(code[name_start])) == 0) {
        size_t name_end = name_start;
        while (name_end < code.size() && IsIdentifierChar(code[name_end])) {
          ++name_end;
        }
        size_t after = code.find_first_not_of(" \t", name_end);
        if (after == std::string::npos || code[after] != '(') {
          names.push_back(code.substr(name_start, name_end - name_start));
        }
      }
      pos = FindTokenFrom(code, token, /*require_call=*/false, pos + token.size());
    }
  }
  return names;
}

// Scans the paren-balanced extents of ParallelFor(...)/ParallelMap(...) call
// sites for compound assignments (+=, -=, *=, /=) onto identifiers declared
// with a double/float type anywhere in the file. The sum of floating-point
// terms depends on evaluation order, and inside a parallel extent that order
// is which-thread-ran-first — exactly the nondeterminism the thread pool's
// index-distribution design exists to rule out. Indexed writes (out[i] += ...)
// target per-index slots and are not flagged; neither are member accesses.
void CheckParallelAccum(
    const std::string& stripped,
    const std::vector<std::string>& float_names,
    const std::function<bool(size_t, const char*)>& allowed_on,
    const std::function<void(size_t, const char*, const std::string&)>& report) {
  for (const char* marker : {"ParallelFor", "ParallelMap"}) {
    const std::string token = marker;
    size_t pos = FindTokenFrom(stripped, token, /*require_call=*/false, 0);
    while (pos != std::string::npos) {
      size_t open = stripped.find_first_not_of(" \t", pos + token.size());
      if (open == std::string::npos || stripped[open] != '(') {
        pos = FindTokenFrom(stripped, token, /*require_call=*/false,
                            pos + token.size());
        continue;
      }
      int depth = 0;
      size_t close = stripped.size();
      for (size_t i = open; i < stripped.size(); ++i) {
        if (stripped[i] == '(') {
          ++depth;
        } else if (stripped[i] == ')') {
          if (--depth == 0) {
            close = i;
            break;
          }
        }
      }
      for (size_t i = open; i + 1 < close; ++i) {
        char op = stripped[i];
        if ((op != '+' && op != '-' && op != '*' && op != '/') ||
            stripped[i + 1] != '=' ||
            (i + 2 < stripped.size() && stripped[i + 2] == '=')) {
          continue;
        }
        // ++/-- and operator tokens are not compound assignments.
        if (i > 0 && (stripped[i - 1] == op || stripped[i - 1] == '<' ||
                      stripped[i - 1] == '>')) {
          continue;
        }
        // Walk back to the assigned-to expression.
        size_t j = i;
        while (j > open && (stripped[j - 1] == ' ' || stripped[j - 1] == '\t')) {
          --j;
        }
        if (j == open || stripped[j - 1] == ']') {
          continue;  // indexed write into a per-index slot: order-independent
        }
        size_t name_end = j;
        while (j > open && IsIdentifierChar(stripped[j - 1])) {
          --j;
        }
        if (j == name_end) {
          continue;
        }
        if (j > open && (stripped[j - 1] == '.' || stripped[j - 1] == '>')) {
          continue;  // member access; out of scope for this heuristic
        }
        std::string name = stripped.substr(j, name_end - j);
        bool is_float = false;
        for (const std::string& candidate : float_names) {
          is_float = is_float || candidate == name;
        }
        if (!is_float) {
          continue;
        }
        size_t line = static_cast<size_t>(
            std::count(stripped.begin(), stripped.begin() + static_cast<long>(i),
                       '\n'));
        if (!allowed_on(line, "parallel-accum")) {
          report(line, "parallel-accum",
                 "'" + name + "' accumulates floating-point terms inside a " +
                     marker + " extent; the result depends on thread "
                     "scheduling. Write per-index results into caller-owned "
                     "slots and reduce serially, or justify with "
                     "'// detlint: allow(parallel-accum) <reason>'");
        }
      }
      pos = FindTokenFrom(stripped, token, /*require_call=*/false, close);
    }
  }
}

// If `code` holds a range-for, returns the range expression ("for (x : expr)").
std::string RangeForExpr(const std::string& code) {
  size_t pos = FindTokenFrom(code, "for", /*require_call=*/false, 0);
  if (pos == std::string::npos) {
    return std::string();
  }
  size_t open = code.find('(', pos);
  if (open == std::string::npos) {
    return std::string();
  }
  int depth = 0;
  size_t colon = std::string::npos;
  size_t close = code.size();
  for (size_t i = open; i < code.size(); ++i) {
    char c = code[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (--depth == 0) {
        close = i;
        break;
      }
    } else if (c == ':' && depth == 1 && colon == std::string::npos) {
      bool scope = (i + 1 < code.size() && code[i + 1] == ':') ||
                   (i > 0 && code[i - 1] == ':');
      if (!scope) {
        colon = i;
      }
    }
  }
  if (colon == std::string::npos) {
    return std::string();
  }
  return code.substr(colon + 1, close - colon - 1);
}

// True when the line begins a static / thread_local *variable* declaration
// (not a static member-function declaration, which carries a '(').
bool IsMutableStaticDecl(const std::string& code) {
  std::string trimmed = LTrim(code);
  bool has_static = StartsWith(trimmed, "static ");
  bool has_tls = StartsWith(trimmed, "thread_local ");
  if (!has_static && !has_tls) {
    return false;
  }
  if (ContainsWord(trimmed, "const") || ContainsWord(trimmed, "constexpr")) {
    return false;
  }
  size_t stop = trimmed.find_first_of("=;{");
  if (stop == std::string::npos) {
    return false;  // declaration continues on another line; assume a function
  }
  return trimmed.find('(') >= stop;
}

// --- header guards -------------------------------------------------------

void CheckHeaderGuard(const std::string& rel_path,
                      const std::vector<std::string>& raw_lines,
                      std::vector<LintViolation>* out) {
  const std::string expected = ExpectedHeaderGuard(rel_path);
  int ifndef_line = 0;
  std::string guard;
  int endif_line = 0;
  std::string endif_text;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::string trimmed = LTrim(raw_lines[i]);
    if (StartsWith(trimmed, "#pragma once")) {
      out->push_back({rel_path, static_cast<int>(i + 1), "header-guard",
                      "use an #ifndef " + expected + " guard, not #pragma once"});
      return;
    }
    if (guard.empty() && StartsWith(trimmed, "#ifndef")) {
      ifndef_line = static_cast<int>(i + 1);
      std::istringstream stream(trimmed);
      std::string directive;
      stream >> directive >> guard;
      if (guard != expected) {
        out->push_back({rel_path, ifndef_line, "header-guard",
                        "guard is '" + guard + "', expected '" + expected + "'"});
        return;
      }
      if (i + 1 >= raw_lines.size() ||
          RTrim(raw_lines[i + 1]) != "#define " + expected) {
        out->push_back({rel_path, ifndef_line + 1, "header-guard",
                        "expected '#define " + expected +
                            "' immediately after the #ifndef"});
      }
    }
    if (StartsWith(trimmed, "#endif")) {
      endif_line = static_cast<int>(i + 1);
      endif_text = RTrim(raw_lines[i]);
    }
  }
  if (guard.empty()) {
    out->push_back(
        {rel_path, 1, "header-guard", "missing #ifndef " + expected + " guard"});
    return;
  }
  if (endif_text != "#endif  // " + expected) {
    out->push_back({rel_path, endif_line == 0 ? 1 : endif_line, "header-guard",
                    "closing line must be exactly '#endif  // " + expected + "'"});
  }
}

// --- includes ------------------------------------------------------------

// Extracts the include target and whether it was quoted; empty if not an
// include line.
std::string ParseInclude(const std::string& raw_line, bool* quoted) {
  std::string trimmed = LTrim(raw_line);
  if (!StartsWith(trimmed, "#include")) {
    return std::string();
  }
  size_t start = trimmed.find_first_of("<\"", 8);
  if (start == std::string::npos) {
    return std::string();
  }
  *quoted = trimmed[start] == '"';
  char closer = *quoted ? '"' : '>';
  size_t end = trimmed.find(closer, start + 1);
  if (end == std::string::npos) {
    return std::string();
  }
  return trimmed.substr(start + 1, end - start - 1);
}

bool IsProjectPathInclude(const std::string& target) {
  return StartsWith(target, "src/") || StartsWith(target, "bench/") ||
         StartsWith(target, "tests/") || StartsWith(target, "tools/");
}

}  // namespace

std::string ExpectedHeaderGuard(const std::string& rel_path) {
  std::string guard;
  guard.reserve(rel_path.size() + 1);
  for (char c : rel_path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

std::string StripCommentsAndStrings(const std::string& content) {
  return StripWithMask(content).stripped;
}

std::string FormatViolation(const LintViolation& violation) {
  return violation.file + ":" + std::to_string(violation.line) + ": " +
         violation.rule + ": " + violation.message;
}

std::vector<LintViolation> LintFileContent(const std::string& repo_relative_path,
                                           const std::string& content) {
  SourceFile file{repo_relative_path, content};
  FileModel model = BuildFileModel(file);
  std::vector<LintViolation> found;
  RunLegacyRules(model, &found);
  return found;
}

void RunLegacyRules(FileModel& model, std::vector<LintViolation>* out) {
  const std::string& repo_relative_path = model.file->path;
  const bool is_header =
      repo_relative_path.size() >= 2 &&
      repo_relative_path.compare(repo_relative_path.size() - 2, 2, ".h") == 0;
  const bool is_mutex_header = repo_relative_path == "src/util/mutex.h";

  const std::vector<std::string>& raw_lines = model.raw_lines;
  const std::vector<std::string>& code_lines = model.code_lines;
  const std::string& stripped = model.masked.stripped;

  auto report = [&](size_t index, const char* rule, const std::string& message) {
    out->push_back(
        {repo_relative_path, static_cast<int>(index + 1), rule, message});
  };

  // Pass 1: names declared as unordered containers anywhere in the file, and
  // names declared with a floating-point type (the parallel-accum scan).
  std::vector<std::string> container_decl_names;
  std::vector<std::string> float_decl_names;
  for (const std::string& code : code_lines) {
    for (std::string& name : UnorderedDeclNames(code)) {
      container_decl_names.push_back(std::move(name));
    }
    for (std::string& name : FloatDeclNames(code)) {
      float_decl_names.push_back(std::move(name));
    }
  }

  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& code = code_lines[i];
    auto flag = [&](const char* rule, const std::string& message) {
      if (!model.escapes.Allows(static_cast<int>(i + 1), rule)) {
        report(i, rule, message);
      }
    };

    for (const BannedToken& banned : kBannedTokens) {
      if (FindTokenFrom(code, banned.token, banned.require_call, 0) !=
          std::string::npos) {
        flag(banned.rule, std::string(banned.token) + ": " + banned.message);
      }
    }

    if (!is_mutex_header) {
      for (const char* token : kRawSyncTokens) {
        if (ContainsWord(code, token)) {
          flag("raw-sync",
               std::string(token) +
                   ": use the annotated wrappers in src/util/mutex.h so clang "
                   "-Wthread-safety can check locking");
        }
      }
    }

    bool quoted = false;
    std::string include = ParseInclude(raw_lines[i], &quoted);
    if (!include.empty()) {
      if (quoted && !IsProjectPathInclude(include)) {
        flag("include-path",
             "project includes are written from the repo root (src/..., "
             "bench/..., tests/..., tools/...), got \"" + include + "\"");
      }
      auto banned_it = kBannedIncludes.find(include);
      if (banned_it != kBannedIncludes.end()) {
        flag(banned_it->second,
             "#include <" + include + ">: header behind a banned construct; "
             "see the " + std::string(banned_it->second) + " rule");
      }
      auto sync_it = kRawSyncIncludes.find(include);
      if (sync_it != kRawSyncIncludes.end() && !is_mutex_header) {
        flag("raw-sync", "#include <" + include +
                             ">: use src/util/mutex.h wrappers instead");
      }
    }

    std::string range_expr = RangeForExpr(code);
    if (!range_expr.empty()) {
      bool suspicious = range_expr.find("unordered") != std::string::npos;
      for (const std::string& name : container_decl_names) {
        suspicious = suspicious || ContainsWord(range_expr, name);
      }
      if (suspicious) {
        flag("unordered-iter",
             "iteration order over an unordered container is unspecified and "
             "must not feed results; use std::map/std::set or mark the loop "
             "'// detlint: order-independent'");
      }
    }

    if (IsMutableStaticDecl(code)) {
      flag("mutable-global",
           "mutable static state is a hidden channel between runs and "
           "threads; pass state explicitly or justify with '// detlint: "
           "allow(mutable-global) <reason>'");
    }
  }

  // Pass 3: floating-point accumulation order inside parallel extents. Runs
  // over the whole stripped content because call sites routinely span lines.
  auto allowed_on = [&](size_t line, const char* rule) {
    return model.escapes.Allows(static_cast<int>(line + 1), rule);
  };
  CheckParallelAccum(stripped, float_decl_names, allowed_on,
                     [&](size_t line, const char* rule,
                         const std::string& message) { report(line, rule, message); });

  if (is_header) {
    CheckHeaderGuard(repo_relative_path, raw_lines, out);
  }
}

ProjectReport LintProjectSources(std::vector<SourceFile> sources,
                                 const ProjectOptions& options) {
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  std::vector<FileModel> models;
  models.reserve(sources.size());
  for (const SourceFile& file : sources) {
    models.push_back(BuildFileModel(file));
  }

  ProjectReport report;
  report.files_scanned = static_cast<int>(sources.size());

  if (options.legacy) {
    for (FileModel& model : models) {
      RunLegacyRules(model, &report.violations);
    }
  }

  if (options.rng) {
    RngPassContext context = BuildRngPassContext(models);
    for (FileModel& model : models) {
      for (LintViolation& violation : RunRngPass(model, context, models)) {
        report.violations.push_back(std::move(violation));
      }
    }
  }

  if (options.lock) {
    LockPassReport lock = RunLockPass(models);
    report.lock_mutexes = lock.mutexes;
    report.lock_edges = lock.edges;
    report.lock_cycle = lock.cycle;
    for (LintViolation& violation : lock.violations) {
      report.violations.push_back(std::move(violation));
    }
  }

  if (options.layer) {
    if (!options.has_layers) {
      report.violations.push_back(
          {options.layers_path, 1, "layer-unknown",
           "layers.txt not found; the layering pass needs the declared "
           "layer order (bottom-up, one layer per line)"});
    } else {
      LayerSpec spec;
      std::string error;
      if (!ParseLayers(options.layers_text, &spec, &error)) {
        report.violations.push_back(
            {options.layers_path, 1, "layer-unknown", error});
      } else {
        report.layer_count = spec.layer_count;
        LayerPassReport layer =
            RunLayerPass(models, spec, options.layers_path);
        report.include_edges = layer.include_edges;
        report.include_cycle = layer.cycle;
        for (LintViolation& violation : layer.violations) {
          report.violations.push_back(std::move(violation));
        }
      }
    }
  }

  // Escape hygiene: only meaningful when every pass had the chance to consume
  // its escapes.
  if (options.check_escapes && options.legacy && options.rng && options.lock &&
      options.layer) {
    for (FileModel& model : models) {
      for (const Escape& escape : model.escapes.escapes()) {
        if (!escape.used) {
          report.violations.push_back(
              {model.file->path, escape.line, "unused-escape",
               "this '// detlint:' escape no longer suppresses any finding; "
               "prune it so escapes stay meaningful"});
        } else if (!escape.has_reason) {
          report.violations.push_back(
              {model.file->path, escape.line, "escape-reason",
               "escape carries no justification; append the reason the "
               "suppressed construct is sound"});
        }
      }
    }
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const LintViolation& a, const LintViolation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return report;
}

std::vector<SourceFile> ReadSources(const std::string& root,
                                    const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const std::string& subdir : subdirs) {
    fs::path base = fs::path(root) / subdir;
    if (!fs::exists(base)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") {
        paths.push_back(entry.path());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> sources;
  sources.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream stream(path);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    sources.push_back({fs::relative(path, root).generic_string(), buffer.str()});
  }
  return sources;
}

ProjectReport LintProject(const std::string& root,
                          const std::vector<std::string>& subdirs,
                          ProjectOptions options) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> sources = ReadSources(root, subdirs);
  if (options.layer && !options.has_layers) {
    fs::path layers = fs::path(root) / "tools" / "lint" / "layers.txt";
    if (fs::exists(layers)) {
      std::ifstream stream(layers);
      std::ostringstream buffer;
      buffer << stream.rdbuf();
      options.layers_text = buffer.str();
      options.has_layers = true;
    }
  }
  return LintProjectSources(std::move(sources), options);
}

}  // namespace litereconfig
