#include "tools/lint/fix.h"

#include <sstream>
#include <vector>

#include "tools/lint/detlint_lib.h"
#include "tools/lint/source_model.h"

namespace litereconfig {

namespace {

// Lexically normalizes "a/b/../c" and "./c" segments.
std::string NormalizePath(const std::string& path) {
  std::vector<std::string> parts;
  std::string segment;
  std::istringstream stream(path);
  while (std::getline(stream, segment, '/')) {
    if (segment.empty() || segment == ".") {
      continue;
    }
    if (segment == "..") {
      if (parts.empty()) {
        return std::string();  // escapes the repo root
      }
      parts.pop_back();
      continue;
    }
    parts.push_back(segment);
  }
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += '/';
    }
    out += parts[i];
  }
  return out;
}

std::string DirName(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool IsRooted(const std::string& target) {
  for (const char* prefix :
       {"src/", "bench/", "tests/", "tools/", "examples/"}) {
    if (target.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

FixResult FixFileContent(const std::string& repo_relative_path,
                         const std::string& content,
                         const std::set<std::string>& known_files) {
  FixResult result;
  std::vector<std::string> lines;
  {
    std::string line;
    std::istringstream stream(content);
    while (std::getline(stream, line)) {
      lines.push_back(line);
    }
  }
  const bool ends_with_newline =
      !content.empty() && content.back() == '\n';

  auto edit = [&](size_t index, const std::string& after) {
    result.edits.push_back(
        {static_cast<int>(index + 1), lines[index], after});
    lines[index] = after;
    result.changed = true;
  };

  // --- header-guard fixes (.h only) ---
  const bool is_header =
      repo_relative_path.size() >= 2 &&
      repo_relative_path.compare(repo_relative_path.size() - 2, 2, ".h") == 0;
  if (is_header) {
    const std::string expected = ExpectedHeaderGuard(repo_relative_path);
    std::string old_guard;
    size_t ifndef_index = lines.size();
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string trimmed = LTrim(lines[i]);
      if (trimmed.rfind("#ifndef", 0) == 0) {
        std::istringstream words(trimmed);
        std::string directive;
        words >> directive >> old_guard;
        ifndef_index = i;
        break;
      }
    }
    if (ifndef_index < lines.size() && !old_guard.empty()) {
      if (old_guard != expected) {
        edit(ifndef_index, "#ifndef " + expected);
        if (ifndef_index + 1 < lines.size() &&
            RTrim(lines[ifndef_index + 1]) == "#define " + old_guard) {
          edit(ifndef_index + 1, "#define " + expected);
        }
      }
      // The trailer on the LAST #endif must be exact.
      for (size_t i = lines.size(); i-- > 0;) {
        if (LTrim(lines[i]).rfind("#endif", 0) == 0) {
          const std::string want = "#endif  // " + expected;
          if (RTrim(lines[i]) != want) {
            edit(i, want);
          }
          break;
        }
      }
    }
  }

  // --- include-path rewrites ---
  const std::string dir = DirName(repo_relative_path);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string trimmed = LTrim(lines[i]);
    if (trimmed.rfind("#include", 0) != 0) {
      continue;
    }
    size_t open = lines[i].find('"');
    if (open == std::string::npos) {
      continue;
    }
    size_t close = lines[i].find('"', open + 1);
    if (close == std::string::npos) {
      continue;
    }
    std::string target = lines[i].substr(open + 1, close - open - 1);
    if (IsRooted(target)) {
      continue;
    }
    std::string resolved = NormalizePath(dir + "/" + target);
    if (resolved.empty() || known_files.count(resolved) == 0) {
      continue;  // not resolvable against the scan set; leave it to a human
    }
    edit(i, lines[i].substr(0, open + 1) + resolved + lines[i].substr(close));
  }

  std::string rebuilt;
  for (size_t i = 0; i < lines.size(); ++i) {
    rebuilt += lines[i];
    if (i + 1 < lines.size() || ends_with_newline) {
      rebuilt += '\n';
    }
  }
  result.content = std::move(rebuilt);
  return result;
}

}  // namespace litereconfig
