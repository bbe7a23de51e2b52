// detlint — the determinism & concurrency analyzer (see detlint_lib.h for the
// rule catalogue). Exits nonzero when any violation is found, printing each as
// "file:line: rule: message".
//
//   usage: detlint [--root DIR] [--pass LIST] [--json[=FILE]]
//                  [--changed BASE] [--fix [--dry-run]] [subdir...]
//
//   --pass LIST   comma list of passes to run: legacy, rng, lock, layer, all
//                 (default all). Escape hygiene (unused-escape/escape-reason)
//                 only runs under --pass=all.
//   --json[=FILE] additionally emit the findings as a JSON array (to stdout,
//                 or to FILE) for the CI artifact.
//   --changed B   report only violations in files changed vs. git base B
//                 (analysis still runs over the whole tree so inter-file
//                 passes stay sound; only the report is filtered).
//   --fix         apply mechanical fixes (header guards, repo-rooted include
//                 rewrites) in place; with --dry-run, print the would-be
//                 edits as a diff and change nothing. Exits 1 if anything
//                 changed (or would change).
//
// With no subdirs, scans src/ tools/ bench/ tests/ examples/ under the root.
// Registered as ctest targets over the real tree, and run by the CI lint job.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/detlint_lib.h"
#include "tools/lint/fix.h"

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJson(const std::vector<litereconfig::LintViolation>& violations) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < violations.size(); ++i) {
    const litereconfig::LintViolation& v = violations[i];
    out << "  {\"file\": \"" << JsonEscape(v.file) << "\", \"line\": " << v.line
        << ", \"rule\": \"" << JsonEscape(v.rule) << "\", \"message\": \""
        << JsonEscape(v.message) << "\"}";
    if (i + 1 < violations.size()) {
      out << ",";
    }
    out << "\n";
  }
  out << "]\n";
  return out.str();
}

// Repo-relative paths changed vs. `base`, via git. Returns false if git is
// unavailable or the command fails (caller then reports everything).
bool ChangedFiles(const std::string& root, const std::string& base,
                  std::set<std::string>* out) {
  std::string command = "git -C '" + root + "' diff --name-only '" + base +
                        "' -- 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return false;
  }
  char buffer[4096];
  std::string text;
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    text += buffer;
  }
  int status = pclose(pipe);
  if (status != 0) {
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) {
      out->insert(line);
    }
  }
  return true;
}

int RunFix(const std::string& root, const std::vector<std::string>& subdirs,
           bool dry_run) {
  std::vector<litereconfig::SourceFile> sources =
      litereconfig::ReadSources(root, subdirs);
  std::set<std::string> known_files;
  for (const litereconfig::SourceFile& source : sources) {
    known_files.insert(source.path);
  }
  int changed_files = 0;
  int total_edits = 0;
  for (const litereconfig::SourceFile& source : sources) {
    litereconfig::FixResult result =
        litereconfig::FixFileContent(source.path, source.content, known_files);
    if (!result.changed) {
      continue;
    }
    ++changed_files;
    total_edits += static_cast<int>(result.edits.size());
    for (const litereconfig::FixEdit& edit : result.edits) {
      std::cout << source.path << ":" << edit.line << ":\n"
                << "  - " << edit.before << "\n"
                << "  + " << edit.after << "\n";
    }
    if (!dry_run) {
      std::ofstream stream(std::filesystem::path(root) / source.path,
                           std::ios::trunc);
      stream << result.content;
    }
  }
  std::cerr << "detlint --fix: " << total_edits << " edit"
            << (total_edits == 1 ? "" : "s") << " in " << changed_files
            << " file" << (changed_files == 1 ? "" : "s")
            << (dry_run ? " (dry run, nothing written)" : "") << "\n";
  return changed_files > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> subdirs;
  std::string pass_list = "all";
  bool json = false;
  std::string json_file;
  std::string changed_base;
  bool fix = false;
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: detlint [--root DIR] [--pass LIST] [--json[=FILE]]\n"
             "               [--changed BASE] [--fix [--dry-run]] [subdir...]\n"
             "Multi-pass determinism analyzer: legacy token rules, RNG-stream\n"
             "discipline, lock-order graph, include-graph layering.\n";
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--pass=", 0) == 0) {
      pass_list = arg.substr(7);
    } else if (arg == "--pass" && i + 1 < argc) {
      pass_list = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_file = arg.substr(7);
    } else if (arg.rfind("--changed=", 0) == 0) {
      changed_base = arg.substr(10);
    } else if (arg == "--changed" && i + 1 < argc) {
      changed_base = argv[++i];
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "detlint: unknown flag " << arg << " (see --help)\n";
      return 2;
    } else {
      subdirs.push_back(arg);
    }
  }
  if (subdirs.empty()) {
    subdirs = {"src", "tools", "bench", "tests", "examples"};
  }

  if (fix) {
    return RunFix(root, subdirs, dry_run);
  }

  litereconfig::ProjectOptions options;
  options.legacy = options.rng = options.lock = options.layer = false;
  {
    std::istringstream stream(pass_list);
    std::string pass;
    while (std::getline(stream, pass, ',')) {
      if (pass == "all") {
        options.legacy = options.rng = options.lock = options.layer = true;
      } else if (pass == "legacy") {
        options.legacy = true;
      } else if (pass == "rng") {
        options.rng = true;
      } else if (pass == "lock") {
        options.lock = true;
      } else if (pass == "layer") {
        options.layer = true;
      } else {
        std::cerr << "detlint: unknown pass '" << pass
                  << "' (legacy, rng, lock, layer, all)\n";
        return 2;
      }
    }
  }

  litereconfig::ProjectReport report =
      litereconfig::LintProject(root, subdirs, options);

  std::vector<litereconfig::LintViolation> reported = report.violations;
  if (!changed_base.empty()) {
    std::set<std::string> changed;
    if (ChangedFiles(root, changed_base, &changed)) {
      std::vector<litereconfig::LintViolation> filtered;
      for (litereconfig::LintViolation& violation : reported) {
        if (changed.count(violation.file) > 0) {
          filtered.push_back(std::move(violation));
        }
      }
      reported = std::move(filtered);
      std::cerr << "detlint: --changed " << changed_base << ": "
                << changed.size() << " changed file"
                << (changed.size() == 1 ? "" : "s") << "\n";
    } else {
      std::cerr << "detlint: --changed " << changed_base
                << ": git diff failed; reporting all findings\n";
    }
  }

  for (const litereconfig::LintViolation& violation : reported) {
    std::cout << litereconfig::FormatViolation(violation) << "\n";
  }
  if (json) {
    std::string payload = ToJson(reported);
    if (json_file.empty()) {
      std::cout << payload;
    } else {
      std::ofstream stream(json_file, std::ios::trunc);
      stream << payload;
    }
  }
  if (report.files_scanned == 0) {
    std::cerr << "detlint: no .h/.cc files found under " << root << "\n";
    return 2;
  }
  std::cerr << "detlint: " << report.files_scanned << " files, "
            << reported.size() << " violation"
            << (reported.size() == 1 ? "" : "s") << "\n";
  if (options.lock) {
    std::cerr << "detlint: lock graph: " << report.lock_mutexes
              << " mutexes, " << report.lock_edges << " edges, "
              << (report.lock_cycle ? "CYCLE" : "cycle-free") << "\n";
  }
  if (options.layer) {
    std::cerr << "detlint: include graph: " << report.include_edges
              << " edges over " << report.layer_count << " layers, "
              << (report.include_cycle ? "CYCLE" : "acyclic") << "\n";
  }
  return reported.empty() ? 0 : 1;
}
