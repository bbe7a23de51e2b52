// detlint: the determinism & concurrency lint passes.
//
// The repository's core contract is that every EvalResult is a pure function
// of (seeds, config) and bit-identical at any --threads value. The dynamic
// side of that contract lives in tests/parallel_eval_test.cc and the TSan CI
// job; detlint is the static side. Four passes:
//
// Legacy token rules (PR 4), per line:
//
//   banned-random    std::random_device / rand() / mt19937 & friends — all
//                    randomness must come from src/util/rng.h (Pcg32 seeded
//                    via HashKeys), keyed by entity identifiers.
//   banned-time      time() / clock() / gettimeofday — no wall-clock reads in
//                    result-producing code.
//   banned-clock     std::chrono steady/system/high_resolution_clock, except
//                    the sanctioned bench timing helper (bench/bench_util.h).
//   banned-include   <random>, <ctime>, <chrono>, <unordered_map>,
//                    <unordered_set> — the headers behind the rules above.
//   raw-sync         std::mutex / condition_variable / lock types outside
//                    src/util/mutex.h — shared state must use the annotated
//                    wrappers so clang -Wthread-safety can check locking.
//   unordered-iter   range-for over an unordered container — iteration order
//                    is unspecified and must not feed results.
//   mutable-global   file-scope / static / thread_local mutable state — a
//                    hidden channel between runs and between threads.
//   parallel-accum   compound assignment (+=, -=, *=, /=) onto a double/float
//                    inside a ParallelFor/ParallelMap extent — floating-point
//                    accumulation order would depend on thread scheduling;
//                    write per-index slots and reduce serially.
//   header-guard     #ifndef guard must be the repo-relative path, uppercase,
//                    with a matching #define and a "#endif  // GUARD" trailer.
//   include-path     project includes are written from the repo root
//                    ("src/...", not "../util/...").
//
// Structural passes (see rng_pass.h, lock_pass.h, layer_pass.h):
//
//   rng-parallel-capture / rng-conditional-draw / rng-unseeded-member
//   lock-cycle / guarded-by-coverage
//   layer-order / include-cycle / layer-unknown
//
// Escape hygiene (only when every pass runs, i.e. the full detlint_tree
// configuration — a pass-restricted run cannot tell which escapes the other
// passes would have consumed):
//
//   unused-escape    a "// detlint:" escape that no longer suppresses any
//                    finding; prune it.
//   escape-reason    an escape with no justification text.
//
// Escapes are inline, must start their comment, and must carry a reason, e.g.
//   foo();  // detlint: allow(banned-clock) bench wall timing
// for sanctioned unordered iteration,
//   for (const auto& kv : index) {  // detlint: order-independent
// and for a conditional draw whose count is schedule-invariant,
//   if (!branch.cpu) {  // detlint: stream-stable(branch id is pure config)
// Comments and string literals are stripped before token matching, and escape
// directives are only honored inside real comments — prose about a banned
// construct never trips the linter, and a directive quoted in a string
// literal never suppresses anything.
#ifndef TOOLS_LINT_DETLINT_LIB_H_
#define TOOLS_LINT_DETLINT_LIB_H_

#include <string>
#include <vector>

#include "tools/lint/source_model.h"

namespace litereconfig {

struct LintViolation {
  std::string file;  // repo-relative path
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

// "file:line: rule: message" — the exact format CI logs and editors expect.
std::string FormatViolation(const LintViolation& violation);

// Lints one file with the legacy token rules given its repo-relative path
// (used for path-scoped rules such as header-guard and the raw-sync
// exemption) and its full contents. The structural passes and escape hygiene
// need project context and run only under LintProject*.
std::vector<LintViolation> LintFileContent(const std::string& repo_relative_path,
                                           const std::string& content);

// The legacy rules over an already-built model, marking consumed escapes used
// in model.escapes (the building block behind both entry points above/below).
void RunLegacyRules(FileModel& model, std::vector<LintViolation>* out);

// Every .h/.cc file under root/<subdir> for each listed subdir, in sorted path
// order, with repo-relative paths: what LintProject lints and detlint --fix
// rewrites.
std::vector<SourceFile> ReadSources(const std::string& root,
                                    const std::vector<std::string>& subdirs);

// --- the multi-pass project analyzer ------------------------------------

struct ProjectOptions {
  bool legacy = true;
  bool rng = true;
  bool lock = true;
  bool layer = true;
  // Escape hygiene (unused-escape / escape-reason); effective only when all
  // four passes are enabled.
  bool check_escapes = true;
  // Contents of layers.txt; has_layers=false means the spec is absent (a
  // layer-unknown finding when the layer pass is enabled).
  std::string layers_text;
  bool has_layers = false;
  std::string layers_path = "tools/lint/layers.txt";
};

struct ProjectReport {
  std::vector<LintViolation> violations;
  int files_scanned = 0;
  // Lock-order graph summary (for the "cycle-free" report line).
  int lock_mutexes = 0;
  int lock_edges = 0;
  bool lock_cycle = false;
  // Include-graph summary.
  int include_edges = 0;
  int layer_count = 0;
  bool include_cycle = false;
};

// Runs the enabled passes over an in-memory file set (the test entry point).
// Violations are sorted by (file, line, rule, message).
ProjectReport LintProjectSources(std::vector<SourceFile> sources,
                                 const ProjectOptions& options);

// Reads the sources under root/<subdir>s (ReadSources), loads
// root/tools/lint/layers.txt when present (unless options already carries a
// spec), and delegates to LintProjectSources.
ProjectReport LintProject(const std::string& root,
                          const std::vector<std::string>& subdirs,
                          ProjectOptions options);

// The expected #ifndef guard for a repo-relative path (uppercased path with
// non-alphanumerics as '_', plus a trailing '_'). Shared with detlint --fix.
std::string ExpectedHeaderGuard(const std::string& rel_path);

// Exposed for tests: `content` with comments and string/character literals
// blanked out (structure and line breaks preserved).
std::string StripCommentsAndStrings(const std::string& content);

}  // namespace litereconfig

#endif  // TOOLS_LINT_DETLINT_LIB_H_
