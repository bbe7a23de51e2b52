// RNG-stream discipline: the static side of the draw-count contract.
//
// Every Pcg32 stream in the tree is either (a) a short-lived local seeded by
// hash-keyed entity ids — its draw count is private to one scope — or (b) a
// long-lived stream (a class member, or a caller-owned stream threaded through
// a `Pcg32&` parameter) whose draw count is part of the cross-call contract:
// any schedule- or state-dependent variation in how many draws it performs
// perturbs every later consumer of the same stream. This pass checks the
// long-lived streams:
//
//   rng-parallel-capture   a Pcg32 object declared outside a ParallelFor /
//                          ParallelMap extent is referenced inside it.
//                          Which thread draws first is a race; parallel bodies
//                          must seed their own substream from entity ids.
//   rng-conditional-draw   a member or reference-parameter stream is used
//                          inside an `if`/`else`/`switch` extent. The draw
//                          count then depends on runtime state; the site must
//                          carry `// detlint: stream-stable(reason)` (on the
//                          use line, the preceding comment line, or the
//                          guarding `if` header) arguing why the condition is
//                          a pure function of (seeds, config).
//   rng-unseeded-member    a Pcg32 class member with no explicit seed
//                          expression — neither a brace-or-equals initializer
//                          nor a constructor-initializer in the class's own
//                          or sibling translation unit.
#ifndef TOOLS_LINT_RNG_PASS_H_
#define TOOLS_LINT_RNG_PASS_H_

#include <set>
#include <string>
#include <vector>

#include "tools/lint/detlint_lib.h"
#include "tools/lint/source_model.h"

namespace litereconfig {

// Project-wide facts the per-file scan needs: member streams are declared in
// headers but drawn from in the paired .cc.
struct RngPassContext {
  std::set<std::string> member_streams;  // names of Pcg32-typed data members
};

RngPassContext BuildRngPassContext(const std::vector<FileModel>& models);

// Runs all three rules over one file. `all_models` is consulted for sibling
// translation units (constructor-initializer evidence for rng-unseeded-member).
// Marks matched escapes used in model.escapes.
std::vector<LintViolation> RunRngPass(FileModel& model,
                                      const RngPassContext& context,
                                      const std::vector<FileModel>& all_models);

}  // namespace litereconfig

#endif  // TOOLS_LINT_RNG_PASS_H_
