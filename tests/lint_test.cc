// Tests for detlint (tools/lint/): fixture files with known violations and
// clean files, plus the comment/string stripper and the tree walker. The
// companion ctest entry `detlint_tree` runs the real linter over the real
// tree, so these tests focus on rule behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tools/lint/detlint_lib.h"
#include "tools/lint/fix.h"

namespace litereconfig {
namespace {

std::vector<std::string> RulesOf(const std::vector<LintViolation>& violations) {
  std::vector<std::string> rules;
  rules.reserve(violations.size());
  for (const LintViolation& violation : violations) {
    rules.push_back(violation.rule);
  }
  return rules;
}

bool HasRule(const std::vector<LintViolation>& violations,
             const std::string& rule) {
  const std::vector<std::string> rules = RulesOf(violations);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// Wraps a body in a correct header guard for the given repo-relative path.
std::string GuardedHeader(const std::string& guard, const std::string& body) {
  return "#ifndef " + guard + "\n#define " + guard + "\n" + body + "#endif  // " +
         guard + "\n";
}

TEST(DetlintTest, CleanSourceFileHasNoViolations) {
  const std::string content =
      "#include <vector>\n"
      "#include \"src/util/rng.h\"\n"
      "namespace litereconfig {\n"
      "double Draw(uint64_t seed) {\n"
      "  Pcg32 rng(HashKeys({seed, 7}));\n"
      "  return rng.NextDouble();\n"
      "}\n"
      "}  // namespace litereconfig\n";
  EXPECT_TRUE(LintFileContent("src/foo/bar.cc", content).empty());
}

TEST(DetlintTest, BannedClockFlaggedAndAllowlisted) {
  const std::string line = "auto t = std::chrono::steady_clock::now();\n";
  auto violations = LintFileContent("src/a.cc", line);
  ASSERT_TRUE(HasRule(violations, "banned-clock"));
  EXPECT_EQ(violations[0].line, 1);

  const std::string allowed =
      "auto t = std::chrono::steady_clock::now();  "
      "// detlint: allow(banned-clock) bench wall timing\n";
  EXPECT_FALSE(HasRule(LintFileContent("src/a.cc", allowed), "banned-clock"));
}

TEST(DetlintTest, AllowOnPrecedingCommentLineApplies) {
  const std::string content =
      "// detlint: allow(mutable-global) process-wide cache\n"
      "static int cache_hits = 0;\n";
  EXPECT_FALSE(HasRule(LintFileContent("src/a.cc", content), "mutable-global"));
}

TEST(DetlintTest, BannedRandomSources) {
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "std::random_device rd;\n"),
                      "banned-random"));
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "int x = rand() % 6;\n"),
                      "banned-random"));
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "srand(42);\n"),
                      "banned-random"));
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "std::mt19937 gen(7);\n"),
                      "banned-random"));
  // Identifier boundaries: these only *contain* banned spellings.
  EXPECT_TRUE(LintFileContent("src/a.cc", "int strand(int x);\n").empty());
  EXPECT_TRUE(LintFileContent("src/a.cc", "double operand(int x);\n").empty());
}

TEST(DetlintTest, BannedTimeIsCallSensitive) {
  EXPECT_TRUE(
      HasRule(LintFileContent("src/a.cc", "long t = time(nullptr);\n"),
              "banned-time"));
  // Member access named `time` is not the libc call.
  EXPECT_TRUE(LintFileContent("src/a.cc", "double t = spec.time(3);\n").empty());
  // A plain variable named `time` is not a call either.
  EXPECT_TRUE(LintFileContent("src/a.cc", "double time = 0.5;\n").empty());
}

TEST(DetlintTest, CommentsAndStringsDoNotTrip) {
  const std::string content =
      "// std::random_device would break determinism here\n"
      "/* neither does steady_clock in prose */\n"
      "const char* kMessage = \"do not call srand(1) or time(nullptr)\";\n";
  EXPECT_TRUE(LintFileContent("src/a.cc", content).empty());
}

TEST(DetlintTest, BannedIncludes) {
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "#include <random>\n"),
                      "banned-random"));
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "#include <ctime>\n"),
                      "banned-time"));
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "#include <chrono>\n"),
                      "banned-clock"));
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "#include <unordered_map>\n"),
                      "unordered-iter"));
}

TEST(DetlintTest, RawSyncBannedOutsideWrapperHeader) {
  const std::string content = "std::mutex mu;\nstd::lock_guard<std::mutex> l(mu);\n";
  auto violations = LintFileContent("src/a.cc", content);
  EXPECT_GE(violations.size(), 2u);
  EXPECT_TRUE(HasRule(violations, "raw-sync"));
  EXPECT_TRUE(HasRule(LintFileContent("src/b.cc", "#include <mutex>\n"),
                      "raw-sync"));

  // The annotated wrapper header is the sanctioned home of the raw types.
  const std::string wrapper = GuardedHeader(
      "SRC_UTIL_MUTEX_H_", "#include <mutex>\nstd::mutex* Raw();\n");
  EXPECT_FALSE(
      HasRule(LintFileContent("src/util/mutex.h", wrapper), "raw-sync"));
}

TEST(DetlintTest, UnorderedIterationFlaggedUnlessMarked) {
  const std::string content =
      "std::unordered_map<int, double> index;\n"
      "for (const auto& kv : index) {\n"
      "}\n";
  auto violations = LintFileContent("src/a.cc", content);
  ASSERT_TRUE(HasRule(violations, "unordered-iter"));
  // The violation points at the loop, not the declaration.
  for (const LintViolation& violation : violations) {
    if (violation.rule == "unordered-iter") {
      EXPECT_EQ(violation.line, 2);
    }
  }

  const std::string marked =
      "std::unordered_map<int, double> index;\n"
      "for (const auto& kv : index) {  // detlint: order-independent\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintFileContent("src/a.cc", marked), "unordered-iter"));

  // Iterating an ordered container that shares no name is fine.
  const std::string ordered =
      "std::map<int, double> index;\n"
      "for (const auto& kv : index) {\n"
      "}\n";
  EXPECT_TRUE(LintFileContent("src/a.cc", ordered).empty());
}

TEST(DetlintTest, MutableGlobalHeuristics) {
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "static int counter = 0;\n"),
                      "mutable-global"));
  EXPECT_TRUE(
      HasRule(LintFileContent("src/a.cc", "thread_local bool flag = false;\n"),
              "mutable-global"));
  // Constants and function declarations are not mutable state.
  EXPECT_TRUE(LintFileContent("src/a.cc", "static const int kMax = 3;\n").empty());
  EXPECT_TRUE(
      LintFileContent("src/a.cc", "static constexpr double kPi = 3.14;\n")
          .empty());
  EXPECT_TRUE(LintFileContent("src/a.h",
                              GuardedHeader("SRC_A_H_",
                                            "class C {\n"
                                            " public:\n"
                                            "  static C FromParts(int a);\n"
                                            "};\n"))
                  .empty());
}

TEST(DetlintTest, HeaderGuardMustMatchPath) {
  // Correct guard: clean.
  EXPECT_TRUE(
      LintFileContent("src/util/rng.h", GuardedHeader("SRC_UTIL_RNG_H_", ""))
          .empty());

  // Wrong guard name.
  auto wrong = LintFileContent("src/util/rng.h", GuardedHeader("RNG_H", ""));
  ASSERT_TRUE(HasRule(wrong, "header-guard"));
  EXPECT_NE(wrong[0].message.find("SRC_UTIL_RNG_H_"), std::string::npos);

  // Missing #define line.
  const std::string no_define =
      "#ifndef SRC_UTIL_RNG_H_\nint x;\n#endif  // SRC_UTIL_RNG_H_\n";
  EXPECT_TRUE(HasRule(LintFileContent("src/util/rng.h", no_define),
                      "header-guard"));

  // Wrong #endif trailer comment.
  const std::string bad_endif =
      "#ifndef SRC_UTIL_RNG_H_\n#define SRC_UTIL_RNG_H_\n#endif\n";
  EXPECT_TRUE(HasRule(LintFileContent("src/util/rng.h", bad_endif),
                      "header-guard"));

  // #pragma once is not the repo convention.
  EXPECT_TRUE(HasRule(LintFileContent("src/util/rng.h", "#pragma once\n"),
                      "header-guard"));

  // No guard at all.
  EXPECT_TRUE(
      HasRule(LintFileContent("src/util/rng.h", "int x;\n"), "header-guard"));

  // Source files need no guard.
  EXPECT_TRUE(LintFileContent("src/util/rng.cc", "int x;\n").empty());
}

TEST(DetlintTest, IncludePathMustBeRepoRooted) {
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", "#include \"rng.h\"\n"),
                      "include-path"));
  EXPECT_TRUE(
      HasRule(LintFileContent("src/a.cc", "#include \"../util/rng.h\"\n"),
              "include-path"));
  EXPECT_TRUE(
      LintFileContent("src/a.cc", "#include \"src/util/rng.h\"\n").empty());
  EXPECT_TRUE(LintFileContent("src/a.cc", "#include <vector>\n").empty());
}

TEST(DetlintTest, ParallelAccumFlagsFloatAccumulationInExtent) {
  // A shared double accumulated inside a ParallelFor body: the summation
  // order would be which-thread-ran-first.
  const std::string bad =
      "void F(ThreadPool& pool) {\n"
      "  double sum = 0.0;\n"
      "  pool.ParallelFor(n, [&](size_t i) {\n"
      "    sum += Cost(i);\n"
      "  });\n"
      "}\n";
  std::vector<LintViolation> found = LintFileContent("src/a.cc", bad);
  ASSERT_TRUE(HasRule(found, "parallel-accum"));
  // The violation anchors on the accumulation line, not the call line.
  for (const LintViolation& violation : found) {
    if (violation.rule == "parallel-accum") {
      EXPECT_EQ(violation.line, 4);
    }
  }
  // All compound-assignment spellings are covered.
  for (const char* op : {"-=", "*=", "/="}) {
    std::string variant = bad;
    variant.replace(variant.find("+="), 2, op);
    EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", variant), "parallel-accum"))
        << op;
  }
}

TEST(DetlintTest, ParallelAccumSpansMultilineCallSites) {
  const std::string bad =
      "double total = 0.0;\n"
      "ThreadPool::Shared().ParallelFor(\n"
      "    videos.size(),\n"
      "    [&](size_t i) {\n"
      "      total += Evaluate(videos[i]);\n"
      "    },\n"
      "    threads);\n";
  EXPECT_TRUE(HasRule(LintFileContent("src/a.cc", bad), "parallel-accum"));
}

TEST(DetlintTest, ParallelAccumIgnoresSafePatterns) {
  // Per-index slot writes are the sanctioned pattern.
  EXPECT_TRUE(LintFileContent("src/a.cc",
                              "double out_ms[8];\n"
                              "pool.ParallelFor(n, [&](size_t i) {\n"
                              "  out[i] += Cost(i);\n"
                              "});\n")
                  .empty());
  // Integer accumulation is not an order problem (it is still a race, which
  // TSan owns; this rule is about floating-point order).
  EXPECT_TRUE(LintFileContent("src/a.cc",
                              "int count = 0;\n"
                              "pool.ParallelFor(n, [&](size_t i) {\n"
                              "  count += 1;\n"
                              "});\n")
                  .empty());
  // Accumulation outside any parallel extent is fine.
  EXPECT_TRUE(LintFileContent("src/a.cc",
                              "double sum = 0.0;\n"
                              "for (double v : values) {\n"
                              "  sum += v;\n"
                              "}\n"
                              "pool.ParallelFor(n, body);\n")
                  .empty());
  // Serial reduction over ParallelMap results is the idiom the rule points to.
  EXPECT_TRUE(LintFileContent("src/a.cc",
                              "std::vector<double> costs =\n"
                              "    pool.ParallelMap(n, [&](size_t i) "
                              "{ return Cost(i); });\n"
                              "double sum = 0.0;\n"
                              "for (double c : costs) {\n"
                              "  sum += c;\n"
                              "}\n")
                  .empty());
}

TEST(DetlintTest, ParallelAccumRespectsAllowances) {
  const std::string allowed_inline =
      "double sum = 0.0;\n"
      "pool.ParallelFor(n, [&](size_t i) {\n"
      "  sum += Cost(i);  // detlint: allow(parallel-accum) guarded by mutex\n"
      "});\n";
  EXPECT_TRUE(LintFileContent("src/a.cc", allowed_inline).empty());
  const std::string allowed_preceding =
      "double sum = 0.0;\n"
      "pool.ParallelFor(n, [&](size_t i) {\n"
      "  // detlint: allow(parallel-accum) guarded by mutex\n"
      "  sum += Cost(i);\n"
      "});\n";
  EXPECT_TRUE(LintFileContent("src/a.cc", allowed_preceding).empty());
}

TEST(DetlintTest, FormatViolationIsEditorClickable) {
  LintViolation violation{"src/a.cc", 12, "banned-time", "wall-clock read"};
  EXPECT_EQ(FormatViolation(violation),
            "src/a.cc:12: banned-time: wall-clock read");
}

TEST(DetlintStripTest, PreservesLineStructure) {
  const std::string content =
      "int a = 1;  // trailing comment\n"
      "/* multi\n"
      "   line */ int b = 2;\n"
      "const char* s = \"quoted \\\" still quoted\";\n";
  const std::string stripped = StripCommentsAndStrings(content);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("trailing"), std::string::npos);
  EXPECT_EQ(stripped.find("multi"), std::string::npos);
  EXPECT_EQ(stripped.find("quoted"), std::string::npos);
  EXPECT_NE(stripped.find("int b = 2;"), std::string::npos);
}

TEST(DetlintTreeTest, WalksOnlySourcesAndReportsRelativePaths) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(testing::TempDir()) / "detlint_tree_fixture";
  fs::remove_all(root);
  fs::create_directories(root / "src");
  fs::create_directories(root / "docs");
  {
    std::ofstream(root / "src" / "clean.cc") << "int x = 1;\n";
    std::ofstream(root / "src" / "dirty.cc") << "srand(42);\n";
    // Non-source files and unlisted subdirs are ignored.
    std::ofstream(root / "src" / "notes.md") << "srand(42);\n";
    std::ofstream(root / "docs" / "bad.cc") << "srand(42);\n";
  }
  ProjectOptions options;
  options.layer = false;  // the fixture has no layers.txt
  ProjectReport report = LintProject(root.string(), {"src"}, options);
  EXPECT_EQ(report.files_scanned, 2);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].file, "src/dirty.cc");
  EXPECT_EQ(report.violations[0].rule, "banned-random");
  fs::remove_all(root);
}


// --- structural passes (LintProjectSources over in-memory fixtures) ------

// Runs the rng/lock passes (legacy on, layer off, so escape hygiene stays
// quiet) over in-memory sources.
ProjectReport LintPasses(std::vector<SourceFile> files) {
  ProjectOptions options;
  options.layer = false;
  return LintProjectSources(std::move(files), options);
}

// Runs every pass including escape hygiene; `layers` is the layers.txt text.
ProjectReport LintAll(std::vector<SourceFile> files, const std::string& layers) {
  ProjectOptions options;
  options.layers_text = layers;
  options.has_layers = true;
  return LintProjectSources(std::move(files), options);
}

TEST(RngPassTest, ParallelCaptureFlagged) {
  const std::string content =
      "void Run(ThreadPool& pool, uint64_t seed) {\n"
      "  Pcg32 rng(HashKeys({seed, 1}));\n"
      "  pool.ParallelFor(8, [&](size_t i) {\n"
      "    double x = rng.NextDouble();\n"
      "    (void)x;\n"
      "  });\n"
      "}\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  EXPECT_TRUE(HasRule(report.violations, "rng-parallel-capture"));
}

TEST(RngPassTest, ParallelBodySubstreamIsClean) {
  const std::string content =
      "void Run(ThreadPool& pool, uint64_t seed) {\n"
      "  pool.ParallelFor(8, [&](size_t i) {\n"
      "    Pcg32 rng(HashKeys({seed, i}));\n"
      "    double x = rng.NextDouble();\n"
      "    (void)x;\n"
      "  });\n"
      "}\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  EXPECT_FALSE(HasRule(report.violations, "rng-parallel-capture"));
}

TEST(RngPassTest, ConditionalDrawOnRefParamFlagged) {
  const std::string content =
      "double Cost(bool outlier, Pcg32& rng) {\n"
      "  double cost = 0.0;\n"
      "  if (outlier) {\n"
      "    cost += rng.Uniform(1.0, 5.0);\n"
      "  }\n"
      "  return cost;\n"
      "}\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  ASSERT_TRUE(HasRule(report.violations, "rng-conditional-draw"));
  EXPECT_EQ(report.violations[0].line, 4);
}

TEST(RngPassTest, StreamStableOnGuardHeaderBlessesDraws) {
  const std::string content =
      "double Cost(bool outlier, Pcg32& rng) {\n"
      "  double cost = 0.0;\n"
      "  if (outlier) {  // detlint: stream-stable(outlier is pure config)\n"
      "    cost += rng.Uniform(1.0, 5.0);\n"
      "    cost += rng.Uniform(1.0, 5.0);\n"
      "  }\n"
      "  return cost;\n"
      "}\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  EXPECT_FALSE(HasRule(report.violations, "rng-conditional-draw"));
}

TEST(RngPassTest, StreamStableWithoutReasonTripsEscapeHygiene) {
  const std::string content =
      "double Cost(bool outlier, Pcg32& rng) {\n"
      "  if (outlier) {  // detlint: stream-stable()\n"
      "    return rng.Uniform(1.0, 5.0);\n"
      "  }\n"
      "  return 0.0;\n"
      "}\n";
  ProjectReport report = LintAll({{"src/util/fixture.cc", content}}, "util\n");
  EXPECT_TRUE(HasRule(report.violations, "escape-reason"));
}

TEST(RngPassTest, UnseededMemberFlaggedUnlessSiblingCtorSeedsIt) {
  const std::string header =
      "class Session {\n"
      " public:\n"
      "  Session(uint64_t seed);\n"
      " private:\n"
      "  Pcg32 rng_;\n"
      "};\n";
  ProjectReport report = LintPasses({{"src/util/session.h", header}});
  EXPECT_TRUE(HasRule(report.violations, "rng-unseeded-member"));

  const std::string impl =
      "Session::Session(uint64_t seed) : rng_(HashKeys({seed, 3})) {}\n";
  report = LintPasses({{"src/util/session.h", header},
                       {"src/util/session.cc", impl}});
  EXPECT_FALSE(HasRule(report.violations, "rng-unseeded-member"));
}

TEST(RngPassTest, MemberDrawUnderConditionalFlaggedAcrossFiles) {
  const std::string header =
      "class Session {\n"
      " public:\n"
      "  Session(uint64_t seed) : rng_(HashKeys({seed, 3})) {}\n"
      "  double Step(bool tail);\n"
      " private:\n"
      "  Pcg32 rng_;\n"
      "};\n";
  const std::string impl =
      "double Session::Step(bool tail) {\n"
      "  if (tail) {\n"
      "    return rng_.NextDouble();\n"
      "  }\n"
      "  return rng_.NextDouble();\n"
      "}\n";
  ProjectReport report = LintPasses({{"src/util/session.h", header},
                                     {"src/util/session.cc", impl}});
  std::vector<int> lines;
  for (const LintViolation& violation : report.violations) {
    if (violation.rule == "rng-conditional-draw") {
      lines.push_back(violation.line);
    }
  }
  // Only the guarded draw (line 3); the unconditional one is fine.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 3);
}

TEST(LockPassTest, ThreeMutexCycleDetected) {
  const std::string content =
      "class Table {\n"
      " public:\n"
      "  void A() {\n"
      "    MutexLock l1(a_);\n"
      "    MutexLock l2(b_);\n"
      "  }\n"
      "  void B() {\n"
      "    MutexLock l1(b_);\n"
      "    MutexLock l2(c_);\n"
      "  }\n"
      "  void C() {\n"
      "    MutexLock l1(c_);\n"
      "    MutexLock l2(a_);\n"
      "  }\n"
      " private:\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "  Mutex c_;\n"
      "};\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  EXPECT_TRUE(HasRule(report.violations, "lock-cycle"));
  EXPECT_TRUE(report.lock_cycle);
  EXPECT_GE(report.lock_edges, 3);
}

TEST(LockPassTest, ConsistentOrderIsCycleFree) {
  const std::string content =
      "class Table {\n"
      " public:\n"
      "  void A() {\n"
      "    MutexLock l1(a_);\n"
      "    MutexLock l2(b_);\n"
      "  }\n"
      "  void B() {\n"
      "    MutexLock l1(a_);\n"
      "    MutexLock l2(b_);\n"
      "  }\n"
      " private:\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "};\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  EXPECT_FALSE(HasRule(report.violations, "lock-cycle"));
  EXPECT_FALSE(report.lock_cycle);
}

TEST(LockPassTest, CycleThroughCalleeAcquisitionDetected) {
  const std::string content =
      "class Table {\n"
      " public:\n"
      "  void A() {\n"
      "    MutexLock lock(a_);\n"
      "    Grab();\n"
      "  }\n"
      "  void Grab() {\n"
      "    MutexLock lock(b_);\n"
      "  }\n"
      "  void B() {\n"
      "    MutexLock l1(b_);\n"
      "    MutexLock l2(a_);\n"
      "  }\n"
      " private:\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "};\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  EXPECT_TRUE(HasRule(report.violations, "lock-cycle"));
}

TEST(LockPassTest, GuardedByCoverageOnMutexOwningClass) {
  const std::string content =
      "class Counter {\n"
      " public:\n"
      "  void Bump();\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int guarded_count_ LR_GUARDED_BY(mu_) = 0;\n"
      "  int naked_count_ = 0;\n"
      "};\n";
  ProjectReport report = LintPasses({{"src/util/fixture.cc", content}});
  std::vector<std::string> flagged;
  for (const LintViolation& violation : report.violations) {
    if (violation.rule == "guarded-by-coverage") {
      flagged.push_back(violation.message);
    }
  }
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_NE(flagged[0].find("naked_count_"), std::string::npos);
}

TEST(LayerPassTest, UpwardIncludeFlagged) {
  const std::string layers = "util\nsched\n";
  std::vector<SourceFile> files = {
      {"src/util/low.h", GuardedHeader("SRC_UTIL_LOW_H_",
                                       "#include \"src/sched/high.h\"\n")},
      {"src/sched/high.h", GuardedHeader("SRC_SCHED_HIGH_H_", "int x();\n")}};
  ProjectReport report = LintAll(std::move(files), layers);
  ASSERT_TRUE(HasRule(report.violations, "layer-order"));
  EXPECT_FALSE(HasRule(report.violations, "include-cycle"));
}

TEST(LayerPassTest, DownwardAndSameStratumIncludesClean) {
  const std::string layers = "util vision\nsched\n";
  std::vector<SourceFile> files = {
      {"src/util/low.h", GuardedHeader("SRC_UTIL_LOW_H_",
                                       "#include \"src/vision/peer.h\"\n")},
      {"src/vision/peer.h", GuardedHeader("SRC_VISION_PEER_H_", "int y();\n")},
      {"src/sched/high.h", GuardedHeader("SRC_SCHED_HIGH_H_",
                                         "#include \"src/util/low.h\"\n")}};
  ProjectReport report = LintAll(std::move(files), layers);
  EXPECT_TRUE(report.violations.empty());
}

TEST(LayerPassTest, IncludeCycleDetected) {
  const std::string layers = "util\n";
  std::vector<SourceFile> files = {
      {"src/util/a.h", GuardedHeader("SRC_UTIL_A_H_",
                                     "#include \"src/util/b.h\"\n")},
      {"src/util/b.h", GuardedHeader("SRC_UTIL_B_H_",
                                     "#include \"src/util/a.h\"\n")}};
  ProjectReport report = LintAll(std::move(files), layers);
  EXPECT_TRUE(HasRule(report.violations, "include-cycle"));
  EXPECT_TRUE(report.include_cycle);
}

TEST(LayerPassTest, UnknownDirectoryInSpecRejected) {
  const std::string layers = "util\nschedd\n";  // typo'd module
  std::vector<SourceFile> files = {
      {"src/util/low.h", GuardedHeader("SRC_UTIL_LOW_H_", "int x();\n")}};
  ProjectReport report = LintAll(std::move(files), layers);
  EXPECT_TRUE(HasRule(report.violations, "layer-unknown"));
}

TEST(LayerPassTest, ModuleMissingFromSpecRejected) {
  const std::string layers = "util\n";
  std::vector<SourceFile> files = {
      {"src/util/low.h", GuardedHeader("SRC_UTIL_LOW_H_", "int x();\n")},
      {"src/sched/high.h", GuardedHeader("SRC_SCHED_HIGH_H_", "int y();\n")}};
  ProjectReport report = LintAll(std::move(files), layers);
  EXPECT_TRUE(HasRule(report.violations, "layer-unknown"));
}

TEST(LayerPassTest, MissingLayersFileReported) {
  ProjectOptions options;  // layer pass on, has_layers false
  ProjectReport report = LintProjectSources(
      {{"src/util/low.h", GuardedHeader("SRC_UTIL_LOW_H_", "int x();\n")}},
      options);
  ASSERT_TRUE(HasRule(report.violations, "layer-unknown"));
  EXPECT_EQ(report.violations[0].file, "tools/lint/layers.txt");
}

TEST(EscapeHygieneTest, UnusedEscapeFlagged) {
  const std::string content =
      "int Clean() {\n"
      "  return 1;  // detlint: allow(banned-random) stale justification\n"
      "}\n";
  ProjectReport report = LintAll({{"src/util/fixture.cc", content}}, "util\n");
  ASSERT_TRUE(HasRule(report.violations, "unused-escape"));
  EXPECT_EQ(report.violations[0].line, 2);
}

TEST(EscapeHygieneTest, UsedEscapeWithReasonIsClean) {
  const std::string content =
      "void F() {\n"
      "  srand(42);  // detlint: allow(banned-random) fixture exercising rand\n"
      "}\n";
  ProjectReport report = LintAll({{"src/util/fixture.cc", content}}, "util\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(EscapeHygieneTest, DirectiveInsideStringLiteralIsInert) {
  const std::string content =
      "const char* kDoc =\n"
      "    \"srand(42);  // detlint: allow(banned-random) quoted\";\n"
      "void F() {\n"
      "  srand(42);\n"
      "}\n";
  ProjectReport report = LintAll({{"src/util/fixture.cc", content}}, "util\n");
  // The quoted directive neither suppresses the real srand call on line 4
  // nor registers as an (unused) escape of its own.
  EXPECT_TRUE(HasRule(report.violations, "banned-random"));
  EXPECT_FALSE(HasRule(report.violations, "unused-escape"));
}

TEST(EscapeHygieneTest, MidCommentMentionIsNotADirective) {
  const std::string content =
      "// Escapes look like this: // detlint: allow(banned-random) reason.\n"
      "int x = 1;\n";
  ProjectReport report = LintAll({{"src/util/fixture.cc", content}}, "util\n");
  EXPECT_FALSE(HasRule(report.violations, "unused-escape"));
  EXPECT_TRUE(report.violations.empty());
}

// --- detlint --fix --------------------------------------------------------

TEST(FixTest, RewritesWrongHeaderGuardAndTrailer) {
  const std::string content =
      "#ifndef WRONG_GUARD_H\n"
      "#define WRONG_GUARD_H\n"
      "int x();\n"
      "#endif\n";
  FixResult result = FixFileContent("src/util/thing.h", content, {});
  ASSERT_TRUE(result.changed);
  EXPECT_NE(result.content.find("#ifndef SRC_UTIL_THING_H_"),
            std::string::npos);
  EXPECT_NE(result.content.find("#define SRC_UTIL_THING_H_"),
            std::string::npos);
  EXPECT_NE(result.content.find("#endif  // SRC_UTIL_THING_H_"),
            std::string::npos);
  EXPECT_EQ(result.edits.size(), 3u);
}

TEST(FixTest, RewritesRelativeIncludeToRepoRooted) {
  const std::string content = "#include \"../util/rng.h\"\n";
  FixResult result =
      FixFileContent("src/sched/thing.cc", content, {"src/util/rng.h"});
  ASSERT_TRUE(result.changed);
  EXPECT_EQ(result.content, "#include \"src/util/rng.h\"\n");
}

TEST(FixTest, UnresolvableIncludeLeftAlone) {
  const std::string content = "#include \"mystery/header.h\"\n";
  FixResult result =
      FixFileContent("src/sched/thing.cc", content, {"src/util/rng.h"});
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.content, content);
}

TEST(FixTest, CorrectFileIsAFixpoint) {
  const std::string content = GuardedHeader(
      "SRC_UTIL_THING_H_", "#include \"src/util/rng.h\"\nint x();\n");
  FixResult result =
      FixFileContent("src/util/thing.h", content, {"src/util/rng.h"});
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(result.content, content);
}

}  // namespace
}  // namespace litereconfig
