// The shared source model behind detlint's multi-pass analyses.
//
// detlint v1 was a per-line token scanner; the v2 passes (rng-stream
// discipline, lock-order graphs, include layering) need *structure*: which
// characters are code vs. comment vs. string, where escape comments sit and
// whether they ever suppressed anything, which extents are conditional, where
// function and class bodies begin and end. This header models exactly that
// much structure — deliberately heuristic, token-level, and std-only, so the
// linter keeps building without the product library or a real C++ frontend.
//
// The model is conservative where it matters: a construct the scanner cannot
// classify becomes a neutral scope, never a silent exemption, and every
// heuristic is pinned by fixtures in tests/lint_test.cc.
#ifndef TOOLS_LINT_SOURCE_MODEL_H_
#define TOOLS_LINT_SOURCE_MODEL_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace litereconfig {

// One file handed to the analyzer: repo-relative path plus full contents.
struct SourceFile {
  std::string path;
  std::string content;
};

// Per-character classification of a translation unit.
enum class CharClass : unsigned char { kCode, kComment, kString };

struct MaskedSource {
  // Contents with comments and string/char literals blanked to spaces
  // (line structure preserved) — what the token passes scan.
  std::string stripped;
  // mask[i] classifies content[i]. Same length as the original content.
  std::vector<CharClass> mask;
};

// Strips comments and string/character literals (including raw strings),
// recording which class each character had. The stripped text is what every
// pass token-matches against; the mask is what the escape parser uses to
// accept `// detlint:` directives only inside real comments (a directive
// quoted in a string literal is prose, not an escape).
MaskedSource StripWithMask(const std::string& content);

// --- escapes -------------------------------------------------------------

// One `// detlint:` directive. Three vocabularies:
//   // detlint: allow(rule-a, rule-b) reason        — suppress listed rules
//   // detlint: order-independent [reason]          — suppress unordered-iter
//   // detlint: stream-stable(reason)               — bless a conditional RNG
//                                                     draw as schedule-invariant
// A directive on a line applies to that line; a directive on a line that is
// nothing but a comment also applies to the next line.
struct Escape {
  int line = 0;  // 1-based line the directive is written on
  std::set<std::string> rules;
  bool has_reason = false;
  bool used = false;
};

// Parses every escape in a file and tracks which ones actually suppressed a
// violation, so the unused-escape pass can flag the stale ones.
class EscapeRegistry {
 public:
  EscapeRegistry() = default;
  static EscapeRegistry Parse(const std::string& content,
                              const MaskedSource& masked);

  // True when `rule` is escaped at `line` (1-based): a directive on the line
  // itself or on a directly preceding comment-only line. Marks the matching
  // escape used.
  bool Allows(int line, const std::string& rule);

  // The stream-stable vocabulary, looked up at the draw line, its preceding
  // comment line, or any of the supplied guard-header lines (so one escape on
  // the `if (...)` line blesses every draw in that conditional). Marks used.
  bool StreamStableAt(int line, const std::vector<int>& guard_lines);

  const std::vector<Escape>& escapes() const { return escapes_; }
  std::vector<Escape>& mutable_escapes() { return escapes_; }

 private:
  // Escapes indexed by every line they apply to.
  std::vector<size_t> ApplicableTo(int line) const;

  std::vector<Escape> escapes_;
  std::map<int, std::vector<size_t>> by_line_;
};

// --- structure -----------------------------------------------------------

// A half-open character interval [begin, end) of the file.
struct Extent {
  size_t begin = 0;
  size_t end = 0;
  bool Contains(size_t pos) const { return pos >= begin && pos < end; }
};

// The guarded extent of one `if` / `else` / `switch` (brace block or single
// statement). `header_line` is where the keyword sits — an escape written
// there blesses the whole extent.
struct ConditionalExtent {
  Extent extent;
  int header_line = 0;  // 1-based
};

// One function *definition* (a body was found). `name` keeps any `Class::`
// qualification; `params` is the parameter-list text; `acquires`/`requires_`
// hold the mutex expressions named by LR_ACQUIRE / LR_REQUIRES annotations on
// the definition.
struct FunctionModel {
  std::string name;        // possibly qualified, e.g. "ThreadPool::ParallelFor"
  std::string bare_name;   // "ParallelFor"
  std::string class_name;  // "" for free functions (out-of-line defs resolve
                           // through the qualifier; in-class defs through the
                           // enclosing class extent)
  std::string params;      // parameter-list text (stripped)
  Extent body;             // between the braces, exclusive of them
  int line = 0;            // 1-based line of the opening brace
  std::vector<std::string> acquires;   // LR_ACQUIRE(x) on the definition
  std::vector<std::string> requires_;  // LR_REQUIRES(x) on the definition
};

// One data member of a class/struct.
struct MemberModel {
  std::string name;
  std::string decl;  // statement text (stripped, LR attributes removed)
  int line = 0;      // 1-based
  bool guarded = false;    // carries LR_GUARDED_BY(...) / LR_PT_GUARDED_BY(...)
  bool is_mutex = false;   // type Mutex
  bool is_condvar = false; // type CondVar
  bool is_atomic = false;  // std::atomic<...> — synchronizes itself
  bool is_const = false;   // constant after construction
  bool is_reference = false;  // binding fixed at construction
  bool is_static = false;  // class state, owned by the mutable-global rule
  bool has_initializer = false;  // brace-or-equals initializer on the decl
  std::string guarded_by;  // the mutex expression inside LR_GUARDED_BY(...)
};

struct ClassModel {
  std::string name;  // possibly qualified, e.g. "DeferredTask::State"
  Extent body;       // between the braces
  int line = 0;
  std::vector<MemberModel> members;
  bool owns_mutex = false;  // has a member of type Mutex

  const MemberModel* FindMember(const std::string& member_name) const;
};

// The full per-file model every pass consumes.
struct FileModel {
  const SourceFile* file = nullptr;
  MaskedSource masked;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // stripped, split
  EscapeRegistry escapes;
  std::vector<ConditionalExtent> conditionals;
  std::vector<FunctionModel> functions;
  std::vector<ClassModel> classes;

  // 1-based line of a character position in the stripped text.
  int LineAt(size_t pos) const;
  // Header lines of every conditional whose extent contains `pos`, innermost
  // last, restricted to conditionals inside `within` (a function body).
  std::vector<int> GuardLinesAt(size_t pos, const Extent& within) const;
  // True when `pos` lies in some conditional extent inside `within`.
  bool InConditional(size_t pos, const Extent& within) const;
  // The function whose body contains `pos`, or nullptr.
  const FunctionModel* FunctionAt(size_t pos) const;
};

FileModel BuildFileModel(const SourceFile& file);

// --- shared token utilities ---------------------------------------------

bool IsIdentifierChar(char c);

// Finds `token` at identifier boundaries in `code`, starting at `from`;
// npos when absent. With `require_call`, the match must look like a free
// function call: followed by '(' and not reached via '.', '->', or '::'.
size_t FindTokenFrom(const std::string& code, const std::string& token,
                     bool require_call, size_t from);

// Position just past the parenthesized group opening at `open` (which must
// index a '('), or std::string::npos when unbalanced.
size_t MatchParen(const std::string& code, size_t open);
// Same for a brace group opening at `open` ('{').
size_t MatchBrace(const std::string& code, size_t open);

std::string TrimWhitespace(const std::string& s);
// `s` without leading spaces and tabs.
std::string LTrim(const std::string& s);
// `s` without trailing spaces, tabs and carriage returns.
std::string RTrim(const std::string& s);

}  // namespace litereconfig

#endif  // TOOLS_LINT_SOURCE_MODEL_H_
