#include "tools/lint/rng_pass.h"

#include <algorithm>

namespace litereconfig {

namespace {

// A Pcg32 object declared somewhere in the file: `Pcg32 rng(...)`,
// `Pcg32& rng`, `Pcg32* rng`. Function declarations returning Pcg32 are
// skipped (the name is followed by a parameter list at file scope, which the
// declaration-site check below filters by requiring the declarator name not be
// immediately called... a name followed by '(' is accepted because local
// declarations are routinely `Pcg32 rng(HashKeys(...))`).
struct RngDecl {
  std::string name;
  size_t pos = 0;  // position of the name in the stripped text
};

std::vector<RngDecl> FindRngDecls(const FileModel& model) {
  const std::string& s = model.masked.stripped;
  std::vector<RngDecl> decls;
  size_t pos = FindTokenFrom(s, "Pcg32", /*require_call=*/false, 0);
  while (pos != std::string::npos) {
    size_t i = pos + 5;
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n')) {
      ++i;
    }
    while (i < s.size() && (s[i] == '&' || s[i] == '*')) {
      ++i;
      while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) {
        ++i;
      }
    }
    if (i < s.size() && IsIdentifierChar(s[i]) &&
        std::isdigit(static_cast<unsigned char>(s[i])) == 0) {
      size_t start = i;
      while (i < s.size() && IsIdentifierChar(s[i])) {
        ++i;
      }
      decls.push_back({s.substr(start, i - start), start});
    }
    pos = FindTokenFrom(s, "Pcg32", /*require_call=*/false, pos + 1);
  }
  return decls;
}

// Reference parameters of type Pcg32 in a parameter-list text.
std::vector<std::string> RngRefParams(const std::string& params) {
  std::vector<std::string> names;
  size_t pos = FindTokenFrom(params, "Pcg32", /*require_call=*/false, 0);
  while (pos != std::string::npos) {
    size_t i = pos + 5;
    while (i < params.size() && (params[i] == ' ' || params[i] == '\t')) {
      ++i;
    }
    if (i < params.size() && params[i] == '&') {
      ++i;
      while (i < params.size() && (params[i] == ' ' || params[i] == '\t')) {
        ++i;
      }
      size_t start = i;
      while (i < params.size() && IsIdentifierChar(params[i])) {
        ++i;
      }
      if (i > start) {
        names.push_back(params.substr(start, i - start));
      }
    }
    pos = FindTokenFrom(params, "Pcg32", /*require_call=*/false, pos + 1);
  }
  return names;
}

// The paren-balanced extents of ParallelFor / ParallelMap call sites.
// From the token, identifier/template/member punctuation is skipped forward to
// the opening '(' so `pool.ParallelFor(`, `ThreadPool::Shared().ParallelMap(`
// and declaration forms all resolve to their argument extent.
std::vector<Extent> ParallelExtents(const FileModel& model) {
  const std::string& s = model.masked.stripped;
  std::vector<Extent> extents;
  for (const char* keyword : {"ParallelFor", "ParallelMap"}) {
    size_t pos = FindTokenFrom(s, keyword, /*require_call=*/false, 0);
    while (pos != std::string::npos) {
      size_t i = pos + std::string(keyword).size();
      while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) {
        ++i;
      }
      if (i < s.size() && s[i] == '(') {
        size_t end = MatchParen(s, i);
        if (end != std::string::npos) {
          extents.push_back({i + 1, end - 1});
        }
      }
      pos = FindTokenFrom(s, keyword, /*require_call=*/false, pos + 1);
    }
  }
  return extents;
}

bool FirstTypeWordIs(const std::string& decl, const std::string& type) {
  size_t i = 0;
  while (i < decl.size() && !IsIdentifierChar(decl[i])) {
    ++i;
  }
  size_t start = i;
  while (i < decl.size() && IsIdentifierChar(decl[i])) {
    ++i;
  }
  std::string first = decl.substr(start, i - start);
  if ((first == "mutable" || first == "static") && i < decl.size()) {
    return FirstTypeWordIs(decl.substr(i), type);
  }
  return first == type;
}

// True when `name` is initialized in a constructor-initializer list of
// `model`: the token followed by '(' or '{' and preceded (over whitespace) by
// ':' or ','. Heuristic, but ctor-init is the only C++ position where a bare
// member name is directly followed by an initializer group after ':'/','.
bool HasCtorInit(const FileModel& model, const std::string& name) {
  const std::string& s = model.masked.stripped;
  size_t pos = FindTokenFrom(s, name, /*require_call=*/false, 0);
  while (pos != std::string::npos) {
    size_t after = pos + name.size();
    while (after < s.size() && (s[after] == ' ' || s[after] == '\t')) {
      ++after;
    }
    if (after < s.size() && (s[after] == '(' || s[after] == '{')) {
      size_t before = pos;
      while (before > 0 && (s[before - 1] == ' ' || s[before - 1] == '\t' ||
                            s[before - 1] == '\n' || s[before - 1] == '\r')) {
        --before;
      }
      if (before > 0 && (s[before - 1] == ',' ||
                         (s[before - 1] == ':' &&
                          (before < 2 || s[before - 2] != ':')))) {
        return true;
      }
    }
    pos = FindTokenFrom(s, name, /*require_call=*/false, pos + 1);
  }
  return false;
}

// The sibling translation unit of a header (stream_session.h ->
// stream_session.cc) and vice versa.
std::string SiblingPath(const std::string& path) {
  if (path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0) {
    return path.substr(0, path.size() - 2) + ".cc";
  }
  if (path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0) {
    return path.substr(0, path.size() - 3) + ".h";
  }
  return std::string();
}

}  // namespace

RngPassContext BuildRngPassContext(const std::vector<FileModel>& models) {
  RngPassContext context;
  for (const FileModel& model : models) {
    for (const ClassModel& klass : model.classes) {
      for (const MemberModel& member : klass.members) {
        if (FirstTypeWordIs(member.decl, "Pcg32")) {
          context.member_streams.insert(member.name);
        }
      }
    }
  }
  return context;
}

std::vector<LintViolation> RunRngPass(FileModel& model,
                                      const RngPassContext& context,
                                      const std::vector<FileModel>& all_models) {
  const std::string& s = model.masked.stripped;
  const std::string& path = model.file->path;
  std::vector<LintViolation> found;

  // --- rng-parallel-capture ---
  std::vector<RngDecl> decls = FindRngDecls(model);
  for (const Extent& extent : ParallelExtents(model)) {
    std::set<std::string> outside;   // declared before/outside this extent
    std::set<std::string> shadowed;  // redeclared inside: a fresh substream
    for (const RngDecl& decl : decls) {
      if (extent.Contains(decl.pos)) {
        shadowed.insert(decl.name);
      } else {
        outside.insert(decl.name);
      }
    }
    for (const std::string& name : context.member_streams) {
      if (shadowed.count(name) == 0) {
        outside.insert(name);
      }
    }
    std::set<std::string> flagged;
    for (const std::string& name : outside) {
      if (shadowed.count(name) > 0 || flagged.count(name) > 0) {
        continue;
      }
      size_t use = FindTokenFrom(s, name, /*require_call=*/false, extent.begin);
      if (use == std::string::npos || use >= extent.end) {
        continue;
      }
      int line = model.LineAt(use);
      if (!model.escapes.Allows(line, "rng-parallel-capture")) {
        found.push_back(
            {path, line, "rng-parallel-capture",
             "Pcg32 '" + name + "' declared outside this parallel extent is "
             "used inside it; which thread draws first is a race. Seed a "
             "local substream from entity ids (HashKeys) inside the body"});
      }
      flagged.insert(name);
    }
  }

  // --- rng-conditional-draw ---
  // Long-lived streams only: members and Pcg32& parameters. Locals are
  // per-scope substreams whose draw counts don't outlive the scope.
  for (const FunctionModel& function : model.functions) {
    std::set<std::string> streams(context.member_streams.begin(),
                                  context.member_streams.end());
    for (const std::string& param : RngRefParams(function.params)) {
      streams.insert(param);
    }
    for (const std::string& name : streams) {
      size_t use = FindTokenFrom(s, name, /*require_call=*/false,
                                 function.body.begin);
      while (use != std::string::npos && use < function.body.end) {
        std::vector<int> guards = model.GuardLinesAt(use, function.body);
        if (!guards.empty()) {
          int line = model.LineAt(use);
          if (!model.escapes.StreamStableAt(line, guards)) {
            found.push_back(
                {path, line, "rng-conditional-draw",
                 "stream '" + name + "' (member or Pcg32& parameter) is used "
                 "under a conditional; its draw count now depends on runtime "
                 "state. Justify with '// detlint: stream-stable(<why the "
                 "condition is a pure function of seeds and config>)' on this "
                 "line or the guarding if/switch header, or restructure so "
                 "the draw is unconditional"});
          }
        }
        use = FindTokenFrom(s, name, /*require_call=*/false, use + 1);
      }
    }
  }

  // --- rng-unseeded-member ---
  for (const ClassModel& klass : model.classes) {
    for (const MemberModel& member : klass.members) {
      if (!FirstTypeWordIs(member.decl, "Pcg32")) {
        continue;
      }
      if (member.has_initializer || member.is_static) {
        continue;  // brace-or-equals initializer carries the seed expression
      }
      bool seeded = HasCtorInit(model, member.name);
      if (!seeded) {
        std::string sibling = SiblingPath(path);
        for (const FileModel& other : all_models) {
          if (other.file->path == sibling) {
            seeded = HasCtorInit(other, member.name);
            break;
          }
        }
      }
      if (!seeded && !model.escapes.Allows(member.line, "rng-unseeded-member")) {
        found.push_back(
            {path, member.line, "rng-unseeded-member",
             "Pcg32 member '" + member.name + "' of " + klass.name +
                 " has no explicit seed expression (no initializer and no "
                 "constructor-initializer found); seed it from entity ids "
                 "via HashKeys so the stream is a pure function of "
                 "(seeds, config)"});
      }
    }
  }

  return found;
}

}  // namespace litereconfig
