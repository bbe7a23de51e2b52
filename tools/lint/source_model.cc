#include "tools/lint/source_model.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace litereconfig {

namespace {

bool IsSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// Index of the last non-whitespace character at or before `i`, or npos.
size_t PrevNonSpace(const std::string& s, size_t i) {
  while (i != std::string::npos && i < s.size() && IsSpaceChar(s[i])) {
    if (i == 0) {
      return std::string::npos;
    }
    --i;
  }
  return i >= s.size() ? std::string::npos : i;
}

size_t NextNonSpace(const std::string& s, size_t i) {
  while (i < s.size() && IsSpaceChar(s[i])) {
    ++i;
  }
  return i < s.size() ? i : std::string::npos;
}

// Start of the identifier ending at `end` (inclusive); `end` itself must be an
// identifier character.
size_t IdentStart(const std::string& s, size_t end) {
  size_t start = end;
  while (start > 0 && IsIdentifierChar(s[start - 1])) {
    --start;
  }
  return start;
}

// Matches the ')' at `close` back to its '('; npos when unbalanced.
size_t MatchParenBackward(const std::string& s, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (s[i] == ')') {
      ++depth;
    } else if (s[i] == '(') {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

size_t MatchBraceBackward(const std::string& s, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (s[i] == '}') {
      ++depth;
    } else if (s[i] == '{') {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

bool IsKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "if",     "else",  "for",    "while",   "switch", "do",    "return",
      "sizeof", "new",   "delete", "catch",   "throw",  "case",  "default",
      "static_assert",   "alignof", "decltype", "co_await", "co_return"};
  return kKeywords.count(word) > 0;
}

// Reads a possibly ::-qualified name ending at `end` (an identifier char);
// returns the full text and sets `start` to its first character.
std::string ReadQualifiedNameBackward(const std::string& s, size_t end,
                                      size_t* start) {
  size_t begin = IdentStart(s, end);
  while (begin >= 2 && s[begin - 1] == ':' && s[begin - 2] == ':') {
    size_t before = begin - 2;
    if (before == 0 || !IsIdentifierChar(s[before - 1])) {
      break;
    }
    begin = IdentStart(s, before - 1);
  }
  *start = begin;
  return s.substr(begin, end - begin + 1);
}

}  // namespace

bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

size_t FindTokenFrom(const std::string& code, const std::string& token,
                     bool require_call, size_t from) {
  size_t pos = code.find(token, from);
  while (pos != std::string::npos) {
    char prev = pos == 0 ? ' ' : code[pos - 1];
    size_t end = pos + token.size();
    char next = end < code.size() ? code[end] : ' ';
    bool boundary_ok = !IsIdentifierChar(prev) && !IsIdentifierChar(next);
    if (boundary_ok && require_call) {
      if (prev == '.' || prev == ':' || prev == '>') {
        boundary_ok = false;
      } else {
        size_t paren = code.find_first_not_of(" \t", end);
        boundary_ok = paren != std::string::npos && code[paren] == '(';
      }
    }
    if (boundary_ok) {
      return pos;
    }
    pos = code.find(token, pos + 1);
  }
  return std::string::npos;
}

size_t MatchParen(const std::string& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') {
      ++depth;
    } else if (code[i] == ')') {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

size_t MatchBrace(const std::string& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') {
      ++depth;
    } else if (code[i] == '}') {
      if (--depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

std::string TrimWhitespace(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) {
    return std::string();
  }
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string LTrim(const std::string& s) {
  size_t i = s.find_first_not_of(" \t");
  return i == std::string::npos ? std::string() : s.substr(i);
}

std::string RTrim(const std::string& s) {
  size_t i = s.find_last_not_of(" \t\r");
  return i == std::string::npos ? std::string() : s.substr(0, i + 1);
}

MaskedSource StripWithMask(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  State state = State::kCode;
  MaskedSource out;
  out.stripped = content;
  out.mask.assign(content.size(), CharClass::kCode);
  std::string raw_delim;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kComment;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kComment;
        } else if (c == '"' && i > 0 && content[i - 1] == 'R') {
          // Raw string literal: R"delim( ... )delim".
          size_t open = content.find('(', i + 1);
          if (open != std::string::npos) {
            raw_delim = ')' + content.substr(i + 1, open - i - 1) + '"';
            state = State::kRaw;
          }
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
        } else if (c == '"') {
          state = State::kString;
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
        } else if (c == '\'') {
          state = State::kChar;
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kComment;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out.stripped[i] = ' ';
          out.stripped[i + 1] = ' ';
          out.mask[i] = CharClass::kComment;
          out.mask[i + 1] = CharClass::kComment;
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kComment;
        } else {
          out.mask[i] = CharClass::kComment;
        }
        break;
      case State::kString:
      case State::kChar: {
        char closer = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
          if (next != '\0' && next != '\n') {
            out.stripped[i + 1] = ' ';
            out.mask[i + 1] = CharClass::kString;
            ++i;
          }
        } else if (c == closer) {
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
          state = State::kCode;
        } else if (c != '\n') {
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
        }
        break;
      }
      case State::kRaw:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = 0; j < raw_delim.size(); ++j) {
            out.stripped[i + j] = ' ';
            out.mask[i + j] = CharClass::kString;
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out.stripped[i] = ' ';
          out.mask[i] = CharClass::kString;
        }
        break;
    }
  }
  return out;
}

// --- escapes -------------------------------------------------------------

EscapeRegistry EscapeRegistry::Parse(const std::string& content,
                                     const MaskedSource& masked) {
  EscapeRegistry registry;
  int line = 1;
  size_t line_start = 0;
  for (size_t i = 0; i <= content.size(); ++i) {
    if (i == content.size() || content[i] == '\n') {
      // Scan this line for a comment-resident "detlint:" directive. The
      // directive must START its comment ("// detlint: ..."), so prose that
      // merely quotes the syntax deeper inside a comment is inert.
      size_t found = std::string::npos;
      for (size_t j = line_start; j + 8 <= i; ++j) {
        if (content.compare(j, 8, "detlint:") != 0 ||
            masked.mask[j] != CharClass::kComment) {
          continue;
        }
        size_t k = j;
        while (k > line_start &&
               (content[k - 1] == ' ' || content[k - 1] == '\t')) {
          --k;
        }
        const bool opener =
            k >= 2 && content[k - 1] == '*' && content[k - 2] == '/';
        const bool slashes =
            k >= 2 && content[k - 1] == '/' && content[k - 2] == '/';
        if (!opener && !slashes) {
          continue;  // mid-comment mention, not a directive
        }
        // For "//" the pair must itself open the comment — a "//" inside an
        // already-open comment (e.g. a doc example) has kComment before it.
        if (slashes && k >= 3 &&
            masked.mask[k - 3] == CharClass::kComment) {
          continue;
        }
        found = j;
        break;
      }
      if (found != std::string::npos) {
        std::string rest =
            TrimWhitespace(content.substr(found + 8, i - found - 8));
        Escape escape;
        escape.line = line;
        if (rest.rfind("order-independent", 0) == 0) {
          escape.rules.insert("unordered-iter");
          // order-independent is self-describing; any trailing text is a
          // bonus reason.
          escape.has_reason = true;
        } else if (rest.rfind("stream-stable(", 0) == 0) {
          size_t close = rest.find(')');
          std::string reason = close == std::string::npos
                                   ? std::string()
                                   : rest.substr(14, close - 14);
          escape.rules.insert("rng-conditional-draw");
          escape.has_reason = !TrimWhitespace(reason).empty();
        } else if (rest.rfind("allow(", 0) == 0) {
          size_t close = rest.find(')');
          if (close != std::string::npos) {
            std::string list = rest.substr(6, close - 6);
            std::string rule;
            std::istringstream stream(list);
            while (std::getline(stream, rule, ',')) {
              rule = TrimWhitespace(rule);
              if (!rule.empty()) {
                escape.rules.insert(rule);
              }
            }
            escape.has_reason =
                !TrimWhitespace(rest.substr(close + 1)).empty();
          }
        }
        if (!escape.rules.empty()) {
          size_t index = registry.escapes_.size();
          registry.escapes_.push_back(escape);
          registry.by_line_[line].push_back(index);
          // A directive on a comment-only line also covers the next line.
          bool comment_only = true;
          for (size_t j = line_start; j < i; ++j) {
            if (masked.stripped[j] != ' ' && masked.stripped[j] != '\t' &&
                masked.stripped[j] != '\r') {
              comment_only = false;
              break;
            }
          }
          if (comment_only) {
            registry.by_line_[line + 1].push_back(index);
          }
        }
      }
      ++line;
      line_start = i + 1;
    }
  }
  return registry;
}

std::vector<size_t> EscapeRegistry::ApplicableTo(int line) const {
  auto it = by_line_.find(line);
  return it == by_line_.end() ? std::vector<size_t>() : it->second;
}

bool EscapeRegistry::Allows(int line, const std::string& rule) {
  for (size_t index : ApplicableTo(line)) {
    if (escapes_[index].rules.count(rule) > 0) {
      escapes_[index].used = true;
      return true;
    }
  }
  return false;
}

bool EscapeRegistry::StreamStableAt(int line,
                                    const std::vector<int>& guard_lines) {
  if (Allows(line, "rng-conditional-draw")) {
    return true;
  }
  for (int guard : guard_lines) {
    if (Allows(guard, "rng-conditional-draw")) {
      return true;
    }
  }
  return false;
}

// --- FileModel queries ---------------------------------------------------

int FileModel::LineAt(size_t pos) const {
  const std::string& text = masked.stripped;
  pos = std::min(pos, text.size());
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() + static_cast<long>(pos),
                                         '\n'));
}

std::vector<int> FileModel::GuardLinesAt(size_t pos,
                                         const Extent& within) const {
  std::vector<int> lines;
  for (const ConditionalExtent& conditional : conditionals) {
    if (conditional.extent.Contains(pos) &&
        conditional.extent.begin >= within.begin &&
        conditional.extent.end <= within.end) {
      lines.push_back(conditional.header_line);
    }
  }
  return lines;
}

bool FileModel::InConditional(size_t pos, const Extent& within) const {
  return !GuardLinesAt(pos, within).empty();
}

const FunctionModel* FileModel::FunctionAt(size_t pos) const {
  const FunctionModel* best = nullptr;
  for (const FunctionModel& function : functions) {
    if (function.body.Contains(pos) &&
        (best == nullptr || function.body.begin > best->body.begin)) {
      best = &function;
    }
  }
  return best;
}

const MemberModel* ClassModel::FindMember(const std::string& member_name) const {
  for (const MemberModel& member : members) {
    if (member.name == member_name) {
      return &member;
    }
  }
  return nullptr;
}

// --- structure scanning --------------------------------------------------

namespace {

void ScanConditionals(FileModel* model) {
  const std::string& s = model->masked.stripped;
  for (const char* keyword : {"if", "switch"}) {
    size_t pos = FindTokenFrom(s, keyword, /*require_call=*/false, 0);
    while (pos != std::string::npos) {
      size_t open = NextNonSpace(s, pos + std::string(keyword).size());
      if (open != std::string::npos && s[open] == '(') {
        size_t after_paren = MatchParen(s, open);
        if (after_paren != std::string::npos) {
          size_t body = NextNonSpace(s, after_paren);
          ConditionalExtent conditional;
          conditional.header_line = model->LineAt(pos);
          if (body != std::string::npos && s[body] == '{') {
            size_t end = MatchBrace(s, body);
            if (end != std::string::npos) {
              conditional.extent = {body + 1, end - 1};
              model->conditionals.push_back(conditional);
            }
          } else if (body != std::string::npos) {
            // Single-statement conditional: guarded until the next ';' at
            // paren depth zero.
            int depth = 0;
            for (size_t i = body; i < s.size(); ++i) {
              if (s[i] == '(') {
                ++depth;
              } else if (s[i] == ')') {
                --depth;
              } else if (s[i] == ';' && depth == 0) {
                conditional.extent = {body, i};
                model->conditionals.push_back(conditional);
                break;
              }
            }
          }
        }
      }
      pos = FindTokenFrom(s, keyword, /*require_call=*/false, pos + 1);
    }
  }
  size_t pos = FindTokenFrom(s, "else", /*require_call=*/false, 0);
  while (pos != std::string::npos) {
    size_t body = NextNonSpace(s, pos + 4);
    if (body != std::string::npos) {
      if (s.compare(body, 2, "if") == 0 &&
          (body + 2 >= s.size() || !IsIdentifierChar(s[body + 2]))) {
        // "else if" — the `if` scan already covers it.
      } else if (s[body] == '{') {
        size_t end = MatchBrace(s, body);
        if (end != std::string::npos) {
          model->conditionals.push_back(
              {{body + 1, end - 1}, model->LineAt(pos)});
        }
      } else {
        size_t semi = s.find(';', body);
        if (semi != std::string::npos) {
          model->conditionals.push_back({{body, semi}, model->LineAt(pos)});
        }
      }
    }
    pos = FindTokenFrom(s, "else", /*require_call=*/false, pos + 1);
  }
}

// Walks backward from a member-initializer group to the constructor's
// parameter list: `Ctor(args) : a_(x), b_{y} <- start here`. Returns the
// position of the ')' closing the parameter list, or npos.
size_t SkipCtorInitBackward(const std::string& s, size_t item_close) {
  size_t i = item_close;
  for (;;) {
    // `i` indexes the ')' or '}' closing one initializer group.
    size_t open = s[i] == ')' ? MatchParenBackward(s, i)
                              : MatchBraceBackward(s, i);
    if (open == std::string::npos || open == 0) {
      return std::string::npos;
    }
    size_t name_end = PrevNonSpace(s, open - 1);
    if (name_end == std::string::npos || !IsIdentifierChar(s[name_end])) {
      return std::string::npos;
    }
    size_t name_start = IdentStart(s, name_end);
    if (name_start == 0) {
      return std::string::npos;
    }
    size_t sep = PrevNonSpace(s, name_start - 1);
    if (sep == std::string::npos) {
      return std::string::npos;
    }
    if (s[sep] == ',') {
      size_t prev_close = PrevNonSpace(s, sep - 1);
      if (prev_close == std::string::npos ||
          (s[prev_close] != ')' && s[prev_close] != '}')) {
        return std::string::npos;
      }
      i = prev_close;
      continue;
    }
    if (s[sep] == ':' && (sep == 0 || s[sep - 1] != ':')) {
      size_t params_close = PrevNonSpace(s, sep - 1);
      if (params_close != std::string::npos && s[params_close] == ')') {
        return params_close;
      }
    }
    return std::string::npos;
  }
}

void ScanFunctions(FileModel* model) {
  const std::string& s = model->masked.stripped;
  for (size_t b = s.find('{'); b != std::string::npos; b = s.find('{', b + 1)) {
    size_t i = b == 0 ? std::string::npos : PrevNonSpace(s, b - 1);
    std::vector<std::string> acquires;
    std::vector<std::string> requires_held;
    bool is_function = false;
    std::string name;
    std::string params;
    while (i != std::string::npos) {
      if (s[i] == ')') {
        size_t open = MatchParenBackward(s, i);
        if (open == std::string::npos || open == 0) {
          break;
        }
        size_t id_end = PrevNonSpace(s, open - 1);
        if (id_end == std::string::npos || !IsIdentifierChar(s[id_end])) {
          break;  // lambda or cast — not a named function definition
        }
        size_t id_start;
        std::string id = ReadQualifiedNameBackward(s, id_end, &id_start);
        if (id.rfind("LR_", 0) == 0) {
          // Thread-safety annotation on the definition; record and continue.
          std::string args = TrimWhitespace(s.substr(open + 1, i - open - 1));
          if (id == "LR_ACQUIRE" && !args.empty()) {
            acquires.push_back(args);
          } else if (id == "LR_REQUIRES" && !args.empty()) {
            requires_held.push_back(args);
          }
          i = id_start == 0 ? std::string::npos : PrevNonSpace(s, id_start - 1);
          continue;
        }
        if (IsKeyword(id)) {
          break;  // control flow (`if (...) {`), not a function
        }
        // A `Ctor(...) : member_(x), other_{y} {` initializer list: the group
        // we just matched is the last initializer, not the parameter list.
        size_t before = id_start == 0 ? std::string::npos
                                      : PrevNonSpace(s, id_start - 1);
        if (before != std::string::npos &&
            (s[before] == ',' ||
             (s[before] == ':' && (before == 0 || s[before - 1] != ':')))) {
          size_t params_close = SkipCtorInitBackward(s, i);
          if (params_close == std::string::npos) {
            break;
          }
          size_t params_open = MatchParenBackward(s, params_close);
          if (params_open == std::string::npos || params_open == 0) {
            break;
          }
          size_t ctor_end = PrevNonSpace(s, params_open - 1);
          if (ctor_end == std::string::npos || !IsIdentifierChar(s[ctor_end])) {
            break;
          }
          size_t ctor_start;
          name = ReadQualifiedNameBackward(s, ctor_end, &ctor_start);
          params = s.substr(params_open + 1, params_close - params_open - 1);
          is_function = !IsKeyword(name);
          break;
        }
        name = id;
        params = s.substr(open + 1, i - open - 1);
        is_function = true;
        break;
      }
      if (IsIdentifierChar(s[i])) {
        size_t id_start;
        std::string id = ReadQualifiedNameBackward(s, i, &id_start);
        static const std::set<std::string> kQualifiers = {
            "const", "noexcept", "override", "final", "try", "mutable"};
        if (kQualifiers.count(id) > 0) {
          i = id_start == 0 ? std::string::npos : PrevNonSpace(s, id_start - 1);
          continue;
        }
        break;  // class/namespace/init-list brace
      }
      if (s[i] == '>' && i > 0 && s[i - 1] == '-') {
        break;  // trailing-return arrow handled below via the '>' search
      }
      if (s[i] == '>') {
        // Possibly a trailing return type: `auto F(...) -> std::vector<T> {`.
        size_t arrow = s.rfind("->", i);
        if (arrow == std::string::npos || arrow == 0) {
          break;
        }
        i = PrevNonSpace(s, arrow - 1);
        continue;
      }
      break;
    }
    if (!is_function || name.empty()) {
      continue;
    }
    size_t end = MatchBrace(s, b);
    if (end == std::string::npos) {
      continue;
    }
    FunctionModel function;
    function.name = name;
    size_t sep = name.rfind("::");
    if (sep != std::string::npos) {
      function.class_name = name.substr(0, sep);
      function.bare_name = name.substr(sep + 2);
    } else {
      function.bare_name = name;
    }
    function.params = params;
    function.body = {b + 1, end - 1};
    function.line = model->LineAt(b);
    function.acquires = acquires;
    function.requires_ = requires_held;
    model->functions.push_back(function);
  }
}

// Removes `LR_Ident(...)` attribute groups from a statement.
std::string RemoveAnnotations(const std::string& statement) {
  std::string out = statement;
  size_t pos = out.find("LR_");
  while (pos != std::string::npos) {
    if ((pos == 0 || !IsIdentifierChar(out[pos - 1]))) {
      size_t id_end = pos;
      while (id_end < out.size() && IsIdentifierChar(out[id_end])) {
        ++id_end;
      }
      size_t open = NextNonSpace(out, id_end);
      size_t erase_end = id_end;
      if (open != std::string::npos && out[open] == '(') {
        size_t close = MatchParen(out, open);
        if (close != std::string::npos) {
          erase_end = close;
        }
      }
      out.erase(pos, erase_end - pos);
    } else {
      pos += 3;
    }
    pos = out.find("LR_", pos);
  }
  return out;
}

std::vector<std::string> SplitIdentifiers(const std::string& text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    if (IsIdentifierChar(text[i]) &&
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      size_t start = i;
      while (i < text.size() && IsIdentifierChar(text[i])) {
        ++i;
      }
      out.push_back(text.substr(start, i - start));
    } else {
      ++i;
    }
  }
  return out;
}

// True when `text` contains `c` outside any <...> template-argument nesting.
bool ContainsOutsideAngles(const std::string& text, char c) {
  int angle = 0;
  for (char ch : text) {
    if (ch == '<') {
      ++angle;
    } else if (ch == '>') {
      angle = std::max(0, angle - 1);
    } else if (ch == c && angle == 0) {
      return true;
    }
  }
  return false;
}

void ParseClassMembers(FileModel* model, ClassModel* klass) {
  const std::string& s = model->masked.stripped;
  size_t pos = klass->body.begin;
  size_t statement_start = pos;
  bool statement_has_brace_init = false;
  while (pos < klass->body.end) {
    char c = s[pos];
    if (c == '{') {
      size_t end = MatchBrace(s, pos);
      if (end == std::string::npos || end > klass->body.end) {
        return;
      }
      size_t next = NextNonSpace(s, end);
      if (next != std::string::npos && next < klass->body.end &&
          s[next] == ';') {
        // Brace-initialized member (`std::atomic<int> x{0};`) or a nested
        // type definition; the statement classifier below distinguishes.
        statement_has_brace_init = true;
        pos = end;
        continue;
      }
      // Function body or similar — discard the statement.
      statement_start = end;
      statement_has_brace_init = false;
      pos = end;
      continue;
    }
    if (c == ':' && (pos + 1 >= s.size() || s[pos + 1] != ':') &&
        (pos == 0 || s[pos - 1] != ':')) {
      std::string label =
          TrimWhitespace(s.substr(statement_start, pos - statement_start));
      if (label == "public" || label == "private" || label == "protected") {
        statement_start = pos + 1;
        statement_has_brace_init = false;
      }
      ++pos;
      continue;
    }
    if (c != ';') {
      ++pos;
      continue;
    }
    std::string statement =
        s.substr(statement_start, pos - statement_start);
    size_t statement_pos = statement_start;
    statement_start = pos + 1;
    bool had_brace_init = statement_has_brace_init;
    statement_has_brace_init = false;
    ++pos;

    std::string trimmed = TrimWhitespace(statement);
    if (trimmed.empty()) {
      continue;
    }
    MemberModel member;
    member.guarded = trimmed.find("LR_GUARDED_BY(") != std::string::npos ||
                     trimmed.find("LR_PT_GUARDED_BY(") != std::string::npos;
    if (member.guarded) {
      size_t g = trimmed.find("GUARDED_BY(");
      size_t open = trimmed.find('(', g);
      size_t close = MatchParen(trimmed, open);
      if (close != std::string::npos) {
        member.guarded_by =
            TrimWhitespace(trimmed.substr(open + 1, close - open - 2));
      }
    }
    std::string cleaned = TrimWhitespace(RemoveAnnotations(trimmed));
    if (cleaned.empty()) {
      continue;
    }
    std::vector<std::string> words = SplitIdentifiers(cleaned);
    if (words.empty()) {
      continue;
    }
    static const std::set<std::string> kNotMembers = {
        "using", "typedef", "friend", "template", "static_assert", "class",
        "struct", "enum", "union", "operator", "explicit", "virtual",
        "public", "private", "protected", "return"};
    if (kNotMembers.count(words.front()) > 0) {
      continue;
    }
    // Default-member-initializer text can contain calls; only the declarator
    // part decides whether this is a function declaration.
    size_t init_eq = std::string::npos;
    {
      int angle = 0;
      for (size_t i = 0; i < cleaned.size(); ++i) {
        char ch = cleaned[i];
        if (ch == '<') {
          ++angle;
        } else if (ch == '>') {
          angle = std::max(0, angle - 1);
        } else if (ch == '=' && angle == 0 &&
                   (i + 1 >= cleaned.size() || cleaned[i + 1] != '=') &&
                   (i == 0 || (cleaned[i - 1] != '=' && cleaned[i - 1] != '!' &&
                               cleaned[i - 1] != '<' && cleaned[i - 1] != '>'))) {
          init_eq = i;
          break;
        }
      }
    }
    std::string declarator =
        init_eq == std::string::npos ? cleaned : cleaned.substr(0, init_eq);
    if (ContainsOutsideAngles(declarator, '(')) {
      continue;  // function declaration
    }
    member.decl = cleaned;
    member.is_static = std::find(words.begin(), words.end(), "static") !=
                       words.end();
    member.is_const =
        std::find(words.begin(), words.end(), "const") != words.end() ||
        std::find(words.begin(), words.end(), "constexpr") != words.end();
    member.is_reference = ContainsOutsideAngles(declarator, '&');
    member.is_atomic = declarator.find("atomic") != std::string::npos;
    std::string first_type = words.front();
    if (first_type == "mutable" && words.size() > 1) {
      first_type = words[1];
    }
    member.is_mutex = first_type == "Mutex";
    member.is_condvar = first_type == "CondVar";
    member.has_initializer = init_eq != std::string::npos || had_brace_init;
    // Name: the last identifier of the declarator (before any '[').
    std::string name_part = declarator;
    size_t bracket = name_part.find('[');
    if (bracket != std::string::npos) {
      name_part = name_part.substr(0, bracket);
    }
    size_t brace = name_part.find('{');
    if (brace != std::string::npos) {
      name_part = name_part.substr(0, brace);
    }
    std::vector<std::string> declarator_words = SplitIdentifiers(name_part);
    if (declarator_words.empty()) {
      continue;
    }
    member.name = declarator_words.back();
    if (member.name == first_type || member.name == "mutable" ||
        member.name == "static") {
      continue;  // e.g. `struct Foo;` nested forward declaration
    }
    size_t name_in_stmt = statement.rfind(member.name);
    member.line = model->LineAt(
        statement_pos + (name_in_stmt == std::string::npos ? 0 : name_in_stmt));
    klass->owns_mutex = klass->owns_mutex || member.is_mutex;
    klass->members.push_back(member);
  }
}

void ScanClasses(FileModel* model) {
  const std::string& s = model->masked.stripped;
  for (const char* keyword : {"class", "struct"}) {
    size_t pos = FindTokenFrom(s, keyword, /*require_call=*/false, 0);
    while (pos != std::string::npos) {
      size_t scan_from = pos + std::string(keyword).size();
      // `enum class` / `enum struct` are enumerations, not classes.
      size_t prev = pos == 0 ? std::string::npos : PrevNonSpace(s, pos - 1);
      bool is_enum = false;
      if (prev != std::string::npos && IsIdentifierChar(s[prev])) {
        size_t prev_start;
        is_enum = ReadQualifiedNameBackward(s, prev, &prev_start) == "enum";
      }
      if (!is_enum) {
        // Forward-scan to '{' (definition), ';' (fwd decl), or a token that
        // rules a definition out.
        std::string name;
        size_t i = scan_from;
        bool ok = true;
        while (i < s.size()) {
          char c = s[i];
          if (c == '{' || c == ';') {
            break;
          }
          if (c == '>' || c == ')' || c == '=' || c == ',') {
            ok = false;  // template parameter list, function param, etc.
            break;
          }
          if (c == '(') {
            // An LR_*(...) capability attribute between keyword and name.
            size_t close = MatchParen(s, i);
            if (close == std::string::npos) {
              ok = false;
              break;
            }
            i = close;
            continue;
          }
          if (c == ':' && (i + 1 < s.size() && s[i + 1] == ':')) {
            i += 2;
            name += "::";
            continue;
          }
          if (c == ':') {
            break;  // base clause; name is complete
          }
          if (c == '<') {
            ok = false;  // template specialization — out of scope
            break;
          }
          if (IsIdentifierChar(c)) {
            size_t start = i;
            while (i < s.size() && IsIdentifierChar(s[i])) {
              ++i;
            }
            std::string word = s.substr(start, i - start);
            if (word == "final") {
              continue;
            }
            if (word.rfind("LR_", 0) == 0) {
              continue;  // annotation macro without parens
            }
            if (!name.empty() && name.back() != ':') {
              name = word;  // `struct alignas(x) Foo` style — keep the last
            } else {
              name += word;
            }
            continue;
          }
          ++i;
        }
        if (ok && i < s.size() && !name.empty() && name.back() != ':') {
          size_t brace = s.find_first_of("{;", i);
          if (brace != std::string::npos && s[brace] == '{') {
            size_t end = MatchBrace(s, brace);
            if (end != std::string::npos) {
              ClassModel klass;
              klass.name = name;
              klass.body = {brace + 1, end - 1};
              klass.line = model->LineAt(pos);
              ParseClassMembers(model, &klass);
              model->classes.push_back(klass);
            }
          }
        }
      }
      pos = FindTokenFrom(s, keyword, /*require_call=*/false, pos + 1);
    }
  }
  // Attribute in-class function definitions to their enclosing class.
  for (FunctionModel& function : model->functions) {
    if (!function.class_name.empty()) {
      continue;
    }
    const ClassModel* innermost = nullptr;
    for (const ClassModel& klass : model->classes) {
      if (klass.body.Contains(function.body.begin) &&
          (innermost == nullptr ||
           klass.body.begin > innermost->body.begin)) {
        innermost = &klass;
      }
    }
    if (innermost != nullptr) {
      function.class_name = innermost->name;
    }
  }
}

std::vector<std::string> SplitIntoLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream stream(text);
  while (std::getline(stream, line)) {
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

FileModel BuildFileModel(const SourceFile& file) {
  FileModel model;
  model.file = &file;
  model.masked = StripWithMask(file.content);
  model.raw_lines = SplitIntoLines(file.content);
  model.code_lines = SplitIntoLines(model.masked.stripped);
  model.code_lines.resize(model.raw_lines.size());
  model.escapes = EscapeRegistry::Parse(file.content, model.masked);
  ScanConditionals(&model);
  ScanFunctions(&model);
  ScanClasses(&model);
  return model;
}

}  // namespace litereconfig
