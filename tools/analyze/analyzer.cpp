#include "analyze/analyzer.h"

#include <algorithm>
#include <set>

namespace tfl_analyze {

std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tok::kPunct) continue;
    const std::string& t = tokens[i].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
    } else if (t == ")" || t == "]" || t == "}") {
      --depth;
      if (depth == 0) return i;
    }
  }
  return tokens.size();
}

std::vector<std::pair<std::size_t, std::size_t>> split_args(const std::vector<Token>& tokens,
                                                            std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  if (open + 1 >= close) return args;
  std::size_t first = open + 1;
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (tokens[i].kind != Tok::kPunct) continue;
    const std::string& t = tokens[i].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
    } else if (t == ")" || t == "]" || t == "}") {
      --depth;
    } else if (t == "," && depth == 0) {
      args.push_back({first, i});
      first = i + 1;
    }
  }
  args.push_back({first, close});
  return args;
}

bool Locals::contains(const std::string& name) const {
  return std::find(names.begin(), names.end(), name) != names.end();
}

const std::pair<std::size_t, std::size_t>* Locals::init_of(const std::string& name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return &inits[i];
  }
  return nullptr;
}

namespace {

const std::set<std::string>& non_type_keywords() {
  static const std::set<std::string> kWords = {
      "return", "if",     "else",   "for",      "while",  "do",     "switch", "case",
      "break",  "continue", "goto", "new",      "delete", "throw",  "sizeof", "typedef",
      "using",  "namespace", "class", "struct", "enum",   "public", "private", "protected",
      "true",   "false",  "nullptr", "this",    "operator", "template", "typename",
      "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast", "co_return",
      "co_await", "co_yield", "default",
  };
  return kWords;
}

/// Tokens that may appear inside a declaration's type part.
bool type_component(const Token& t) {
  if (t.kind == Tok::kIdent) return non_type_keywords().count(t.text) == 0;
  if (t.kind != Tok::kPunct) return false;
  return t.text == "::" || t.text == "<" || t.text == ">" || t.text == "," || t.text == "*" ||
         t.text == "&" || t.text == "&&" || t.text == ">>";
}

}  // namespace

Locals collect_locals(const std::vector<Token>& tokens, std::size_t first, std::size_t last) {
  Locals locals;
  bool stmt_start = true;
  for (std::size_t i = first; i < last; ++i) {
    const Token& t = tokens[i];
    if (t.kind == Tok::kPunct && (t.text == ";" || t.text == "{" || t.text == "}")) {
      stmt_start = true;
      continue;
    }
    // Range-for binding: `for ( <type> name : range )` — register name.
    if (is_ident(t, "for") && i + 1 < last && is_punct(tokens[i + 1], "(")) {
      const std::size_t close = match_forward(tokens, i + 1);
      std::size_t colon = tokens.size();
      int depth = 0;
      for (std::size_t j = i + 2; j < close && j < last; ++j) {
        if (tokens[j].kind != Tok::kPunct) continue;
        if (tokens[j].text == "(" || tokens[j].text == "[" || tokens[j].text == "{") ++depth;
        if (tokens[j].text == ")" || tokens[j].text == "]" || tokens[j].text == "}") --depth;
        if (tokens[j].text == ":" && depth == 0) {
          colon = j;
          break;
        }
      }
      if (colon < tokens.size() && colon > i + 2 && tokens[colon - 1].kind == Tok::kIdent) {
        locals.names.push_back(tokens[colon - 1].text);
        locals.inits.push_back({colon + 1, std::min(close, last)});
      }
      continue;
    }
    // A control-statement header opens a declaration context: classic
    // `for (std::size_t i = lo; ...)` and `if (auto x = f())` declare names.
    if (t.kind == Tok::kPunct && t.text == "(" && i > first &&
        tokens[i - 1].kind == Tok::kIdent &&
        (tokens[i - 1].text == "for" || tokens[i - 1].text == "while" ||
         tokens[i - 1].text == "if" || tokens[i - 1].text == "switch")) {
      stmt_start = true;
      continue;
    }
    if (!stmt_start) continue;
    if (t.kind != Tok::kIdent || non_type_keywords().count(t.text) != 0) {
      if (!(t.kind == Tok::kIdent && (t.text == "const" || t.text == "constexpr" ||
                                      t.text == "auto" || t.text == "unsigned" ||
                                      t.text == "signed" || t.text == "long" ||
                                      t.text == "short"))) {
        stmt_start = false;
      }
      continue;
    }
    // Possible declaration: consume a type-ish run, then expect `name` with a
    // declarator-ish follower.
    std::size_t j = i;
    int angle = 0;
    while (j < last && (type_component(tokens[j]) ||
                        (tokens[j].kind == Tok::kIdent &&
                         (tokens[j].text == "const" || tokens[j].text == "auto" ||
                          tokens[j].text == "unsigned" || tokens[j].text == "signed" ||
                          tokens[j].text == "long" || tokens[j].text == "short")))) {
      if (tokens[j].kind == Tok::kPunct) {
        if (tokens[j].text == "<") ++angle;
        if (tokens[j].text == ">") --angle;
        if (tokens[j].text == ">>") angle -= 2;
        if (tokens[j].text == "," && angle <= 0) break;
      }
      ++j;
    }
    // j now points past the candidate run; the declared name is the last
    // identifier in the run, and it must be preceded by at least one other
    // type token and followed by = ; ( { or , (multi-declarator).
    if (j > i + 1 && j <= last && tokens[j - 1].kind == Tok::kIdent && angle <= 0 &&
        j < last && tokens[j].kind == Tok::kPunct &&
        (tokens[j].text == "=" || tokens[j].text == ";" || tokens[j].text == "(" ||
         tokens[j].text == "{" || tokens[j].text == ",")) {
      // Declarator chain: `float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f;`
      // declares every name separated by a top-level comma. Registration
      // walks the whole chain here; the outer scan then resumes at the
      // follower so declarations inside initializers (nested lambda bodies)
      // are still visited.
      std::size_t name_idx = j - 1;
      while (name_idx < last && tokens[name_idx].kind == Tok::kIdent) {
        const std::string name = tokens[name_idx].text;
        const std::size_t follow = name_idx + 1;
        std::size_t init_first = 0;
        std::size_t init_last = 0;
        std::size_t after = follow;  // `,` or `;` ending this declarator
        if (follow < last && is_punct(tokens[follow], "=")) {
          init_first = follow + 1;
          int depth = 0;
          std::size_t k = follow + 1;
          while (k < last) {
            if (tokens[k].kind == Tok::kPunct) {
              const std::string& p = tokens[k].text;
              if (p == "(" || p == "[" || p == "{") ++depth;
              if (p == ")" || p == "]" || p == "}") --depth;
              if ((p == ";" || p == ",") && depth == 0) break;
            }
            ++k;
          }
          init_last = k;
          after = k;
        } else if (follow < last &&
                   (is_punct(tokens[follow], "(") || is_punct(tokens[follow], "{"))) {
          const std::size_t close = match_forward(tokens, follow);
          init_first = follow + 1;
          init_last = std::min(close, last);
          after = std::min(close + 1, last);
        }
        locals.names.push_back(name);
        locals.inits.push_back({init_first, init_last});
        if (after < last && is_punct(tokens[after], ",") && after + 1 < last &&
            tokens[after + 1].kind == Tok::kIdent) {
          name_idx = after + 1;
          continue;
        }
        break;
      }
      i = j;  // resume just past the first declarator's name
    }
    stmt_start = false;
  }
  return locals;
}

const std::vector<tfl_tools::RuleInfo>& rule_catalog() {
  static const std::vector<tfl_tools::RuleInfo> kRules = {
      {"parallel-capture",
       "write to by-reference-captured non-local state inside a parallel lambda "
       "(parallel_for/run_chunks/ordered_reduce map)"},
      {"parallel-rng",
       "Rng draw inside a parallel lambda without Rng::derive_stream_seed or a "
       "*_rng stream factory"},
      {"unordered-hash-iter",
       "iteration over std::unordered_* whose body feeds hashing/serialization"},
      {"obs-vocab", "TFL_* metric/span name missing from the registered vocabulary"},
      {"obs-orphan", "vocabulary entry matching no TFL_* site in the scanned tree"},
  };
  return kRules;
}

Analysis analyze(const std::vector<SourceFile>& files, const Options& options) {
  Analysis out;
  std::vector<LexedFile> lexed(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    lexed[i].path = files[i].path;
    lexed[i].tokens = lex(files[i].content);
    check_parallel(lexed[i], out.findings);
  }
  check_vocab(lexed, options, out.findings);
  std::sort(out.findings.begin(), out.findings.end(), tfl_tools::finding_before);
  return out;
}

}  // namespace tfl_analyze
