// tfl-analyze core: shared token-walking helpers and the two semantic rule
// passes. See docs/STATIC_ANALYSIS.md for the rule catalog.
//
// The analyzer is a library (tfl_analyze_lib) so the test suite can run the
// passes in-process against embedded fixtures. It needs only the standard
// library, so it still builds and scans a src/ tree that does not compile.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analyze/lexer.h"
#include "lint_common.h"

namespace tfl_analyze {

struct SourceFile {
  std::string path;     // normalized, forward slashes
  std::string content;  // full file text
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
};

// ---------------------------------------------------------------------------
// Token-walking helpers shared by the rule passes.
// ---------------------------------------------------------------------------

/// Index of the token matching the opener at `open` (one of ( [ {), treating
/// the three bracket kinds as one balanced family. Returns tokens.size() when
/// unbalanced.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open);

/// Splits the top-level comma-separated ranges inside (open, close). Each
/// element is a [first, last) token index pair.
std::vector<std::pair<std::size_t, std::size_t>> split_args(const std::vector<Token>& tokens,
                                                            std::size_t open, std::size_t close);

/// Local bindings declared inside a token range (declaration heuristics:
/// `Type name = ...`, `Type name;`, `Type name(...)`, `auto& name : ...`
/// range-for bindings, lambda parameters must be added by the caller).
struct Locals {
  std::vector<std::string> names;
  /// Initializer token range for each name ([0,0) when none).
  std::vector<std::pair<std::size_t, std::size_t>> inits;

  bool contains(const std::string& name) const;
  /// Initializer range of `name`, or nullptr.
  const std::pair<std::size_t, std::size_t>* init_of(const std::string& name) const;
};

/// Scans [first, last) for local declarations.
Locals collect_locals(const std::vector<Token>& tokens, std::size_t first, std::size_t last);

struct Options {
  /// Vocabulary file contents split into lines; empty disables the obs rules.
  std::vector<std::string> vocab_lines;
  /// Path reported for obs-orphan findings (the vocabulary file itself).
  std::string vocab_path;
};

struct Analysis {
  std::vector<tfl_tools::Finding> findings;
};

// ---------------------------------------------------------------------------
// Rule passes. check_parallel is per-file; check_vocab is cross-TU (it sees
// every scanned file at once).
// ---------------------------------------------------------------------------

/// parallel-capture, parallel-rng, unordered-hash-iter.
void check_parallel(const LexedFile& file, std::vector<tfl_tools::Finding>& findings);

/// obs-vocab, obs-orphan. No-op when options.vocab_lines is empty.
void check_vocab(const std::vector<LexedFile>& files, const Options& options,
                 std::vector<tfl_tools::Finding>& findings);

/// Full analysis: lexes every file and runs all passes. Findings come back
/// sorted by (path, line, rule).
Analysis analyze(const std::vector<SourceFile>& files, const Options& options);

/// The tfl-analyze rule catalog (shared by --list-rules and baseline
/// validation).
const std::vector<tfl_tools::RuleInfo>& rule_catalog();

}  // namespace tfl_analyze
