// tfl-lint: repo-specific static checker for the TradeFL tree.
//
// Scans src/ and tests/ for patterns that are banned in this codebase because
// they break determinism, consensus, or numeric-safety guarantees:
//
//   raw-new-delete    raw `new` / `delete` (ownership must go through
//                     containers or smart pointers)
//   banned-random     `rand()` / `srand()` / `std::default_random_engine`
//                     (experiments must be reproducible via common/rng)
//   unordered-in-chain
//                     `std::unordered_map` / `std::unordered_set` anywhere in
//                     src/chain/ (iteration order is implementation-defined,
//                     so anything feeding block hashes would fork consensus).
//                     blockchain.h carries the one audited exception: the
//                     receipt hash->index cache, which is find-only and never
//                     iterated or serialized (tfl-analyze's unordered-hash-iter
//                     rule guards that invariant)
//   float-equality    `==` / `!=` against a floating-point literal in
//                     src/game/ and src/core/ (incentive and convergence
//                     checks must use explicit tolerances)
//   missing-override  a `virtual`-declared member function (other than a
//                     destructor) inside a class that has a base clause and
//                     no `override`/`final` on the declaration
//   raw-steady-clock  `std::chrono::steady_clock` outside src/obs/ and
//                     src/common/stopwatch.h (timing must flow through
//                     tradefl::Stopwatch or the obs layer so instrumentation
//                     stays consistent)
//   raw-thread        `std::thread` / `std::jthread` / `std::async` outside
//                     src/common/parallel.{h,cpp} (all fan-out must go through
//                     tradefl::ThreadPool so chunk grids, reduction order, and
//                     shutdown stay deterministic and centralized)
//   include-layering  `#include "module/..."` edges that violate the layer
//                     graph (common < obs < math < game < {core, fl}; chain
//                     sits on common+obs only; tradefl/ may include everything)
//   ad-hoc-retry      a `for`/`while` loop wrapped around `->call(` outside
//                     src/chain/web3.cpp (hand-rolled retries bypass
//                     RetryPolicy's deterministic backoff, jitter seeding, and
//                     retry counters — route through call_with_retry)
//   ad-hoc-persistence
//                     `std::ofstream` / `fopen` in src/ outside the audited
//                     writers (common/snapshot.cpp, common/csv.cpp,
//                     chain/blockchain.cpp, tradefl/report.cpp) — durable
//                     state must tear-proof through the snapshot layer or a
//                     checked writer, never a stray stream
//   signal-handler-safety
//                     the body of any function registered through
//                     install_signal_handler (src/tradefl/server.h) may only
//                     do async-signal-safe work — in this codebase, writes to
//                     volatile std::sig_atomic_t flags. Allocation, iostreams,
//                     stdio, locks, and throws are flagged: a signal can land
//                     inside the very runtime code they re-enter (the
//                     allocator, the stream lock), which is UB or deadlock.
//                     Handler names are collected across the whole scanned
//                     tree, so registering in one file and defining in another
//                     does not dodge the audit
//
// The matcher works on comment- and string-stripped text, so banned words in
// comments or log messages do not trip it. Justified exceptions live in
// tools/tfl_lint_allow.txt as `<rule-id> <path-suffix>` lines.
//
// Usage:
//   tfl-lint [--allow FILE] [--list-rules] PATH...   # scan directories/files
//   tfl-lint --self-test                             # run embedded fixtures
//
// Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage error.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_common.h"

namespace {

namespace fs = std::filesystem;

using tfl_tools::AllowEntry;
using tfl_tools::Finding;
using tfl_tools::allowed;
using tfl_tools::contains_token;
using tfl_tools::is_ident_char;
using tfl_tools::normalize_path;
using tfl_tools::path_ends_with;
using tfl_tools::path_in;
using tfl_tools::scrub_source;
using tfl_tools::split_lines;

// ---------------------------------------------------------------------------
// Rules. Each rule receives the normalized path, the raw and scrubbed lines.
// ---------------------------------------------------------------------------

/// Module name for layering purposes: "math" for src/math/..., "" otherwise.
std::string module_of(const std::string& path) {
  const std::size_t at = path.find("src/");
  if (at == std::string::npos) return "";
  const std::size_t start = at + 4;
  const std::size_t slash = path.find('/', start);
  if (slash == std::string::npos) return "";
  return path.substr(start, slash - start);
}

void check_raw_new_delete(const std::string& path, const std::vector<std::string>& lines,
                          std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::size_t at = 0;
    if (contains_token(line, "new", &at)) {
      // Skip `operator new` and require an allocation-looking right side.
      const bool is_operator = line.rfind("operator", at) != std::string::npos &&
                               line.find("operator") + 8 >= at;
      std::size_t after = at + 3;
      while (after < line.size() && line[after] == ' ') ++after;
      const bool allocates = after < line.size() &&
                             (is_ident_char(line[after]) || line[after] == '(');
      if (!is_operator && allocates && after > at + 3) {
        findings.push_back({path, i + 1, "raw-new-delete",
                            "raw `new` — use std::make_unique/containers instead"});
      }
    }
    if (contains_token(line, "delete", &at)) {
      // `= delete` (deleted functions) is fine; `delete expr` / `delete[]` is not.
      std::size_t before = at;
      while (before > 0 && line[before - 1] == ' ') --before;
      const bool deleted_fn = before > 0 && line[before - 1] == '=';
      std::size_t after = at + 6;
      while (after < line.size() && line[after] == ' ') ++after;
      const bool has_operand = after < line.size() && line[after] != ';' && line[after] != ',' &&
                               line[after] != ')';
      if (!deleted_fn && has_operand) {
        findings.push_back({path, i + 1, "raw-new-delete",
                            "raw `delete` — ownership must live in RAII types"});
      }
    }
  }
}

void check_banned_random(const std::string& path, const std::vector<std::string>& lines,
                         std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::size_t at = 0;
    if ((contains_token(line, "rand", &at) || contains_token(line, "srand", &at)) &&
        line.find('(', at) != std::string::npos) {
      findings.push_back({path, i + 1, "banned-random",
                          "C `rand()`/`srand()` — use tradefl::Rng for reproducibility"});
    }
    if (contains_token(line, "default_random_engine")) {
      findings.push_back({path, i + 1, "banned-random",
                          "std::default_random_engine is implementation-defined — "
                          "use tradefl::Rng"});
    }
  }
}

void check_unordered_in_chain(const std::string& path, const std::vector<std::string>& lines,
                              std::vector<Finding>& findings) {
  if (!path_in(path, "src/chain/")) return;
  // Audited exception: blockchain.h's receipt hash->index cache is a derived,
  // find-only lookup structure — rebuilt from the ordered receipts_ vector on
  // restore/replay, never iterated, never serialized, so its bucket order can
  // never reach a block hash. tfl-analyze's unordered-hash-iter rule enforces
  // the never-iterated-into-hashes invariant tree-wide.
  if (path_ends_with(path, "src/chain/blockchain.h")) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (contains_token(lines[i], "unordered_map") || contains_token(lines[i], "unordered_set")) {
      findings.push_back({path, i + 1, "unordered-in-chain",
                          "unordered container in consensus-critical chain code — "
                          "iteration order would fork block hashes; use std::map/std::set"});
    }
  }
}

/// True when line[pos..] (or ..pos] backwards) holds a floating-point literal.
bool float_literal_at(const std::string& line, std::size_t pos, bool forward) {
  if (forward) {
    std::size_t i = pos;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && (line[i] == '+' || line[i] == '-')) ++i;
    std::size_t digits = 0;
    while (i < line.size() && std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
      ++digits;
    }
    if (i < line.size() && line[i] == '.') return true;           // 1.0, 0.5
    if (digits > 0 && i < line.size() &&
        (line[i] == 'e' || line[i] == 'E' || line[i] == 'f')) {
      return true;  // 1e-9, 2f
    }
    return false;
  }
  std::size_t i = pos;
  while (i > 0 && line[i - 1] == ' ') --i;
  if (i == 0) return false;
  if (line[i - 1] == 'f' && i >= 2) --i;  // 1.0f
  std::size_t digits = 0;
  while (i > 0 && std::isdigit(static_cast<unsigned char>(line[i - 1])) != 0) {
    --i;
    ++digits;
  }
  if (digits == 0) return false;
  if (i > 0 && line[i - 1] == '.') return true;                   // ...1.5 ==
  if (i > 0 && (line[i - 1] == 'e' || line[i - 1] == 'E' || line[i - 1] == '-')) {
    // Walk through an exponent like 1e-9: keep scanning left of `e`.
    std::size_t j = i - 1;
    if (line[j] == '-' && j > 0 && (line[j - 1] == 'e' || line[j - 1] == 'E')) --j;
    if ((line[j] == 'e' || line[j] == 'E') && j > 0) {
      std::size_t k = j;
      while (k > 0 && std::isdigit(static_cast<unsigned char>(line[k - 1])) != 0) --k;
      if (k < j && k > 0 && line[k - 1] == '.') return true;
    }
  }
  return false;
}

void check_float_equality(const std::string& path, const std::vector<std::string>& lines,
                          std::vector<Finding>& findings) {
  if (!path_in(path, "src/game/") && !path_in(path, "src/core/")) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (std::size_t at = 0; at + 1 < line.size(); ++at) {
      if ((line[at] == '=' || line[at] == '!') && line[at + 1] == '=') {
        if (at + 2 < line.size() && line[at + 2] == '=') continue;  // ===? never, but safe
        if (at > 0 && (line[at - 1] == '=' || line[at - 1] == '!' || line[at - 1] == '<' ||
                       line[at - 1] == '>')) {
          continue;
        }
        const bool lhs = float_literal_at(line, at, /*forward=*/false);
        const bool rhs = float_literal_at(line, at + 2, /*forward=*/true);
        if (lhs || rhs) {
          findings.push_back({path, i + 1, "float-equality",
                              "exact floating-point comparison — use an explicit tolerance"});
        }
      }
    }
  }
}

void check_raw_steady_clock(const std::string& path, const std::vector<std::string>& lines,
                            std::vector<Finding>& findings) {
  // The obs layer and the Stopwatch wrapper are the only sanctioned clock
  // readers; everything else must time through them so instrumented and
  // un-instrumented builds agree on where time is measured.
  if (path_in(path, "src/obs/") || path_ends_with(path, "src/common/stopwatch.h")) return;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (contains_token(lines[i], "steady_clock")) {
      findings.push_back({path, i + 1, "raw-steady-clock",
                          "raw std::chrono::steady_clock — use tradefl::Stopwatch or "
                          "obs::trace_now_us() instead"});
    }
  }
}

void check_raw_thread(const std::string& path, const std::vector<std::string>& lines,
                      std::vector<Finding>& findings) {
  // The parallel execution layer is the only sanctioned owner of raw threads;
  // everything else fans out through tradefl::ThreadPool / parallel_for so
  // chunk grids (and therefore float rounding), reduction order, and shutdown
  // stay in one audited place.
  if (path_ends_with(path, "src/common/parallel.h") ||
      path_ends_with(path, "src/common/parallel.cpp")) {
    return;
  }
  static const std::vector<std::string> kBanned = {"std::thread", "std::jthread", "std::async"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (const std::string& word : kBanned) {
      std::size_t from = 0;
      while (true) {
        const std::size_t at = line.find(word, from);
        if (at == std::string::npos) break;
        from = at + 1;
        // Whole-token match only: `std::this_thread` never contains a banned
        // spelling, but guard both edges anyway (e.g. a hypothetical
        // `mystd::thread` or `std::thready` must not fire).
        const bool left_ok = at == 0 || !is_ident_char(line[at - 1]);
        const std::size_t end = at + word.size();
        const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
        if (left_ok && right_ok) {
          findings.push_back({path, i + 1, "raw-thread",
                              "raw `" + word + "` — fan out through "
                              "tradefl::ThreadPool (src/common/parallel.h) instead"});
          break;  // one finding per line per spelling is enough
        }
      }
    }
  }
}

void check_ad_hoc_retry(const std::string& path, const std::vector<std::string>& lines,
                        std::vector<Finding>& findings) {
  // Hand-rolled retry loops around chain calls fork behavior from RetryPolicy
  // (deterministic backoff, seeded jitter, retry/giveup counters, fault
  // accounting). Web3Client::call_with_retry is the one sanctioned loop.
  if (path_ends_with(path, "src/chain/web3.cpp")) return;
  std::vector<int> loop_depths;  // brace depth just inside each open loop body
  int depth = 0;
  int paren = 0;              // unbalanced `(` carried across lines
  bool pending_loop = false;  // saw for/while; its `{` (or braceless body) pending
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];

    std::size_t kw_at = 0;
    const bool opens_loop =
        contains_token(line, "for", &kw_at) || contains_token(line, "while", &kw_at);

    const std::size_t call_at = line.find("->call(");
    const bool in_loop = !loop_depths.empty() || pending_loop ||
                         (opens_loop && call_at != std::string::npos && call_at > kw_at);
    if (call_at != std::string::npos && in_loop) {
      findings.push_back({path, i + 1, "ad-hoc-retry",
                          "chain call inside a hand-rolled loop — use "
                          "Web3Client::call_with_retry (RetryPolicy) instead"});
    }

    if (opens_loop) pending_loop = true;
    for (char c : line) {
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        if (paren > 0) --paren;
      } else if (c == '{') {
        ++depth;
        if (pending_loop) {
          loop_depths.push_back(depth);
          pending_loop = false;
        }
      } else if (c == '}') {
        if (!loop_depths.empty() && loop_depths.back() == depth) loop_depths.pop_back();
        --depth;
      } else if (c == ';' && pending_loop && paren == 0) {
        // Braceless loop body ended (`;` inside a for header stays
        // paren-guarded and does not end the loop).
        pending_loop = false;
      }
    }
  }
}

void check_ad_hoc_persistence(const std::string& path, const std::vector<std::string>& lines,
                              std::vector<Finding>& findings) {
  // Durable state must flow through an audited writer: the snapshot layer
  // (atomic temp+rename, CRC, typed errors), the CSV writer, the chain WAL,
  // the checked report writer, or the run-ledger event log (typed io error on
  // open, append-only telemetry nothing resumes from). A stray ofstream/fopen
  // elsewhere in src/ is a crash-consistency hole — it can tear on kill and
  // resume from garbage.
  if (!path_in(path, "src/")) return;
  if (path_ends_with(path, "src/common/snapshot.cpp") ||
      path_ends_with(path, "src/common/csv.cpp") ||
      path_ends_with(path, "src/chain/blockchain.cpp") ||
      path_ends_with(path, "src/tradefl/report.cpp") ||
      path_ends_with(path, "src/obs/event_log.cpp") ||
      path_ends_with(path, "src/obs/event_log.h")) {
    return;
  }
  static const std::vector<std::string> kBanned = {"ofstream", "fopen"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const std::string& word : kBanned) {
      if (contains_token(lines[i], word)) {
        findings.push_back({path, i + 1, "ad-hoc-persistence",
                            "ad-hoc state persistence via `" + word +
                                "` — write through common/snapshot.h, the CSV "
                                "writer, or a checked report writer instead"});
        break;
      }
    }
  }
}

void check_missing_override(const std::string& path, const std::vector<std::string>& lines,
                            std::vector<Finding>& findings) {
  // Track class scopes and whether each has a base clause. One entry per open
  // class/struct; `depth` is the brace depth just inside the class body.
  struct ClassScope {
    int depth = 0;
    bool has_base = false;
  };
  std::vector<ClassScope> scopes;
  int depth = 0;
  bool pending_class = false;   // saw `class X ...` but not its `{` yet
  bool pending_base = false;

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];

    std::size_t class_at = 0;
    const bool declares_class =
        (contains_token(line, "class", &class_at) || contains_token(line, "struct", &class_at)) &&
        !contains_token(line, "enum") && line.find(';') == std::string::npos;
    if (declares_class) {
      pending_class = true;
      pending_base = line.find(':', class_at) != std::string::npos;
    } else if (pending_class && !pending_base) {
      // Base clause may start on a continuation line before the `{`.
      pending_base = line.find(':') != std::string::npos && line.find("::") == std::string::npos;
    }

    std::size_t virt_at = 0;
    if (!scopes.empty() && scopes.back().has_base && !pending_class &&
        contains_token(line, "virtual", &virt_at) && line.find('~') == std::string::npos &&
        !contains_token(line, "override") && !contains_token(line, "final")) {
      findings.push_back({path, i + 1, "missing-override",
                          "virtual re-declaration in derived class without `override`"});
    }

    for (char c : line) {
      if (c == '{') {
        ++depth;
        if (pending_class) {
          scopes.push_back({depth, pending_base});
          pending_class = false;
          pending_base = false;
        }
      } else if (c == '}') {
        if (!scopes.empty() && scopes.back().depth == depth) scopes.pop_back();
        --depth;
      }
    }
  }
}

void check_include_layering(const std::string& path, const std::vector<std::string>& raw_lines,
                            std::vector<Finding>& findings) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {"common"}},
      {"obs", {"obs", "common"}},
      {"math", {"math", "obs", "common"}},
      {"game", {"game", "math", "obs", "common"}},
      {"core", {"core", "game", "math", "obs", "common"}},
      {"fl", {"fl", "game", "obs", "common"}},
      {"chain", {"chain", "obs", "common"}},
      {"tradefl", {"tradefl", "core", "game", "fl", "chain", "math", "obs", "common"}},
  };
  const std::string module = module_of(path);
  if (module.empty()) return;
  const auto allowed = kAllowed.find(module);
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    std::size_t at = line.find("#include \"");
    if (at == std::string::npos) continue;
    const std::size_t start = at + 10;
    const std::size_t slash = line.find('/', start);
    const std::size_t quote = line.find('"', start);
    if (slash == std::string::npos || quote == std::string::npos || slash > quote) continue;
    const std::string target = line.substr(start, slash - start);
    if (kAllowed.find(target) == kAllowed.end()) continue;  // not a module include
    if (allowed == kAllowed.end() || allowed->second.count(target) == 0) {
      findings.push_back({path, i + 1, "include-layering",
                          "src/" + module + "/ must not include src/" + target +
                              "/ (layer graph: common < obs < math < game < {core, fl}; "
                              "chain < obs < common)"});
    }
  }
}

/// Collects the names of functions registered as signal handlers: the second
/// argument of every `install_signal_handler(...)` call on these (scrubbed)
/// lines, stripped of `&` and namespace qualification. The shim's own
/// signature (`void install_signal_handler(...)`) is not a registration.
void collect_signal_handlers(const std::vector<std::string>& lines,
                             std::set<std::string>& handlers) {
  static const std::string kCall = "install_signal_handler(";
  for (const std::string& line : lines) {
    std::size_t at = line.find(kCall);
    while (at != std::string::npos) {
      std::size_t before = at;
      while (before > 0 && line[before - 1] == ' ') --before;
      const bool own_signature =
          before >= 4 && line.compare(before - 4, 4, "void") == 0;
      const std::size_t comma = line.find(',', at + kCall.size());
      if (!own_signature && comma != std::string::npos) {
        std::size_t start = comma + 1;
        while (start < line.size() && (line[start] == ' ' || line[start] == '&')) ++start;
        std::size_t end = start;
        while (end < line.size() && (is_ident_char(line[end]) || line[end] == ':')) ++end;
        std::string name = line.substr(start, end - start);
        const std::size_t qualifier = name.rfind("::");
        if (qualifier != std::string::npos) name = name.substr(qualifier + 2);
        if (!name.empty()) handlers.insert(name);
      }
      at = line.find(kCall, at + 1);
    }
  }
}

void check_signal_handler_safety(const std::string& path,
                                 const std::vector<std::string>& lines,
                                 const std::set<std::string>& handlers,
                                 std::vector<Finding>& findings) {
  // A handler body runs at an arbitrary instruction boundary of the
  // interrupted thread. Anything that allocates, locks, or buffers can land
  // inside its own runtime's critical section: malloc re-entered mid-arena
  // update is UB, a stream insert deadlocks on the lock the interrupted code
  // holds, and throwing cannot unwind across the signal frame. The sanctioned
  // body is a write to a volatile std::sig_atomic_t flag — nothing else.
  if (handlers.empty()) return;
  static const std::vector<std::pair<std::string, std::string>> kBanned = {
      {"new", "allocates"},
      {"malloc", "allocates"},
      {"calloc", "allocates"},
      {"realloc", "allocates"},
      {"free", "re-enters the allocator"},
      {"string", "allocates"},
      {"vector", "allocates"},
      {"make_unique", "allocates"},
      {"make_shared", "allocates"},
      {"push_back", "allocates"},
      {"cout", "takes the stream lock"},
      {"cerr", "takes the stream lock"},
      {"clog", "takes the stream lock"},
      {"printf", "is not async-signal-safe"},
      {"fprintf", "is not async-signal-safe"},
      {"puts", "is not async-signal-safe"},
      {"mutex", "deadlocks when the signal lands in the critical section"},
      {"lock_guard", "deadlocks when the signal lands in the critical section"},
      {"unique_lock", "deadlocks when the signal lands in the critical section"},
      {"scoped_lock", "deadlocks when the signal lands in the critical section"},
      {"condition_variable", "is not async-signal-safe"},
      {"throw", "cannot unwind across a signal frame"},
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // A definition start: `void <handler>(` — call sites have no return type
    // on the line, declarations are filtered below by hitting `;` before `{`.
    std::string active;
    for (const std::string& name : handlers) {
      std::size_t at = 0;
      if (!contains_token(lines[i], name, &at)) continue;
      const std::size_t after = lines[i].find_first_not_of(' ', at + name.size());
      if (after == std::string::npos || lines[i][after] != '(') continue;
      if (!contains_token(lines[i], "void")) continue;
      active = name;
      break;
    }
    if (active.empty()) continue;
    bool body = false;
    int depth = 0;
    for (std::size_t j = i; j < lines.size(); ++j) {
      bool ended = false;
      bool body_on_line = body;
      for (const char c : lines[j]) {
        if (!body) {
          if (c == ';') {
            ended = true;  // declaration only, no body to audit
            break;
          }
          if (c == '{') {
            body = true;
            body_on_line = true;
            depth = 1;
          }
        } else if (c == '{') {
          ++depth;
        } else if (c == '}') {
          if (--depth == 0) {
            ended = true;
            break;
          }
        }
      }
      if (body_on_line) {
        for (const auto& [token, why] : kBanned) {
          if (contains_token(lines[j], token)) {
            findings.push_back(
                {path, j + 1, "signal-handler-safety",
                 "`" + token + "` in signal handler `" + active + "` " + why +
                     " — handler bodies may only write volatile std::sig_atomic_t flags"});
          }
        }
      }
      if (ended) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

void scan_content(const std::string& path, const std::string& content,
                  std::vector<Finding>& findings, const std::set<std::string>& handlers) {
  const std::vector<std::string> raw_lines = split_lines(content);
  const std::vector<std::string> lines = split_lines(scrub_source(content));
  check_raw_new_delete(path, lines, findings);
  check_banned_random(path, lines, findings);
  check_unordered_in_chain(path, lines, findings);
  check_float_equality(path, lines, findings);
  check_raw_steady_clock(path, lines, findings);
  check_raw_thread(path, lines, findings);
  check_ad_hoc_retry(path, lines, findings);
  check_ad_hoc_persistence(path, lines, findings);
  check_missing_override(path, lines, findings);
  check_include_layering(path, raw_lines, findings);
  check_signal_handler_safety(path, lines, handlers, findings);
}

/// Single-file scan: handler names are collected from the file itself (the
/// self-test fixtures register and define in one file; the tree scan in main
/// collects across every scanned file first).
void scan_content(const std::string& path, const std::string& content,
                  std::vector<Finding>& findings) {
  std::set<std::string> handlers;
  collect_signal_handlers(split_lines(scrub_source(content)), handlers);
  scan_content(path, content, findings, handlers);
}

/// The rule catalog, shared by --list-rules and allowlist validation.
const std::vector<tfl_tools::RuleInfo>& rule_catalog() {
  static const std::vector<tfl_tools::RuleInfo> kRules = {
      {"raw-new-delete", "raw new/delete outside RAII (src/, tests/)"},
      {"banned-random", "rand()/srand()/std::default_random_engine (src/, tests/)"},
      {"unordered-in-chain", "unordered containers in src/chain/ (consensus order)"},
      {"float-equality", "==/!= against float literals in src/game/, src/core/"},
      {"raw-steady-clock", "std::chrono::steady_clock outside src/obs/ and stopwatch.h"},
      {"raw-thread", "std::thread/std::jthread/std::async outside src/common/parallel.*"},
      {"missing-override", "virtual redecl without override in derived classes"},
      {"include-layering", "module include edges outside the layer graph (src/)"},
      {"ad-hoc-retry",
       "for/while wrapped around ->call( outside src/chain/web3.cpp "
       "(use Web3Client::call_with_retry)"},
      {"ad-hoc-persistence",
       "ofstream/fopen in src/ outside the audited writers (snapshot, csv, chain WAL, report)"},
      {"signal-handler-safety",
       "non-async-signal-safe work (allocation, iostreams, locks, throw) in a handler "
       "registered via install_signal_handler"},
  };
  return kRules;
}

std::set<std::string> known_rule_ids() {
  std::set<std::string> ids;
  for (const tfl_tools::RuleInfo& rule : rule_catalog()) ids.insert(rule.id);
  return ids;
}

std::vector<AllowEntry> load_allowlist(const std::string& file) {
  tfl_tools::AllowParse parsed;
  std::string error;
  if (!tfl_tools::load_allow_file(file, known_rule_ids(), /*require_justification=*/false,
                                  parsed, error)) {
    std::cerr << "tfl-lint: " << error << "\n";
    std::exit(2);
  }
  for (const std::string& warning : parsed.warnings) {
    std::cerr << "tfl-lint: allowlist " << file << ": " << warning << "\n";
  }
  return parsed.entries;
}

// ---------------------------------------------------------------------------
// Self-test fixtures: one per rule proving detection, one clean file proving
// no false positives. Paths are virtual but must hit the per-rule dir filters.
// ---------------------------------------------------------------------------
struct Fixture {
  std::string path;
  std::string content;
  std::set<std::string> expected_rules;
};

int run_self_test() {
  const std::vector<Fixture> fixtures = {
      {"src/fl/fixture_new.cpp",
       "void f() {\n"
       "  int* p = new int(3);\n"
       "  delete p;\n"
       "}\n",
       {"raw-new-delete"}},
      {"src/common/fixture_rand.cpp",
       "#include <cstdlib>\n"
       "#include <random>\n"
       "int f() { return rand() % 5; }\n"
       "std::default_random_engine g_engine;\n",
       {"banned-random"}},
      {"src/chain/fixture_unordered.cpp",
       "#include <unordered_map>\n"
       "std::unordered_map<int, int> g_state;\n",
       {"unordered-in-chain"}},
      {"src/game/fixture_float_eq.cpp",
       "bool f(double x) { return x == 0.0; }\n"
       "bool g(double x) { return 1e-9 != x; }\n",
       {"float-equality"}},
      {"src/core/fixture_float_eq_rhs.cpp",
       "bool h(float x) { return x != 2.5f; }\n",
       {"float-equality"}},
      {"src/fl/fixture_override.h",
       "struct Base {\n"
       "  virtual ~Base() = default;\n"
       "  virtual void step();\n"
       "};\n"
       "struct Derived : public Base {\n"
       "  virtual void step();\n"
       "};\n",
       {"missing-override"}},
      {"src/math/fixture_layering.cpp",
       "#include \"fl/tensor.h\"\n"
       "#include \"math/grid.h\"\n",
       {"include-layering"}},
      {"src/core/fixture_clock.cpp",
       "#include <chrono>\n"
       "auto f() { return std::chrono::steady_clock::now(); }\n",
       {"raw-steady-clock"}},
      // The obs layer itself may read the clock directly.
      {"src/obs/fixture_clock_ok.cpp",
       "#include <chrono>\n"
       "auto f() { return std::chrono::steady_clock::now(); }\n",
       {}},
      {"src/fl/fixture_thread.cpp",
       "#include <future>\n"
       "#include <thread>\n"
       "void f() {\n"
       "  std::thread worker([] {});\n"
       "  auto pending = std::async([] { return 1; });\n"
       "  worker.join();\n"
       "}\n",
       {"raw-thread"}},
      // The pool implementation itself is the sanctioned raw-thread owner.
      {"src/common/parallel.cpp",
       "#include <thread>\n"
       "std::thread g_worker;\n",
       {}},
      // std::this_thread is navigation, not thread creation — must not fire.
      {"src/core/fixture_this_thread_ok.cpp",
       "#include <thread>\n"
       "auto f() { return std::this_thread::get_id(); }\n",
       {}},
      {"src/tradefl/fixture_retry_loop.cpp",
       "void f(Client* web3) {\n"
       "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
       "    auto outcome = web3->call(from, to, method, args);\n"
       "    if (outcome.ok()) break;\n"
       "  }\n"
       "}\n",
       {"ad-hoc-retry"}},
      {"src/tradefl/fixture_retry_while.cpp",
       "void f(Client* web3) {\n"
       "  bool done = false;\n"
       "  while (!done) done = web3->call(from, to, method, args).ok();\n"
       "}\n",
       {"ad-hoc-retry"}},
      // The sanctioned retry loop itself (and single calls, even after an
      // unrelated loop) must not fire.
      {"src/chain/web3.cpp",
       "Outcome g(Client* inner) {\n"
       "  for (int attempt = 1;; ++attempt) {\n"
       "    auto receipt = inner->call(from, to, method, args);\n"
       "    if (receipt.ok()) return receipt;\n"
       "  }\n"
       "}\n",
       {}},
      {"src/chain/fixture_single_call_ok.cpp",
       "Outcome g(Client* contract) {\n"
       "  for (int i = 0; i < 3; ++i) prepare(i);\n"
       "  return contract->call(context, method, args);\n"
       "}\n",
       {}},
      {"src/fl/fixture_persist.cpp",
       "#include <fstream>\n"
       "void f() {\n"
       "  std::ofstream out(\"weights.bin\", std::ios::binary);\n"
       "  out << 1;\n"
       "}\n",
       {"ad-hoc-persistence"}},
      {"src/core/fixture_persist_fopen.cpp",
       "#include <cstdio>\n"
       "void f() { std::FILE* file = std::fopen(\"state.bin\", \"wb\"); (void)file; }\n",
       {"ad-hoc-persistence"}},
      // The snapshot layer is the sanctioned owner of raw file handles.
      {"src/common/snapshot.cpp",
       "#include <cstdio>\n"
       "void f() { std::FILE* file = std::fopen(\"x.tmp\", \"wb\"); (void)file; }\n",
       {}},
      // Tests may write scratch files freely; the rule polices src/ only.
      {"tests/fl/fixture_persist_test_ok.cpp",
       "#include <fstream>\n"
       "void f() { std::ofstream out(\"scratch.txt\"); }\n",
       {}},
      // Raw string literals must be scrubbed by their actual grammar: code
      // after the closing `)"` on the same line is still scanned...
      {"src/fl/fixture_rawstring_after.cpp",
       "const char* kJson = R\"({\"a\": 1})\"; int* leak = new int(3);\n",
       {"raw-new-delete"}},
      // ...and banned tokens inside the literal (including on the closing
      // line, with a custom delimiter) must not fire.
      {"src/fl/fixture_rawstring_contents_ok.cpp",
       "const char* kDoc = R\"x(call new int; then\n"
       "delete p; also rand() and \"quoted\" text)x\";\n",
       {}},
      // An escape-like sequence inside a raw string does not escape: the
      // literal ends at `)\"`, and the delete after it is real code.
      {"src/core/fixture_rawstring_noescape.cpp",
       "void f(int* p) { const char* s = R\"(\\\")\"; delete p; }\n",
       {"raw-new-delete"}},
      // Digit separators are not char-literal openers; code after 1'000'000
      // is still scanned.
      {"src/fl/fixture_digit_separator.cpp",
       "void f() {\n"
       "  const long budget = 1'000'000;\n"
       "  int* p = new int(3);\n"
       "  delete p;\n"
       "}\n",
       {"raw-new-delete"}},
      // A registered handler that allocates and touches iostreams — both the
      // string construction and the stream insert must fire.
      {"src/tradefl/fixture_sighandler_alloc.cpp",
       "#include <csignal>\n"
       "#include <iostream>\n"
       "void on_term(int signum) {\n"
       "  std::string note = std::to_string(signum);\n"
       "  std::cout << note;\n"
       "}\n"
       "void install() { install_signal_handler(15, on_term); }\n",
       {"signal-handler-safety"}},
      // A registered handler that takes a lock (registered by address, with
      // namespace qualification — both must be stripped to find the body).
      {"src/tradefl/fixture_sighandler_lock.cpp",
       "#include <mutex>\n"
       "std::mutex g_mutex;\n"
       "void on_usr1(int) {\n"
       "  std::lock_guard<std::mutex> guard(g_mutex);\n"
       "}\n"
       "void install() { install_signal_handler(10, &handlers::on_usr1); }\n",
       {"signal-handler-safety"}},
      // The sanctioned handler shape: one volatile sig_atomic_t write.
      {"src/tradefl/fixture_sighandler_ok.cpp",
       "#include <csignal>\n"
       "volatile std::sig_atomic_t g_flag = 0;\n"
       "void on_term(int signum) { (void)signum; g_flag = 1; }\n"
       "void install() { install_signal_handler(15, on_term); }\n",
       {}},
      // Non-handler functions in a registering file may allocate/log freely;
      // a mutex at file scope (outside any handler body) is also fine.
      {"src/tradefl/fixture_sighandler_other_fn_ok.cpp",
       "#include <iostream>\n"
       "#include <mutex>\n"
       "std::mutex g_state_mutex;\n"
       "volatile std::sig_atomic_t g_flag = 0;\n"
       "void on_term(int signum) { (void)signum; g_flag = 1; }\n"
       "void worker() {\n"
       "  std::string note = describe();\n"
       "  std::cout << note;\n"
       "}\n"
       "void install() { install_signal_handler(15, on_term); }\n",
       {}},
      // A declaration followed by other code must not be mistaken for the
      // handler's body (the walk stops at `;`).
      {"src/tradefl/fixture_sighandler_decl_ok.h",
       "void on_term(int signum);\n"
       "inline void install() { install_signal_handler(15, on_term); }\n"
       "inline void elsewhere() { std::string heap = make(); }\n",
       {}},
      // Clean file: banned words only in comments/strings, tolerance compare,
      // override used properly, allowed include edge. Must produce no findings.
      {"src/game/fixture_clean.cpp",
       "#include \"math/grid.h\"\n"
       "// mentions new and delete and rand() in a comment only\n"
       "const char* kMessage = \"use new delete rand() == 0.0\";\n"
       "bool close(double x) { return std::abs(x - 1.0) < 1e-9; }\n"
       "struct Base { virtual ~Base() = default; virtual void f(); };\n"
       "struct Derived : Base { void f() override; };\n"
       "auto deleted_fn(int) -> int = delete;\n",
       {}},
  };

  int failures = 0;
  for (const Fixture& fixture : fixtures) {
    std::vector<Finding> findings;
    scan_content(fixture.path, fixture.content, findings);
    std::set<std::string> hit;
    for (const Finding& finding : findings) hit.insert(finding.rule);
    for (const std::string& rule : fixture.expected_rules) {
      if (hit.count(rule) == 0) {
        std::cerr << "self-test FAIL: " << fixture.path << " should trigger " << rule << "\n";
        ++failures;
      }
    }
    for (const Finding& finding : findings) {
      if (fixture.expected_rules.count(finding.rule) == 0) {
        std::cerr << "self-test FAIL: " << fixture.path << ":" << finding.line
                  << " unexpected " << finding.rule << " (" << finding.message << ")\n";
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::cout << "tfl-lint self-test: all " << fixtures.size() << " fixtures behaved\n";
    return 0;
  }
  std::cerr << "tfl-lint self-test: " << failures << " failure(s)\n";
  return 1;
}

void list_rules() { std::cout << tfl_tools::format_rule_table(rule_catalog()); }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allow_file;
  bool self_test = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-rules") {
      list_rules();
      return 0;
    } else if (arg == "--allow") {
      if (i + 1 >= argc) {
        std::cerr << "tfl-lint: --allow needs a file argument\n";
        return 2;
      }
      allow_file = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "tfl-lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }

  if (self_test) return run_self_test();
  if (roots.empty()) {
    std::cerr << "usage: tfl-lint [--allow FILE] [--list-rules] PATH...\n"
              << "       tfl-lint --self-test\n";
    return 2;
  }

  std::vector<AllowEntry> allowlist;
  if (!allow_file.empty()) allowlist = load_allowlist(allow_file);

  std::vector<fs::path> files;
  std::string walk_error;
  if (!tfl_tools::collect_files(roots, files, walk_error)) {
    std::cerr << "tfl-lint: " << walk_error << "\n";
    return 2;
  }

  // Two passes: handler registrations are collected tree-wide first, so a
  // handler registered in one file and defined in another is still audited.
  std::vector<std::pair<std::string, std::string>> sources;  // path, content
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::string content;
    if (!tfl_tools::read_file(file, content)) {
      std::cerr << "tfl-lint: cannot read " << normalize_path(file) << "\n";
      return 2;
    }
    sources.emplace_back(normalize_path(file), std::move(content));
  }
  std::set<std::string> handlers;
  for (const auto& [path, content] : sources) {
    collect_signal_handlers(split_lines(scrub_source(content)), handlers);
  }
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  for (const auto& [path, content] : sources) {
    scan_content(path, content, findings, handlers);
    ++files_scanned;
  }

  std::size_t reported = 0;
  std::size_t suppressed = 0;
  for (const Finding& finding : findings) {
    if (allowed(finding, allowlist)) {
      ++suppressed;
      continue;
    }
    std::cout << finding.path << ":" << finding.line << ": [" << finding.rule << "] "
              << finding.message << "\n";
    ++reported;
  }
  std::cout << "tfl-lint: " << files_scanned << " files, " << reported << " finding(s)";
  if (suppressed > 0) std::cout << ", " << suppressed << " allowlisted";
  std::cout << "\n";
  return reported == 0 ? 0 : 1;
}
