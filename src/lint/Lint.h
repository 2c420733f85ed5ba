//===- lint/Lint.h - Determinism & hot-path invariant checker ---*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parcs-lint: a static analyzer that encodes this repository's two core
/// invariants -- bit-for-bit deterministic runs and an allocation-free
/// simulation hot path -- as machine-checked rules.  The test suite can
/// only catch violations probabilistically (a stray wall-clock read changes
/// the golden hash on *some* machines, an unordered-map export reorders on
/// *some* standard libraries); the linter rejects them structurally.
///
/// Rules (see docs/static-analysis.md for the contract and examples):
///   determinism-wall-clock        no wall clocks / ambient randomness
///   determinism-unordered-iteration  no unordered-container iteration in
///                                 export-producing code
///   hot-path-alloc                no allocation inside PARCS_HOT regions
///   suspension-ref                no reference/view/iterator locals used
///                                 across a coroutine suspension
///   nonreentrant-call             no non-reentrant libc calls in src/
///   hot-path-region               PARCS_HOT_BEGIN/END pairing is sound
///   cross-partition-shared-state  no mutable statics / singleton accessors
///                                 in PARCS_HOT regions (hot regions touch
///                                 no process-wide mutable state)
///
/// Findings are suppressed inline with
///   // parcs-lint: allow(<rule>[, <rule>...]): <justification>
/// on the offending line (or on the line above when the comment stands
/// alone), or grandfathered through a committed baseline file.  The
/// library is filesystem-free except for lintFile(); the CLI in
/// tools/parcs_lint owns directory walking, so every rule is unit-testable
/// on in-memory sources.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_LINT_LINT_H
#define PARCS_LINT_LINT_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace parcs::lint {

struct CppToken;
struct CppComment;

/// Stable rule identifiers (these strings appear in suppressions, baselines
/// and reports; renaming one is a breaking change).
namespace rules {
inline constexpr const char *WallClock = "determinism-wall-clock";
inline constexpr const char *UnorderedIteration =
    "determinism-unordered-iteration";
inline constexpr const char *HotPathAlloc = "hot-path-alloc";
inline constexpr const char *SuspensionRef = "suspension-ref";
inline constexpr const char *NonreentrantCall = "nonreentrant-call";
/// Meta-rule: malformed PARCS_HOT region annotations (unclosed/unopened).
inline constexpr const char *HotPathRegion = "hot-path-region";
/// PARCS_HOT regions touch no process-wide mutable state: mutable
/// function-local statics and singleton accessors (`X::global()` /
/// `X::instance()`) are hidden shared state whose cost and contents the
/// region's owner does not control.  Fold such updates outside the hot
/// loop.
inline constexpr const char *CrossPartitionSharedState =
    "cross-partition-shared-state";
/// Interprocedural (lint/Analysis.h): a cycle of synchronous invokes
/// between parallel classes -- joined from parcgen facts and the C++ call
/// graph -- deadlocks the active objects.
inline constexpr const char *SyncCallDeadlock = "sync-call-deadlock";
/// Interprocedural (lint/Analysis.h): wall-clock/randomness/unordered
/// sources flowing through assignments and calls into export sinks.
inline constexpr const char *DeterminismTaint = "determinism-taint";
} // namespace rules

/// All checkable rule names, in report order.
const std::vector<std::string> &allRules();

/// One finding.  File paths are repo-relative with '/' separators; Line and
/// Col are 1-based.
struct Finding {
  std::string Rule;
  std::string File;
  int Line = 0;
  int Col = 0;
  std::string Message;
  /// FNV-1a hash of the trimmed source line the finding points at (0 when
  /// the source is unavailable).  Baseline entries key on it so pure line
  /// shifts keep matching; it does not participate in ordering/equality.
  uint32_t LineHash = 0;

  /// Stable ordering for reports: (file, line, col, rule, message).
  bool operator<(const Finding &O) const;
  bool operator==(const Finding &O) const;
};

/// FNV-1a over \p S (the baseline's line-content hash function).
uint32_t fnv1a(std::string_view S);

/// Hash of the trimmed content of 1-based \p Line in \p Source; 0 when the
/// line does not exist.
uint32_t flaggedLineHash(std::string_view Source, int Line);

/// Policy knobs.  Defaults encode this repository's layout; tests override
/// them to exercise rules in isolation.
struct LintConfig {
  /// Files exempt from determinism-wall-clock (repo-relative paths): the
  /// wall-time/randomness facades, plus the fault injector (whose only
  /// randomness is the seeded parcs::Rng it owns).
  std::vector<std::string> WallClockAllowedFiles = {
      "bench/BenchUtil.h",
      "src/fault/Injector.cpp",
      "src/support/Random.h",
  };
  /// Path prefixes whose files produce exports (traces, metrics, profiles,
  /// wire bytes): unordered-container iteration order leaks into output
  /// there, so it is flagged.
  std::vector<std::string> UnorderedExportPrefixes = {
      "src/support/Trace.",
      "src/support/Metrics.",
      "src/prof/",
      "src/serial/",
  };
  /// Path prefixes where non-reentrant libc calls are banned.
  std::vector<std::string> NonreentrantPrefixes = {"src/"};
  /// Types whose references are audited as stable across coroutine
  /// suspensions: runtime services owned by the World/Runtime that outlive
  /// every coroutine frame (see docs/static-analysis.md for the audit).
  /// suspension-ref does not track references of these types.
  std::vector<std::string> SuspensionStableTypes = {
      "Simulator",
      "ObjectManager",
  };
  /// Namespace qualifiers whose calls are export sinks for the
  /// determinism-taint rule (`trace::counter(...)`, `metrics::gauge(...)`).
  std::vector<std::string> TaintSinkQualifiers = {
      "trace", "metrics", "prof", "serial", "telemetry",
  };
  /// Types whose member calls yield wall-clock/randomness values (taint
  /// sources for determinism-taint).
  std::vector<std::string> TaintSourceTypes = {
      "WallTimer",       "random_device", "mt19937",
      "mt19937_64",      "minstd_rand",   "default_random_engine",
  };
  /// Rules disabled wholesale (by name).  Empty by default.
  std::set<std::string> DisabledRules;
};

/// Lints one in-memory source.  \p RelPath selects per-path rule policy and
/// is copied into findings.  Inline suppressions are applied; baseline
/// filtering is the caller's job (applyBaseline).
std::vector<Finding> lintSource(std::string_view RelPath,
                                std::string_view Source,
                                const LintConfig &Config);

/// Reads and lints one file.  Returns false (with \p ErrorOut set) when the
/// file cannot be read.
bool lintFile(const std::string &AbsPath, std::string_view RelPath,
              const LintConfig &Config, std::vector<Finding> &FindingsOut,
              std::string &ErrorOut);

/// Inline-suppression map for a scanned file: line -> rules suppressed
/// there via `// parcs-lint: allow(...)`.  Exposed for the program-level
/// (interprocedural) analyses in lint/Analysis.h, which filter their own
/// findings with the same directives as the per-file rules.
std::map<int, std::set<std::string>>
collectSuppressions(const std::vector<CppToken> &Toks,
                    const std::vector<CppComment> &Comments);

//===----------------------------------------------------------------------===//
// Baseline
//===----------------------------------------------------------------------===//

/// Grandfathered findings.  Text format, one entry per line:
///   <rule>|<file>|<line>|<hash8>
/// where <hash8> is the FNV-1a hash (8 lowercase hex digits) of the
/// trimmed flagged source line.  Entries key on (rule, file, hash): a pure
/// line shift keeps matching (the line number is a tiebreaker when the
/// same content appears more than once), while any edit to the flagged
/// line changes the hash and forces a re-audit.  Legacy 3-field entries
/// (`<rule>|<file>|<line>`) stay line-exact.  '#' starts a comment; the
/// comment block immediately above an entry is its justification and is
/// preserved by Baseline::update.
class Baseline {
public:
  struct Entry {
    std::string Rule;
    std::string File;
    int Line = 0;
    uint32_t Hash = 0;
    bool HasHash = false;
    /// Contiguous '#' lines immediately above the entry (verbatim,
    /// including the leading '#'), preserved across --update-baseline.
    std::vector<std::string> Comments;
  };

  /// Parses baseline text.  Unparseable lines are reported in \p Errors
  /// (the caller decides whether that is fatal).
  static Baseline parse(std::string_view Text,
                        std::vector<std::string> &Errors);

  /// Serialises \p Findings as a fresh baseline, sorted, each entry
  /// preceded by a justification stub comment carrying the message.
  static std::string write(const std::vector<Finding> &Findings);

  /// Rewrites baseline text from current findings while preserving the
  /// justification comment block of every entry that still matches.
  /// Matched entries are re-emitted with the finding's current line and
  /// hash; unmatched entries are dropped; new findings get a JUSTIFY stub.
  /// Everything above the first entry block (the file header) is kept.
  static std::string update(std::string_view OldText,
                            const std::vector<Finding> &Findings);

  /// True when some entry matches \p F (exact line for legacy entries,
  /// hash with any line for hashed ones).  Non-consuming; applyBaseline
  /// does the one-entry-per-finding consumption matching.
  bool contains(const Finding &F) const;
  size_t size() const { return Entries.size(); }
  void add(const Finding &F);
  const std::vector<Entry> &entries() const { return Entries; }

private:
  friend std::vector<Finding> applyBaseline(const std::vector<Finding> &,
                                            const Baseline &);
  std::vector<Entry> Entries;
};

/// Removes findings matched by \p B; returns the survivors (order kept).
/// Matching consumes entries (one finding per entry): exact
/// (rule, file, line) first -- requiring the hash to agree when both sides
/// have one -- then (rule, file, hash) with the nearest line as tiebreak.
std::vector<Finding> applyBaseline(const std::vector<Finding> &Findings,
                                   const Baseline &B);

//===----------------------------------------------------------------------===//
// Reporters
//===----------------------------------------------------------------------===//

/// "file:line:col: warning: [rule] message" lines plus a summary line.
/// Findings are emitted in sorted order.
std::string renderText(std::vector<Finding> Findings);

/// Deterministic JSON: sorted findings, fixed key order, no whitespace
/// variation -- byte-identical across runs on identical input.
std::string renderJson(std::vector<Finding> Findings);

} // namespace parcs::lint

#endif // PARCS_LINT_LINT_H
