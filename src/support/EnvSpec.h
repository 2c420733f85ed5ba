//===- support/EnvSpec.h - Shared "path[,key=value]*" knob parsing -*- C++ -*-//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one splitter behind every observability environment knob.
/// PARCS_TRACE, PARCS_METRICS and PARCS_TELEMETRY all share the shape
///
///   <path>[,<key>=<value>]...
///
/// and the same diagnostics contract: a malformed spec is rejected with
/// the offending token reported verbatim, so the caller's stderr warning
/// can name it ("bad token \"cap=abc\"").  Each knob's parser validates
/// its own keys and value grammars on top of this split.
///
/// Commas nested inside parentheses stay inside their value, so option
/// grammars that themselves contain commas -- the telemetry knob's
/// slo=slo(series, p99 < 2ms, window=100ms) -- need no escaping.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_ENVSPEC_H
#define PARCS_SUPPORT_ENVSPEC_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parcs::envspec {

/// One "key=value" option, plus the raw token it was cut from (what a
/// diagnostic should quote).
struct Option {
  std::string_view Key;
  std::string_view Value;
  std::string_view Token;
};

/// Splits \p Spec into a leading path and its options.  Returns false --
/// leaving \p Path / \p Opts unspecified -- for an empty path or an
/// option with no '=' or an empty key; \p BadToken (when non-null)
/// receives the offending token ("<empty path>" for a missing path).
/// The returned views point into \p Spec.
bool split(std::string_view Spec, std::string_view &Path,
           std::vector<Option> &Opts, std::string *BadToken = nullptr);

/// Parses a non-empty all-digits decimal into \p Out.  False (leaving
/// \p Out untouched) when the value does not fit in 64 bits.
bool parseUint(std::string_view Digits, uint64_t &Out);

/// Parses an integer duration -- "2ms", "1500us", "3s", "250ns", or a
/// bare integer meaning nanoseconds -- into nanoseconds.  No fractions.
/// False when the nanosecond count does not fit in an int64_t.  (The
/// fault-plan grammar differs: its bare numbers are seconds and it takes
/// fractions.)
bool parseDurationNs(std::string_view Text, int64_t &Out);

} // namespace parcs::envspec

#endif // PARCS_SUPPORT_ENVSPEC_H
