//===- support/EnvSpec.cpp - Shared "path[,key=value]*" knob parsing ------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/EnvSpec.h"

#include <limits>

namespace parcs::envspec {

namespace {

/// Position of the next top-level comma at or after \p From (npos when
/// none).  "Top-level" skips commas inside parentheses.
size_t nextTopLevelComma(std::string_view Spec, size_t From) {
  int Depth = 0;
  for (size_t I = From; I < Spec.size(); ++I) {
    char C = Spec[I];
    if (C == '(')
      ++Depth;
    else if (C == ')' && Depth > 0)
      --Depth;
    else if (C == ',' && Depth == 0)
      return I;
  }
  return std::string_view::npos;
}

} // namespace

bool split(std::string_view Spec, std::string_view &Path,
           std::vector<Option> &Opts, std::string *BadToken) {
  auto Fail = [&](std::string_view Token) {
    if (BadToken)
      *BadToken = std::string(Token);
    return false;
  };
  Opts.clear();
  size_t Comma = nextTopLevelComma(Spec, 0);
  Path = Spec.substr(0, Comma);
  if (Path.empty())
    return Fail("<empty path>");
  while (Comma != std::string_view::npos) {
    size_t Begin = Comma + 1;
    Comma = nextTopLevelComma(Spec, Begin);
    std::string_view Token =
        Comma == std::string_view::npos ? Spec.substr(Begin)
                                        : Spec.substr(Begin, Comma - Begin);
    size_t Eq = Token.find('=');
    if (Eq == std::string_view::npos || Eq == 0)
      return Fail(Token);
    Opts.push_back({Token.substr(0, Eq), Token.substr(Eq + 1), Token});
  }
  return true;
}

bool parseUint(std::string_view Digits, uint64_t &Out) {
  if (Digits.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Digits) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = uint64_t(C - '0');
    if (Value > (std::numeric_limits<uint64_t>::max() - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

bool parseDurationNs(std::string_view Text, int64_t &Out) {
  int64_t Scale = 1;
  // Longest suffix first: "ms"/"us"/"ns" end in 's' too.
  if (Text.size() >= 2 && Text.substr(Text.size() - 2) == "ms") {
    Scale = 1'000'000;
    Text.remove_suffix(2);
  } else if (Text.size() >= 2 && Text.substr(Text.size() - 2) == "us") {
    Scale = 1'000;
    Text.remove_suffix(2);
  } else if (Text.size() >= 2 && Text.substr(Text.size() - 2) == "ns") {
    Text.remove_suffix(2);
  } else if (!Text.empty() && Text.back() == 's') {
    Scale = 1'000'000'000;
    Text.remove_suffix(1);
  }
  uint64_t Magnitude = 0;
  if (!parseUint(Text, Magnitude) ||
      Magnitude > uint64_t(std::numeric_limits<int64_t>::max() / Scale))
    return false;
  Out = int64_t(Magnitude) * Scale;
  return true;
}

} // namespace parcs::envspec
