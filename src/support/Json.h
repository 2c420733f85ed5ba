//===- support/Json.h - Minimal JSON reader for our own exports -*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON string and number writers every exporter shares (metrics
/// report, trace, telemetry, parcs-model, parcgen facts, parcs-lint), and
/// a small recursive-descent reader for the offline consumers of those
/// exports: parcs_top over telemetry exports, the parcs-model ingester
/// over bench sweeps, fitted-model files and telemetry exports, and
/// parcs-prof over trace exports.  The
/// reader covers exactly what the writers emit -- objects, arrays,
/// strings, numbers, bools, null; the common escapes and \u00XX for the
/// control bytes appendString() escapes, but no other \uXXXX -- and is
/// deliberately not a general-purpose JSON library.
///
/// Object members keep their document order (vector of pairs, not a map):
/// every export in this repo is already deterministically ordered, and
/// consumers that re-render (parcs_top tables, model reports) must not
/// reorder what the writer laid out.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_JSON_H
#define PARCS_SUPPORT_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace parcs::json {

/// One parsed JSON value; a tagged union kept simple (all alternatives
/// inline) because export files are small.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  /// Members in document order.
  std::vector<std::pair<std::string, Value>> Obj;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }

  /// The named member, or nullptr (also for non-objects).
  const Value *field(std::string_view Name) const {
    for (const auto &[Key, Member] : Obj)
      if (Key == Name)
        return &Member;
    return nullptr;
  }
  /// The named number member, or \p Default when absent or non-numeric.
  double num(std::string_view Name, double Default = 0) const {
    const Value *V = field(Name);
    return V && V->K == Kind::Number ? V->Num : Default;
  }
  /// The named string member, or an empty view when absent or non-string.
  std::string_view str(std::string_view Name) const {
    const Value *V = field(Name);
    return V && V->K == Kind::String ? std::string_view(V->Str)
                                     : std::string_view();
  }
};

/// Appends \p S as a quoted JSON string: `"` and `\` are backslashed,
/// \n, \t and \r escaped by name, and every other byte below 0x20 as
/// \u00XX.  Other bytes (UTF-8 included) pass through unchanged.
void appendString(std::string &Out, std::string_view S);

/// Appends \p V formatted as "%.6g", the number format of every export.
void appendNumber(std::string &Out, double V);

/// Writes \p Body to the file at \p Path, replacing it; false on any I/O
/// error.  How every exporter puts its document on disk.
bool writeFile(const std::string &Path, std::string_view Body);

/// Parses \p Text (which must be one complete JSON document) into \p Out.
/// Returns false on any syntax error or trailing garbage.
bool parse(std::string_view Text, Value &Out);

} // namespace parcs::json

#endif // PARCS_SUPPORT_JSON_H
