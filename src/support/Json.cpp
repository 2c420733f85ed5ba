//===- support/Json.cpp - Minimal JSON reader -----------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace parcs::json {

namespace {

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  bool parse(Value &Out) {
    if (!value(Out))
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool string(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        switch (E) {
        case '"': C = '"'; break;
        case '\\': C = '\\'; break;
        case '/': C = '/'; break;
        case 'n': C = '\n'; break;
        case 't': C = '\t'; break;
        case 'r': C = '\r'; break;
        case 'u': {
          // Only the \u00XX control escapes appendString() writes.
          unsigned Code = 0;
          const char *First = Text.data() + Pos;
          const char *Last = Text.data() + std::min(Text.size(), Pos + 4);
          auto [End, Ec] = std::from_chars(First, Last, Code, 16);
          if (Ec != std::errc() || End != First + 4 || Code >= 0x80)
            return false;
          Pos += 4;
          C = static_cast<char>(Code);
          break;
        }
        default: return false;
        }
      }
      Out += C;
    }
    return consume('"');
  }

  bool value(Value &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = Value::Kind::Object;
      skipWs();
      if (consume('}'))
        return true;
      do {
        std::string Key;
        Value Member;
        if (!string(Key) || !consume(':') || !value(Member))
          return false;
        Out.Obj.emplace_back(std::move(Key), std::move(Member));
      } while (consume(','));
      return consume('}');
    }
    if (C == '[') {
      ++Pos;
      Out.K = Value::Kind::Array;
      skipWs();
      if (consume(']'))
        return true;
      do {
        Value Item;
        if (!value(Item))
          return false;
        Out.Arr.push_back(std::move(Item));
      } while (consume(','));
      return consume(']');
    }
    if (C == '"') {
      Out.K = Value::Kind::String;
      return string(Out.Str);
    }
    if (C == 't') {
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = Value::Kind::Bool;
      return literal("false");
    }
    if (C == 'n')
      return literal("null");
    // Number.
    size_t Start = Pos;
    if (C == '-')
      ++Pos;
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out.K = Value::Kind::Number;
    Out.Num = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                          nullptr);
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

void appendString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    const char *Named = C == '"'    ? "\\\""
                        : C == '\\' ? "\\\\"
                        : C == '\n' ? "\\n"
                        : C == '\t' ? "\\t"
                        : C == '\r' ? "\\r"
                                    : nullptr;
    if (Named) {
      Out += Named;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(C));
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

void appendNumber(std::string &Out, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

bool writeFile(const std::string &Path, std::string_view Body) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), F);
  bool Closed = std::fclose(F) == 0;
  return Closed && Written == Body.size();
}

bool parse(std::string_view Text, Value &Out) {
  return Parser(Text).parse(Out);
}

} // namespace parcs::json
