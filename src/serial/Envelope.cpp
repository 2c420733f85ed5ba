//===- serial/Envelope.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "serial/Envelope.h"

#include "support/Compiler.h"

#include <array>

using namespace parcs;
using namespace parcs::serial;

const char *parcs::serial::wireFormatName(WireFormat Format) {
  switch (Format) {
  case WireFormat::MpiPack:
    return "mpi-pack";
  case WireFormat::NetBinary:
    return "net-binary";
  case WireFormat::JavaStream:
    return "java-stream";
  case WireFormat::NetSoap:
    return "net-soap";
  }
  PARCS_UNREACHABLE("unhandled WireFormat");
}

//===----------------------------------------------------------------------===//
// Base64
//===----------------------------------------------------------------------===//

static constexpr char Base64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// PARCS_HOT_BEGIN(base64-encode): runs once per SOAP-framed message body.

/// Core encoder appending to a std::string (the public helper) or Bytes
/// (the envelope hot path): sizes the output once, then writes four chars
/// per input triple through a pointer.
template <typename Container>
static void base64EncodeImpl(const Bytes &Data, Container &Out) {
  using Char = typename Container::value_type;
  size_t Start = Out.size();
  Out.resize(Start + (Data.size() + 2) / 3 * 4);
  Char *Dst = Out.data() + Start;
  const uint8_t *Src = Data.data();
  auto Emit = [&Dst](uint32_t Triple) {
    Dst[0] = static_cast<Char>(Base64Alphabet[(Triple >> 18) & 0x3f]);
    Dst[1] = static_cast<Char>(Base64Alphabet[(Triple >> 12) & 0x3f]);
    Dst[2] = static_cast<Char>(Base64Alphabet[(Triple >> 6) & 0x3f]);
    Dst[3] = static_cast<Char>(Base64Alphabet[Triple & 0x3f]);
  };
  size_t I = 0;
  for (; I + 3 <= Data.size(); I += 3, Dst += 4)
    Emit((static_cast<uint32_t>(Src[I]) << 16) |
         (static_cast<uint32_t>(Src[I + 1]) << 8) |
         static_cast<uint32_t>(Src[I + 2]));
  size_t Rest = Data.size() - I;
  if (Rest == 0)
    return;
  uint32_t Triple = static_cast<uint32_t>(Src[I]) << 16;
  if (Rest == 2)
    Triple |= static_cast<uint32_t>(Src[I + 1]) << 8;
  Emit(Triple);
  Dst[3] = static_cast<Char>('=');
  if (Rest == 1)
    Dst[2] = static_cast<Char>('=');
}

std::string parcs::serial::base64Encode(const Bytes &Data) {
  std::string Out;
  base64EncodeImpl(Data, Out);
  return Out;
}

void parcs::serial::base64EncodeInto(const Bytes &Data, Bytes &Out) {
  base64EncodeImpl(Data, Out);
}

// PARCS_HOT_END

namespace {

/// Decode-table codes besides the 6-bit values 0..63.
constexpr uint8_t Base64Pad = 0x40;
constexpr uint8_t Base64Invalid = 0x80;

/// The 6-bit value of every alphabet byte, Base64Pad for '=', and
/// Base64Invalid for every other byte.
constexpr std::array<uint8_t, 256> Base64DecodeTable = [] {
  std::array<uint8_t, 256> Table{};
  Table.fill(Base64Invalid);
  for (uint8_t V = 0; V < 64; ++V)
    Table[static_cast<unsigned char>(Base64Alphabet[V])] = V;
  Table[static_cast<unsigned char>('=')] = Base64Pad;
  return Table;
}();

} // namespace

ErrorOr<Bytes> parcs::serial::base64Decode(std::string_view Text) {
  if (Text.size() % 4 != 0)
    return Error(ErrorCode::MalformedMessage, "base64 length not 4-aligned");
  Bytes Out(Text.size() / 4 * 3);
  if (Text.empty())
    return Out;
  const auto *Src = reinterpret_cast<const unsigned char *>(Text.data());
  uint8_t *Dst = Out.data();
  auto Emit = [&Dst](uint32_t A, uint32_t B, uint32_t C, uint32_t D) {
    uint32_t Triple = (A << 18) | (B << 12) | (C << 6) | D;
    Dst[0] = static_cast<uint8_t>(Triple >> 16);
    Dst[1] = static_cast<uint8_t>(Triple >> 8);
    Dst[2] = static_cast<uint8_t>(Triple);
    Dst += 3;
  };

  // Every group but the last: padding is illegal there, so one test per
  // quad catches both a pad and an invalid character.
  size_t Last = Text.size() - 4;
  for (size_t I = 0; I < Last; I += 4) {
    uint32_t A = Base64DecodeTable[Src[I]];
    uint32_t B = Base64DecodeTable[Src[I + 1]];
    uint32_t C = Base64DecodeTable[Src[I + 2]];
    uint32_t D = Base64DecodeTable[Src[I + 3]];
    if ((A | B | C | D) & (Base64Pad | Base64Invalid)) {
      // Report the first offending character, as a left-to-right scan
      // would.
      for (size_t J = 0; J < 4; ++J) {
        uint8_t V = Base64DecodeTable[Src[I + J]];
        if (V == Base64Pad)
          return Error(ErrorCode::MalformedMessage, "misplaced base64 pad");
        if (V == Base64Invalid)
          return Error(ErrorCode::MalformedMessage,
                       "invalid base64 character");
      }
    }
    Emit(A, B, C, D);
  }

  // The final group: a pad is legal in its last two positions, and only
  // pads may follow one.
  std::array<uint32_t, 4> Vals = {0, 0, 0, 0};
  size_t Pad = 0;
  for (size_t J = 0; J < 4; ++J) {
    uint8_t V = Base64DecodeTable[Src[Last + J]];
    if (V == Base64Pad) {
      if (J < 2)
        return Error(ErrorCode::MalformedMessage, "misplaced base64 pad");
      ++Pad;
      continue;
    }
    if (Pad > 0)
      return Error(ErrorCode::MalformedMessage, "data after base64 pad");
    if (V == Base64Invalid)
      return Error(ErrorCode::MalformedMessage, "invalid base64 character");
    Vals[J] = V;
  }
  Emit(Vals[0], Vals[1], Vals[2], Vals[3]);
  Out.resize(Out.size() - Pad);
  return Out;
}

//===----------------------------------------------------------------------===//
// Envelopes
//===----------------------------------------------------------------------===//

namespace {

/// ".Net binary formatter" header magic.
constexpr uint32_t NetBinaryMagic = 0x4e424631; // "NBF1"
/// Java object stream magic (java.io.ObjectStreamConstants).
constexpr uint16_t JavaStreamMagic = 0xaced;
constexpr uint16_t JavaStreamVersion = 5;

// PARCS_HOT_BEGIN(envelope-framing): the encoders run once per message on
// the send path; they must append into the caller's reused buffer without
// intermediate std::string temporaries.  The decoders below run once per
// received message and copy the payload out of the wire buffer; the SOAP
// decoder also base64-decodes every Http body.

void encodeMpiPackInto(const Bytes &Payload, Bytes &Out) {
  OutputArchive Archive(std::move(Out));
  Archive.write(static_cast<uint32_t>(Payload.size()));
  Archive.writeRaw(Payload);
  Out = Archive.take();
}

// PARCS_HOT_END

ErrorOr<Envelope> decodeMpiPack(const uint8_t *Data, size_t WireSize) {
  InputArchive Archive(Data, WireSize);
  uint32_t Size = 0;
  Envelope Result;
  if (!Archive.read(Size) || !Archive.readRaw(Result.Payload, Size))
    return Error(ErrorCode::MalformedMessage, "truncated mpi-pack buffer");
  return Result;
}

// PARCS_HOT_BEGIN(envelope-framing)
void encodeNetBinaryInto(std::string_view Name, const Bytes &Payload,
                         Bytes &Out) {
  OutputArchive Archive(std::move(Out));
  Archive.write(NetBinaryMagic);
  Archive.write(static_cast<uint8_t>(1)); // Formatter version.
  Archive.write(Name);
  Archive.write(static_cast<uint32_t>(Payload.size()));
  Archive.writeRaw(Payload);
  Out = Archive.take();
}
// PARCS_HOT_END

ErrorOr<Envelope> decodeNetBinary(const uint8_t *Data, size_t WireSize) {
  InputArchive Archive(Data, WireSize);
  uint32_t Magic = 0;
  uint8_t Version = 0;
  Envelope Result;
  uint32_t Size = 0;
  if (!Archive.read(Magic) || Magic != NetBinaryMagic)
    return Error(ErrorCode::MalformedMessage, "bad net-binary magic");
  if (!Archive.read(Version) || Version != 1)
    return Error(ErrorCode::MalformedMessage, "bad net-binary version");
  if (!Archive.read(Result.Name) || !Archive.read(Size) ||
      !Archive.readRaw(Result.Payload, Size))
    return Error(ErrorCode::MalformedMessage, "truncated net-binary buffer");
  return Result;
}

// PARCS_HOT_BEGIN(envelope-framing)
void encodeJavaStreamInto(std::string_view Name, const Bytes &Payload,
                          Bytes &Out) {
  // The shape (not the exact bytes) of a Java serialisation stream: magic,
  // version, then a class descriptor carrying the class name, a
  // serialVersionUID, flags and a field table before the data itself.
  OutputArchive Archive(std::move(Out));
  Archive.write(JavaStreamMagic);
  Archive.write(JavaStreamVersion);
  Archive.write(static_cast<uint8_t>(0x72)); // TC_CLASSDESC
  Archive.write(Name);
  Archive.write(static_cast<uint64_t>(0x123456789abcdef0ULL)); // suid
  Archive.write(static_cast<uint8_t>(0x02));                   // SC_SERIALIZABLE
  // A synthetic field table: RMI streams describe each field; we model a
  // fixed three-entry table naming payload/length/checksum.
  Archive.write(static_cast<uint16_t>(3));
  // string_view literals: the bool overload would otherwise capture a bare
  // char* literal via pointer-to-bool conversion.
  using namespace std::string_view_literals;
  Archive.write("payload"sv);
  Archive.write("length"sv);
  Archive.write("checksum"sv);
  Archive.write(static_cast<uint8_t>(0x78)); // TC_ENDBLOCKDATA
  Archive.write(static_cast<uint32_t>(Payload.size()));
  Archive.writeRaw(Payload);
  Out = Archive.take();
}
// PARCS_HOT_END

ErrorOr<Envelope> decodeJavaStream(const uint8_t *Data, size_t WireSize) {
  InputArchive Archive(Data, WireSize);
  uint16_t Magic = 0, Version = 0;
  if (!Archive.read(Magic) || Magic != JavaStreamMagic)
    return Error(ErrorCode::MalformedMessage, "bad java stream magic");
  if (!Archive.read(Version) || Version != JavaStreamVersion)
    return Error(ErrorCode::MalformedMessage, "bad java stream version");
  uint8_t Tag = 0;
  Envelope Result;
  uint64_t Suid = 0;
  uint8_t Flags = 0;
  uint16_t FieldCount = 0;
  if (!Archive.read(Tag) || Tag != 0x72 || !Archive.read(Result.Name) ||
      !Archive.read(Suid) || !Archive.read(Flags) ||
      !Archive.read(FieldCount))
    return Error(ErrorCode::MalformedMessage, "bad java class descriptor");
  for (uint16_t I = 0; I < FieldCount; ++I) {
    std::string Field;
    if (!Archive.read(Field))
      return Error(ErrorCode::MalformedMessage, "bad java field table");
  }
  uint8_t End = 0;
  uint32_t Size = 0;
  if (!Archive.read(End) || End != 0x78 || !Archive.read(Size) ||
      !Archive.readRaw(Result.Payload, Size))
    return Error(ErrorCode::MalformedMessage, "truncated java stream");
  return Result;
}

void appendText(Bytes &Out, std::string_view Text) {
  Out.insert(Out.end(), Text.begin(), Text.end());
}

// PARCS_HOT_BEGIN(envelope-framing)
void encodeNetSoapInto(std::string_view Name, const Bytes &Payload,
                       Bytes &Out) {
  appendText(Out,
             "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/"
             "soap/envelope/\" xmlns:i=\"http://www.w3.org/2001/"
             "XMLSchema-instance\">\n");
  appendText(Out, "<SOAP-ENV:Body>\n");
  appendText(Out, "<i:");
  appendText(Out, Name);
  appendText(Out, ">");
  base64EncodeInto(Payload, Out);
  appendText(Out, "</i:");
  appendText(Out, Name);
  appendText(Out, ">\n");
  appendText(Out, "</SOAP-ENV:Body>\n");
  appendText(Out, "</SOAP-ENV:Envelope>\n");
}
// PARCS_HOT_END

ErrorOr<Envelope> decodeNetSoap(const uint8_t *Data, size_t Size) {
  std::string_view Xml(reinterpret_cast<const char *>(Data), Size);
  size_t OpenStart = Xml.find("<i:");
  if (OpenStart == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "soap body element missing");
  size_t OpenEnd = Xml.find('>', OpenStart);
  if (OpenEnd == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "soap body tag unterminated");
  Envelope Result;
  Result.Name = Xml.substr(OpenStart + 3, OpenEnd - OpenStart - 3);
  std::string CloseTag = "</i:" + Result.Name + ">";
  size_t Close = Xml.find(CloseTag, OpenEnd);
  if (Close == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "soap close tag missing");
  std::string_view Body = Xml.substr(OpenEnd + 1, Close - OpenEnd - 1);
  ErrorOr<Bytes> Decoded = base64Decode(Body);
  if (!Decoded)
    return Decoded.error();
  Result.Payload = Decoded.take();
  return Result;
}

} // namespace

Bytes parcs::serial::encodeEnvelope(WireFormat Format, std::string_view Name,
                                    const Bytes &Payload) {
  Bytes Out;
  encodeEnvelopeInto(Format, Name, Payload, Out);
  return Out;
}

// PARCS_HOT_BEGIN(envelope-framing)
void parcs::serial::encodeEnvelopeInto(WireFormat Format,
                                       std::string_view Name,
                                       const Bytes &Payload, Bytes &Out) {
  switch (Format) {
  case WireFormat::MpiPack:
    return encodeMpiPackInto(Payload, Out);
  case WireFormat::NetBinary:
    return encodeNetBinaryInto(Name, Payload, Out);
  case WireFormat::JavaStream:
    return encodeJavaStreamInto(Name, Payload, Out);
  case WireFormat::NetSoap:
    return encodeNetSoapInto(Name, Payload, Out);
  }
  PARCS_UNREACHABLE("unhandled WireFormat");
}
// PARCS_HOT_END

ErrorOr<Envelope> parcs::serial::decodeEnvelope(WireFormat Format,
                                                const Bytes &Wire) {
  return decodeEnvelope(Format, Wire.data(), Wire.size());
}

ErrorOr<Envelope> parcs::serial::decodeEnvelope(WireFormat Format,
                                                const uint8_t *Data,
                                                size_t Size) {
  switch (Format) {
  case WireFormat::MpiPack:
    return decodeMpiPack(Data, Size);
  case WireFormat::NetBinary:
    return decodeNetBinary(Data, Size);
  case WireFormat::JavaStream:
    return decodeJavaStream(Data, Size);
  case WireFormat::NetSoap:
    return decodeNetSoap(Data, Size);
  }
  PARCS_UNREACHABLE("unhandled WireFormat");
}

void parcs::serial::encodeCausalContext(OutputArchive &Out, uint64_t Ctx,
                                        uint64_t Parent) {
  Out.write(Ctx);
  Out.write(Parent);
}

bool parcs::serial::decodeCausalContext(InputArchive &In, uint64_t &Ctx,
                                        uint64_t &Parent) {
  return In.read(Ctx) && In.read(Parent);
}
