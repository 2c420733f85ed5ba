//===- tests/SerialTest.cpp - serialisation tests -------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "serial/Archive.h"
#include "serial/Crc32.h"
#include "serial/Envelope.h"
#include "serial/ObjectGraph.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>

using namespace parcs;
using namespace parcs::serial;

namespace {

//===----------------------------------------------------------------------===//
// Archive round trips
//===----------------------------------------------------------------------===//

TEST(ArchiveTest, PrimitiveRoundTrip) {
  OutputArchive Out;
  Out.write(static_cast<uint8_t>(0xab));
  Out.write(static_cast<int32_t>(-12345));
  Out.write(static_cast<uint64_t>(0x1122334455667788ULL));
  Out.write(true);
  Out.write(3.14159);
  Out.write(2.5f);
  Out.write(std::string("hello"));

  InputArchive In(Out.bytes());
  uint8_t U8 = 0;
  int32_t I32 = 0;
  uint64_t U64 = 0;
  bool Flag = false;
  double D = 0;
  float F = 0;
  std::string S;
  EXPECT_TRUE(In.read(U8));
  EXPECT_TRUE(In.read(I32));
  EXPECT_TRUE(In.read(U64));
  EXPECT_TRUE(In.read(Flag));
  EXPECT_TRUE(In.read(D));
  EXPECT_TRUE(In.read(F));
  EXPECT_TRUE(In.read(S));
  EXPECT_TRUE(In.atEnd());
  EXPECT_EQ(U8, 0xab);
  EXPECT_EQ(I32, -12345);
  EXPECT_EQ(U64, 0x1122334455667788ULL);
  EXPECT_TRUE(Flag);
  EXPECT_DOUBLE_EQ(D, 3.14159);
  EXPECT_FLOAT_EQ(F, 2.5f);
  EXPECT_EQ(S, "hello");
}

TEST(ArchiveTest, LittleEndianLayout) {
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(0x11223344));
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out.bytes()[0], 0x44);
  EXPECT_EQ(Out.bytes()[3], 0x11);
}

TEST(ArchiveTest, VectorRoundTrip) {
  OutputArchive Out;
  std::vector<int32_t> Ints = {1, -2, 3, -4};
  std::vector<std::string> Names = {"a", "bb", ""};
  Out.write(Ints);
  Out.write(Names);
  InputArchive In(Out.bytes());
  std::vector<int32_t> Ints2;
  std::vector<std::string> Names2;
  EXPECT_TRUE(In.read(Ints2));
  EXPECT_TRUE(In.read(Names2));
  EXPECT_EQ(Ints, Ints2);
  EXPECT_EQ(Names, Names2);
}

TEST(ArchiveTest, TruncatedReadFailsSticky) {
  OutputArchive Out;
  Out.write(static_cast<uint16_t>(7));
  InputArchive In(Out.bytes());
  uint32_t Big = 0;
  EXPECT_FALSE(In.read(Big));
  EXPECT_FALSE(In.ok());
  uint8_t Small = 0;
  EXPECT_FALSE(In.read(Small)); // Sticky: even a fitting read now fails.

  // A numeric array one byte short fails before touching its output.
  OutputArchive Array;
  Array.write(std::vector<double>{1.0, 2.0, 3.0});
  Bytes Wire = Array.take();
  Wire.pop_back();
  InputArchive ArrayIn(Wire);
  std::vector<double> Back = {9.0};
  EXPECT_FALSE(ArrayIn.read(Back));
  EXPECT_FALSE(ArrayIn.ok());
  EXPECT_EQ(Back, std::vector<double>{9.0});
  EXPECT_FALSE(ArrayIn.read(Small));
}

TEST(ArchiveTest, CorruptLengthDoesNotAllocate) {
  // A vector length of ~4 billion with a 4-byte buffer must fail cleanly.
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(0xffffffff));
  InputArchive In(Out.bytes());
  std::vector<int32_t> V;
  EXPECT_FALSE(In.read(V));
  // Counts past the bytes that follow, by far or by two elements.
  for (uint32_t Count : {0xffffffffu, 0x40000000u, 3u}) {
    OutputArchive Short;
    Short.write(Count);
    Short.write(static_cast<uint64_t>(7)); // One element's worth of bytes.
    InputArchive ShortIn(Short.bytes());
    std::vector<uint64_t> W;
    EXPECT_FALSE(ShortIn.read(W)) << Count;
    EXPECT_EQ(W.capacity(), 0u) << Count;
  }
}

TEST(ArchiveTest, CorruptStringLengthFails) {
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(1000)); // Claims 1000 chars, has none.
  InputArchive In(Out.bytes());
  std::string S;
  EXPECT_FALSE(In.read(S));
}

TEST(ArchiveTest, RawBytesRoundTrip) {
  OutputArchive Out;
  Bytes Blob = {9, 8, 7};
  Out.writeRaw(Blob);
  InputArchive In(Out.bytes());
  Bytes Back;
  EXPECT_TRUE(In.readRemaining(Back));
  EXPECT_EQ(Back, Blob);
}

TEST(ArchiveTest, FuzzNeverCrashes) {
  // Random bytes must never crash the reader, only fail.
  Rng R(2026);
  for (int Trial = 0; Trial < 200; ++Trial) {
    Bytes Junk(R.nextBelow(64));
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(R.nextBelow(256));
    InputArchive In(Junk);
    std::vector<std::string> V;
    std::string S;
    double D;
    (void)In.read(V);
    (void)In.read(S);
    (void)In.read(D);
  }
  SUCCEED();
}


TEST(ArchiveTest, PairAndMapRoundTrip) {
  OutputArchive Out;
  std::pair<int32_t, std::string> P = {7, "seven"};
  std::map<std::string, std::vector<int32_t>> M = {
      {"a", {1, 2}}, {"b", {}}, {"c", {3}}};
  Out.write(P);
  Out.write(M);
  InputArchive In(Out.bytes());
  std::pair<int32_t, std::string> P2;
  std::map<std::string, std::vector<int32_t>> M2;
  EXPECT_TRUE(In.read(P2));
  EXPECT_TRUE(In.read(M2));
  EXPECT_TRUE(In.atEnd());
  EXPECT_EQ(P2, P);
  EXPECT_EQ(M2, M);
}

TEST(ArchiveTest, CorruptMapCountFails) {
  OutputArchive Out;
  Out.write(static_cast<uint32_t>(1000000)); // Claims a million entries.
  InputArchive In(Out.bytes());
  std::map<int32_t, int32_t> M;
  EXPECT_FALSE(In.read(M));
}

TEST(ArchiveTest, NestedContainersRoundTrip) {
  OutputArchive Out;
  std::vector<std::pair<std::string, double>> V = {{"x", 1.5}, {"y", -2.5}};
  Out.write(V);
  InputArchive In(Out.bytes());
  std::vector<std::pair<std::string, double>> V2;
  EXPECT_TRUE(In.read(V2));
  EXPECT_EQ(V2, V);
}

//===----------------------------------------------------------------------===//
// Numeric arrays: the one-block path
//===----------------------------------------------------------------------===//

/// Integer edge values of \p T: zero, one, all-ones, the extremes and a
/// byte-distinct pattern.
template <typename T> std::vector<T> integerEdges() {
  using U = std::make_unsigned_t<T>;
  return {T(0),
          T(1),
          static_cast<T>(~U(0)),
          std::numeric_limits<T>::min(),
          std::numeric_limits<T>::max(),
          static_cast<T>(static_cast<U>(0x0102030405060708ULL))};
}

/// Floating edge values of \p T, each given by its bit pattern: signed
/// zeros, quiet and signalling NaNs carrying payloads, denormals,
/// infinities and the extremes.
template <typename T, typename Bits> std::vector<T> floatEdges() {
  constexpr int Mantissa = std::numeric_limits<T>::digits - 1;
  constexpr Bits Exponent = ((Bits(1) << (sizeof(Bits) * 8 - 1)) - 1) &
                            ~((Bits(1) << Mantissa) - 1);
  constexpr Bits Quiet = Bits(1) << (Mantissa - 1);
  constexpr Bits Sign = Bits(1) << (sizeof(Bits) * 8 - 1);
  std::vector<Bits> Patterns = {
      0,                           // +0.0
      Sign,                        // -0.0
      Exponent | Quiet | 0x2a,     // quiet NaN with a payload
      Sign | Exponent | Quiet | 1, // negative quiet NaN with a payload
      Exponent | 0x15,             // signalling NaN with a payload
      1,                           // smallest denormal
      Sign | Quiet | 0x7,          // negative denormal
      Exponent,                    // +inf
      Sign | Exponent,             // -inf
  };
  std::vector<T> Out;
  for (Bits B : Patterns)
    Out.push_back(std::bit_cast<T>(B));
  Out.push_back(std::numeric_limits<T>::max());
  Out.push_back(std::numeric_limits<T>::lowest());
  Out.push_back(static_cast<T>(3.14159));
  return Out;
}

/// write(vector) must emit exactly the bytes of its element-by-element
/// encoding, and read(vector) must give back a bitwise-equal array.
template <typename T>
void expectBlockMatchesElements(const std::vector<T> &V) {
  SCOPED_TRACE(testing::Message() << "sizeof " << sizeof(T) << ", "
                                  << V.size() << " elements");
  OutputArchive Elementwise;
  Elementwise.write(static_cast<uint32_t>(V.size()));
  for (const T &Value : V)
    Elementwise.write(Value);
  OutputArchive Block;
  Block.write(V);
  EXPECT_EQ(Block.bytes(), Elementwise.bytes());

  InputArchive In(Block.bytes());
  std::vector<T> Back = {T(1)}; // Reads replace prior contents.
  ASSERT_TRUE(In.read(Back));
  EXPECT_TRUE(In.atEnd());
  ASSERT_EQ(Back.size(), V.size());
  if (!V.empty()) { // memcmp's pointers must be non-null even for no bytes.
    EXPECT_EQ(std::memcmp(Back.data(), V.data(), V.size() * sizeof(T)), 0);
  }
}

template <typename T> void expectBlockPathForType(std::vector<T> Values) {
  expectBlockMatchesElements(std::vector<T>{});
  expectBlockMatchesElements(Values);
  // A longer array with every byte value represented.
  std::vector<T> Long(257);
  for (size_t I = 0; I < Long.size(); ++I) {
    uint64_t Bits = 0x0101010101010101ULL * (I & 0xff) + I;
    std::memcpy(&Long[I], &Bits, sizeof(T));
  }
  expectBlockMatchesElements(Long);
}

TEST(ArchiveBlockTest, NumericArraysMatchElementwiseBytes) {
  expectBlockPathForType(integerEdges<int8_t>());
  expectBlockPathForType(integerEdges<uint8_t>());
  expectBlockPathForType(integerEdges<int16_t>());
  expectBlockPathForType(integerEdges<uint16_t>());
  expectBlockPathForType(integerEdges<int32_t>());
  expectBlockPathForType(integerEdges<uint32_t>());
  expectBlockPathForType(integerEdges<int64_t>());
  expectBlockPathForType(integerEdges<uint64_t>());
  expectBlockPathForType(floatEdges<float, uint32_t>());
  expectBlockPathForType(floatEdges<double, uint64_t>());
}

TEST(ArchiveBlockTest, BoolArraysKeepElementPath) {
  static_assert(!IsBlockCopyable<bool>);
  OutputArchive Out;
  Out.write(std::vector<bool>{true, false, true});
  EXPECT_EQ(Out.bytes(), (Bytes{3, 0, 0, 0, 1, 0, 1}));
  // Any nonzero stored byte decodes to a canonical true.
  Bytes Wire = {3, 0, 0, 0, 2, 0, 0xff};
  InputArchive In(Wire);
  std::vector<bool> Back;
  ASSERT_TRUE(In.read(Back));
  EXPECT_EQ(Back, (std::vector<bool>{true, false, true}));
  bool Flag = false;
  Bytes One = {2};
  InputArchive Single(One);
  ASSERT_TRUE(Single.read(Flag));
  EXPECT_TRUE(Flag);
  EXPECT_EQ(std::bit_cast<uint8_t>(Flag), 1);
}

TEST(ArchiveBlockTest, EncodeValuesBytesArePinned) {
  // A fixed int array's method-argument encoding; the size and CRC were
  // recorded from the element-by-element encoder, so the one-block path
  // must reproduce its bytes.
  std::vector<int32_t> Ints(1000);
  for (size_t I = 0; I < Ints.size(); ++I)
    Ints[I] = static_cast<int32_t>(static_cast<uint32_t>(I) * 2654435761u);
  Bytes Wire = encodeValues(Ints);
  EXPECT_EQ(Wire.size(), 4004u);
  EXPECT_EQ(crc32(Wire), 0x779d8f72u);
  std::vector<int32_t> Back;
  ASSERT_TRUE(decodeValues(Wire, Back));
  EXPECT_EQ(Back, Ints);
}

//===----------------------------------------------------------------------===//
// Object graphs
//===----------------------------------------------------------------------===//

/// A passive object with a value and an optional link (list/cycle node).
class ChainNode : public SerializableObject {
public:
  static constexpr const char *TypeNameStr = "test.ChainNode";

  int32_t Value = 0;
  ChainNode *Next = nullptr;

  std::string_view typeName() const override { return TypeNameStr; }
  void writeFields(ObjectWriter &Writer) const override {
    Writer.write(Value);
    Writer.writeRef(Next);
  }
  bool readFields(ObjectReader &Reader) override {
    return Reader.read(Value) && Reader.readRefAs(Next);
  }
};

/// A second type to exercise heterogeneous graphs and cast failures.
class Label : public SerializableObject {
public:
  static constexpr const char *TypeNameStr = "test.Label";

  std::string Text;

  std::string_view typeName() const override { return TypeNameStr; }
  void writeFields(ObjectWriter &Writer) const override {
    Writer.write(Text);
  }
  bool readFields(ObjectReader &Reader) override {
    return Reader.read(Text);
  }
};

TypeRegistry makeRegistry() {
  TypeRegistry Registry;
  Registry.registerType<ChainNode>();
  Registry.registerType<Label>();
  return Registry;
}

TEST(ObjectGraphTest, NullRoot) {
  Bytes Data = encodeObjectGraph(nullptr);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  EXPECT_EQ(*Root, nullptr);
}

TEST(ObjectGraphTest, LinearChainRoundTrip) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  ChainNode *B = Src.create<ChainNode>();
  ChainNode *C = Src.create<ChainNode>();
  A->Value = 1;
  B->Value = 2;
  C->Value = 3;
  A->Next = B;
  B->Next = C;

  Bytes Data = encodeObjectGraph(A);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  ChainNode *A2 = objectCast<ChainNode>(*Root);
  ASSERT_NE(A2, nullptr);
  EXPECT_EQ(A2->Value, 1);
  ASSERT_NE(A2->Next, nullptr);
  EXPECT_EQ(A2->Next->Value, 2);
  ASSERT_NE(A2->Next->Next, nullptr);
  EXPECT_EQ(A2->Next->Next->Value, 3);
  EXPECT_EQ(A2->Next->Next->Next, nullptr);
  EXPECT_EQ(Pool.size(), 3u);
}

TEST(ObjectGraphTest, CycleRoundTrip) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  ChainNode *B = Src.create<ChainNode>();
  A->Value = 10;
  B->Value = 20;
  A->Next = B;
  B->Next = A; // Cycle.

  Bytes Data = encodeObjectGraph(A);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  ChainNode *A2 = objectCast<ChainNode>(*Root);
  ASSERT_NE(A2, nullptr);
  ASSERT_NE(A2->Next, nullptr);
  EXPECT_EQ(A2->Next->Next, A2) << "cycle must close on the same object";
  EXPECT_EQ(Pool.size(), 2u) << "sharing must not duplicate objects";
}

TEST(ObjectGraphTest, SelfLoopRoundTrip) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  A->Value = 42;
  A->Next = A;
  Bytes Data = encodeObjectGraph(A);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  ChainNode *A2 = objectCast<ChainNode>(*Root);
  ASSERT_NE(A2, nullptr);
  EXPECT_EQ(A2->Next, A2);
}

TEST(ObjectGraphTest, SharedSubobjectPreserved) {
  ObjectPool Src;
  ChainNode *Shared = Src.create<ChainNode>();
  Shared->Value = 7;
  ChainNode *A = Src.create<ChainNode>();
  ChainNode *B = Src.create<ChainNode>();
  A->Next = Shared;
  B->Next = Shared;
  ChainNode *Root = Src.create<ChainNode>();
  Root->Next = A;
  A->Value = 1;
  // Graph: Root -> A -> Shared, and B -> Shared (B reachable via nothing,
  // so serialise A and B explicitly through a two-field wrapper instead).
  OutputArchive Out;
  ObjectWriter Writer(Out);
  Writer.writeRef(A);
  Writer.writeRef(B);

  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  InputArchive In(Out.bytes());
  ObjectReader Reader(In, Registry, Pool);
  SerializableObject *OA = nullptr, *OB = nullptr;
  ASSERT_TRUE(Reader.readRef(OA));
  ASSERT_TRUE(Reader.readRef(OB));
  ChainNode *A2 = objectCast<ChainNode>(OA);
  ChainNode *B2 = objectCast<ChainNode>(OB);
  ASSERT_NE(A2, nullptr);
  ASSERT_NE(B2, nullptr);
  EXPECT_EQ(A2->Next, B2->Next) << "shared object must decode once";
  EXPECT_EQ(A2->Next->Value, 7);
}

TEST(ObjectGraphTest, UnknownTypeFails) {
  ObjectPool Src;
  Label *L = Src.create<Label>();
  L->Text = "x";
  Bytes Data = encodeObjectGraph(L);
  TypeRegistry Registry; // Empty: Label not registered.
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_FALSE(Root);
  EXPECT_EQ(Root.error().code(), ErrorCode::UnknownType);
}

TEST(ObjectGraphTest, TypeMismatchCastFails) {
  ObjectPool Src;
  Label *L = Src.create<Label>();
  L->Text = "not a chain node";
  Bytes Data = encodeObjectGraph(L);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  ASSERT_TRUE(Root);
  EXPECT_EQ(objectCast<ChainNode>(*Root), nullptr);
  EXPECT_NE(objectCast<Label>(*Root), nullptr);
}

TEST(ObjectGraphTest, TruncatedGraphFails) {
  ObjectPool Src;
  ChainNode *A = Src.create<ChainNode>();
  A->Value = 5;
  Bytes Data = encodeObjectGraph(A);
  Data.resize(Data.size() / 2);
  TypeRegistry Registry = makeRegistry();
  ObjectPool Pool;
  auto Root = decodeObjectGraph(Data, Registry, Pool);
  EXPECT_FALSE(Root);
}

TEST(ObjectGraphTest, GlobalRegistryIsIdempotent) {
  TypeRegistry::global().registerType<ChainNode>();
  TypeRegistry::global().registerType<ChainNode>();
  EXPECT_TRUE(TypeRegistry::global().knows(ChainNode::TypeNameStr));
}

//===----------------------------------------------------------------------===//
// Base64
//===----------------------------------------------------------------------===//

TEST(Base64Test, KnownVectors) {
  EXPECT_EQ(base64Encode({}), "");
  EXPECT_EQ(base64Encode({'f'}), "Zg==");
  EXPECT_EQ(base64Encode({'f', 'o'}), "Zm8=");
  EXPECT_EQ(base64Encode({'f', 'o', 'o'}), "Zm9v");
  EXPECT_EQ(base64Encode({'f', 'o', 'o', 'b', 'a', 'r'}), "Zm9vYmFy");
}

TEST(Base64Test, RoundTripAllSizes) {
  Rng R(7);
  for (size_t Size = 0; Size < 70; ++Size) {
    Bytes Data(Size);
    for (uint8_t &B : Data)
      B = static_cast<uint8_t>(R.nextBelow(256));
    auto Back = base64Decode(base64Encode(Data));
    ASSERT_TRUE(Back) << "size " << Size;
    EXPECT_EQ(*Back, Data);
  }
}

TEST(Base64Test, RejectsBadInput) {
  EXPECT_FALSE(base64Decode("abc").hasValue());  // Not 4-aligned.
  EXPECT_FALSE(base64Decode("ab!d").hasValue()); // Bad character.
  EXPECT_FALSE(base64Decode("=abc").hasValue()); // Pad at front.
  EXPECT_FALSE(base64Decode("a=bc").hasValue()); // Data after pad.
  EXPECT_TRUE(base64Decode("abcd").hasValue());
}

/// The per-character decoder that preceded the table-driven one, kept as
/// the oracle for the differential tests below.
ErrorOr<Bytes> referenceBase64Decode(std::string_view Text) {
  auto Value = [](char C) {
    if (C >= 'A' && C <= 'Z')
      return C - 'A';
    if (C >= 'a' && C <= 'z')
      return C - 'a' + 26;
    if (C >= '0' && C <= '9')
      return C - '0' + 52;
    if (C == '+')
      return 62;
    if (C == '/')
      return 63;
    return -1;
  };
  if (Text.size() % 4 != 0)
    return Error(ErrorCode::MalformedMessage, "base64 length not 4-aligned");
  Bytes Out;
  for (size_t I = 0; I < Text.size(); I += 4) {
    int Pad = 0;
    std::array<int, 4> Vals = {0, 0, 0, 0};
    for (size_t J = 0; J < 4; ++J) {
      char C = Text[I + J];
      if (C == '=') {
        if (I + 4 != Text.size() || J < 2)
          return Error(ErrorCode::MalformedMessage, "misplaced base64 pad");
        ++Pad;
        continue;
      }
      if (Pad > 0)
        return Error(ErrorCode::MalformedMessage, "data after base64 pad");
      int V = Value(C);
      if (V < 0)
        return Error(ErrorCode::MalformedMessage, "invalid base64 character");
      Vals[J] = V;
    }
    uint32_t Triple = (static_cast<uint32_t>(Vals[0]) << 18) |
                      (static_cast<uint32_t>(Vals[1]) << 12) |
                      (static_cast<uint32_t>(Vals[2]) << 6) |
                      static_cast<uint32_t>(Vals[3]);
    Out.push_back(static_cast<uint8_t>((Triple >> 16) & 0xff));
    if (Pad < 2)
      Out.push_back(static_cast<uint8_t>((Triple >> 8) & 0xff));
    if (Pad < 1)
      Out.push_back(static_cast<uint8_t>(Triple & 0xff));
  }
  return Out;
}

/// Decodes \p Text with both decoders; they must agree on success, on the
/// error and on every decoded byte.  Returns whether they agreed.
bool decodersAgree(std::string_view Text) {
  ErrorOr<Bytes> Got = base64Decode(Text);
  ErrorOr<Bytes> Want = referenceBase64Decode(Text);
  if (Got.hasValue() != Want.hasValue()) {
    ADD_FAILURE() << "accept/reject differs on a " << Text.size()
                  << "-char input";
    return false;
  }
  if (!Got) {
    EXPECT_EQ(Got.error().code(), Want.error().code());
    EXPECT_EQ(Got.error().message(), Want.error().message());
    return Got.error().code() == Want.error().code() &&
           Got.error().message() == Want.error().message();
  }
  EXPECT_EQ(*Got, *Want);
  return *Got == *Want;
}

TEST(Base64Test, MatchesReferenceOnEveryShortString) {
  // Every 4-char string over letters, digits, both symbols, the pad and
  // four non-alphabet bytes -- alone (the final group, where pads are
  // legal) and next to a valid group (so it is also a middle group).
  const std::array<char, 12> Symbols = {'A', 'f', 'z', '0', '9', '+',
                                        '/', '=', '!', '\0', '\x80', '\xff'};
  std::string Quad(4, ' ');
  size_t Disagreements = 0;
  for (char A : Symbols)
    for (char B : Symbols)
      for (char C : Symbols)
        for (char D : Symbols) {
          Quad = {A, B, C, D};
          for (const std::string &Text :
               {Quad, "QUJD" + Quad, Quad + "QUJD", Quad + "QQ=="})
            Disagreements += !decodersAgree(Text);
          if (Disagreements > 10)
            FAIL() << "too many disagreements";
        }
  // Misaligned lengths.
  for (const char *Text : {"A", "AB", "ABC", "ABCDE", "ABCD=="})
    Disagreements += !decodersAgree(Text);
  EXPECT_EQ(Disagreements, 0u);
}

TEST(Base64Test, MatchesReferenceOnRandomDamagedStrings) {
  // Valid encodings of random payloads up to 3 KB (4 KB of text), with
  // pads, non-alphabet bytes and length damage injected at random
  // positions.
  Rng R(20261017);
  size_t Disagreements = 0;
  for (int Trial = 0; Trial < 10000 && Disagreements <= 10; ++Trial) {
    Bytes Payload(R.nextBelow(3073));
    for (uint8_t &B : Payload)
      B = static_cast<uint8_t>(R.nextBelow(256));
    std::string Text = base64Encode(Payload);
    switch (R.nextBelow(6)) {
    case 0: // Untouched.
      break;
    case 1: // Pads at random positions.
      for (uint64_t K = R.nextBelow(3) + 1; K > 0 && !Text.empty(); --K)
        Text[R.nextBelow(Text.size())] = '=';
      break;
    case 2: // Any byte at random positions.
      for (uint64_t K = R.nextBelow(3) + 1; K > 0 && !Text.empty(); --K)
        Text[R.nextBelow(Text.size())] = static_cast<char>(R.nextBelow(256));
      break;
    case 3: // A pad near the end, where it may be legal.
      if (Text.size() >= 4)
        Text[Text.size() - 1 - R.nextBelow(4)] = '=';
      break;
    case 4: // Truncated, usually to a misaligned length.
      Text.resize(R.nextBelow(Text.size() + 1));
      break;
    case 5: // A pad group followed by more data.
      Text += R.nextBelow(2) ? "QQ==QUJD" : "QUI=";
      break;
    }
    Disagreements += !decodersAgree(Text);
  }
  EXPECT_EQ(Disagreements, 0u);
}

//===----------------------------------------------------------------------===//
// Envelopes
//===----------------------------------------------------------------------===//

class EnvelopeFormatTest : public ::testing::TestWithParam<WireFormat> {};

TEST_P(EnvelopeFormatTest, RoundTripsPayload) {
  Bytes Payload;
  Rng R(42);
  for (int I = 0; I < 1000; ++I)
    Payload.push_back(static_cast<uint8_t>(R.nextBelow(256)));
  Bytes Wire = encodeEnvelope(GetParam(), "ProcessCall", Payload);
  auto Decoded = decodeEnvelope(GetParam(), Wire);
  ASSERT_TRUE(Decoded) << Decoded.error().str();
  EXPECT_EQ(Decoded->Payload, Payload);
  if (GetParam() != WireFormat::MpiPack) {
    EXPECT_EQ(Decoded->Name, "ProcessCall");
  }
}

TEST_P(EnvelopeFormatTest, EmptyPayloadRoundTrips) {
  Bytes Wire = encodeEnvelope(GetParam(), "Ping", {});
  auto Decoded = decodeEnvelope(GetParam(), Wire);
  ASSERT_TRUE(Decoded);
  EXPECT_TRUE(Decoded->Payload.empty());
}

TEST_P(EnvelopeFormatTest, GarbageFailsCleanly) {
  Bytes Junk = {0xde, 0xad, 0xbe, 0xef, 0x01};
  EXPECT_FALSE(decodeEnvelope(GetParam(), Junk));
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EnvelopeFormatTest,
                         ::testing::Values(WireFormat::MpiPack,
                                           WireFormat::NetBinary,
                                           WireFormat::JavaStream,
                                           WireFormat::NetSoap),
                         [](const auto &Info) {
                           std::string Name = wireFormatName(Info.param);
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });


/// Size sweep: every format must round-trip payloads from empty to 64 KB.
class EnvelopeSizeTest
    : public ::testing::TestWithParam<std::tuple<WireFormat, size_t>> {};

TEST_P(EnvelopeSizeTest, RoundTripsAtEverySize) {
  auto [Format, Size] = GetParam();
  Rng R(Size + 17);
  Bytes Payload(Size);
  for (uint8_t &B : Payload)
    B = static_cast<uint8_t>(R.nextBelow(256));
  Bytes Wire = encodeEnvelope(Format, "sweep", Payload);
  auto Back = decodeEnvelope(Format, Wire);
  ASSERT_TRUE(Back.hasValue()) << Back.error().str();
  EXPECT_EQ(Back->Payload, Payload);
  EXPECT_GE(Wire.size(), Payload.size());
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndSizes, EnvelopeSizeTest,
    ::testing::Combine(::testing::Values(WireFormat::MpiPack,
                                         WireFormat::NetBinary,
                                         WireFormat::JavaStream,
                                         WireFormat::NetSoap),
                       ::testing::Values(0u, 1u, 3u, 1000u, 65536u)));

TEST(EnvelopeTest, OverheadOrderingMatchesStacks) {
  // Framing overhead per call: MPI < NetBinary < JavaStream << NetSoap.
  Bytes Payload(1000, 0x5a);
  size_t Mpi = encodeEnvelope(WireFormat::MpiPack, "m", Payload).size();
  size_t Bin = encodeEnvelope(WireFormat::NetBinary, "m", Payload).size();
  size_t Java = encodeEnvelope(WireFormat::JavaStream, "m", Payload).size();
  size_t Soap = encodeEnvelope(WireFormat::NetSoap, "m", Payload).size();
  EXPECT_LT(Mpi, Bin);
  EXPECT_LT(Bin, Java);
  EXPECT_LT(Java, Soap);
  // SOAP inflates by at least 4/3 (base64).
  EXPECT_GT(Soap, Payload.size() * 4 / 3);
}

/// Seeded mutations of real SOAP frames: bit flips, truncation, inserted
/// pads, damaged tags and non-alphabet bytes.  The decoder must return a
/// payload or MalformedMessage, and never crash or read out of bounds
/// (each frame is decoded from an exact-size heap copy, so the sanitizer
/// build catches overreads).
TEST(EnvelopeTest, SoapMutationsFailCleanly) {
  Rng R(4242);
  std::vector<Bytes> Frames;
  for (size_t Size : {0u, 1u, 2u, 3u, 64u, 1000u, 4096u}) {
    Bytes Payload(Size);
    for (uint8_t &B : Payload)
      B = static_cast<uint8_t>(R.nextBelow(256));
    Frames.push_back(encodeEnvelope(WireFormat::NetSoap, "Echo", Payload));
    auto Back = decodeEnvelope(WireFormat::NetSoap, Frames.back());
    ASSERT_TRUE(Back) << Back.error().str();
    ASSERT_EQ(Back->Payload, Payload);
  }
  const std::array<uint8_t, 6> NonAlphabet = {'!', '\0', 0x80, 0xff, '<',
                                              '\n'};
  size_t Accepted = 0;
  for (int Trial = 0; Trial < 10000; ++Trial) {
    Bytes Wire = Frames[R.nextBelow(Frames.size())];
    switch (R.nextBelow(5)) {
    case 0: // Bit flips.
      for (uint64_t K = R.nextBelow(4) + 1; K > 0; --K)
        Wire[R.nextBelow(Wire.size())] ^=
            static_cast<uint8_t>(1u << R.nextBelow(8));
      break;
    case 1: // Truncation.
      Wire.resize(R.nextBelow(Wire.size() + 1));
      break;
    case 2: // Pad insertion.
      for (uint64_t K = R.nextBelow(3) + 1; K > 0; --K)
        Wire.insert(Wire.begin() +
                        static_cast<ptrdiff_t>(R.nextBelow(Wire.size() + 1)),
                    '=');
      break;
    case 3: { // Damaged tags: break one '<', '>', ':' or '/'.
      std::vector<size_t> TagBytes;
      for (size_t I = 0; I < Wire.size(); ++I)
        if (Wire[I] == '<' || Wire[I] == '>' || Wire[I] == ':' ||
            Wire[I] == '/')
          TagBytes.push_back(I);
      size_t At = TagBytes[R.nextBelow(TagBytes.size())];
      if (R.nextBelow(2))
        Wire.erase(Wire.begin() + static_cast<ptrdiff_t>(At));
      else
        Wire[At] = static_cast<uint8_t>('a' + R.nextBelow(26));
      break;
    }
    case 4: // Non-alphabet bytes.
      for (uint64_t K = R.nextBelow(3) + 1; K > 0; --K)
        Wire[R.nextBelow(Wire.size())] =
            NonAlphabet[R.nextBelow(NonAlphabet.size())];
      break;
    }
    auto Exact = std::make_unique<uint8_t[]>(Wire.size());
    if (!Wire.empty())
      std::memcpy(Exact.get(), Wire.data(), Wire.size());
    auto Back = decodeEnvelope(WireFormat::NetSoap, Exact.get(), Wire.size());
    if (Back) {
      ++Accepted;
      ASSERT_LE(Back->Payload.size(), Wire.size());
    } else {
      ASSERT_EQ(Back.error().code(), ErrorCode::MalformedMessage)
          << Back.error().str();
    }
  }
  // Both outcomes occur: the mix is neither all-fatal nor all-benign.
  EXPECT_GT(Accepted, 0u);
  EXPECT_LT(Accepted, 10000u);
}

} // namespace
