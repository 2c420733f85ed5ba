//===- tests/SupportTest.cpp - support library tests ----------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace parcs;

//===----------------------------------------------------------------------===//
// Error / ErrorOr
//===----------------------------------------------------------------------===//

TEST(ErrorTest, DefaultIsSuccess) {
  Error E;
  EXPECT_FALSE(E);
  EXPECT_EQ(E.code(), ErrorCode::None);
  EXPECT_EQ(E.str(), "success");
}

TEST(ErrorTest, CarriesCodeAndMessage) {
  Error E(ErrorCode::UnknownObject, "no such uri");
  EXPECT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::UnknownObject);
  EXPECT_EQ(E.message(), "no such uri");
  EXPECT_EQ(E.str(), "unknown object: no such uri");
}

TEST(ErrorTest, AllCodesHaveNames) {
  for (int Code = 0; Code <= static_cast<int>(ErrorCode::TimedOut); ++Code)
    EXPECT_NE(errorCodeName(static_cast<ErrorCode>(Code)), nullptr);
}

TEST(ErrorOrTest, HoldsValue) {
  ErrorOr<int> Value(42);
  ASSERT_TRUE(Value);
  EXPECT_EQ(*Value, 42);
  EXPECT_EQ(Value.take(), 42);
}

TEST(ErrorOrTest, HoldsError) {
  ErrorOr<int> Failed(ErrorCode::MalformedMessage, "truncated");
  EXPECT_FALSE(Failed);
  EXPECT_EQ(Failed.error().code(), ErrorCode::MalformedMessage);
}

TEST(ErrorOrTest, MovesNonCopyableValues) {
  ErrorOr<std::unique_ptr<int>> Value(std::make_unique<int>(7));
  ASSERT_TRUE(Value);
  std::unique_ptr<int> Taken = Value.take();
  EXPECT_EQ(*Taken, 7);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng R(99);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(5);
  for (int I = 0; I < 1000; ++I) {
    double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t X = R.nextInRange(-3, 3);
    EXPECT_GE(X, -3);
    EXPECT_LE(X, 3);
    SawLo |= X == -3;
    SawHi |= X == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, SplitBasic) {
  auto Parts = splitString("a,b,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StringUtilsTest, SplitKeepsEmptyParts) {
  auto Parts = splitString("a,,c,", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtilsTest, SplitEmptyString) {
  auto Parts = splitString("", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trimString("  hi \t\n"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("x"), "x");
}

TEST(StringUtilsTest, PrefixSuffix) {
  EXPECT_TRUE(startsWith("tcp://host", "tcp://"));
  EXPECT_FALSE(startsWith("tc", "tcp://"));
  EXPECT_TRUE(endsWith("file.pci", ".pci"));
  EXPECT_FALSE(endsWith("pci", ".pci"));
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ", "), "");
  EXPECT_EQ(joinStrings({"solo"}, ","), "solo");
}

TEST(StringUtilsTest, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(1536), "1.5 KB");
  EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.0 MB");
}

//===----------------------------------------------------------------------===//
// JSON string/number writers
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, ControlBytesQuotesAndBackslashesRoundTrip) {
  std::string Raw;
  for (int C = 1; C < 0x20; ++C)
    Raw += static_cast<char>(C);
  Raw += "\"\\ plain";
  std::string Doc;
  json::appendString(Doc, Raw);
  for (char C : Doc)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u) << Doc;
  EXPECT_NE(Doc.find("\\n"), std::string::npos);
  EXPECT_NE(Doc.find("\\t"), std::string::npos);
  EXPECT_NE(Doc.find("\\r"), std::string::npos);
  EXPECT_NE(Doc.find("\\u001f"), std::string::npos);
  json::Value V;
  ASSERT_TRUE(json::parse(Doc, V)) << Doc;
  ASSERT_EQ(V.K, json::Value::Kind::String);
  EXPECT_EQ(V.Str, Raw);
}

TEST(JsonWriterTest, PlainStringsAndNumbersKeepTheirBytes) {
  std::string Doc;
  json::appendString(Doc, "rpc.call.latency");
  Doc += ' ';
  json::appendNumber(Doc, 4.39805e11);
  Doc += ' ';
  json::appendNumber(Doc, 1.0 / 3.0);
  EXPECT_EQ(Doc, "\"rpc.call.latency\" 4.39805e+11 0.333333");
}

TEST(JsonWriterTest, ReaderRejectsUnicodeEscapesItNeverWrites) {
  json::Value V;
  EXPECT_TRUE(json::parse("\"\\u007f\"", V));
  EXPECT_EQ(V.Str, "\x7f");
  EXPECT_FALSE(json::parse("\"\\u0080\"", V));
  EXPECT_FALSE(json::parse("\"\\u12\"", V));
  EXPECT_FALSE(json::parse("\"\\u00zz\"", V));
}
