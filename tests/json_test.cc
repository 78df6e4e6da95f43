// Tests for src/json: value model, parser (including malformed-input
// failure injection), writer, and round-trip stability.
#include <gtest/gtest.h>

#include <cmath>

#include "json/json.h"

namespace fixy::json {
namespace {

Value MustParse(std::string_view text) {
  Result<Value> r = Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return std::move(r).value();
}

// ------------------------------------------------------------- Value API

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(3.5).is_number());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
  EXPECT_EQ(Value(7).AsInt64(), 7);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(JsonValueTest, FindOnNonObjectReturnsNull) {
  EXPECT_EQ(Value(1.0).Find("x"), nullptr);
  EXPECT_EQ(Value("s").Find("x"), nullptr);
}

TEST(JsonValueTest, GetHelpersReportMissingAndWrongType) {
  Object obj;
  obj["n"] = 5;
  obj["s"] = "text";
  const Value v(obj);
  EXPECT_TRUE(v.GetDouble("n").ok());
  EXPECT_EQ(v.GetDouble("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.GetDouble("s").status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(v.GetString("s").ok());
  EXPECT_FALSE(v.GetString("n").ok());
  EXPECT_FALSE(v.GetBool("n").ok());
}

// --------------------------------------------------------------- Parser

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").AsBool(), true);
  EXPECT_EQ(MustParse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(MustParse("3.25").AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(MustParse("-17").AsDouble(), -17.0);
  EXPECT_DOUBLE_EQ(MustParse("1e3").AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(MustParse("2.5E-2").AsDouble(), 0.025);
  EXPECT_EQ(MustParse("\"hello\"").AsString(), "hello");
}

TEST(JsonParseTest, NestedStructure) {
  const Value v = MustParse(R"({"a": [1, 2, {"b": true}], "c": null})");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_TRUE(a->AsArray()[2].Find("b")->AsBool());
  EXPECT_TRUE(v.Find("c")->is_null());
}

TEST(JsonParseTest, WhitespaceTolerance) {
  const Value v = MustParse("  {\n\t\"x\" :\r 1 }  ");
  EXPECT_DOUBLE_EQ(v.Find("x")->AsDouble(), 1.0);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b")").AsString(), "a\"b");
  EXPECT_EQ(MustParse(R"("a\\b")").AsString(), "a\\b");
  EXPECT_EQ(MustParse(R"("a\nb")").AsString(), "a\nb");
  EXPECT_EQ(MustParse(R"("a\tb")").AsString(), "a\tb");
  EXPECT_EQ(MustParse(R"("a\/b")").AsString(), "a/b");
}

TEST(JsonParseTest, UnicodeEscapes) {
  EXPECT_EQ(MustParse(R"("A")").AsString(), "A");
  EXPECT_EQ(MustParse(R"("é")").AsString(), "\xc3\xa9");   // é
  EXPECT_EQ(MustParse(R"("€")").AsString(), "\xe2\x82\xac");  // €
}

TEST(JsonParseTest, EmptyContainers) {
  EXPECT_TRUE(MustParse("[]").AsArray().empty());
  EXPECT_TRUE(MustParse("{}").AsObject().empty());
}

TEST(JsonParseTest, DuplicateKeysLastWins) {
  const Value v = MustParse(R"({"k": 1, "k": 2})");
  EXPECT_DOUBLE_EQ(v.Find("k")->AsDouble(), 2.0);
}

// Malformed-input failure injection.
class JsonParseErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonParseErrorTest, Rejects) {
  const Result<Value> r = Parse(GetParam());
  EXPECT_FALSE(r.ok()) << "should reject: " << GetParam();
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParseErrorTest,
    ::testing::Values("", "   ", "{", "}", "[1,", "[1 2]", "{\"a\":}",
                      "{\"a\" 1}", "{a: 1}", "tru", "nul", "+5", "-",
                      "1.2.3", "\"unterminated", "\"bad\\q\"", "\"\\u12\"",
                      "\"\\u12zz\"", "[1]extra", "{} {}", "01a",
                      "\"ctrl\x01char\"", "[[[", "nan", "inf"));

TEST(JsonParseErrorTest, ErrorMessageHasLineAndColumn) {
  const Result<Value> r = Parse("{\n  \"a\": oops\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
}

TEST(JsonParseErrorTest, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "[";
  EXPECT_FALSE(Parse(deep).ok());
}

// --------------------------------------------------------------- Writer

TEST(JsonWriteTest, Scalars) {
  EXPECT_EQ(Write(Value()), "null");
  EXPECT_EQ(Write(Value(true)), "true");
  EXPECT_EQ(Write(Value(false)), "false");
  EXPECT_EQ(Write(Value(3)), "3");
  EXPECT_EQ(Write(Value(2.5)), "2.5");
  EXPECT_EQ(Write(Value("hi")), "\"hi\"");
}

TEST(JsonWriteTest, IntegralDoublesHaveNoDecimalPoint) {
  EXPECT_EQ(Write(Value(100.0)), "100");
  EXPECT_EQ(Write(Value(-42.0)), "-42");
}

TEST(JsonWriteTest, NonFiniteNumbersWriteAsNull) {
  // The documented contract: NaN/Inf have no JSON representation, so the
  // writer emits null and the document always re-parses.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Write(Value(kNan)), "null");
  EXPECT_EQ(Write(Value(kInf)), "null");
  EXPECT_EQ(Write(Value(-kInf)), "null");
}

TEST(JsonWriteTest, NonFiniteNumbersRoundTripAsNull) {
  Object obj;
  obj["ok"] = 1.5;
  obj["bad"] = std::numeric_limits<double>::quiet_NaN();
  const std::string text = Write(Value(obj));
  const Value parsed = MustParse(text);
  EXPECT_TRUE(parsed.Find("bad")->is_null());
  EXPECT_DOUBLE_EQ(parsed.Find("ok")->AsDouble(), 1.5);
  // A second round trip is stable.
  EXPECT_EQ(Write(parsed), text);
}

TEST(JsonParseTest, RejectsNonFiniteLiterals) {
  EXPECT_FALSE(Parse("NaN").ok());
  EXPECT_FALSE(Parse("Infinity").ok());
  EXPECT_FALSE(Parse("[1e999]").ok());
  EXPECT_FALSE(Parse("[-1e999]").ok());
}

TEST(JsonWriteTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Write(Value("a\"b")), R"("a\"b")");
  EXPECT_EQ(Write(Value("a\nb")), R"("a\nb")");
  EXPECT_EQ(Write(Value(std::string("a\x01") + "b")), "\"a\\u0001b\"");
}

TEST(JsonWriteTest, ObjectKeysSorted) {
  Object obj;
  obj["zebra"] = 1;
  obj["apple"] = 2;
  EXPECT_EQ(Write(Value(obj)), R"({"apple":2,"zebra":1})");
}

TEST(JsonWriteTest, PrettyPrinting) {
  Object obj;
  obj["a"] = Array{1, 2};
  const std::string pretty = Write(Value(obj), /*pretty=*/true);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
  EXPECT_NE(pretty.find("  \"a\""), std::string::npos);
}

// ------------------------------------------------------------ Roundtrip

TEST(JsonRoundtripTest, ComplexDocument) {
  const char* doc = R"({"name":"scene","list":[1,2.5,true,null,"x"],)"
                    R"("nested":{"deep":[{"k":-0.125}]}})";
  const Value v = MustParse(doc);
  const Value v2 = MustParse(Write(v));
  EXPECT_EQ(v, v2);
}

TEST(JsonRoundtripTest, DoublePrecisionPreserved) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-12, 12345.6789e55,
                           -2.2250738585072014e-308};
  for (double d : values) {
    const Value parsed = MustParse(Write(Value(d)));
    EXPECT_DOUBLE_EQ(parsed.AsDouble(), d);
  }
}

TEST(JsonRoundtripTest, NegativeZeroKeepsItsSign) {
  EXPECT_EQ(Write(Value(-0.0)), "-0");
  EXPECT_EQ(Write(Value(0.0)), "0");
  const double parsed = MustParse(Write(Value(-0.0))).AsDouble();
  EXPECT_EQ(parsed, 0.0);
  EXPECT_TRUE(std::signbit(parsed));
  EXPECT_FALSE(std::signbit(MustParse(Write(Value(0.0))).AsDouble()));
}

TEST(JsonRoundtripTest, PrettyAndCompactAgree) {
  const Value v =
      MustParse(R"({"a":[1,{"b":[true,false,null]}],"c":"€"})");
  EXPECT_EQ(MustParse(Write(v, true)), MustParse(Write(v, false)));
}

TEST(JsonRoundtripTest, UnicodeStringSurvives) {
  const Value v = MustParse(R"("café")");
  const Value v2 = MustParse(Write(v));
  EXPECT_EQ(v.AsString(), v2.AsString());
}

}  // namespace
}  // namespace fixy::json
