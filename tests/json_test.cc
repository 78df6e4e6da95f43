// Tests for src/json: value model, parser (including malformed-input
// failure injection), writer, and round-trip stability.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

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
  EXPECT_EQ(Value(7).AsDouble(), 7.0);
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

TEST(JsonValueTest, GetInt64AcceptsOnlyIntegersInRange) {
  Object obj;
  obj["n"] = 5;
  EXPECT_EQ(*Value(obj).GetInt64("n"), 5);
  // Out of range (a cast would be undefined) or not integral.
  for (const double bad : {1e300, -1e300, 9223372036854775808.0, 2.5}) {
    obj["n"] = bad;
    const Result<int64_t> got = Value(obj).GetInt64("n");
    ASSERT_FALSE(got.ok()) << bad;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(got.status().message().find("n"), std::string::npos);
  }
  obj["n"] = -9223372036854775808.0;
  EXPECT_EQ(*Value(obj).GetInt64("n"), INT64_MIN);
  obj["n"] = -0.0;
  EXPECT_EQ(*Value(obj).GetInt64("n"), 0);
  EXPECT_EQ(*ToInt64(-0.0, "x"), 0);
  EXPECT_EQ(ToInt64(2.5, "counts").status().message(),
            "key is not a 64-bit integer: counts");
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

// --------------------------------------------------------------- Numbers
//
// The writer and the parser convert numbers with <charconv>. printf and
// strtod stay here as the reference: the writer's text must be what "%lld"
// (an integral value under 1e15) or "%.17g" prints, and the parser's bits
// what strtod returns for the same token.

std::string ReferenceText(double d) {
  if (d == 0.0 && std::signbit(d)) return "-0";
  char buf[64];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// Parses `token` as a whole document; strtod's reading of it is the
// reference: a finite value must parse to the same bits, an infinite one
// must be rejected.
::testing::AssertionResult ParsesLikeStrtod(const std::string& token) {
  char* end = nullptr;
  const double expected = std::strtod(token.c_str(), &end);
  const Result<Value> parsed = Parse(token);
  if (end != token.c_str() + token.size()) {
    return ::testing::AssertionFailure() << "bad reference token " << token;
  }
  if (!std::isfinite(expected)) {
    if (!parsed.ok()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << token << " overflows but parsed";
  }
  if (!parsed.ok()) {
    return ::testing::AssertionFailure() << token << ": " << parsed.status();
  }
  if (Bits(parsed->AsDouble()) != Bits(expected)) {
    return ::testing::AssertionFailure()
           << token << " parsed to " << std::hexfloat << parsed->AsDouble()
           << ", strtod " << expected;
  }
  return ::testing::AssertionSuccess();
}

// Writes `d`, holds the text to printf's, then parses it back and holds
// the bits to strtod's, which for this text are `d`'s own.
::testing::AssertionResult MatchesReference(double d) {
  const std::string text = Write(Value(d));
  const std::string expected = ReferenceText(d);
  if (text != expected) {
    return ::testing::AssertionFailure()
           << std::hexfloat << d << " wrote " << text << ", printf "
           << expected;
  }
  const Result<Value> parsed = Parse(text);
  if (!parsed.ok() || Bits(parsed->AsDouble()) != Bits(d)) {
    return ::testing::AssertionFailure() << text << " did not round-trip";
  }
  return ParsesLikeStrtod(text);
}

TEST(JsonNumberTest, RandomBitPatternsMatchPrintfAndStrtod) {
  std::mt19937_64 rng(27);
  int checked = 0;
  while (checked < 1000000) {
    const double d = std::bit_cast<double>(rng());
    if (!std::isfinite(d)) continue;
    ASSERT_TRUE(MatchesReference(d));
    ++checked;
  }
}

TEST(JsonNumberTest, DecimalGridMatchesPrintfAndStrtod) {
  // What scenes and models hold: quantities on a decimal grid, either
  // correctly rounded (k / 10^j) or carrying a product's rounding error
  // (k * 10^-j), which prints all 17 digits.
  for (int j = 1; j <= 6; ++j) {
    const double scale = std::pow(10.0, j);
    const double step = 1.0 / scale;
    for (int k = 0; k < 20000; ++k) {
      for (const double d : {k / scale, k * step}) {
        ASSERT_TRUE(MatchesReference(d));
        ASSERT_TRUE(MatchesReference(-d));
      }
    }
  }
}

TEST(JsonNumberTest, IntegralCutoffSubnormalsAndExtremes) {
  // The writer prints an integral value under 1e15 as an integer and
  // everything else with %.17g: both sides of the cut-off, and the
  // doubles next to each integer there.
  for (int k = -2000; k <= 2000; ++k) {
    for (const double sign : {1.0, -1.0}) {
      const double d = sign * (1e15 + k);
      ASSERT_TRUE(MatchesReference(d));
      ASSERT_TRUE(MatchesReference(std::nextafter(d, 0.0)));
      ASSERT_TRUE(MatchesReference(std::nextafter(d, sign * DBL_MAX)));
    }
  }
  std::mt19937_64 rng(2027);
  for (int i = 0; i < 100000; ++i) {
    // Zero exponent field: a subnormal (or a zero), either sign.
    const uint64_t bits = rng() & ~(uint64_t{0x7FF} << 52);
    ASSERT_TRUE(MatchesReference(std::bit_cast<double>(bits)));
  }
  for (const double d :
       {DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
        std::nextafter(DBL_MIN, 0.0), std::nextafter(DBL_MAX, 0.0),
        9007199254740992.0, 9223372036854775808.0, 0.0, -0.0, 0.5, 1e-5}) {
    EXPECT_TRUE(MatchesReference(d));
  }
}

TEST(JsonNumberTest, ParsedTokensMatchStrtod) {
  // Tokens no writer of ours produces: up to 40 digits with the point
  // anywhere (or nowhere), exponents far past either end of the range,
  // so values round to subnormals, to zero or overflow.
  std::mt19937_64 rng(72);
  for (int i = 0; i < 200000; ++i) {
    std::string token = (rng() & 1) ? "-" : "";
    const int digits = 1 + static_cast<int>(rng() % 40);
    const int point = static_cast<int>(rng() % (digits + 2)) - 1;
    for (int d = 0; d < digits; ++d) {
      if (d == point) token += '.';
      // Mostly zeros, so leading and trailing zero runs are common.
      token += (rng() % 3 == 0) ? static_cast<char>('0' + rng() % 10) : '0';
    }
    if (point == digits) token += '.';
    if (rng() & 1) {
      token += (rng() & 1) ? 'e' : 'E';
      const uint64_t sign = rng() % 3;
      if (sign == 1) token += '-';
      if (sign == 2) token += '+';
      token += std::to_string(rng() % 420);
    }
    ASSERT_TRUE(ParsesLikeStrtod(token));
  }
}

TEST(JsonNumberTest, GrammarTable) {
  // Where the leading digit sits, not the exponent's sign, decides
  // between rounding to zero and overflow.
  const std::string zeros(400, '0');
  struct Row {
    std::string token;
    double value;
  };
  const Row accepted[] = {
      {"1.", 1.0},
      {".5", 0.5},
      {"-.5", -0.5},
      {"01", 1.0},
      {"1E-5", 1e-5},
      {"-0", -0.0},
      {"1e-400", 0.0},
      {"-1e-400", -0.0},
      {"1.e5", 1e5},
      {"2e-324", 0.0},
      {"3e-324", DBL_TRUE_MIN},
      {"-0e999", -0.0},
      {"0." + zeros + "1", 0.0},
      {"-0." + zeros + "1e+50", -0.0},
      {"1" + zeros + "e-100", 1e300},
      {"0." + zeros + "1e+100", 1e-301},
  };
  for (const Row& row : accepted) {
    const Result<Value> parsed = Parse(row.token);
    ASSERT_TRUE(parsed.ok()) << row.token << ": " << parsed.status();
    EXPECT_EQ(Bits(parsed->AsDouble()), Bits(row.value)) << row.token;
    EXPECT_TRUE(ParsesLikeStrtod(row.token));
  }
  // Out of range at the top, or not a number at all.
  for (const std::string& token :
       {std::string("1e999"), std::string("-1e999"),
        std::string("1.7976931348623159e308"), "1" + zeros,
        "1" + zeros + "e-50", std::string("1e"), std::string("1e+"),
        std::string("."), std::string("-."), std::string("e5"),
        std::string("-e5"), std::string("1e5.5")}) {
    EXPECT_FALSE(Parse(token).ok()) << token;
  }
}

}  // namespace
}  // namespace fixy::json
