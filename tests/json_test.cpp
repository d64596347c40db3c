#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "json/parse.h"
#include "json/value.h"

namespace edgstr::json {
namespace {

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_DOUBLE_EQ(Value(2.5).as_number(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_TRUE(Value::array({1, 2}).is_array());
  EXPECT_TRUE(Value::object({{"a", 1}}).is_object());
}

TEST(JsonValueTest, TypeMismatchThrows) {
  EXPECT_THROW(Value(1.0).as_string(), std::logic_error);
  EXPECT_THROW(Value("x").as_number(), std::logic_error);
  EXPECT_THROW(Value().as_array(), std::logic_error);
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder) {
  Value v = Value::object({{"z", 1}, {"a", 2}, {"m", 3}});
  std::vector<std::string> keys;
  for (const auto& [k, val] : v.as_object()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonValueTest, ObjectSetOverwrites) {
  Object obj;
  obj.set("k", Value(1));
  obj.set("k", Value(2));
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_DOUBLE_EQ(obj.at("k").as_number(), 2.0);
}

TEST(JsonValueTest, ObjectEraseAndMissingKey) {
  Object obj;
  obj.set("k", Value(1));
  EXPECT_TRUE(obj.erase("k"));
  EXPECT_FALSE(obj.erase("k"));
  EXPECT_THROW(obj.at("k"), std::out_of_range);
}

TEST(JsonValueTest, FindReturnsNullptrWhenAbsent) {
  Value v = Value::object({{"a", 1}});
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  EXPECT_EQ(Value(3.0).find("a"), nullptr);  // non-object
}

TEST(JsonValueTest, EqualityIgnoresObjectKeyOrder) {
  Value a = Value::object({{"x", 1}, {"y", 2}});
  Value b = Value::object({{"y", 2}, {"x", 1}});
  EXPECT_EQ(a, b);
}

TEST(JsonValueTest, EqualityDeep) {
  Value a = Value::object({{"arr", Value::array({1, Value::object({{"k", "v"}})})}});
  Value b = Value::object({{"arr", Value::array({1, Value::object({{"k", "v"}})})}});
  Value c = Value::object({{"arr", Value::array({1, Value::object({{"k", "w"}})})}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(JsonDumpTest, CompactRendering) {
  Value v = Value::object({{"n", 1}, {"s", "x"}, {"b", true}, {"nil", nullptr},
                           {"a", Value::array({1, 2})}});
  EXPECT_EQ(v.dump(), R"({"n":1,"s":"x","b":true,"nil":null,"a":[1,2]})");
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Value("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDumpTest, IntegersRenderWithoutDecimalPoint) {
  EXPECT_EQ(Value(42.0).dump(), "42");
  EXPECT_EQ(Value(-3.0).dump(), "-3");
}

// The printf forms the number writer replaced: "%.0f" for integral values
// below 1e15, "%.17g" otherwise, null for NaN and infinities.
std::string printf_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[32];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

TEST(JsonDumpTest, NumbersMatchPrintfForms) {
  const double two53 = 9007199254740992.0;
  std::vector<double> corpus = {0.0,
                                -0.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                1e15 - 1,
                                -(1e15 - 1),
                                1e15,
                                -1e15,
                                1e15 + 0.5,
                                two53 - 1,
                                two53 + 1,
                                -(two53 + 1),
                                0.1,
                                -0.1,
                                5e-324,
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                1e-5,
                                123.456,
                                1e21,
                                -0.5};
  std::mt19937_64 rng(20240611);
  for (int i = 0; i < 10'000; ++i) {
    switch (i % 4) {
      case 0: {  // any bit pattern: every exponent, subnormals, NaNs
        const std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        corpus.push_back(d);
        break;
      }
      case 1:  // integers up to 2^60, either side of the 1e15 cut-off
        corpus.push_back(static_cast<double>(static_cast<std::int64_t>(rng() >> 3)) *
                         (rng() % 2 ? 1 : -1) / static_cast<double>(1ULL << (rng() % 64)));
        break;
      case 2:  // plain integers below the cut-off
        corpus.push_back(static_cast<double>(static_cast<std::int64_t>(rng() % 2'000'000'000'000'000ULL) -
                                             1'000'000'000'000'000LL));
        break;
      default:  // decimals across magnitudes
        corpus.push_back(std::uniform_real_distribution<double>(-1, 1)(rng) *
                         std::pow(10.0, static_cast<double>(static_cast<int>(rng() % 40) - 20)));
    }
  }
  for (const double d : corpus) {
    EXPECT_EQ(Value(d).dump(), printf_number(d)) << "bits of " << printf_number(d);
  }
}

TEST(JsonDumpTest, WireSizeMatchesDump) {
  Value v = Value::object({{"k", Value::array({1, 2, 3})}, {"s", "hello"}});
  EXPECT_EQ(v.wire_size(), v.dump().size());
}

TEST(JsonParseTest, RoundTripsComplexDocument) {
  const std::string text =
      R"({"a":[1,2.5,"three",null,true],"nested":{"deep":{"x":-1e3}},"empty":[],"eo":{}})";
  Value v = parse(text);
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_DOUBLE_EQ(v["nested"]["deep"]["x"].as_number(), -1000.0);
  EXPECT_EQ(v["a"][2].as_string(), "three");
}

TEST(JsonParseTest, ParsesEscapes) {
  Value v = parse(R"("line1\nline2\t\"quoted\"")");
  EXPECT_EQ(v.as_string(), "line1\nline2\t\"quoted\"");
}

TEST(JsonParseTest, ParsesUnicodeEscapes) {
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW(parse("tru"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);
  EXPECT_THROW(parse("'single'"), ParseError);
}

TEST(JsonParseTest, TryParseReturnsNulloptOnFailure) {
  EXPECT_FALSE(try_parse("{oops").has_value());
  EXPECT_TRUE(try_parse("{}").has_value());
}

TEST(JsonParseTest, NumbersWithExponents) {
  EXPECT_DOUBLE_EQ(parse("1.5e3").as_number(), 1500.0);
  EXPECT_DOUBLE_EQ(parse("-2E-2").as_number(), -0.02);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  Value v = parse("  {\n\t\"a\" : [ 1 , 2 ]\n}  ");
  EXPECT_EQ(v["a"].as_array().size(), 2u);
}

TEST(JsonParseTest, PrettyPrintReparses) {
  Value v = Value::object({{"list", Value::array({1, 2})}, {"o", Value::object({{"k", "v"}})}});
  EXPECT_EQ(parse(v.dump_pretty()), v);
}

TEST(JsonValueTest, ArrayIndexOutOfRangeThrows) {
  Value v = Value::array({1});
  EXPECT_THROW(v[std::size_t{5}], std::out_of_range);
}

}  // namespace
}  // namespace edgstr::json
