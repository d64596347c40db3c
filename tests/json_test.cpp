#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "json/parse.h"
#include "json/value.h"
#include "util/strings.h"

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

/// The byte-at-a-time string escaper the writer used before it wrote
/// unescaped runs in one piece: the oracle for byte-identical output.
std::string escape_bytewise(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string random_text(std::mt19937_64& rng) {
  static const std::string kSpecial = std::string("\"\\\n\r\t\b\f\x01\x1f\x7f\x80\xff", 12) +
                                      std::string(1, '\0');
  std::string out;
  const std::size_t length = rng() % 12;
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(rng() % 3 == 0 ? kSpecial[rng() % kSpecial.size()]
                                 : static_cast<char>('a' + rng() % 26));
  }
  return out;
}

Value random_value(std::mt19937_64& rng, int depth) {
  static const std::vector<double> kNumbers = {
      0.0, -0.0, std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 1e15 - 1, 1e15, -1e15, 1e15 + 0.5, 0.1, -7, 5e-324};
  switch (rng() % (depth < 4 ? 7 : 5)) {
    case 0: return Value();
    case 1: return Value(rng() % 2 == 0);
    case 2:
      return rng() % 2 ? Value(kNumbers[rng() % kNumbers.size()])
                       : Value(std::uniform_real_distribution<double>(-1e6, 1e6)(rng));
    case 3:
    case 4: return Value(random_text(rng));
    case 5: {
      Array arr;
      for (std::size_t i = rng() % 4; i > 0; --i) arr.push_back(random_value(rng, depth + 1));
      return Value(std::move(arr));  // empty a quarter of the time
    }
    default: {
      Object obj;
      for (std::size_t i = rng() % 4; i > 0; --i) {
        obj.set(random_text(rng), random_value(rng, depth + 1));
      }
      return Value(std::move(obj));
    }
  }
}

TEST(JsonWriterSinkTest, CountAndHashSinksAgreeWithDump) {
  std::mt19937_64 rng(20261018);
  for (int i = 0; i < 5'000; ++i) {
    const Value v = random_value(rng, 0);
    const std::string text = v.dump();
    ASSERT_EQ(v.wire_size(), text.size()) << text;
    ASSERT_EQ(v.fnv1a(), util::fnv1a(text)) << text;
  }
}

TEST(JsonWriterSinkTest, StringsAndNumbersMatchTheirStandaloneSizes) {
  std::mt19937_64 rng(99);
  for (int i = 0; i < 5'000; ++i) {
    const std::string text = random_text(rng);
    ASSERT_EQ(Value(text).dump(), escape_bytewise(text));
    ASSERT_EQ(string_wire_size(text), escape_bytewise(text).size());
    std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    for (const double n : {d, static_cast<double>(static_cast<std::int64_t>(bits >> 14)), -0.0,
                           1e15, 1e15 - 1}) {
      ASSERT_EQ(number_wire_size(n), Value(n).dump().size()) << Value(n).dump();
    }
  }
  // Every control character takes the \u00XX form or its short escape.
  for (int c = 0; c < 0x20; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(Value(one).dump(), escape_bytewise(one)) << c;
  }
  EXPECT_EQ(Value("").dump(), "\"\"");
  EXPECT_EQ(Value(Array{}).fnv1a(), util::fnv1a("[]"));
  EXPECT_EQ(Value(Object{}).wire_size(), 2u);
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
