#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "quest/io/json.hpp"
#include "support/property.hpp"

namespace quest {
namespace {

using io::Json;

/// The printf formatting Json::dump must reproduce byte for byte:
/// integral values below 1e15 as "%.0f", everything else as "%.17g".
std::string printf_reference(double d) {
  char buffer[64];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", d);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
  }
  return buffer;
}

/// The strtod acceptance Json::parse must reproduce for a number token:
/// the whole token converts, and the value is finite.
std::optional<double> strtod_reference(const std::string& token) {
  if (token.empty() || token == "-") return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> json_parse_number(const std::string& token) {
  try {
    return Json::parse(token).as_number();
  } catch (const Parse_error&) {
    return std::nullopt;
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

::testing::AssertionResult parses_like_strtod(const std::string& token) {
  const std::optional<double> expected = strtod_reference(token);
  const std::optional<double> actual = json_parse_number(token);
  const bool agree = expected.has_value() == actual.has_value() &&
                     (!expected || same_bits(*expected, *actual));
  return QUEST_PROP(agree)
         << "token '" << token << "': strtod "
         << (expected ? printf_reference(*expected) : "rejects")
         << ", Json::parse "
         << (actual ? printf_reference(*actual) : "rejects");
}

TEST(Json_test, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json_test, ParsesNestedStructures) {
  const Json doc = Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  EXPECT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("a").at(0).as_number(), 1.0);
  EXPECT_TRUE(doc.at("a").at(2).at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_EQ(doc.at("e").as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Parse_error);
  EXPECT_THROW(doc.at("a").at(3), Parse_error);
}

TEST(Json_test, StringEscapes) {
  const Json doc = Json::parse(R"("line\nbreak \"quoted\" tab\tA")");
  EXPECT_EQ(doc.as_string(), "line\nbreak \"quoted\" tab\tA");
  const Json unicode = Json::parse(R"("é€")");
  EXPECT_EQ(unicode.as_string(), "\xC3\xA9\xE2\x82\xAC");  // é€ in UTF-8
}

TEST(Json_test, RoundTripsThroughDump) {
  const char* documents[] = {
      "null",
      "true",
      R"({"n": 12, "values": [0.5, 1.25, -3], "label": "a\"b"})",
      R"([[1,2],[3,4],[]])",
      R"({"empty_object": {}, "empty_array": []})",
  };
  for (const char* text : documents) {
    const Json parsed = Json::parse(text);
    EXPECT_EQ(Json::parse(parsed.dump()), parsed) << text;
    EXPECT_EQ(Json::parse(parsed.dump(2)), parsed) << text;
  }
}

TEST(Json_test, DumpIsDeterministicAndOrdered) {
  Json doc;
  doc.set("zebra", 1);
  doc.set("alpha", 2);
  EXPECT_EQ(doc.dump(), R"({"zebra":1,"alpha":2})");
}

TEST(Json_test, NumberFormatting) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-2.5).dump(), "-2.5");
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");  // exact round-trip
  EXPECT_DOUBLE_EQ(Json::parse(Json(0.1).dump()).as_number(), 0.1);
}

TEST(Json_test, NumberDumpMatchesPrintfOnEdgeCases) {
  const double cases[] = {
      0.0,
      -0.0,
      1e15 - 1,
      -(1e15 - 1),
      1e15,
      -1e15,
      9007199254740992.0,  // 2^53
      0.1,
      5e-324,
      -5e-324,
      2.2250738585072014e-308,
      1.7976931348623157e308,
      -1.7976931348623157e308,
      123456789.125,
      0.5,
      -2.5,
      1e-7,
      1e21,
      42.0,
  };
  for (const double d : cases) {
    EXPECT_EQ(Json(d).dump(), printf_reference(d)) << printf_reference(d);
  }
  EXPECT_EQ(Json(-0.0).dump(), "-0");
}

TEST(Json_test, NumberDumpMatchesPrintfOnRandomDoubles) {
  test::Property_config config;
  config.cases = 20000;
  test::check_property<double>(
      "dump formats like %.0f / %.17g", config,
      [](Rng& rng) {
        // A third each: raw bit patterns (every exponent), integral
        // values around the 1e15 switch, and short binary fractions.
        switch (rng() % 3) {
          case 0: {
            double d = 0.0;
            for (;;) {
              const std::uint64_t bits = rng();
              std::memcpy(&d, &bits, sizeof d);
              if (std::isfinite(d)) return d;
            }
          }
          case 1:
            return std::trunc(std::ldexp(rng.uniform() - 0.5, 51));
          default:
            return std::ldexp(static_cast<double>(rng() % 100000) - 50000.0,
                              -static_cast<int>(rng() % 20));
        }
      },
      [](const double& d) {
        return QUEST_PROP(Json(d).dump() == printf_reference(d))
               << "dump " << Json(d).dump() << " vs printf "
               << printf_reference(d);
      });
}

TEST(Json_test, NumberParseMatchesStrtodOnEdgeCases) {
  const char* tokens[] = {
      "0",       "-0",       "01",      "-01",     "1.",      "-.5",
      ".5",      ".",        "-.",      "-",       "e5",      "1e",
      "1e+",     "1E-",      ".e1",     "1.5e3",   "1.5E+03", "-3.5e2",
      "1e-400",  "2e-324",   "-2e-324", "5e-324",  "3e-324",  "1e-310",
      "4.9406564584124654e-324",      "2.2250738585072011e-308",
      "1e308",   "1e309",    "1e400",   "-1e400",
      "1.7976931348623157e308",       "1.7976931348623159e308",
      "-1.7976931348623159e308",      "179769313486231580793728971405303"
                                      "41544604729373054541798798999e279",
      "123456789012345678901234567890", "0.000000000000000000000000001",
  };
  for (const char* token : tokens) {
    EXPECT_TRUE(parses_like_strtod(token));
  }
  // The accept set pinned explicitly: underflow parses, overflow fails.
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);
  EXPECT_THROW(Json::parse("1e400"), Parse_error);
  EXPECT_THROW(Json::parse("-1e400"), Parse_error);
}

TEST(Json_test, NumberParseMatchesStrtodOnScannerTokens) {
  // Tokens from the scanner's grammar,
  //   -? digit* (. digit*)? ((e|E) (+|-)? digit*)?
  // with every part possibly empty, so malformed, underflowing and
  // overflowing tokens all occur.
  test::Property_config config;
  config.cases = 20000;
  test::check_property<std::string>(
      "from_chars accepts what strtod accepts, to the same bits", config,
      [](Rng& rng) {
        const auto digits = [&rng](std::string& out, std::size_t most) {
          const std::size_t count = rng() % (most + 1);
          for (std::size_t i = 0; i < count; ++i) {
            out.push_back(static_cast<char>('0' + rng() % 10));
          }
        };
        std::string token;
        if (rng() % 2) token.push_back('-');
        digits(token, rng() % 4 == 0 ? 25 : 4);
        if (rng() % 2) {
          token.push_back('.');
          digits(token, rng() % 4 == 0 ? 25 : 4);
        }
        if (rng() % 2) {
          token.push_back(rng() % 2 ? 'e' : 'E');
          if (rng() % 3 == 1) token.push_back('+');
          if (rng() % 3 == 2) token.push_back('-');
          digits(token, 3);
        }
        return token;
      },
      [](const std::string& token) { return parses_like_strtod(token); });
}

TEST(Json_test, BuilderHelpers) {
  Json array;
  array.push_back(1);
  array.push_back("two");
  EXPECT_EQ(array.as_array().size(), 2u);
  Json object;
  object.set("k", std::move(array));
  EXPECT_EQ(object.at("k").at(1).as_string(), "two");
  // push_back on an object / set on an array are type errors.
  EXPECT_THROW(object.push_back(1), Parse_error);
  Json arr2;
  arr2.push_back(0);
  EXPECT_THROW(arr2.set("k", 1), Parse_error);
}

TEST(Json_test, ParseErrors) {
  const char* bad[] = {
      "",           "{",          "[1,",       "tru",
      "\"unterminated", "{\"a\" 1}", "{\"a\":1,}",  "[1 2]",
      "01abc",      "nul",        "\"bad\\q\"", "{'a':1}",
      "1 2",        "--1",        "\"\\u12G4\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW(Json::parse(text), Parse_error) << "'" << text << "'";
  }
}

TEST(Json_test, ParseErrorReportsLocation) {
  try {
    Json::parse("{\n  \"a\": oops\n}");
    FAIL() << "expected Parse_error";
  } catch (const Parse_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST(Json_test, DeepNestingIsRejected) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_THROW(Json::parse(deep), Parse_error);
}

TEST(Json_test, ControlCharactersMustBeEscaped) {
  EXPECT_THROW(Json::parse("\"a\nb\""), Parse_error);
  EXPECT_THROW(Json::parse("\"\x01\""), Parse_error);
}

TEST(Json_test, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/quest_json_test.json";
  io::write_file(path, "{\"x\": 1}");
  EXPECT_DOUBLE_EQ(Json::parse(io::read_file(path)).at("x").as_number(), 1.0);
  EXPECT_THROW(io::read_file("/nonexistent/dir/file.json"), Parse_error);
  EXPECT_THROW(io::write_file("/nonexistent/dir/file.json", "x"), Parse_error);
}

}  // namespace
}  // namespace quest
