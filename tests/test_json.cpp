#include "perfeng/common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace {

using pe::json::ParseError;
using pe::json::Value;

// What `parse(text)` throws, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)pe::json::parse(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return {};
}

TEST(JsonWrite, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(pe::json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(pe::json::escape("tab\there"), "tab\\there");
  EXPECT_EQ(pe::json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWrite, QuotedStringsParseBackToTheSameBytes) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string token = pe::json::quote(all);
  EXPECT_EQ(token.find('\n'), std::string::npos);
  EXPECT_EQ(pe::json::parse(token).as_string(), all);
}

TEST(JsonParse, ReadsEveryKindAndKeepsSourceLines) {
  const Value doc = pe::json::parse(
      "{\n"
      "  \"s\": \"x\",\n"
      "  \"n\": -1.5e2,\n"
      "  \"b\": [true, false, null]\n"
      "}\n");
  ASSERT_EQ(doc.kind, Value::Kind::kObject);
  EXPECT_EQ(doc.line, 1u);
  EXPECT_EQ(doc.at("s").as_string(), "x");
  EXPECT_EQ(doc.at("s").line, 2u);
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), -150.0);
  EXPECT_EQ(doc.at("n").text, "-1.5e2");
  const Value& b = doc.at("b");
  ASSERT_EQ(b.items.size(), 3u);
  EXPECT_EQ(b.line, 4u);
  EXPECT_TRUE(b.items[0].as_bool());
  EXPECT_FALSE(b.items[1].as_bool());
  EXPECT_EQ(b.items[2].kind, Value::Kind::kNull);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(pe::json::parse("\"\\u00b5s\"").as_string(), "\xC2\xB5s");
  EXPECT_EQ(pe::json::parse("\"\\u20AC\"").as_string(), "\xE2\x82\xAC");
  EXPECT_EQ(pe::json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");
  EXPECT_EQ(pe::json::parse("\"\\/\\b\\f\\r\"").as_string(), "/\b\f\r");
  EXPECT_NE(parse_error("\"\\ud83d\""), "");
  EXPECT_NE(parse_error("\"\\ude00\""), "");
  EXPECT_NE(parse_error("\"\\u12g4\""), "");
}

TEST(JsonParse, RejectsWhatStandardJsonRejects) {
  EXPECT_NE(parse_error("\"raw\ttab\""), "");
  EXPECT_NE(parse_error("\"raw\nnewline\""), "");
  EXPECT_NE(parse_error("\"\\x\""), "");
  EXPECT_NE(parse_error("01"), "");
  EXPECT_NE(parse_error("1."), "");
  EXPECT_NE(parse_error("+1"), "");
  EXPECT_NE(parse_error("{\"a\": 1,}"), "");
  EXPECT_NE(parse_error("[1] [2]"), "");
  EXPECT_NE(parse_error(""), "");
  EXPECT_NE(parse_error(std::string(1000, '[')), "");
}

TEST(JsonParse, ErrorsNameTheLine) {
  EXPECT_EQ(parse_error("{\n  \"a\": 1\n  \"b\": 2\n}"),
            "line 3: expected ',' or '}'");
}

TEST(JsonAccess, TypedAccessorsNameTheKeyAndLine) {
  const Value doc = pe::json::parse("{\n\"a\": \"x\",\n\"l\": [1, \"y\"]\n}");
  try {
    (void)doc.at("a").as_number();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.reason(), "key 'a' must be a number, got string");
  }
  try {
    (void)doc.at("l").items[1].as_uint();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), "key 'l[1]' must be a number, got string");
  }
  try {
    (void)doc.at("zz");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), "missing key 'zz'");
  }
}

TEST(JsonAccess, UnsignedIntegersAreExactAboveTwoToThe53) {
  const std::uint64_t big = (std::uint64_t{1} << 60) + 1;
  EXPECT_EQ(pe::json::parse(std::to_string(big)).as_uint(), big);
  EXPECT_EQ(pe::json::parse("18446744073709551615").as_uint(), UINT64_MAX);
  EXPECT_EQ(pe::json::parse("1e3").as_uint(), 1000u);
  EXPECT_THROW((void)pe::json::parse("18446744073709551616").as_uint(),
               ParseError);
  EXPECT_THROW((void)pe::json::parse("-1").as_uint(), ParseError);
  EXPECT_THROW((void)pe::json::parse("2.5").as_uint(), ParseError);
}

}  // namespace
