// Unit tests for the minimal JSON reader/writer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/json.h"

using sleuth::util::Json;
using sleuth::util::JsonReader;

TEST(Json, ParsesScalars)
{
    std::string err;
    EXPECT_TRUE(Json::parse("null", &err).isNull());
    EXPECT_TRUE(err.empty());
    EXPECT_EQ(Json::parse("true", &err).asBool(), true);
    EXPECT_EQ(Json::parse("false", &err).asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("3.5", &err).asNumber(), 3.5);
    EXPECT_EQ(Json::parse("-17", &err).asInt(), -17);
    EXPECT_EQ(Json::parse("\"hi\"", &err).asString(), "hi");
}

TEST(Json, ParsesNested)
{
    std::string err;
    Json v = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_EQ(v.at("a").asArray()[2].at("b").asString(), "c");
    EXPECT_TRUE(v.at("d").isNull());
}

TEST(Json, ParsesEscapes)
{
    std::string err;
    Json v = Json::parse(R"("line\nbreak\t\"q\" \\ A")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "line\nbreak\t\"q\" \\ A");
}

TEST(Json, ParsesUnicodeEscapesToUtf8)
{
    std::string err;
    Json v = Json::parse(R"("é中")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(Json, SurrogatePairsDecodeToUtf8)
{
    std::string err;
    // U+1F600 GRINNING FACE -> one 4-byte sequence.
    Json v = Json::parse(R"("\ud83d\ude00")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
    // Uppercase hex and surrounding text.
    v = Json::parse(R"("a\uD83D\uDE00z")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "a\xf0\x9f\x98\x80z");
    // Highest code point U+10FFFF.
    v = Json::parse(R"("\udbff\udfff")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, SurrogatePairRoundTripsThroughWriter)
{
    std::string err;
    Json v = Json::parse(R"({"emoji":"\ud83d\ude00"})", &err);
    ASSERT_TRUE(err.empty()) << err;
    // The writer emits the raw UTF-8 bytes; re-parsing them yields the
    // same string, so parse(dump(x)) == x.
    Json again = Json::parse(v.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(again.at("emoji").asString(), "\xf0\x9f\x98\x80");
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, LoneSurrogatesAreRejected)
{
    std::string err;
    Json::parse(R"("\ud83d")", &err);
    EXPECT_FALSE(err.empty());
    Json::parse(R"("\ud83dx")", &err);
    EXPECT_FALSE(err.empty());
    // High surrogate followed by a non-surrogate escape.
    Json::parse(R"("\ud83d\u0041")", &err);
    EXPECT_FALSE(err.empty());
    // Low surrogate with no preceding high surrogate.
    Json::parse(R"("\ude00")", &err);
    EXPECT_FALSE(err.empty());
    // Two high surrogates in a row.
    Json::parse(R"("\ud83d\ud83d")", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, ControlCharacterEscapesRoundTrip)
{
    // The writer escapes control characters as \u00XX; the parser must
    // decode them back to the identical byte.
    Json v(std::string("a\x01" "b\x1f"));
    std::string err;
    Json again = Json::parse(v.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(again.asString(), "a\x01" "b\x1f");
}

TEST(Json, TrailingBackslashAtEofIsUnterminated)
{
    std::string err;
    Json::parse("\"abc\\", &err);
    EXPECT_NE(err.find("unterminated string"), std::string::npos)
        << err;
    Json::parse("\"\\", &err);
    EXPECT_NE(err.find("unterminated string"), std::string::npos)
        << err;
    // A truncated \u escape at EOF must also error, not truncate.
    Json::parse("\"\\u12", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, ReportsErrors)
{
    std::string err;
    Json::parse("{", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("[1,]", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("tru", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("1 2", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("\"unterminated", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, RoundTripsCompact)
{
    std::string text =
        R"({"arr":[1,2.5,true,null],"num":-3,"obj":{"k":"v"},"s":"x"})";
    std::string err;
    Json v = Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.dump(), text);
}

TEST(Json, RoundTripsThroughPrettyPrint)
{
    std::string err;
    Json v = Json::parse(R"({"a":[1,{"b":[]}],"c":{}})", &err);
    ASSERT_TRUE(err.empty());
    Json again = Json::parse(v.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, BuilderApi)
{
    Json obj = Json::object();
    obj.set("k", 1);
    obj.set("list", Json::array());
    obj.asObject()["list"].push("a");
    obj.asObject()["list"].push(2.5);
    EXPECT_TRUE(obj.has("k"));
    EXPECT_FALSE(obj.has("missing"));
    EXPECT_EQ(obj.dump(), R"({"k":1,"list":["a",2.5]})");
}

TEST(Json, LargeIntegersSurvive)
{
    std::string err;
    Json v = Json::parse("1688888888000000", &err);
    ASSERT_TRUE(err.empty());
    EXPECT_EQ(v.asInt(), 1688888888000000LL);
    EXPECT_EQ(v.dump(), "1688888888000000");
}

TEST(Json, NestingDepthIsBounded)
{
    // Exactly kMaxParseDepth levels parse; one more is a recoverable
    // error naming the offset, not a stack overflow.
    const int limit = Json::kMaxParseDepth;
    std::string at_limit = std::string(limit, '[') + std::string(limit, ']');
    std::string err;
    Json v = Json::parse(at_limit, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.dump(), at_limit);

    std::string over =
        std::string(limit + 1, '[') + std::string(limit + 1, ']');
    Json bad = Json::parse(over, &err);
    EXPECT_TRUE(bad.isNull());
    EXPECT_EQ(err, "nesting too deep at offset " + std::to_string(limit));

    // Objects count toward the same limit, and a far deeper document
    // (unterminated, as a hostile payload would be) fails the same way.
    std::string objects;
    for (int i = 0; i <= limit; ++i)
        objects += "{\"k\":";
    Json::parse(objects, &err);
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
    Json::parse(std::string(2'000'000, '['), &err);
    EXPECT_EQ(err, "nesting too deep at offset " + std::to_string(limit));
}

TEST(Json, CheckedGettersNameThePathAndBoundIntegers)
{
    using namespace sleuth::util;
    std::string err;
    Json doc = Json::parse(R"({"n": -9007199254740992, "half": 2.5,
                               "big": 9007199254740994})",
                           &err);
    ASSERT_TRUE(err.empty()) << err;
    int64_t v = 0;
    EXPECT_TRUE(getInt(doc, "cfg", "n", &v, &err));
    EXPECT_EQ(v, -9007199254740992);
    EXPECT_FALSE(getInt(doc, "cfg", "half", &v, &err));
    EXPECT_EQ(err, "cfg.half: expected an integer");
    EXPECT_FALSE(getInt(doc, "cfg", "big", &v, &err));
    EXPECT_EQ(err, "cfg.big: integer out of range");
    EXPECT_FALSE(getInt(doc, "", "gone", &v, &err));
    EXPECT_EQ(err, "gone: missing field");
    // Optional forms accept absence, but check a present member.
    EXPECT_TRUE(getOptionalInt(doc, "", "gone", &v, &err));
    EXPECT_EQ(v, -9007199254740992);
    std::string str = "kept";
    EXPECT_FALSE(getOptionalString(doc, "", "n", &str, &err));
    EXPECT_EQ(err, "n: expected a string");
    EXPECT_EQ(str, "kept");
    EXPECT_FALSE(getString(Json(1), "", "s", &str, &err));
    EXPECT_EQ(err, "document: expected an object");
    EXPECT_FALSE(getString(Json(1), "[2]", "s", &str, &err));
    EXPECT_EQ(err, "[2]: expected an object");
    EXPECT_EQ(underPath("[2]", "document: expected an object"),
              "[2]: expected an object");
    EXPECT_EQ(underPath("data", "[0].spans[1].x: missing field"),
              "data[0].spans[1].x: missing field");
    EXPECT_EQ(underPath("[2]", "s: expected a string"),
              "[2].s: expected a string");
}

TEST(Json, OverflowingNumbersAreRejected)
{
    // strtod would return inf, which dump() cannot write back.
    std::string err;
    Json v = Json::parse("1e999", &err);
    EXPECT_TRUE(v.isNull());
    EXPECT_EQ(err, "number out of range at offset 5");
    Json::parse("[1, -1e400]", &err);
    EXPECT_EQ(err, "number out of range at offset 10");
    // Underflow is no error: it reads as (nearly) zero.
    v = Json::parse("1e-999", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(Json::parse("1e300", &err).asNumber(), 1e300);
}

TEST(Json, NonFiniteNumbersDumpAsNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    Json obj = Json::object();
    obj.set("nan", std::nan(""));
    obj.set("inf", inf);
    obj.set("ninf", -inf);
    EXPECT_EQ(obj.dump(), R"({"inf":null,"nan":null,"ninf":null})");
    std::string err;
    Json back = Json::parse(obj.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(back.at("nan").isNull());
}

TEST(Json, NumbersReadAsStrtodReadsThem)
{
    std::string err;
    // The integer fast path keeps strtod's -0.
    EXPECT_TRUE(std::signbit(Json::parse("-0", &err).asNumber()));
    EXPECT_EQ(Json::parse("123456789012345", &err).asInt(),
              123456789012345);
    for (const char *tok : {"1234567890123456789", "-007", "+5", "2.5e3",
                            "0.1", "-9007199254740993"}) {
        Json v = Json::parse(tok, &err);
        ASSERT_TRUE(err.empty()) << tok << ": " << err;
        EXPECT_EQ(v.asNumber(), std::strtod(tok, nullptr)) << tok;
    }
    Json::parse("1-2", &err);
    EXPECT_EQ(err, "bad number at offset 3");
}

TEST(JsonReader, WalksSkipsAndFailsOnce)
{
    JsonReader r(R"( {"a": [1, "x\n", {"b": null}], "c": true} )");
    JsonReader::Kind kind = JsonReader::Kind::Null;
    ASSERT_TRUE(r.peek(&kind));
    EXPECT_EQ(kind, JsonReader::Kind::Object);
    ASSERT_TRUE(r.enter(JsonReader::Kind::Object));
    std::string_view key;
    ASSERT_TRUE(r.nextKey(&key));
    EXPECT_EQ(key, "a");
    ASSERT_TRUE(r.skipValue());
    ASSERT_TRUE(r.nextKey(&key));
    EXPECT_EQ(key, "c");
    bool b = false;
    ASSERT_TRUE(r.readBool(&b));
    EXPECT_TRUE(b);
    EXPECT_FALSE(r.nextKey(&key));
    EXPECT_FALSE(r.failed());
    EXPECT_TRUE(r.finish());

    // The first defect sticks: later calls fail and keep its message.
    JsonReader bad(R"(["a" "b"])");
    ASSERT_TRUE(bad.enter(JsonReader::Kind::Array));
    ASSERT_TRUE(bad.nextElement());
    std::string_view s;
    ASSERT_TRUE(bad.readString(&s));
    EXPECT_EQ(s, "a");
    EXPECT_FALSE(bad.nextElement());
    EXPECT_TRUE(bad.failed());
    EXPECT_FALSE(bad.readString(&s));
    EXPECT_FALSE(bad.finish());
    EXPECT_EQ(bad.error(), "expected ',' or ']' at offset 5");
}
