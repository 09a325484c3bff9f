#include <gtest/gtest.h>

#include <limits>

#include "config/json.hh"
#include "util/logging.hh"

namespace madmax
{

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_EQ(JsonValue::parse("true").asBool(), true);
    EXPECT_EQ(JsonValue::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").asDouble(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.25").asDouble(), -3.25);
    EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("2.5E-2").asDouble(), 0.025);
    EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesContainers)
{
    JsonValue v = JsonValue::parse(
        R"({"a": [1, 2, 3], "b": {"c": "x"}, "d": null})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.at("a").size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("a").at(1).asDouble(), 2.0);
    EXPECT_EQ(v.at("b").at("c").asString(), "x");
    EXPECT_TRUE(v.at("d").isNull());
    EXPECT_TRUE(v.has("a"));
    EXPECT_FALSE(v.has("zzz"));
}

TEST(Json, EmptyContainers)
{
    EXPECT_EQ(JsonValue::parse("[]").size(), 0u);
    EXPECT_EQ(JsonValue::parse("{}").size(), 0u);
    EXPECT_EQ(JsonValue::parse(" [ ] ").size(), 0u);
}

TEST(Json, StringEscapes)
{
    JsonValue v = JsonValue::parse(R"("a\"b\\c\nd\teA")");
    EXPECT_EQ(v.asString(), "a\"b\\c\nd\teA");
}

TEST(Json, MalformedInputIsFatal)
{
    EXPECT_THROW(JsonValue::parse(""), ConfigError);
    EXPECT_THROW(JsonValue::parse("{"), ConfigError);
    EXPECT_THROW(JsonValue::parse("[1,"), ConfigError);
    EXPECT_THROW(JsonValue::parse("{'single': 1}"), ConfigError);
    EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), ConfigError);
    EXPECT_THROW(JsonValue::parse("tru"), ConfigError);
    EXPECT_THROW(JsonValue::parse("1 2"), ConfigError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), ConfigError);
    EXPECT_THROW(JsonValue::parse("[1] trailing"), ConfigError);
}

TEST(Json, ErrorsCarryLineAndColumn)
{
    try {
        JsonValue::parse("{\n  \"a\": oops\n}");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    }
}

TEST(Json, TypeMismatchesAreFatal)
{
    JsonValue v = JsonValue::parse(R"({"a": 1})");
    EXPECT_THROW(v.asArray(), ConfigError);
    EXPECT_THROW(v.at("a").asString(), ConfigError);
    EXPECT_THROW(v.at("missing"), ConfigError);
    EXPECT_THROW(v.at("a").asBool(), ConfigError);
    JsonValue arr = JsonValue::parse("[1]");
    EXPECT_THROW(arr.at(5), ConfigError);
    EXPECT_THROW(JsonValue(1.0).size(), ConfigError);
}

TEST(Json, FallbackAccessors)
{
    JsonValue v = JsonValue::parse(R"({"x": 5, "s": "abc", "f": true})");
    EXPECT_DOUBLE_EQ(v.numberOr("x", 0.0), 5.0);
    EXPECT_DOUBLE_EQ(v.numberOr("y", 7.0), 7.0);
    EXPECT_EQ(v.stringOr("s", "zzz"), "abc");
    EXPECT_EQ(v.stringOr("t", "zzz"), "zzz");
    EXPECT_EQ(v.boolOr("f", false), true);
    EXPECT_EQ(v.boolOr("g", false), false);
}

TEST(Json, IntegerReadsRejectFractionsAndOverflow)
{
    JsonValue v = JsonValue::parse(
        R"({"n": 16, "half": 2.5, "big": 4294967312, "huge": 1e300,
            "neg": -9223372036854775808, "two63": 9223372036854775808})");
    EXPECT_EQ(v.at("n").asInt(), 16);
    EXPECT_EQ(v.at("big").asLong(), 4294967312L);
    EXPECT_EQ(v.at("neg").asLong(), std::numeric_limits<long>::min());
    EXPECT_THROW(v.at("half").asLong(), ConfigError);
    EXPECT_THROW(v.at("half").asInt(), ConfigError);
    // 2^32 + 16 would wrap to 16 in an int.
    EXPECT_THROW(v.at("big").asInt(), ConfigError);
    EXPECT_THROW(v.at("huge").asLong(), ConfigError);
    EXPECT_THROW(v.at("two63").asLong(), ConfigError);
    EXPECT_THROW(v.at("neg").asInt(), ConfigError);
    EXPECT_EQ(v.longOr("n", 7), 16);
    EXPECT_EQ(v.intOr("absent", 7), 7);
    EXPECT_THROW(v.intOr("half", 7), ConfigError);
    // Out-of-range numbers still dump (no integer cast).
    EXPECT_EQ(v.at("huge").dump(), "1.0000000000000001e+300");
}

TEST(Json, DumpRoundTrips)
{
    const std::string doc =
        R"({"arr":[1,2.5,"three"],"nested":{"t":true,"n":null}})";
    JsonValue v = JsonValue::parse(doc);
    // Compact dump re-parses to an equivalent tree.
    JsonValue again = JsonValue::parse(v.dump());
    EXPECT_DOUBLE_EQ(again.at("arr").at(1).asDouble(), 2.5);
    EXPECT_EQ(again.at("arr").at(2).asString(), "three");
    EXPECT_TRUE(again.at("nested").at("n").isNull());
    EXPECT_EQ(again.at("nested").at("t").asBool(), true);
}

TEST(Json, PrettyDumpIndents)
{
    JsonValue v = JsonValue::parse(R"({"a":[1],"b":2})");
    std::string pretty = v.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
    EXPECT_NE(pretty.find(": "), std::string::npos);
}

TEST(Json, IntegersDumpWithoutDecimalPoint)
{
    EXPECT_EQ(JsonValue(65536L).dump(), "65536");
    EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
}

TEST(Json, BuilderInterface)
{
    JsonValue obj;
    obj.set("name", "ZionEX").set("nodes", 16L);
    JsonValue arr;
    arr.append(1.0).append(2.0);
    obj.set("dims", std::move(arr));
    JsonValue parsed = JsonValue::parse(obj.dump());
    EXPECT_EQ(parsed.at("name").asString(), "ZionEX");
    EXPECT_EQ(parsed.at("nodes").asLong(), 16);
    EXPECT_EQ(parsed.at("dims").size(), 2u);
}

TEST(Json, ParseFileMissingIsFatal)
{
    EXPECT_THROW(JsonValue::parseFile("/nonexistent/path.json"),
                 ConfigError);
}

TEST(Json, NestingBeyondTheCapIsFatalNotAStackOverflow)
{
    // The serving layer feeds network input to this parser: a deeply
    // nested body must raise ConfigError, not recurse until SIGSEGV.
    std::string deep(100000, '[');
    EXPECT_THROW(JsonValue::parse(deep), ConfigError);
    deep = std::string(100000, '[') + std::string(100000, ']');
    EXPECT_THROW(JsonValue::parse(deep), ConfigError);

    // Exactly 200 levels (the documented cap) still parses; 201
    // does not.
    std::string ok = std::string(200, '[') + "1" +
        std::string(200, ']');
    EXPECT_EQ(JsonValue::parse(ok).size(), 1u);
    std::string over = std::string(201, '[') + "1" +
        std::string(201, ']');
    EXPECT_THROW(JsonValue::parse(over), ConfigError);
}

} // namespace madmax
