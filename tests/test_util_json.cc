/**
 * @file
 * Tests for util::JsonWriter: the exact bytes of each layout, string
 * escaping, every number spelling, null for non-finite values, and the
 * failure reports of close().
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "util/json.h"

namespace hercules {
namespace {

using util::JsonWriter;

/** Runs `body` on a writer over a temp file; returns the file's bytes. */
template <typename F>
std::string
written(F body)
{
    const std::string path = "util_json_test.json";
    {
        JsonWriter w(path);
        body(w);
        EXPECT_TRUE(w.close());
    }
    std::string out;
    FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr);
    if (f != nullptr) {
        int c;
        while ((c = std::fgetc(f)) != EOF)
            out.push_back(static_cast<char>(c));
        std::fclose(f);
    }
    std::remove(path.c_str());
    return out;
}

TEST(JsonWriter, BlockObjectHoldsInlineArrays)
{
    EXPECT_EQ(written([](JsonWriter& w) {
                  w.beginObject();
                  w.key("name").str("x");
                  w.key("xs").beginArray(JsonWriter::Inline);
                  w.integer(1).integer(2).integer(3);
                  w.endArray();
                  w.key("inner").beginObject();
                  w.key("ok").boolean(true);
                  w.endObject();
                  w.endObject();
              }),
              "{\n"
              "  \"name\": \"x\",\n"
              "  \"xs\": [1, 2, 3],\n"
              "  \"inner\": {\n"
              "    \"ok\": true\n"
              "  }\n"
              "}\n");
}

TEST(JsonWriter, BlockArrayHoldsInlineObjects)
{
    EXPECT_EQ(written([](JsonWriter& w) {
                  w.beginObject();
                  w.key("rows").beginArray();
                  for (int i = 0; i < 2; ++i) {
                      w.beginObject(JsonWriter::Inline);
                      w.key("i").integer(i);
                      // Containers inside an inline one are inline.
                      w.key("v").beginArray().boolean(false).endArray();
                      w.endObject();
                  }
                  w.endArray();
                  w.endObject();
              }),
              "{\n"
              "  \"rows\": [\n"
              "    {\"i\": 0, \"v\": [false]},\n"
              "    {\"i\": 1, \"v\": [false]}\n"
              "  ]\n"
              "}\n");
}

TEST(JsonWriter, EmptyContainers)
{
    EXPECT_EQ(written([](JsonWriter& w) {
                  w.beginObject();
                  w.key("o").beginObject().endObject();
                  w.key("a").beginArray().endArray();
                  w.key("i").beginArray(JsonWriter::Inline).endArray();
                  w.endObject();
              }),
              "{\n"
              "  \"o\": {},\n"
              "  \"a\": [],\n"
              "  \"i\": []\n"
              "}\n");
    EXPECT_EQ(written([](JsonWriter& w) { w.beginObject().endObject(); }),
              "{}\n");
}

TEST(JsonWriter, RootValuesAreJsonl)
{
    EXPECT_EQ(written([](JsonWriter& w) {
                  for (int i = 0; i < 2; ++i) {
                      w.beginObject(JsonWriter::Inline);
                      w.key("id").integer(i);
                      w.endObject();
                  }
              }),
              "{\"id\": 0}\n{\"id\": 1}\n");
}

TEST(JsonWriter, EscapesStringsAndKeys)
{
    EXPECT_EQ(written([](JsonWriter& w) {
                  w.beginObject(JsonWriter::Inline);
                  w.key("k\"").str("a \"b\" \\ c\nd\te\rf");
                  w.endObject();
              }),
              "{\"k\\\"\": \"a \\\"b\\\" \\\\ c\\nd\\te\\rf\"}\n");
    EXPECT_EQ(util::jsonQuote("say \"hi\"\\"), "\"say \\\"hi\\\"\\\\\"");
}

TEST(JsonWriter, NumberSpellings)
{
    EXPECT_EQ(written([](JsonWriter& w) {
                  w.beginArray(JsonWriter::Inline);
                  w.integer(-7).integer(size_t{18446744073709551615u});
                  w.fixed(1.5, 3).fixed(2.5, 0).fixed(-0.125, 2);
                  w.general(10485.76, 6).general(0.01, 6);
                  w.shortest(0.1).shortest(3.0).shortest(1.0 / 3.0);
                  w.endArray();
              }),
              "[-7, 18446744073709551615, 1.500, 2, -0.12, 10485.8, "
              "0.01, 0.1, 3, 0.3333333333333333]\n");
    EXPECT_EQ(util::shortestDecimal(2.0e15), "2e+15");
    EXPECT_EQ(util::shortestDecimal(-12.0), "-12");
}

TEST(JsonWriter, NonFiniteNumbersAreNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::nan("");
    EXPECT_EQ(written([&](JsonWriter& w) {
                  w.beginArray(JsonWriter::Inline);
                  w.fixed(inf, 2).fixed(-inf, 0).general(nan, 6);
                  w.shortest(nan).null();
                  w.endArray();
              }),
              "[null, null, null, null, null]\n");
}

TEST(JsonWriter, CloseReportsOpenFailure)
{
    JsonWriter w("/nonexistent-dir/x.json");
    w.beginObject().key("a").integer(1).endObject();
    EXPECT_FALSE(w.close());
}

TEST(JsonWriter, CloseReportsWriteFailure)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    JsonWriter w("/dev/full");
    w.beginArray();
    for (int i = 0; i < 100000; ++i)
        w.integer(i);
    w.endArray();
    EXPECT_FALSE(w.close());
}

TEST(CloseFile, NullStreamIsAFailure)
{
    EXPECT_FALSE(util::closeFile(nullptr));
}

TEST(JsonWriterDeath, UnbalancedOrKeylessUseIsABug)
{
    EXPECT_DEATH(
        {
            JsonWriter w("/dev/null");
            w.beginObject().integer(1);
        },
        "without a key");
    EXPECT_DEATH(
        {
            JsonWriter w("/dev/null");
            w.beginArray().endObject();
        },
        "unbalanced");
    EXPECT_DEATH(
        {
            JsonWriter w("/dev/null");
            w.beginArray();
            w.close();
        },
        "open containers");
}

}  // namespace
}  // namespace hercules
