// JsonWriter, the one writer behind every JSON document: escaping must
// round-trip every ASCII byte through the strict reader, and the layouts
// the documents rely on (inline, one member per line, their nesting, empty
// containers, the number forms) are pinned byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/json_lite.h"
#include "sim/json_writer.h"
#include "sim/stats.h"

namespace dscoh {
namespace {

TEST(JsonWriter, EveryAsciiByteRoundTripsInAKeyAndAValue)
{
    for (int b = 0; b <= 0x7f; ++b) {
        const char c = static_cast<char>(b);
        const std::string key = std::string("k") + c + "k";
        const std::string value = std::string("v") + c + "v";
        JsonWriter w;
        w.object().key(key).value(value).end();
        const std::string text(w.str());
        EXPECT_EQ(text.find('\n'), std::string::npos) << "byte " << b;

        std::string error;
        const jsonlite::ValuePtr doc = jsonlite::parse(text, error);
        ASSERT_NE(doc, nullptr) << "byte " << b << ": " << error;
        ASSERT_EQ(doc->object.size(), 1u) << "byte " << b;
        const jsonlite::Value* v = doc->get(key);
        ASSERT_NE(v, nullptr) << "byte " << b;
        EXPECT_EQ(v->string, value) << "byte " << b;
        EXPECT_EQ(text, "{\"" + jsonEscape(key) + "\": \"" +
                            jsonEscape(value) + "\"}");
    }
}

TEST(JsonWriter, EscapesWithTheShortFormsWhereJsonHasThem)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\te\x01\x1f\x7f"),
              "a\\\"b\\\\c\\nd\\te\\u0001\\u001f\x7f");
}

TEST(JsonWriter, NestsInlineAndOneMemberPerLineLayouts)
{
    JsonWriter w;
    w.object(2)
        .key("a").value(1)
        .key("b").object().key("c").array().value(true).value("x").end().end()
        .key("d").array(4)
        .object().key("e").value(2.5).key("f").array().value(1).value(2).end()
        .end()
        .value(std::uint64_t{7})
        .end()
        .key("g").object(4).key("h").value(false).end()
        .end();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"a\": 1,\n"
                       "  \"b\": {\"c\": [true, \"x\"]},\n"
                       "  \"d\": [\n"
                       "    {\"e\": 2.5, \"f\": [1, 2]},\n"
                       "    7\n"
                       "  ],\n"
                       "  \"g\": {\n"
                       "    \"h\": false\n"
                       "  }\n"
                       "}");
}

TEST(JsonWriter, ALineLayoutAtIndentZeroClosesAtTheMargin)
{
    // The trace's shape: an inline root around a one-event-per-line array.
    JsonWriter w;
    w.object().key("traceEvents").array(0).object().end().object().end();
    w.end().end();
    EXPECT_EQ(w.str(), "{\"traceEvents\": [\n{},\n{}\n]}");
}

TEST(JsonWriter, EmptyContainersKeepTheirDocumentsShapes)
{
    // Inline containers, and a one-member-per-line object (stats'
    // "scalars"), close at once; a one-member-per-line array (results,
    // txnprof, epoch samples) still closes on its own line.
    JsonWriter w;
    w.object(2)
        .key("inline").object().end()
        .key("list").array().end()
        .key("scalars").object(4).end()
        .key("results").array(4).end()
        .end();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"inline\": {},\n"
                       "  \"list\": [],\n"
                       "  \"scalars\": {},\n"
                       "  \"results\": [\n"
                       "  ]\n"
                       "}");

    StatRegistry empty;
    std::ostringstream os;
    empty.dumpJson(os);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"schema\": \"dscoh-stats-v1\",\n"
                        "  \"counters\": {},\n"
                        "  \"scalars\": {},\n"
                        "  \"histograms\": {}\n"
                        "}\n");
}

TEST(JsonWriter, WritesNumbersTheWayTheStreamAndPrintfDid)
{
    JsonWriter w;
    w.array()
        .value(-3)
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(0.1)
        .value(1e20)
        .value(2.0 / 3.0)
        .fixed(66.0, 1)
        .fixed(0.5, 3)
        .hex(0)
        .hex(0xdeadbeefull)
        .end();
    std::ostringstream stream;
    stream << 2.0 / 3.0;
    EXPECT_EQ(stream.str(), "0.666667");
    EXPECT_EQ(w.str(), "[-3, 18446744073709551615, 0.1, 1e+20, 0.666667, "
                       "66.0, 0.500, \"0x0\", \"0xdeadbeef\"]");
}

TEST(JsonWriter, RawInsertsARenderedMemberOrValue)
{
    JsonWriter w;
    w.object(2)
        .key("a").value(1)
        .raw("\"epochs\": {\"epochTicks\": 5}")
        .key("status").raw("{\"state\": \"done\"}")
        .end();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"a\": 1,\n"
                       "  \"epochs\": {\"epochTicks\": 5},\n"
                       "  \"status\": {\"state\": \"done\"}\n"
                       "}");
}

TEST(JsonWriter, AStreamGetsTheDocumentAndANewlineWhenTheRootCloses)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object().key("a").array().value(1);
    w.end();
    EXPECT_TRUE(os.str().empty());
    w.end();
    EXPECT_EQ(os.str(), "{\"a\": [1]}\n");
    EXPECT_TRUE(w.str().empty());
}

TEST(JsonWriter, AStreamGetsALargeDocumentWhole)
{
    // Past 64 KiB the stream takes the document in chunks; the bytes are
    // the same as one string's.
    const auto render = [](JsonWriter& w) {
        w.object().key("events").array(0);
        for (int i = 0; i < 20000; ++i)
            w.object().key("name").value("a\"b\n").key("ts").value(i).end();
        w.end().end();
    };
    std::ostringstream os;
    JsonWriter streamed(os);
    render(streamed);
    JsonWriter whole;
    render(whole);
    EXPECT_GT(os.str().size(), 4u * 64 * 1024);
    EXPECT_EQ(os.str(), std::string(whole.str()) + "\n");
}

} // namespace
} // namespace dscoh
