#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "cli/options.h"

namespace dscoh::cli {
namespace {

struct Parsed {
    bool ok;
    std::string err;
};

template <typename Setup>
Parsed tryParse(std::vector<const char*> args, Setup setup)
{
    OptionParser parser("test", "test tool");
    setup(parser);
    std::ostringstream err;
    args.insert(args.begin(), "test");
    const bool ok = parser.parse(static_cast<int>(args.size()), args.data(), err);
    return {ok, err.str()};
}

TEST(Options, ParsesFlagsAndValues)
{
    bool flag = false;
    std::uint64_t n = 0;
    std::string s;
    OptionParser parser("t", "d");
    parser.addFlag("verbose", "v", &flag);
    parser.addUint("count", "c", &n);
    parser.addString("name", "n", &s);
    const char* argv[] = {"t", "--verbose", "--count", "42", "--name=abc",
                          "positional"};
    std::ostringstream err;
    ASSERT_TRUE(parser.parse(6, argv, err)) << err.str();
    EXPECT_TRUE(flag);
    EXPECT_EQ(n, 42u);
    EXPECT_EQ(s, "abc");
    ASSERT_EQ(parser.positional().size(), 1u);
    EXPECT_EQ(parser.positional()[0], "positional");
}

TEST(Options, EqualsSyntaxForNumbers)
{
    std::uint64_t n = 0;
    const auto r = tryParse({"--count=0x10"}, [&](OptionParser& p) {
        p.addUint("count", "c", &n);
    });
    EXPECT_TRUE(r.ok) << r.err;
    EXPECT_EQ(n, 16u);
}

TEST(Options, RejectsUnknownOption)
{
    const auto r = tryParse({"--nope"}, [](OptionParser&) {});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(Options, RejectsMissingValue)
{
    std::uint64_t n = 0;
    const auto r = tryParse({"--count"}, [&](OptionParser& p) {
        p.addUint("count", "c", &n);
    });
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.err.find("needs a value"), std::string::npos);
}

TEST(Options, RejectsBadNumber)
{
    std::uint64_t n = 0;
    const auto r = tryParse({"--count", "12abc"}, [&](OptionParser& p) {
        p.addUint("count", "c", &n);
    });
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.err.find("bad value"), std::string::npos);

    // Signs and overflow: stoull alone reads "-1" as 2^64-1.
    for (const char* value : {"-1", "-0", " 5", "18446744073709551616"}) {
        const auto bad = tryParse({"--count", value}, [&](OptionParser& p) {
            p.addUint("count", "c", &n);
        });
        EXPECT_FALSE(bad.ok) << value;
        EXPECT_NE(bad.err.find("bad value"), std::string::npos) << value;
    }
    // A field narrower than 64 bits passes its own maximum.
    const auto parseGpus = [&](const char* value) {
        return tryParse({"--gpus", value}, [&](OptionParser& p) {
            p.addUint("gpus", "g", &n, UINT32_MAX);
        });
    };
    EXPECT_FALSE(parseGpus("4294967296").ok);
    EXPECT_FALSE(parseGpus("4294967298").ok);
    EXPECT_TRUE(parseGpus("4294967295").ok);
    EXPECT_EQ(n, 4294967295u);
}

TEST(Options, RejectsValueOnFlag)
{
    bool flag = false;
    const auto r = tryParse({"--verbose=yes"}, [&](OptionParser& p) {
        p.addFlag("verbose", "v", &flag);
    });
    EXPECT_FALSE(r.ok);
}

TEST(JobCount, ParsesPositiveIntegers)
{
    unsigned n = 0;
    std::string err;
    EXPECT_TRUE(parseJobCount("1", n, err)) << err;
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(parseJobCount("64", n, err)) << err;
    EXPECT_EQ(n, 64u);
}

TEST(JobCount, RejectsZero)
{
    unsigned n = 0;
    std::string err;
    EXPECT_FALSE(parseJobCount("0", n, err));
    EXPECT_FALSE(err.empty());
}

TEST(JobCount, RejectsNegative)
{
    unsigned n = 0;
    std::string err;
    EXPECT_FALSE(parseJobCount("-4", n, err));
    EXPECT_FALSE(err.empty());
}

TEST(JobCount, RejectsGarbage)
{
    unsigned n = 0;
    std::string err;
    EXPECT_FALSE(parseJobCount("", n, err));
    EXPECT_FALSE(parseJobCount("abc", n, err));
    EXPECT_FALSE(parseJobCount("4x", n, err));
    EXPECT_FALSE(parseJobCount(" 4", n, err));
    EXPECT_FALSE(parseJobCount("999999999999", n, err));
}

TEST(ResolveJobs, ExplicitFlagWinsOverEnvironment)
{
    ASSERT_EQ(setenv("DSCOH_JOBS", "7", 1), 0);
    unsigned n = 0;
    std::string err;
    EXPECT_TRUE(resolveJobs("3", n, err)) << err;
    EXPECT_EQ(n, 3u);
    ASSERT_EQ(unsetenv("DSCOH_JOBS"), 0);
}

TEST(ResolveJobs, FallsBackToEnvironmentThenHardware)
{
    ASSERT_EQ(setenv("DSCOH_JOBS", "5", 1), 0);
    unsigned n = 0;
    std::string err;
    EXPECT_TRUE(resolveJobs("", n, err)) << err;
    EXPECT_EQ(n, 5u);
    ASSERT_EQ(unsetenv("DSCOH_JOBS"), 0);
    EXPECT_TRUE(resolveJobs("", n, err)) << err;
    EXPECT_GE(n, 1u);
}

TEST(ResolveJobs, BadEnvironmentValueIsAnError)
{
    ASSERT_EQ(setenv("DSCOH_JOBS", "0", 1), 0);
    unsigned n = 0;
    std::string err;
    EXPECT_FALSE(resolveJobs("", n, err));
    EXPECT_NE(err.find("DSCOH_JOBS"), std::string::npos);
    ASSERT_EQ(unsetenv("DSCOH_JOBS"), 0);
}

TEST(Options, HelpPrintsEveryOption)
{
    bool flag = false;
    const auto r = tryParse({"--help"}, [&](OptionParser& p) {
        p.addFlag("verbose", "enable verbosity", &flag);
    });
    EXPECT_FALSE(r.ok); // --help short-circuits
    EXPECT_NE(r.err.find("--verbose"), std::string::npos);
    EXPECT_NE(r.err.find("enable verbosity"), std::string::npos);
}

} // namespace
} // namespace dscoh::cli
