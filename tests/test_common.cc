/**
 * @file
 * Unit tests for the common support library.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/circular_buffer.hh"
#include "common/flags.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace nosq {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(3, 2);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.raw(), 0u);
}

TEST(SatCounter, HighThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.high());
    c.increment();
    c.increment();
    EXPECT_TRUE(c.high());
}

TEST(SatCounter, SevenBitDelayStyle)
{
    // The NoSQ delay confidence counter: 7 bits, initialized above
    // threshold.
    SatCounter c(7, 64);
    EXPECT_TRUE(c.atLeast(32));
    for (int i = 0; i < 40; ++i)
        c.decrement();
    EXPECT_FALSE(c.atLeast(32));
    c.reset();
    EXPECT_EQ(c.raw(), 64u);
}

TEST(SatCounter, IncrementByAmountSaturates)
{
    SatCounter c(4, 0);
    c.increment(100);
    EXPECT_EQ(c.raw(), 15u);
}

TEST(CircularBuffer, FifoOrder)
{
    CircularBuffer<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.popFront(), 1);
    EXPECT_EQ(q.popFront(), 2);
    q.pushBack(4);
    q.pushBack(5);
    q.pushBack(6);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.popFront(), 3);
    EXPECT_EQ(q.popFront(), 4);
    EXPECT_EQ(q.popFront(), 5);
    EXPECT_EQ(q.popFront(), 6);
    EXPECT_TRUE(q.empty());
}

TEST(CircularBuffer, LogicalIndexingOldestFirst)
{
    CircularBuffer<int> q(3);
    q.pushBack(10);
    q.pushBack(20);
    q.popFront();
    q.pushBack(30);
    q.pushBack(40);
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
    EXPECT_EQ(q.at(2), 40);
    EXPECT_EQ(q.front(), 20);
    EXPECT_EQ(q.back(), 40);
}

TEST(CircularBuffer, PopBackSquashesYoungest)
{
    CircularBuffer<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    q.popBack();
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.back(), 2);
}

TEST(CircularBuffer, WrapsManyTimes)
{
    CircularBuffer<int> q(5);
    for (int i = 0; i < 1000; ++i) {
        q.pushBack(i);
        EXPECT_EQ(q.popFront(), i);
    }
}

TEST(Stats, CounterRegistryRoundTrip)
{
    StatGroup g("core");
    g.counter("loads") += 5;
    ++g.counter("stores");
    g.counter("loads") += 2;
    EXPECT_EQ(g.get("loads"), 7u);
    EXPECT_EQ(g.get("stores"), 1u);
    EXPECT_EQ(g.get("missing"), 0u);
}

TEST(Stats, DumpPreservesOrder)
{
    StatGroup g("x");
    g.counter("b");
    g.counter("a");
    const auto d = g.dump();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].first, "b");
    EXPECT_EQ(d[1].first, "a");
}

TEST(Stats, ResetAll)
{
    StatGroup g("x");
    g.counter("n") += 3;
    g.resetAll();
    EXPECT_EQ(g.get("n"), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"bench", "ipc"});
    t.row({"gzip", "2.04"});
    t.separator();
    t.row({"mcf", "0.22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("| bench | ipc  |"), std::string::npos);
    EXPECT_NE(s.find("| gzip  | 2.04 |"), std::string::npos);
    EXPECT_NE(s.find("| mcf   | 0.22 |"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtRatio(0.97), "0.970");
    EXPECT_EQ(fmtPct(12.34), "12.3");
}

/** A tool with modes "run" (the default), "sweep" and "list". */
struct FlagsFixture
{
    std::string bench;
    std::optional<unsigned> window;
    bool json = false;
    std::string dim;
    flags::Parser parser{
        "usage: tool [options]\n",
        {{"run", ""}, {"sweep", "--sweep"}, {"list", "--list"}},
        {{"--bench", flags::Arg::Required, "NAME", 3u, "benchmark",
          flags::text(bench)},
         {"--window", flags::Arg::Required, "SIZE", 3u, "128 or 256",
          flags::number(window, 128, 256, "must be 128 or 256",
                        [](std::uint64_t v) { return v % 128 == 0; })},
         {"--json", flags::Arg::None, "", 2u, "JSON report",
          flags::store(json, true)},
         {"--sweep", flags::Arg::Optional, "DIM", 2u, "sweep",
          flags::text(dim)},
         {"--list", flags::Arg::None, "", 4u, "list", nullptr}}};
};

TEST(Flags, SpaceAndEqualsFormsParseIdentically)
{
    FlagsFixture a, b;
    const flags::Parsed pa =
        a.parser.parse({"--bench", "gcc", "--window", "256"});
    const flags::Parsed pb =
        b.parser.parse({"--bench=gcc", "--window=256"});
    ASSERT_EQ(pa.status, flags::Parsed::Status::Ok) << pa.error;
    ASSERT_EQ(pb.status, flags::Parsed::Status::Ok) << pb.error;
    EXPECT_EQ(a.bench, "gcc");
    EXPECT_EQ(b.bench, "gcc");
    EXPECT_EQ(a.window, 256u);
    EXPECT_EQ(b.window, 256u);
    // A value may itself look like a flag or hold an '='.
    FlagsFixture c;
    EXPECT_EQ(c.parser.parse({"--bench", "--json=x"}).status,
              flags::Parsed::Status::Ok);
    EXPECT_EQ(c.bench, "--json=x");
}

TEST(Flags, OptionalValueTakesOnlyTheEqualsForm)
{
    FlagsFixture f;
    flags::Parsed p = f.parser.parse({"--sweep=history", "--json"});
    ASSERT_EQ(p.status, flags::Parsed::Status::Ok) << p.error;
    EXPECT_EQ(p.mode, 1u);
    EXPECT_EQ(f.dim, "history");
    EXPECT_TRUE(f.json);
    FlagsFixture g;
    p = g.parser.parse({"--sweep", "--bench", "gcc"});
    ASSERT_EQ(p.status, flags::Parsed::Status::Ok) << p.error;
    EXPECT_EQ(g.dim, "");
    EXPECT_EQ(g.bench, "gcc");
    p = g.parser.parse({"--sweep="});
    EXPECT_EQ(p.status, flags::Parsed::Status::Error);
    EXPECT_EQ(p.error, "--sweep= needs a value");
}

TEST(Flags, MissingValueIsAnError)
{
    FlagsFixture f;
    const flags::Parsed p = f.parser.parse({"--window", "128", "--bench"});
    EXPECT_EQ(p.status, flags::Parsed::Status::Error);
    EXPECT_EQ(p.error, "--bench needs a value");
}

TEST(Flags, UnknownFlagIsAnError)
{
    FlagsFixture f;
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--bogus"}, {"--bench", "gcc", "--bogus=1"}, {"gcc"}}) {
        const flags::Parsed p = f.parser.parse(args);
        EXPECT_EQ(p.status, flags::Parsed::Status::Error);
        EXPECT_NE(p.error.find("unknown option"), std::string::npos)
            << p.error;
    }
    const flags::Parsed p = f.parser.parse({"--json=1", "--sweep"});
    EXPECT_EQ(p.status, flags::Parsed::Status::Error);
    EXPECT_EQ(p.error, "--json takes no value");
}

TEST(Flags, ValidatorRejectsValue)
{
    for (const char *bad : {"64", "192", "abc", "128x", " 128", "+128",
                            "-128", "", "99999999999999999999999"}) {
        FlagsFixture f;
        const flags::Parsed p = f.parser.parse({"--window", bad});
        EXPECT_EQ(p.status, flags::Parsed::Status::Error) << bad;
        EXPECT_EQ(p.error, "invalid --window '" + std::string(bad) +
                               "' (must be 128 or 256)");
        EXPECT_FALSE(f.window.has_value()) << bad;
    }
}

TEST(Flags, FlagOutsideItsModeIsRejected)
{
    // The mode is chosen by the whole command line, so a selecting
    // flag after the offending one still counts.
    FlagsFixture f;
    flags::Parsed p = f.parser.parse({"--json", "--bench", "gcc"});
    EXPECT_EQ(p.status, flags::Parsed::Status::Error);
    EXPECT_EQ(p.error, "--json applies only to sweep mode");
    EXPECT_FALSE(f.json);
    FlagsFixture g;
    p = g.parser.parse({"--json", "--sweep"});
    EXPECT_EQ(p.status, flags::Parsed::Status::Ok) << p.error;
    EXPECT_TRUE(g.json);
    p = g.parser.parse({"--list", "--bench", "gcc"});
    EXPECT_EQ(p.error, "--bench applies only to run and sweep modes");
    p = g.parser.parse({"--list"});
    EXPECT_EQ(p.status, flags::Parsed::Status::Ok) << p.error;
    EXPECT_EQ(p.mode, 2u);
}

TEST(Flags, TwoModeFlagsAreMutuallyExclusive)
{
    FlagsFixture f;
    const flags::Parsed p = f.parser.parse({"--sweep", "--list"});
    EXPECT_EQ(p.status, flags::Parsed::Status::Error);
    EXPECT_EQ(p.error, "--sweep and --list are mutually exclusive");
    // Repeating one mode flag is not a conflict; the last value wins.
    EXPECT_EQ(f.parser.parse({"--sweep=a", "--sweep=b"}).status,
              flags::Parsed::Status::Ok);
    EXPECT_EQ(f.dim, "b");
}

TEST(Flags, HelpListsEveryFlagOnceAndEachParses)
{
    FlagsFixture f;
    const std::string help = f.parser.help();
    EXPECT_EQ(help.rfind("usage: tool [options]\n", 0), 0u);
    const std::vector<std::pair<std::string, std::string>> listed = {
        {"--bench NAME", "gcc"}, {"--window SIZE", "128"},
        {"--json", ""}, {"--sweep[=DIM]", ""}, {"--list", ""},
        {"--help", ""}};
    for (const auto &[entry, value] : listed) {
        const std::string line = "\n  " + entry + " ";
        const std::size_t at = help.find(line);
        ASSERT_NE(at, std::string::npos) << entry << " missing";
        EXPECT_EQ(help.find(line, at + 1), std::string::npos)
            << entry << " listed twice";
        const std::string name = entry.substr(0, entry.find_first_of(" ["));
        std::vector<std::string> args = {name};
        if (!value.empty())
            args.push_back(value);
        // Run every flag in sweep mode, where all of them apply.
        if (name != "--sweep" && name != "--list" && name != "--help")
            args.push_back("--sweep");
        FlagsFixture g;
        const flags::Parsed p = g.parser.parse(args);
        EXPECT_EQ(p.status, name == "--help"
                                ? flags::Parsed::Status::Help
                                : flags::Parsed::Status::Ok)
            << entry << ": " << p.error;
    }
    EXPECT_NE(help.find("[run and sweep modes]"), std::string::npos);
    EXPECT_NE(help.find("[sweep mode]"), std::string::npos);
}

TEST(Flags, ParseUnsignedIsStrict)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(flags::parseUnsigned("18446744073709551615", v));
    EXPECT_EQ(v, ~std::uint64_t(0));
    EXPECT_TRUE(flags::parseUnsigned("007", v));
    EXPECT_EQ(v, 7u);
    for (const char *bad : {"", "abc", "1x", "-1", "+1", " 1", "1 ",
                            "18446744073709551616"})
        EXPECT_FALSE(flags::parseUnsigned(bad, v)) << bad;
}

} // anonymous namespace
} // namespace nosq
