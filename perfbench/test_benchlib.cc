/**
 * @file
 * Unit tests of the benchmark's own arithmetic and span export.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "benchlib.hh"
#include "obs/metrics.hh"
#include "sim/report.hh"

using namespace nosq;
using namespace nosq::bench;

TEST(TailRule, HighestPercentileWithTenSamplesBeyond)
{
    EXPECT_EQ(tailQuantile(1000), 0.99);
    EXPECT_EQ(tailQuantile(999), 0.95);
    EXPECT_EQ(tailQuantile(235), 0.95);
    EXPECT_EQ(tailQuantile(200), 0.95);
    EXPECT_EQ(tailQuantile(199), 0.90);
    EXPECT_EQ(tailQuantile(100), 0.90);
    EXPECT_EQ(tailQuantile(99), 0.75);
    EXPECT_EQ(tailQuantile(40), 0.75);
    EXPECT_EQ(tailQuantile(20), 0.50);
    EXPECT_EQ(tailQuantile(19), 0.0);
}

TEST(Quantile, InterpolatesBetweenClosestRanks)
{
    EXPECT_EQ(quantile({}, 0.5), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(quantile({0, 10, 20, 30, 40}, 0.95), 38.0);
    EXPECT_EQ(quantile({5.0}, 0.95), 5.0);
}

TEST(Geomean, RelativeTimePerConfigAgainstBaseline)
{
    auto row = [](const char *bench, const char *config, Cycle cycles) {
        RunResult r;
        r.benchmark = bench;
        r.config = config;
        r.sim.cycles = cycles;
        return r;
    };
    const std::vector<RunResult> rows = {
        row("gcc", "sq-perfect", 100), row("gcc", "nosq-delay", 200),
        row("mcf", "sq-perfect", 100), row("mcf", "nosq-delay", 50),
        row("art", "sq-perfect", 10),  row("art", "nosq-delay", 40),
        // No baseline run: skipped.
        row("gzip", "nosq-delay", 1000),
    };
    const auto rel = relTimeGeomeans(rows, "sq-perfect");
    EXPECT_DOUBLE_EQ(rel.at("sq-perfect"), 1.0);
    // Cube root of 2 * 0.5 * 4.
    EXPECT_NEAR(rel.at("nosq-delay"), std::cbrt(4.0), 1e-12);
    EXPECT_TRUE(relTimeGeomeans({}, "sq-perfect").empty());
}

TEST(IdealIpcErr, MeanAbsoluteRelativeErrorSkipsMissingReference)
{
    EXPECT_DOUBLE_EQ(idealIpcErrPct({{1.1, 1.0}, {0.5, 1.0}, {2.0, 0.0}}),
                     30.0);
    EXPECT_EQ(idealIpcErrPct({}), 0.0);
}

TEST(SelfTime, SpanMinusUnionOfChildCoverage)
{
    std::vector<Span> spans(5);
    spans[0] = {"sim.pass", 1, 0, 0, 0, 0.0, 100.0};
    // Two overlapping children (different threads) cover 10..50.
    spans[1] = {"sim.job", 2, 1, 7, 1, 10.0, 20.0};
    spans[2] = {"sim.job", 3, 1, 8, 2, 20.0, 30.0};
    // A child running past its parent counts only inside it.
    spans[3] = {"sim.job", 4, 1, 9, 1, 90.0, 30.0};
    // A grandchild reduces its own parent, not the root.
    spans[4] = {"ooo.run", 5, 2, 7, 1, 12.0, 5.0};
    const std::vector<double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
    EXPECT_DOUBLE_EQ(self[1], 15.0);
    EXPECT_DOUBLE_EQ(self[2], 30.0);
    EXPECT_DOUBLE_EQ(self[4], 5.0);
    const auto by_name = selfTimeByNameUs(spans);
    EXPECT_DOUBLE_EQ(by_name.at("sim.job"), 15.0 + 30.0 + 30.0);
}

TEST(HistogramQuantile, FromTheObsExposition)
{
    obs::MetricsRegistry registry;
    obs::Histogram &h = registry.histogram("lat_ms", "latency");
    for (const double v : {2.0, 2.0, 2.0, 7.0})
        h.observe(v);
    std::vector<obs::ExpositionSample> samples;
    ASSERT_TRUE(obs::parseExposition(registry.expose(), samples));

    double q = 0.0;
    // Rank 2 of 4 falls in (1, 5], which holds 3: 1 + 4 * 2/3.
    ASSERT_TRUE(histogramQuantile(samples, "lat_ms", 0.5, q));
    EXPECT_NEAR(q, 1.0 + 4.0 * 2.0 / 3.0, 1e-12);
    // Rank 4 is the top of (5, 10].
    ASSERT_TRUE(histogramQuantile(samples, "lat_ms", 1.0, q));
    EXPECT_NEAR(q, 10.0, 1e-12);

    // A rank in the +Inf bucket reports the highest finite bound.
    h.observe(1e9);
    ASSERT_TRUE(obs::parseExposition(registry.expose(), samples));
    ASSERT_TRUE(histogramQuantile(samples, "lat_ms", 1.0, q));
    EXPECT_EQ(q, obs::defaultLatencyBucketsMs().back());

    double value = 0.0;
    ASSERT_TRUE(expositionValue(samples, "lat_ms_count", value));
    EXPECT_EQ(value, 5.0);
    EXPECT_FALSE(histogramQuantile(samples, "absent_ms", 0.5, q));
}

TEST(SpanFile, ChromeTraceRoundTrip)
{
    Tracer tracer;
    {
        ScopedSpan pass(&tracer, "sim.pass", 0, 0);
        for (std::uint64_t job = 1; job <= 3; ++job) {
            ScopedSpan span(&tracer, "sim.job", pass.id(), job);
            ScopedSpan get(&tracer, "workload.program", span.id(), job);
        }
    }
    {
        ScopedSpan untraced(nullptr, "sim.pass", 0, 0);
        EXPECT_EQ(untraced.id(), 0u);
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 7u);

    const std::string path = "perfbench_test_trace.json";
    ASSERT_TRUE(writeTextFile(path, chromeTraceJson(spans)));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());

    std::size_t events = 0;
    std::string error;
    ASSERT_TRUE(validateChromeTrace(text.str(), events, error)) << error;
    EXPECT_EQ(events, 7u);

    JsonValue doc;
    ASSERT_TRUE(parseJson(text.str(), doc));
    std::size_t jobs_of_2 = 0;
    for (const JsonValue &e : doc.find("traceEvents")->array) {
        EXPECT_EQ(e.find("ph")->string, "X");
        const JsonValue *args = e.find("args");
        if (args->find("job")->asU64() == 2)
            ++jobs_of_2;
        if (e.find("name")->string == "workload.program") {
            EXPECT_EQ(e.find("cat")->string, "workload");
        }
    }
    // sim.job and workload.program of job 2 share its id.
    EXPECT_EQ(jobs_of_2, 2u);
}

TEST(SpanFile, RejectsBrokenParentage)
{
    std::vector<Span> spans(2);
    spans[0] = {"sim.pass", 1, 0, 0, 0, 0.0, 10.0};
    spans[1] = {"sim.job", 2, 1, 4, 0, 5.0, 10.0};
    std::size_t events = 0;
    std::string error;
    EXPECT_FALSE(validateChromeTrace(chromeTraceJson(spans), events, error));
    EXPECT_NE(error.find("outside its parent"), std::string::npos);

    spans[1] = {"sim.job", 2, 9, 4, 0, 5.0, 1.0};
    EXPECT_FALSE(validateChromeTrace(chromeTraceJson(spans), events, error));
    EXPECT_NE(error.find("missing parent"), std::string::npos);

    spans[1] = {"sim.job", 1, 0, 4, 0, 5.0, 1.0};
    EXPECT_FALSE(validateChromeTrace(chromeTraceJson(spans), events, error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);

    EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": 3}", events, error));
}

TEST(HostSpeed, CalibrationWorkIsDeterministic)
{
    EXPECT_EQ(calibrationWork(1), calibrationWork(1));
    EXPECT_NE(calibrationWork(1), calibrationWork(2));
}

TEST(HostSpeed, WorkScaledByTheSlicesAroundIt)
{
    // A host at reference speed leaves the times as they are.
    const std::vector<double> at_ref =
        toReferenceSeconds({0.5, 1.0}, {0.002, 0.002, 0.002}, 0.002);
    ASSERT_EQ(at_ref.size(), 2u);
    EXPECT_DOUBLE_EQ(at_ref[0], 0.5);
    EXPECT_DOUBLE_EQ(at_ref[1], 1.0);
    // Half speed around the second interval only: the slices on
    // either side of it average 0.003 s against 0.002 s nominal.
    const std::vector<double> slowed =
        toReferenceSeconds({0.5, 1.5}, {0.002, 0.002, 0.004}, 0.002);
    ASSERT_EQ(slowed.size(), 2u);
    EXPECT_DOUBLE_EQ(slowed[0], 0.5);
    EXPECT_DOUBLE_EQ(slowed[1], 1.0);
    // One slice per boundary, each positive.
    EXPECT_TRUE(toReferenceSeconds({1.0}, {0.002}, 0.002).empty());
    EXPECT_TRUE(toReferenceSeconds({1.0}, {0.002, 0.0}, 0.002).empty());
}
