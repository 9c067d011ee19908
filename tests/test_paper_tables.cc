/**
 * @file
 * Tests for the paper-table renderers: every table's text pinned
 * over a hand-built two-suite run set (three benchmarks), the same text after a
 * report round trip, and the refusals (missing run, failed run,
 * unknown table, a report of the wrong sweep).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/paper_tables.hh"
#include "sim/report.hh"

namespace nosq {
namespace {

/** Execution time of each config relative to its baseline. */
struct ConfigPoint
{
    const char *config;
    double rel;
};

const ConfigPoint points[] = {
    {"sq-perfect", 1.00},  {"sq-storesets", 1.01},
    {"nosq-nodelay", 1.05}, {"nosq-delay", 0.99},
    {"nosq-perfect", 0.97}, {"cap-512", 1.02},
    {"cap-Inf", 0.98},      {"hist-4b", 1.03},
    {"hist-4b-inf", 1.00},  {"sq/l2-1M", 1.00},
    {"nosq/l2-1M", 0.95},
};

/**
 * g721.e and mesa.o (MediaBench), then gcc (SPECint), each under
 * every config above. Benchmark b adds 0.02 * b to each
 * non-baseline ratio and 100 * b to its communicating loads.
 */
std::vector<RunResult>
handBuiltRuns()
{
    const std::pair<const char *, Suite> benches[] = {
        {"g721.e", Suite::Media}, {"mesa.o", Suite::Media},
        {"gcc", Suite::Int}};
    std::vector<RunResult> runs;
    for (std::size_t b = 0; b < 3; ++b) {
        for (const ConfigPoint &point : points) {
            RunResult r;
            r.benchmark = benches[b].first;
            r.suite = benches[b].second;
            r.config = point.config;
            const bool baseline = r.config == "sq-perfect" ||
                r.config.compare(0, 3, "sq/") == 0;
            if (r.config.find('/') != std::string::npos)
                r.memsys = "l2-1M";
            r.sim.cycles = static_cast<std::uint64_t>(std::lround(
                10000 * (point.rel + (baseline ? 0.0 : 0.02 * b))));
            r.sim.insts = 10000;
            r.sim.loads = 2000;
            const bool nosq = r.config.compare(0, 4, "nosq") == 0;
            r.sim.commLoads = 400 + 100 * b;
            r.sim.partialCommLoads = 100;
            r.sim.bypassMispredicts =
                r.config == "nosq-nodelay" ? 20 : 2 + b;
            r.sim.delayedLoads = nosq ? 60 : 0;
            r.sim.reexecLoads = nosq ? 20 + 10 * b : 0;
            r.sim.dcacheReadsCore = nosq ? 1800 : 2000;
            r.sim.dcacheReadsBackend = r.sim.reexecLoads;
            r.sim.l1dMisses = 50;
            r.sim.missCycles = 5000 + 1000 * b;
            r.sim.prefIssued = 10;
            r.sim.prefUseful = 8;
            runs.push_back(r);
        }
    }
    return runs;
}

/** Every table's text over handBuiltRuns() at 10000 insts. */
const std::pair<const char *, const char *> pinned[] = {
    {"fig2", R"txt(Figure 2: relative execution time, 128-entry window
(normalized to associative SQ + perfect scheduling; 10000 measured insts)

+------------------+-----------+---------+----------+-------------+----------+-------------+
| bench            | ideal IPC | (paper) | assoc-SQ | NoSQ no-dly | NoSQ dly | perfect SMB |
+------------------+-----------+---------+----------+-------------+----------+-------------+
| g721.e           | 1.00      | 2.33    | 1.010    | 1.050       | 0.990    | 0.970       |
| mesa.o           | 1.00      | 2.86    | 1.030    | 1.070       | 1.010    | 0.990       |
| MediaBench.gmean |           |         | 1.020    | 1.060       | 1.000    | 0.980       |
+------------------+-----------+---------+----------+-------------+----------+-------------+
| gcc              | 1.00      | 1.54    | 1.050    | 1.090       | 1.030    | 1.010       |
| SPECint.gmean    |           |         | 1.050    | 1.090       | 1.030    | 1.010       |
+------------------+-----------+---------+----------+-------------+----------+-------------+
+------------------+-----------+---------+----------+-------------+----------+-------------+

Paper shape checks:
  - StoreSets tracks the ideal scheduler closely
    (within ~2% everywhere in the paper)
  - NoSQ with delay matches or slightly beats the
    conventional design on average (paper: ~2%)
  - perfect SMB bounds the benefit (~3.7% in the
    paper); realistic NoSQ captures about half
)txt"},
    {"fig3", R"txt(Figure 3: relative execution time, 256-entry window
(normalized to associative SQ + perfect scheduling on the same machine)

+------------------+-----------+----------+-------------+----------+-------------+
| bench            | ideal IPC | assoc-SQ | NoSQ no-dly | NoSQ dly | perfect SMB |
+------------------+-----------+----------+-------------+----------+-------------+
| g721.e           | 1.00      | 1.010    | 1.050       | 0.990    | 0.970       |
| mesa.o           | 1.00      | 1.030    | 1.070       | 1.010    | 0.990       |
| MediaBench.gmean |           | 1.020    | 1.060       | 1.000    | 0.980       |
+------------------+-----------+----------+-------------+----------+-------------+
| gcc              | 1.00      | 1.050    | 1.090       | 1.030    | 1.010       |
| SPECint.gmean    |           | 1.050    | 1.090       | 1.030    | 1.010       |
+------------------+-----------+----------+-------------+----------+-------------+
+------------------+-----------+----------+-------------+----------+-------------+

Paper shape check: NoSQ's average improvement shrinks on the larger window
(paper: from ~2% to ~1%) while perfect SMB improves.
)txt"},
    {"fig4", R"txt(Figure 4: data cache reads, NoSQ (delay) relative to associative-SQ baseline

+------------------+------------+---------------+-------+------------------+
| bench            | core reads | backend reads | total | reexec% of loads |
+------------------+------------+---------------+-------+------------------+
| g721.e           | 0.900      | 0.010         | 0.910 | 1.00             |
| mesa.o           | 0.900      | 0.015         | 0.915 | 1.50             |
| MediaBench.amean | 0.900      | 0.013         | 0.913 | 1.25             |
+------------------+------------+---------------+-------+------------------+
| gcc              | 0.900      | 0.020         | 0.920 | 2.00             |
| SPECint.amean    | 0.900      | 0.020         | 0.920 | 2.00             |
+------------------+------------+---------------+-------+------------------+
+------------------+------------+---------------+-------+------------------+

Section 4.5 claims:
  measured mean total reads vs baseline: 0.915 (paper: ~0.91 overall, down to 0.6 for mesa.o)
  measured mean re-execution rate: 1.50% of loads (paper: ~0.7%)
)txt"},
    {"table5", R"txt(Table 5: communication behaviour and prediction accuracy
(model: 10000 measured instructions per benchmark)

+----------------+-------+---------+----------+---------+---------------+------------+------+
| bench          | comm% | (paper) | partial% | (paper) | mw/10k no-dly | mw/10k dly | dly% |
+----------------+-------+---------+----------+---------+---------------+------------+------+
| g721.e         | 20.0  | 6.9     | 5.0      | 5.8     | 100.0         | 10.0       | 3.0  |
| mesa.o         | 25.0  | 48.0    | 5.0      | 19.0    | 100.0         | 15.0       | 3.0  |
| MediaBench.avg | 22.5  |         | 5.0      |         | 100.0         | 12.5       | 3.0  |
+----------------+-------+---------+----------+---------+---------------+------------+------+
| gcc            | 30.0  | 7.7     | 5.0      | 1.4     | 100.0         | 20.0       | 3.0  |
| SPECint.avg    | 30.0  |         | 5.0      |         | 100.0         | 20.0       | 3.0  |
+----------------+-------+---------+----------+---------+---------------+------------+------+
+----------------+-------+---------+----------+---------+---------------+------------+------+

Paper shape checks:
  - majority of loads do not communicate; a few
    benchmarks reach 30-48% communication (mesa)
  - delay cuts mis-predictions by roughly an order
    of magnitude at the cost of delaying a few
    percent of loads
)txt"},
    {"fig5-capacity", R"txt(Figure 5 (top): predictor capacity sweep
(total entries across both tables; relative to assoc SQ + perfect scheduling)

+------------------+-------+-------+
| bench            | 512   | Inf   |
+------------------+-------+-------+
| g721.e           | 1.020 | 0.980 |
| mesa.o           | 1.040 | 1.000 |
| MediaBench.gmean | 1.030 | 0.990 |
+------------------+-------+-------+
| gcc              | 1.060 | 1.020 |
| SPECint.gmean    | 1.060 | 1.020 |
+------------------+-------+-------+
+------------------+-------+-------+

Paper shape check: 2K is nearly as good as unbounded; 512 entries costs
SPECint ~4% but barely hurts MediaBench/SPECfp.
)txt"},
    {"fig5-history", R"txt(Figure 5 (bottom): path history length sweep
(2K-entry predictor, with unbounded capacity in parentheses)

+------------------+---------------+
| bench            | 4b            |
+------------------+---------------+
| g721.e           | 1.030 (1.000) |
| mesa.o           | 1.050 (1.020) |
| MediaBench.gmean | 1.040 (1.010) |
+------------------+---------------+
| gcc              | 1.070 (1.040) |
| SPECint.gmean    | 1.070 (1.040) |
+------------------+---------------+
+------------------+---------------+

Paper shape check: 6-8 bits capture most of the benefit; longer histories
hurt the bounded predictor through capacity pressure.
)txt"},
    {"memsys", R"txt(Memory-hierarchy scaling: NoSQ (delay) vs associative-SQ baseline per hierarchy point
(3 benchmarks x 1 points; bus occupancy modeled)

+-----------+----------+-----------+-----------+----------+-----------+
| hierarchy | rel time | rel reads | nosq MPKI | miss lat | pref acc% |
+-----------+----------+-----------+-----------+----------+-----------+
| l2-1M     | 0.970    | 0.915     | 5.00      | 120.0    | 80.0      |
+-----------+----------+-----------+-----------+----------+-----------+

rel time / rel reads: NoSQ over the SQ baseline on the SAME hierarchy point (geomean).
MPKI, miss lat, pref acc: NoSQ absolute values (amean).
)txt"},
};

TEST(PaperTables, RendersEveryTable)
{
    const std::vector<RunResult> runs = handBuiltRuns();
    ASSERT_EQ(paperTableList(), "fig2 | fig3 | fig4 | table5 | "
                                "fig5-capacity | fig5-history | memsys");
    for (const auto &[table, text] : pinned)
        EXPECT_EQ(renderPaperTable(table, runs, 10000), text) << table;
}

TEST(PaperTables, ReportRoundTripRendersTheSameText)
{
    const std::vector<RunResult> runs = handBuiltRuns();
    JsonValue doc;
    ASSERT_TRUE(parseJson(sweepReportJson(runs, 10000), doc));
    std::uint64_t insts = 0;
    const std::vector<RunResult> loaded = loadSweepReport(doc, insts);
    EXPECT_EQ(insts, 10000u);
    for (const auto &[table, text] : pinned)
        EXPECT_EQ(renderPaperTable(table, loaded, insts), text) << table;
}

/** The message renderPaperTable() throws, or "" if it renders. */
std::string
renderError(const std::string &table, const std::vector<RunResult> &runs)
{
    try {
        renderPaperTable(table, runs, 10000);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(PaperTables, MissingRunIsNamed)
{
    std::vector<RunResult> runs = handBuiltRuns();
    runs.erase(std::remove_if(runs.begin(), runs.end(),
                              [](const RunResult &r) {
                                  return r.benchmark == "gcc" &&
                                      r.config == "nosq-delay";
                              }),
               runs.end());
    EXPECT_EQ(renderError("fig4", runs),
              "report has no run of 'gcc' under config 'nosq-delay'");
    EXPECT_EQ(renderError("fig5-history", {runs.begin(), runs.begin() + 3}),
              "report has no hist-* runs (render a --sweep=history "
              "report)");
}

TEST(PaperTables, InvalidRunIsRefused)
{
    std::vector<RunResult> runs = handBuiltRuns();
    for (RunResult &r : runs)
        if (r.benchmark == "mesa.o" && r.config == "sq-perfect")
            r.valid = false;
    EXPECT_EQ(renderError("fig2", runs),
              "run of 'mesa.o' under config 'sq-perfect' is not valid "
              "(its job failed)");
}

TEST(PaperTables, UnknownTableIsRefused)
{
    EXPECT_EQ(renderError("fig9", handBuiltRuns()),
              "unknown table 'fig9' (fig2 | fig3 | fig4 | table5 | "
              "fig5-capacity | fig5-history | memsys)");
    EXPECT_EQ(renderError("fig2", {}), "report has no runs");
}

TEST(PaperTables, LoadRejectsWhatTheValidatorRejects)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson("{\"schema\": \"other\"}", doc));
    std::uint64_t insts = 0;
    try {
        loadSweepReport(doc, insts);
        ADD_FAILURE() << "a report with another schema loaded";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "nosq-sweep-v2: unexpected schema tag 'other'");
    }
}

} // anonymous namespace
} // namespace nosq
