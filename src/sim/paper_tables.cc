#include "sim/paper_tables.hh"

#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/table.hh"
#include "sim/report.hh"
#include "sim/result_log.hh"
#include "workload/profiles.hh"

namespace nosq {

namespace {

/** A report's runs, indexed by (benchmark, config). */
struct Runs
{
    explicit Runs(const std::vector<RunResult> &runs)
    {
        std::set<std::string> seen;
        for (const RunResult &r : runs) {
            if (seen.insert("b:" + r.benchmark).second)
                benches.emplace_back(r.benchmark, r.suite);
            if (seen.insert("c:" + r.config).second)
                configs.push_back(r.config);
            if (!r.memsys.empty() && seen.insert("m:" + r.memsys).second)
                memsysPoints.push_back(r.memsys);
            index.emplace(std::make_pair(r.benchmark, r.config), &r);
        }
    }

    /** The statistics of @p bench under @p config. */
    const SimResult &
    at(const std::string &bench, const std::string &config) const
    {
        const auto it = index.find({bench, config});
        const std::string run =
            "run of '" + bench + "' under config '" + config + "'";
        if (it == index.end() || !it->second->valid)
            throw std::invalid_argument(
                it == index.end() ? "report has no " + run
                                  : run + " is not valid (its job failed)");
        return it->second->sim;
    }

    /** Cycles of @p bench under @p config over its sq-perfect run. */
    double
    relTime(const std::string &bench, const std::string &config) const
    {
        const double base_cycles =
            static_cast<double>(at(bench, "sq-perfect").cycles);
        return at(bench, config).cycles / base_cycles;
    }

    /** Benchmarks with their suites, configs and memsys labels, each
     * in report order. */
    std::vector<std::pair<std::string, Suite>> benches;
    std::vector<std::string> configs;
    std::vector<std::string> memsysPoints;
    std::map<std::pair<std::string, std::string>, const RunResult *>
        index;
};

const BenchmarkProfile &
profileOf(const std::string &bench)
{
    if (const BenchmarkProfile *profile = findProfile(bench))
        return *profile;
    throw std::invalid_argument("'" + bench +
                                "' is not a benchmark profile");
}

/**
 * One cell after a row's benchmark name: fixed text, or values with
 * @c digits decimals -- one, or a "bounded (unbounded)" pair -- that
 * the suite row averages the same way.
 */
struct Cell
{
    std::vector<double> values;
    int digits = 3;
    std::string text;

    std::string
    render() const
    {
        if (values.empty())
            return text;
        const std::string first = fmtDouble(values[0], digits);
        return values.size() == 1
            ? first : first + " (" + fmtDouble(values[1], digits) + ")";
    }
};

/** A value cell with @p digits decimals. */
Cell
num(double v, int digits = 3)
{
    return {{v}, digits, {}};
}

/**
 * One row per benchmark, in report order: its name, then @p row's
 * cells. After each stretch of same-suite benchmarks comes a
 * "<suite>.<mean_name>" row holding @p mean of every value's series
 * (blank under text cells), then a separator.
 */
std::string
suiteTable(const Runs &runs, const std::vector<std::string> &header,
           const std::string &mean_name,
           double (*mean)(const std::vector<double> &),
           const std::function<std::vector<Cell>(const std::string &)>
               &row)
{
    TextTable table;
    table.header(header);
    const auto &benches = runs.benches;
    // series[c][v]: value v of cell c over the stretch so far.
    std::vector<std::vector<std::vector<double>>> series;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const std::vector<Cell> cells = row(benches[b].first);
        std::vector<std::string> line{benches[b].first};
        series.resize(cells.size());
        for (std::size_t c = 0; c < cells.size(); ++c) {
            line.push_back(cells[c].render());
            series[c].resize(cells[c].values.size());
            for (std::size_t v = 0; v < cells[c].values.size(); ++v)
                series[c][v].push_back(cells[c].values[v]);
        }
        table.row(line);
        if (b + 1 < benches.size() &&
            benches[b + 1].second == benches[b].second)
            continue;
        line = {suiteName(benches[b].second) + ("." + mean_name)};
        for (std::size_t c = 0; c < cells.size(); ++c) {
            Cell summary{{}, cells[c].digits, {}};
            for (const std::vector<double> &values : series[c])
                summary.values.push_back(mean(values));
            line.push_back(summary.render());
        }
        table.row(line);
        table.separator();
        series.clear();
    }
    return table.render();
}

/**
 * Figs. 2 and 3: execution time of each bar relative to SQ + perfect
 * scheduling on the same machine, geomean per suite. Fig. 2 adds the
 * paper's ideal IPC beside the measured one.
 */
std::string
barsTable(const Runs &runs, bool paper_ipc)
{
    std::vector<std::string> head{"bench", "ideal IPC"};
    if (paper_ipc)
        head.push_back("(paper)");
    head.insert(head.end(),
                {"assoc-SQ", "NoSQ no-dly", "NoSQ dly", "perfect SMB"});
    return suiteTable(runs, head, "gmean", geomean,
                      [&](const std::string &bench) {
        std::vector<Cell> row{
            {{}, 0, fmtDouble(runs.at(bench, "sq-perfect").ipc(), 2)}};
        if (paper_ipc)
            row.push_back(
                {{}, 0, fmtDouble(profileOf(bench).idealIpc, 2)});
        for (const char *bar : {"sq-storesets", "nosq-nodelay",
                                "nosq-delay", "nosq-perfect"})
            row.push_back(num(runs.relTime(bench, bar)));
        return row;
    });
}

std::string
fig2(const Runs &runs, std::uint64_t insts)
{
    return "Figure 2: relative execution time, 128-entry window\n"
           "(normalized to associative SQ + perfect scheduling; " +
        std::to_string(insts) + " measured insts)\n\n" +
        barsTable(runs, /*paper_ipc=*/true) +
        "\nPaper shape checks:\n"
        "  - StoreSets tracks the ideal scheduler closely\n"
        "    (within ~2% everywhere in the paper)\n"
        "  - NoSQ with delay matches or slightly beats the\n"
        "    conventional design on average (paper: ~2%)\n"
        "  - perfect SMB bounds the benefit (~3.7% in the\n"
        "    paper); realistic NoSQ captures about half\n";
}

std::string
fig3(const Runs &runs, std::uint64_t)
{
    return "Figure 3: relative execution time, 256-entry window\n"
           "(normalized to associative SQ + perfect scheduling on the "
           "same machine)\n\n" +
        barsTable(runs, /*paper_ipc=*/false) +
        "\nPaper shape check: NoSQ's average improvement shrinks on "
        "the larger window\n(paper: from ~2% to ~1%) while perfect "
        "SMB improves.\n";
}

/**
 * Fig. 4: NoSQ-with-delay data cache reads relative to the
 * associative-SQ baseline, split into core and back-end re-execution
 * reads, with the Section 4.5 overall means.
 */
std::string
fig4(const Runs &runs, std::uint64_t)
{
    std::vector<double> totals, reexecs;
    const std::string table = suiteTable(
        runs, {"bench", "core reads", "backend reads", "total",
               "reexec% of loads"},
        "amean", amean, [&](const std::string &bench) {
        const SimResult &base = runs.at(bench, "sq-storesets");
        const SimResult &nosq = runs.at(bench, "nosq-delay");
        const double base_reads = static_cast<double>(
            base.dcacheReadsCore + base.dcacheReadsBackend);
        const double core = nosq.dcacheReadsCore / base_reads;
        const double backend = nosq.dcacheReadsBackend / base_reads;
        totals.push_back(core + backend);
        reexecs.push_back(100.0 * nosq.reexecRate());
        return std::vector<Cell>{num(core), num(backend),
                                 num(totals.back()),
                                 num(reexecs.back(), 2)};
    });
    return "Figure 4: data cache reads, NoSQ (delay) relative to "
           "associative-SQ baseline\n\n" +
        table +
        "\nSection 4.5 claims:\n"
        "  measured mean total reads vs baseline: " +
        fmtRatio(amean(totals)) +
        " (paper: ~0.91 overall, down to 0.6 for mesa.o)\n"
        "  measured mean re-execution rate: " +
        fmtDouble(amean(reexecs), 2) + "% of loads (paper: ~0.7%)\n";
}

/**
 * Table 5: in-window communication (total and partial-word, % of
 * loads) beside the paper's values, and bypassing mispredictions per
 * 10k loads without and with the delay mechanism.
 */
std::string
table5(const Runs &runs, std::uint64_t insts)
{
    return "Table 5: communication behaviour and prediction "
           "accuracy\n(model: " +
        std::to_string(insts) +
        " measured instructions per benchmark)\n\n" +
        suiteTable(runs, {"bench", "comm%", "(paper)", "partial%",
                          "(paper)", "mw/10k no-dly", "mw/10k dly",
                          "dly%"},
                   "avg", amean, [&](const std::string &bench) {
            const SimResult &nodelay = runs.at(bench, "nosq-nodelay");
            const SimResult &delay = runs.at(bench, "nosq-delay");
            const BenchmarkProfile &profile = profileOf(bench);
            return std::vector<Cell>{
                num(delay.pctCommLoads(), 1),
                {{}, 0, fmtPct(profile.pctComm)},
                num(delay.pctPartialCommLoads(), 1),
                {{}, 0, fmtPct(profile.pctPartial)},
                num(nodelay.mispredictsPer10kLoads(), 1),
                num(delay.mispredictsPer10kLoads(), 1),
                num(delay.pctLoadsDelayed(), 1)};
        }) +
        "\nPaper shape checks:\n"
        "  - majority of loads do not communicate; a few\n"
        "    benchmarks reach 30-48% communication (mesa)\n"
        "  - delay cuts mis-predictions by roughly an order\n"
        "    of magnitude at the cost of delaying a few\n"
        "    percent of loads\n";
}

/**
 * Fig. 5: relative time per bypassing-predictor point of the
 * `--sweep=@p dim` report; each history point (2K entries) carries
 * its unbounded-capacity twin in parentheses.
 */
std::string
predictorTable(const Runs &runs, const std::string &dim)
{
    const bool history = dim == "history";
    const std::string prefix = history ? "hist-" : "cap-";
    std::vector<std::string> points, head{"bench"};
    for (const std::string &config : runs.configs) {
        if (config.compare(0, prefix.size(), prefix) != 0 ||
            (history &&
             config.compare(config.size() - 4, 4, "-inf") == 0))
            continue;
        points.push_back(config);
        head.push_back(config.substr(prefix.size()));
    }
    if (points.empty())
        throw std::invalid_argument("report has no " + prefix +
                                    "* runs (render a --sweep=" + dim +
                                    " report)");
    return suiteTable(runs, head, "gmean", geomean,
                      [&](const std::string &bench) {
        std::vector<Cell> row;
        for (const std::string &config : points) {
            row.push_back(num(runs.relTime(bench, config)));
            if (history)
                row.back().values.push_back(
                    runs.relTime(bench, config + "-inf"));
        }
        return row;
    });
}

std::string
fig5Capacity(const Runs &runs, std::uint64_t)
{
    return "Figure 5 (top): predictor capacity sweep\n"
           "(total entries across both tables; relative to assoc SQ "
           "+ perfect scheduling)\n\n" +
        predictorTable(runs, "capacity") +
        "\nPaper shape check: 2K is nearly as good as unbounded; 512 "
        "entries costs\nSPECint ~4% but barely hurts "
        "MediaBench/SPECfp.\n";
}

std::string
fig5History(const Runs &runs, std::uint64_t)
{
    return "Figure 5 (bottom): path history length sweep\n"
           "(2K-entry predictor, with unbounded capacity in "
           "parentheses)\n\n" +
        predictorTable(runs, "history") +
        "\nPaper shape check: 6-8 bits capture most of the benefit; "
        "longer histories\nhurt the bounded predictor through "
        "capacity pressure.\n";
}

/**
 * Memory-hierarchy scaling: per hierarchy point, NoSQ's time and
 * cache reads relative to the SQ baseline on the same point, and
 * NoSQ's absolute MPKI, miss latency and prefetch accuracy -- the
 * check that Fig. 4's read reduction survives hierarchy detail.
 */
std::string
memsys(const Runs &runs, std::uint64_t)
{
    const std::vector<std::string> &points = runs.memsysPoints;
    if (points.empty())
        throw std::invalid_argument("report has no runs with a "
                                    "memsys label (render a "
                                    "--sweep=memsys report)");
    TextTable table;
    table.header({"hierarchy", "rel time", "rel reads", "nosq MPKI",
                  "miss lat", "pref acc%"});
    for (const std::string &point : points) {
        std::vector<double> rel_time, rel_reads, mpki, miss_lat,
            pref_acc;
        for (const auto &bench : runs.benches) {
            const SimResult &sq = runs.at(bench.first, "sq/" + point);
            const SimResult &nosq =
                runs.at(bench.first, "nosq/" + point);
            rel_time.push_back(
                static_cast<double>(nosq.cycles) / sq.cycles);
            const double sq_reads = static_cast<double>(
                sq.dcacheReadsCore + sq.dcacheReadsBackend);
            if (sq_reads > 0)
                rel_reads.push_back(
                    (nosq.dcacheReadsCore + nosq.dcacheReadsBackend) /
                    sq_reads);
            mpki.push_back(nosq.l1dMpki());
            miss_lat.push_back(nosq.avgMissLatency());
            pref_acc.push_back(100.0 * nosq.prefetchAccuracy());
        }
        table.row({point, fmtRatio(geomean(rel_time)),
                   fmtRatio(geomean(rel_reads)),
                   fmtDouble(amean(mpki), 2),
                   fmtDouble(amean(miss_lat), 1),
                   fmtDouble(amean(pref_acc), 1)});
    }
    return "Memory-hierarchy scaling: NoSQ (delay) vs associative-SQ "
           "baseline per hierarchy point\n(" +
        std::to_string(runs.benches.size()) + " benchmarks x " +
        std::to_string(points.size()) +
        " points; bus occupancy modeled)\n\n" + table.render() +
        "\nrel time / rel reads: NoSQ over the SQ baseline on the "
        "SAME hierarchy point (geomean).\nMPKI, miss lat, pref acc: "
        "NoSQ absolute values (amean).\n";
}

using Renderer = std::string (*)(const Runs &, std::uint64_t);

const std::pair<const char *, Renderer> renderers[] = {
    {"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4}, {"table5", table5},
    {"fig5-capacity", fig5Capacity}, {"fig5-history", fig5History},
    {"memsys", memsys}};

} // anonymous namespace

std::string
paperTableList()
{
    std::string list;
    for (const auto &[name, render] : renderers)
        list += (list.empty() ? "" : " | ") + std::string(name);
    return list;
}

std::string
renderPaperTable(const std::string &table,
                 const std::vector<RunResult> &runs,
                 std::uint64_t insts)
{
    for (const auto &[name, render] : renderers) {
        if (table != name)
            continue;
        if (runs.empty())
            throw std::invalid_argument("report has no runs");
        return render(Runs(runs), insts);
    }
    throw std::invalid_argument("unknown table '" + table + "' (" +
                                paperTableList() + ")");
}

std::vector<RunResult>
loadSweepReport(const JsonValue &doc, std::uint64_t &insts)
{
    std::string error;
    if (!validateSweepReport(doc, &error))
        throw std::invalid_argument(error);
    insts = doc.find("insts")->asU64();
    const std::vector<JsonValue> &records = doc.find("runs")->array;
    std::vector<RunResult> runs(records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        if (!runResultFromJson(records[i], runs[i]))
            throw std::invalid_argument(
                "run " + std::to_string(i) +
                ": cannot rebuild its statistics");
    return runs;
}

} // namespace nosq
