/**
 * @file
 * nosq_sim: command-line driver for the simulator.
 *
 * Run any benchmark profile under any LSU configuration and print
 * the full statistics block, or run a parallel multi-configuration
 * sweep. Every flag is declared once, in makeParser()'s table.
 * Examples:
 *
 *   nosq_sim --list
 *   nosq_sim --bench gzip
 *   nosq_sim --bench mesa.o --mode nosq --insts 1000000
 *   nosq_sim --bench gcc --mode storesets --window 256
 *   nosq_sim --bench g721.e --mode nosq --no-delay
 *   nosq_sim --sweep --jobs 8 --json
 *   nosq_sim --sweep --suite int --modes nosq,storesets \
 *            --windows 128,256 --json --out sweep.json
 *   nosq_sim --sweep=capacity --bench gcc,g721.e \
 *            --capacities 512,2K,Inf --json
 *   nosq_sim --sweep=history --suite int --json
 *   nosq_sim --sweep=bars --suite all --json --out bars.json
 *   nosq_sim --render fig2:bars.json
 *   nosq_sim --validate sweep.json
 */

#include <sys/stat.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hh"
#include "common/table.hh"
#include "memsys/coherence.hh"
#include "obs/metrics.hh"
#include "obs/pipe_trace.hh"
#include "obs/progress.hh"
#include "serve/client.hh"
#include "serve/fault.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/paper_tables.hh"
#include "sim/perf.hh"
#include "sim/report.hh"
#include "sim/sampling.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/multicore.hh"
#include "workload/profiles.hh"
#include "workload/program_cache.hh"

using namespace nosq;

namespace {

void
listProfiles()
{
    TextTable table;
    table.header({"name", "suite", "comm%", "partial%",
                  "paper IPC"});
    for (const auto &p : allProfiles()) {
        table.row({p.name, suiteName(p.suite), fmtPct(p.pctComm),
                   fmtPct(p.pctPartial), fmtDouble(p.idealIpc, 2)});
    }
    std::fputs(table.render().c_str(), stdout);
}

std::optional<LsuMode>
parseMode(const std::string &name)
{
    static const std::map<std::string, LsuMode> modes = {
        {"perfect", LsuMode::SqPerfect},
        {"storesets", LsuMode::SqStoreSets},
        {"nosq", LsuMode::Nosq},
        {"nosq-perfect", LsuMode::NosqPerfect}};
    const auto it = modes.find(name);
    return it == modes.end() ? std::nullopt
                             : std::optional<LsuMode>(it->second);
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) {
            items.push_back(list.substr(start));
            break;
        }
        items.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

using CapacityPoints = std::vector<std::pair<std::string, unsigned>>;

/**
 * Parse a --capacities list. Each point is total entries with an
 * optional K suffix, or Inf (0) for unbounded. Totals must be a
 * multiple of 8 (two equally split 4-way tables) so the labeled
 * capacity is exactly the simulated one, never a rounded
 * approximation.
 * @return an error message, or "" on success
 */
std::string
parseCapacities(const std::string &list, CapacityPoints &points)
{
    points.clear();
    for (const std::string &label : splitList(list)) {
        if (label == "Inf" || label == "inf") {
            points.emplace_back(label, 0);
            continue;
        }
        char *end = nullptr;
        const unsigned long v = std::strtoul(label.c_str(), &end, 10);
        unsigned long scale = 1;
        if (*end == 'K' || *end == 'k') {
            scale = 1024;
            ++end;
        }
        // 2^30 caps any sane geometry and keeps v * scale far from
        // wrapping the 32-bit total.
        if (end == label.c_str() || *end != '\0' || v == 0 ||
            v > (1ul << 30) / scale || (v * scale) % 8 != 0)
            return "invalid capacity '" + label + "' (total entries, "
                   "multiple of 8, K suffix allowed, or Inf)";
        points.emplace_back(label, static_cast<unsigned>(v * scale));
    }
    return "";
}

/** The modes of operation; a single run is the default. */
enum Mode : unsigned {
    Run, Sweep, Perf, List, Validate, ValidateTrace, Render,
    ServerStatus, ServerMetrics
};
constexpr unsigned RUN = 1u << Run, SWEEP = 1u << Sweep,
                   PERF = 1u << Perf;

/** Which family of configurations a sweep invocation runs. */
enum class SweepKind {
    Cross, Capacity, History, Bars, Memsys, Multicore
};

/**
 * Every flag's value. Each field is set by one makeParser() entry;
 * an unset std::optional keeps the configuration's own value.
 */
struct Options
{
    // Workload and machine: a single run, and every sweep config.
    std::string bench;
    std::optional<LsuMode> mode;
    std::uint64_t insts = 300000;
    std::optional<std::uint64_t> warmup;
    std::optional<unsigned> window;
    std::uint64_t seed = 1;
    bool delay = true;
    bool svw = true;
    /** --history: one length, or the --sweep=history points. */
    std::vector<unsigned> history;
    std::optional<unsigned> entries;
    std::optional<unsigned> mshrs;
    std::optional<unsigned> prefetch;
    bool bus_occupancy = false;
    std::optional<unsigned> cores;
    std::optional<unsigned> queue_depth;
    bool event_skip = true;
    SamplingParams sampling;
    std::string trace_pipe;
    // Sweep.
    SweepKind kind = SweepKind::Cross;
    unsigned jobs = 0;
    std::vector<const BenchmarkProfile *> suite = selectedProfiles();
    std::vector<LsuMode> modes;
    std::vector<unsigned> windows;
    CapacityPoints capacities;
    bool json = false;
    std::string out;
    std::string checkpoint;
    std::string resume;
    /** nosq_sweepd socket; non-empty runs the sweep as a client. */
    std::string server;
    /** Total --server connection attempts (see RetryPolicy). */
    unsigned retries = 5;
    /** The --validate / --validate-trace / --render input, and the
     * --render table. */
    std::string file, table;
};

/** Apply the machine flags to @p p (a single run's, or a sweep
 * configuration's before its swept dimension). */
void
applyMachineFlags(const Options &o, UarchParams &p)
{
    if (!o.delay)
        p.nosqDelay = false;
    p.svwFilter = o.svw;
    p.eventSkip = o.event_skip;
    if (o.history.size() == 1)
        p.bypass.historyBits = o.history.front();
    if (o.entries)
        p.bypass.entriesPerTable = *o.entries;
    if (o.mshrs)
        p.memsys.mshrs = *o.mshrs;
    if (o.prefetch)
        p.memsys.prefetchDegree = *o.prefetch;
    if (o.bus_occupancy)
        p.memsys.busContention = true;
}

/** The flag table: every nosq_sim flag, declared once. */
flags::Parser
makeParser(Options &o)
{
    using flags::Arg;
    const unsigned MACHINE = RUN | SWEEP;
    return flags::Parser(
        "usage: nosq_sim [options]\n\n"
        "Simulates the NoSQ paper's machines: one benchmark under one\n"
        "configuration, or a parallel sweep of configurations.\n\n",
        {{"single-run", ""}, {"sweep", "--sweep"}, {"perf", "--perf"},
         {"list", "--list"}, {"validate", "--validate"},
         {"validate-trace", "--validate-trace"},
         {"render", "--render"},
         {"server-status", "--server-status"},
         {"server-metrics", "--server-metrics"}},
        {
        {"--list", Arg::None, "", 1u << List,
         "list benchmark profiles", nullptr},
        {"--bench", Arg::Required, "NAME", MACHINE,
         "benchmark to run (single-run: required; sweep: a "
         "comma-separated list restricting the sweep)",
         flags::text(o.bench)},
        {"--mode", Arg::Required, "MODE", MACHINE,
         "perfect | storesets | nosq | nosq-perfect (default: nosq)",
         [&o](const std::string &, const std::string &value) {
             o.mode = parseMode(value);
             return o.mode ? std::string()
                           : "unknown mode '" + value + "'";
         }},
        {"--insts", Arg::Required, "N", MACHINE | PERF,
         "measured instructions (default 300000)",
         flags::number(o.insts, 0, UINT64_MAX, "unsigned integer")},
        {"--warmup", Arg::Required, "N", MACHINE | PERF,
         "warm-up instructions (default insts/3)",
         flags::number(o.warmup, 0, UINT64_MAX, "unsigned integer")},
        {"--window", Arg::Required, "SIZE", MACHINE,
         "128 | 256 (default 128)",
         flags::number(o.window, 128, 256, "must be 128 or 256",
                       [](std::uint64_t v) { return v % 128 == 0; })},
        {"--no-delay", Arg::None, "", MACHINE,
         "disable the delay mechanism", flags::store(o.delay, false)},
        {"--no-svw", Arg::None, "", MACHINE,
         "disable SVW filtering (re-execute all)",
         flags::store(o.svw, false)},
        {"--history", Arg::Required, "BITS", MACHINE,
         "bypassing predictor history bits; with --sweep=history, a "
         "comma list of the swept points",
         [&o](const std::string &flag, const std::string &value) {
             o.history.clear();
             for (const std::string &item : splitList(value)) {
                 std::uint64_t v = 0;
                 if (!flags::parseUnsigned(item, v) || v > UINT_MAX)
                     return flags::invalid(flag, value,
                                           "bits, or a comma list of them");
                 o.history.push_back(static_cast<unsigned>(v));
             }
             return std::string();
         }},
        {"--entries", Arg::Required, "N", MACHINE,
         "bypassing predictor entries/table",
         flags::number(o.entries, 4, UINT_MAX,
                       "nonzero multiple of 4",
                       [](std::uint64_t v) { return v % 4 == 0; })},
        {"--mshrs", Arg::Required, "N", MACHINE,
         "L1D miss-status holding registers (0: legacy "
         "blocking-latency miss model, the default)",
         flags::number(o.mshrs, 0, 256,
                       "0..256; 0 disables the non-blocking model")},
        {"--prefetch", Arg::Required, "N", MACHINE,
         "stream-prefetcher degree (lines per trigger; 0: off, the "
         "default)",
         flags::number(o.prefetch, 0, 64,
                       "degree 0..64; 0 disables the prefetcher")},
        {"--bus-occupancy", Arg::None, "", MACHINE,
         "model DRAM-bus occupancy (queueing) instead of the flat "
         "transfer cost",
         flags::store(o.bus_occupancy, true)},
        {"--cores", Arg::Required, "N", MACHINE,
         "core count, 1..64 (default 1); > 1 runs an N-core System "
         "over a shared coherent L2",
         flags::number(o.cores, 1, max_cores,
                       "1.." + std::to_string(max_cores))},
        {"--queue-depth", Arg::Required, "N", MACHINE,
         "multicore kernel ring slots, a power of two in 8..4096 "
         "(default 16)",
         flags::number(o.queue_depth, 8, 4096,
                       "power of two in 8..4096",
                       [](std::uint64_t v) { return (v & (v - 1)) == 0; })},
        {"--seed", Arg::Required, "N", MACHINE,
         "workload seed (default 1)",
         flags::number(o.seed, 0, UINT64_MAX, "unsigned integer")},
        {"--no-skip", Arg::None, "", MACHINE,
         "disable event-driven cycle skipping (a wall-clock "
         "optimization only; statistics are bit-identical either way)",
         flags::store(o.event_skip, false)},
        {"--sample", Arg::Required, "SPEC", MACHINE,
         "SMARTS-style sampled simulation: SPEC is "
         "ff:warmup:interval:count[:seed] in instructions. Each period "
         "fast-forwards ff insts, re-warms for warmup, then measures "
         "interval; seed != 0 adds a random initial offset. "
         "--insts/--warmup are ignored when sampling",
         [&o](const std::string &, const std::string &value) {
             std::string error;
             if (!parseSamplingSpec(value, o.sampling, error))
                 return "invalid --sample '" + value + "': " + error;
             return std::string();
         }},
        {"--trace-pipe", Arg::Required, "SPEC", RUN,
         "export a Chrome trace-event JSON pipeline trace of a "
         "single-core run; SPEC is FILE[:SKIP:COUNT] (default: the "
         "first 50000 instructions)",
         flags::nonEmpty(o.trace_pipe, "FILE[:SKIP:COUNT] spec")},
        {"--sweep", Arg::Optional, "DIM", SWEEP,
         "run a modes x windows x benchmarks cross-product in "
         "parallel, or one dimension DIM against its SQ baseline: "
         "capacity (Fig. 5 top), history (Fig. 5 bottom), bars (the "
         "five Fig. 2/3 bars on --window, which also feed Fig. 4 and "
         "Table 5), memsys (L2 x MSHRs x prefetcher, bus occupancy on) "
         "or multicore (cores x queue depth over the spsc-ring and "
         "mpsc-queue kernels; --cores/--queue-depth pin one axis). The "
         "machine flags apply to every configuration; the swept "
         "dimension wins on its own knob",
         [&o](const std::string &, const std::string &dim) {
             static const std::map<std::string, SweepKind> kinds = {
                 {"capacity", SweepKind::Capacity},
                 {"history", SweepKind::History},
                 {"bars", SweepKind::Bars},
                 {"memsys", SweepKind::Memsys},
                 {"multicore", SweepKind::Multicore}};
             if (dim.empty())
                 return std::string();
             const auto it = kinds.find(dim);
             if (it == kinds.end())
                 return "unknown sweep dimension '" + dim +
                        "' (capacity | history | bars | memsys | "
                        "multicore)";
             o.kind = it->second;
             return std::string();
         }},
        {"--jobs", Arg::Required, "N", SWEEP,
         "worker threads (default: NOSQ_JOBS env, else hardware "
         "concurrency)",
         flags::number(o.jobs, 0, UINT_MAX, "unsigned integer")},
        {"--suite", Arg::Required, "NAME", SWEEP,
         "media | int | fp | selected | all (default: selected)",
         [&o](const std::string &, const std::string &value) {
             static const std::map<std::string, Suite> suites = {
                 {"media", Suite::Media}, {"int", Suite::Int},
                 {"fp", Suite::Fp}};
             if (value == "all" || value == "selected")
                 o.suite = value == "all" ? allProfilePtrs()
                                          : selectedProfiles();
             else if (suites.count(value) != 0)
                 o.suite = profilesOfSuite(suites.at(value));
             else
                 return "unknown suite '" + value + "'";
             return std::string();
         }},
        {"--modes", Arg::Required, "LIST", SWEEP,
         "comma-separated mode list, --sweep only (default: all four "
         "modes, or --mode when given)",
         [&o](const std::string &, const std::string &value) {
             o.modes.clear();
             for (const std::string &name : splitList(value)) {
                 const std::optional<LsuMode> mode = parseMode(name);
                 if (!mode)
                     return "unknown mode '" + name + "'";
                 o.modes.push_back(*mode);
             }
             return std::string();
         }},
        {"--windows", Arg::Required, "LIST", SWEEP,
         "comma-separated window sizes, each 128 or 256 (--sweep "
         "default: 128,256 or --window when given; dimension sweeps "
         "take exactly one, default 128)",
         [&o](const std::string &, const std::string &value) {
             o.windows.clear();
             for (const std::string &w : splitList(value)) {
                 std::uint64_t size = 0;
                 if (!flags::parseUnsigned(w, size) ||
                     (size != 128 && size != 256))
                     return "invalid window size '" + w +
                            "' (must be 128 or 256)";
                 o.windows.push_back(static_cast<unsigned>(size));
             }
             return std::string();
         }},
        {"--capacities", Arg::Required, "LIST", SWEEP,
         "--sweep=capacity points: total entries, K suffix allowed, "
         "Inf for unbounded (default 64,128,256,512,1K,2K,4K,Inf)",
         [&o](const std::string &, const std::string &value) {
             return parseCapacities(value, o.capacities);
         }},
        {"--checkpoint", Arg::Required, "FILE", SWEEP,
         "journal each completed job to FILE (nosq-journal-v1 JSONL, "
         "flushed per record; starts a fresh journal)",
         flags::nonEmpty(o.checkpoint, "path")},
        {"--resume", Arg::Required, "FILE", SWEEP,
         "resume an interrupted sweep: skip the jobs journaled in "
         "FILE, run the rest and keep journaling to FILE; the merged "
         "report is byte-identical. Refuses another spec's journal and "
         "salvages a corrupt one up to the damage",
         flags::nonEmpty(o.resume, "path")},
        {"--server", Arg::Required, "SOCK", SWEEP |
             1u << ServerStatus | 1u << ServerMetrics,
         "run the sweep on the nosq_sweepd daemon at Unix socket SOCK; "
         "the report is byte-identical to a local sweep. Excludes "
         "--checkpoint/--resume (the daemon owns its store)",
         flags::nonEmpty(o.server, "socket path")},
        {"--server-status", Arg::None, "", 1u << ServerStatus,
         "print the daemon's one-line status JSON (workers, executed, "
         "cache_hits, ...) and exit; requires --server",
         nullptr},
        {"--server-metrics", Arg::None, "", 1u << ServerMetrics,
         "print the daemon's Prometheus metrics exposition and exit; "
         "requires --server",
         nullptr},
        {"--retries", Arg::Required, "N", SWEEP,
         "total --server connection attempts (default 5); dropped "
         "connections and 'draining'/'overloaded' replies back off "
         "exponentially with jitter and resume the result stream",
         flags::number(o.retries, 1, 1000, "1..1000")},
        {"--json", Arg::None, "", SWEEP,
         "emit the nosq-sweep-v2 JSON report (runs + per-suite "
         "reductions) to stdout instead of a table",
         flags::store(o.json, true)},
        {"--out", Arg::Required, "FILE", SWEEP | PERF,
         "write the JSON report to FILE (the table still prints "
         "without --json)",
         flags::text(o.out)},
        {"--validate", Arg::Required, "FILE", 1u << Validate,
         "strict-parse FILE and check it against the nosq-sweep-v2 "
         "schema; exits nonzero on any violation",
         flags::text(o.file)},
        {"--validate-trace", Arg::Required, "FILE", 1u << ValidateTrace,
         "check FILE as a --trace-pipe export (event shape, "
         "nondecreasing timestamps) and print per-event counts",
         flags::text(o.file)},
        {"--render", Arg::Required, "TABLE:FILE", 1u << Render,
         "print paper table TABLE (" + paperTableList() +
             ") rendered from the nosq-sweep-v2 report FILE; "
             "docs/cli.md names the sweep each table reads",
         [&o](const std::string &flag, const std::string &value) {
             const std::size_t colon = value.find(':');
             o.table = value.substr(0, colon);
             o.file = value.substr(
                 colon == value.npos ? value.size() : colon + 1);
             return o.table.empty() || o.file.empty()
                 ? flags::invalid(flag, value, "TABLE:FILE") : "";
         }},
        {"--perf", Arg::None, "", PERF,
         "time the simulator itself over the reference workload "
         "(serial) and emit nosq-bench-core-v1 JSON with simulated "
         "MIPS to stdout; honours --insts/--warmup and writes --out",
         nullptr},
        });
}

int
runSweepMode(const Options &o)
{
    SweepSpec spec;
    spec.insts = o.insts;
    spec.warmup = o.warmup.value_or(~std::uint64_t(0));
    spec.seed = o.seed;
    spec.sampling = o.sampling;

    // Benchmark set: an explicit comma-separated list narrows the
    // suite selection. The multicore dimension sweeps kernel names
    // (workload/multicore.hh) instead of benchmark profiles.
    std::vector<std::string> kernels;
    if (o.kind == SweepKind::Multicore) {
        if (o.bench.empty()) {
            kernels = multicoreWorkloads();
        } else {
            for (const std::string &name : splitList(o.bench)) {
                if (!isMulticoreWorkload(name)) {
                    std::fprintf(stderr, "unknown multicore kernel "
                                 "'%s' (spsc-ring | mpsc-queue)\n",
                                 name.c_str());
                    return 1;
                }
                kernels.push_back(name);
            }
        }
    } else if (!o.bench.empty()) {
        for (const std::string &name : splitList(o.bench)) {
            const BenchmarkProfile *profile = findProfile(name);
            if (profile == nullptr) {
                std::fprintf(stderr, "unknown benchmark '%s' "
                             "(try --list)\n", name.c_str());
                return 1;
            }
            spec.benchmarks.push_back(profile);
        }
    } else {
        spec.benchmarks = o.suite;
    }

    // Window sizes: --windows, else --window, else both machines
    // (dimension sweeps run on one machine size, default 128).
    std::vector<unsigned> windows = o.windows;
    if (windows.empty() && o.window)
        windows = {*o.window};
    else if (windows.empty())
        windows = o.kind == SweepKind::Cross
            ? std::vector<unsigned>{128, 256} : std::vector<unsigned>{128};

    if (o.kind == SweepKind::Cross) {
        // Configuration cross-product: modes x window sizes.
        std::vector<LsuMode> modes = o.modes;
        if (modes.empty() && o.mode)
            modes = {*o.mode};
        else if (modes.empty())
            modes = {LsuMode::SqPerfect, LsuMode::SqStoreSets,
                     LsuMode::Nosq, LsuMode::NosqPerfect};
        spec.configs = crossConfigs(modes, windows);
    } else {
        // Fixed-baseline dimension sweep (Figures 4 and 5). Flags
        // the dimension cannot honour are rejected, not silently
        // ignored.
        if (!o.modes.empty() || o.mode) {
            std::fprintf(stderr, "--mode/--modes apply only to "
                         "--sweep (dimension sweeps fix their own "
                         "configurations)\n");
            return 1;
        }
        if (windows.size() != 1) {
            std::fprintf(stderr, "dimension sweeps take a single "
                         "--window (128 or 256)\n");
            return 1;
        }
        if (o.kind == SweepKind::Bars)
            spec.configs = paperFigureConfigs(windows.front() == 256);
        else if (o.kind == SweepKind::Memsys)
            spec.configs = memsysConfigs();
        else if (o.kind == SweepKind::Multicore)
            spec.configs = multicoreConfigs(
                o.cores ? std::vector<unsigned>{*o.cores}
                        : std::vector<unsigned>{2, 4},
                o.queue_depth ? std::vector<unsigned>{*o.queue_depth}
                              : std::vector<unsigned>{8, 64});
        else
            spec.configs.push_back(sqPerfectBaseline());
        if (o.kind == SweepKind::Capacity) {
            CapacityPoints capacities = o.capacities;
            if (capacities.empty())
                parseCapacities("64,128,256,512,1K,2K,4K,Inf",
                                capacities);
            for (SweepConfig &config :
                 predictorCapacityConfigs(capacities))
                spec.configs.push_back(std::move(config));
        } else if (o.kind == SweepKind::History) {
            const std::vector<unsigned> bits = o.history.empty()
                ? std::vector<unsigned>{4, 6, 8, 10, 12} : o.history;
            for (SweepConfig &config : predictorHistoryConfigs(
                     bits, /*with_unbounded=*/true))
                spec.configs.push_back(std::move(config));
        }
        for (SweepConfig &config : spec.configs)
            config.bigWindow = windows.front() == 256;
    }
    const bool have_workloads = o.kind == SweepKind::Multicore
        ? !kernels.empty() : !spec.benchmarks.empty();
    if (spec.configs.empty() || !have_workloads) {
        std::fprintf(stderr, "empty sweep\n");
        return 1;
    }
    // Reductions normalize against the first configuration (the
    // SQ baseline of the dimension sweeps).
    const std::string baseline = spec.configs.front().name;

    // Forward the machine flags into every configuration; the swept
    // dimension is applied last so it wins on its own knob.
    for (SweepConfig &config : spec.configs) {
        // Homogeneous multicore sweep of profile benchmarks; the
        // multicore dimension already baked --cores into its grid,
        // so re-applying the same value is a no-op there.
        if (o.cores)
            config.cores = *o.cores;
        if (o.queue_depth)
            config.queueDepth = *o.queue_depth;
        config.tweak = [&o, dimension = std::move(config.tweak)](
                           UarchParams &p) {
            applyMachineFlags(o, p);
            if (dimension)
                dimension(p);
        };
    }
    std::vector<SweepJob> jobs;
    if (o.kind == SweepKind::Multicore) {
        // Mirror buildJobs()'s insts/warmup defaulting so every
        // sweep family reports the same header numbers.
        const std::uint64_t mc_insts =
            spec.insts ? spec.insts : defaultSimInsts();
        const std::uint64_t mc_warmup =
            spec.warmup == ~std::uint64_t(0) ? mc_insts / 3
                                             : spec.warmup;
        jobs = buildMulticoreJobs(kernels, spec.configs, mc_insts,
                                  mc_warmup, spec.seed);
    } else {
        jobs = buildJobs(spec);
    }
    // Live progress line: throttled, per-suite breakdown, and
    // TTY-aware -- redirected stderr (CI logs) stays clean.
    std::vector<std::string> job_suites;
    job_suites.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        job_suites.push_back(suiteName(
            job.profile ? job.profile->suite : job.suite));
    }
    obs::ProgressMeter meter(std::move(job_suites));
    SweepProgress progress;
    if (!o.json && meter.enabled()) {
        progress = [&meter](std::size_t done, std::size_t total,
                            std::size_t index) {
            meter.report(done, total, index);
        };
    }

    // Checkpoint/resume journal: --resume salvages an existing
    // journal and keeps appending to it; --checkpoint starts fresh.
    std::optional<SweepJournal> journal;
    if (!o.resume.empty())
        journal.emplace(SweepJournal::resume(o.resume));
    else if (!o.checkpoint.empty())
        journal.emplace(SweepJournal::create(o.checkpoint));

    // Bind up front (the engine then skips its lazy bind) so the
    // salvage warnings and the resume summary print BEFORE the
    // sweep runs. The summary prints unconditionally for --resume:
    // a matching-spec journal with zero salvaged records used to
    // re-run everything silently, leaving logs with no evidence the
    // resume found nothing -- "resuming: 0/N journaled" makes that
    // state auditable.
    std::size_t bind_warnings = 0;
    if (journal) {
        try {
            journal->bind(jobs);
        } catch (const JournalError &e) {
            for (const std::string &warning : journal->warnings())
                std::fprintf(stderr, "journal: %s\n",
                             warning.c_str());
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        for (const std::string &warning : journal->warnings())
            std::fprintf(stderr, "journal: %s\n", warning.c_str());
        bind_warnings = journal->warnings().size();
        if (!o.resume.empty()) {
            std::fprintf(stderr, "journal: resuming: %zu/%zu "
                         "journaled job(s) from '%s'\n",
                         journal->doneCount(), jobs.size(),
                         journal->path().c_str());
        }
    }

    std::vector<RunResult> results;
    int exit_code = 0;
    if (!o.server.empty()) {
        // Client mode: the daemon runs the jobs; the report below
        // is assembled from the streamed results exactly as a local
        // sweep would and is byte-identical to one.
        serve::ClientOutcome outcome;
        std::string error;
        serve::RetryPolicy retry;
        retry.attempts = o.retries > 0 ? o.retries : 1;
        const bool served = serve::runSweepOnServer(
            o.server, jobs, outcome, error, progress, retry);
        meter.finish();
        if (serve::FaultInjector::global().enabled()) {
            // Let harnesses assert the client-side plan fired.
            std::fprintf(
                stderr, "client fault sites: %s\n",
                serve::FaultInjector::global().statusJson().c_str());
        }
        if (!served) {
            std::fprintf(stderr, "server sweep failed: %s\n",
                         error.c_str());
            return 1;
        }
        if (!o.json) {
            std::fprintf(stderr, "server: ticket %s, %zu job(s), "
                         "%zu cached, %zu shared\n",
                         outcome.ticket.c_str(), jobs.size(),
                         outcome.cached, outcome.shared);
        }
        for (const std::string &failure : outcome.failures) {
            std::fprintf(stderr, "server: job %s\n",
                         failure.c_str());
            exit_code = 1;
        }
        results = std::move(outcome.results);
    } else {
        try {
            results = journal
                ? runSweep(jobs, *journal, o.jobs, progress)
                : runSweep(jobs, o.jobs, progress);
            meter.finish();
        } catch (const JournalError &e) {
            // Journal I/O failed outright (unwritable path).
            meter.finish();
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        } catch (const SweepError &e) {
            meter.finish();
            // Per-job failures were isolated by the engine: report
            // the summary (job indices + reasons), salvage the
            // completed runs (failed ones carry "valid": false in
            // the report), and fail the invocation.
            std::fprintf(stderr, "\n%s\n", e.what());
            results = e.results();
            exit_code = 1;
        }
    }
    if (journal) {
        // Appends that failed during the sweep; the end-of-sweep
        // compaction normally heals them. If it could not, the sweep
        // completed but its checkpoint is not durable -- fail loudly
        // so CI never trusts a bad journal.
        for (std::size_t i = bind_warnings;
             i < journal->warnings().size(); ++i)
            std::fprintf(stderr, "journal: %s\n",
                         journal->warnings()[i].c_str());
        if (journal->appendFailures() > 0) {
            std::fprintf(stderr, "journal: %llu record(s) missing "
                         "from '%s'\n",
                         static_cast<unsigned long long>(
                             journal->appendFailures()),
                         journal->path().c_str());
            exit_code = 1;
        }
    }

    const std::uint64_t insts = jobs.empty() ? 0 : jobs.front().insts;
    if (o.json || !o.out.empty()) {
        const std::string report =
            sweepReportJson(results, insts, baseline);
        if (!o.out.empty()) {
            // The earlier string comparison cannot see through
            // "./x" vs "x" or symlinks; compare inodes before the
            // truncating open so the report can never clobber the
            // journal it just earned.
            struct stat out_stat, journal_stat;
            if (journal &&
                ::stat(o.out.c_str(), &out_stat) == 0 &&
                ::stat(journal->path().c_str(),
                       &journal_stat) == 0 &&
                out_stat.st_dev == journal_stat.st_dev &&
                out_stat.st_ino == journal_stat.st_ino) {
                std::fprintf(stderr, "--out '%s' is the journal "
                             "file; refusing to overwrite it\n",
                             o.out.c_str());
                return 1;
            }
            if (!writeTextFile(o.out, report))
                return 1;
        }
        if (o.json) {
            std::fputs(report.c_str(), stdout);
            return exit_code;
        }
        // --out without --json: file written, table still prints.
    }

    TextTable table;
    table.header({"bench", "config", "IPC", "cycles", "mw/10k",
                  "dly%"});
    for (const RunResult &r : results) {
        table.row({r.benchmark, r.config, fmtDouble(r.sim.ipc(), 3),
                   std::to_string(r.sim.cycles),
                   fmtDouble(r.sim.mispredictsPer10kLoads(), 1),
                   fmtPct(r.sim.pctLoadsDelayed())});
    }
    std::fputs(table.render().c_str(), stdout);
    return exit_code;
}

/** Read and strict-parse @p path into @p doc; complains on failure. */
bool
readJsonFile(const std::string &path, JsonValue &doc)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return false;
    }
    std::string text, error;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    if (!parseJson(text, doc, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

/** Strict-parse @p path and check the nosq-sweep-v2 schema. */
int
runValidateMode(const std::string &path)
{
    JsonValue doc;
    std::string error;
    if (!readJsonFile(path, doc))
        return 1;
    if (!validateSweepReport(doc, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("%s: valid nosq-sweep-v2 (%zu runs)\n", path.c_str(),
                doc.find("runs")->array.size());
    return 0;
}

/** Print a paper table rendered from the sweep report @p o.file. */
int
runRenderMode(const Options &o)
{
    JsonValue doc;
    if (!readJsonFile(o.file, doc))
        return 1;
    try {
        std::uint64_t insts = 0;
        const std::vector<RunResult> runs = loadSweepReport(doc, insts);
        std::fputs(renderPaperTable(o.table, runs, insts).c_str(),
                   stdout);
        return 0;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", o.file.c_str(), e.what());
        return 1;
    }
}

/**
 * --validate-trace: strict-check a --trace-pipe export. The file
 * must parse as JSON, carry a traceEvents array whose every event
 * has the emitted shape (name/cat/ph/ts/pid/tid/args.seq), and its
 * timestamps must be nondecreasing in file order. Prints per-name
 * event counts so harnesses can assert specific events appeared.
 */
int
runValidateTraceMode(const std::string &path)
{
    JsonValue doc;
    if (!readJsonFile(path, doc))
        return 1;
    if (doc.kind != JsonValue::Kind::Object) {
        std::fprintf(stderr, "%s: not a JSON object\n",
                     path.c_str());
        return 1;
    }
    const JsonValue *events = doc.find("traceEvents");
    if (events == nullptr ||
        events->kind != JsonValue::Kind::Array) {
        std::fprintf(stderr, "%s: missing traceEvents array\n",
                     path.c_str());
        return 1;
    }
    std::map<std::string, std::uint64_t> by_name;
    double prev_ts = -1.0;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        auto bad = [&](const char *what) {
            std::fprintf(stderr, "%s: event %zu: %s\n",
                         path.c_str(), i, what);
            return 1;
        };
        if (e.kind != JsonValue::Kind::Object)
            return bad("not an object");
        const JsonValue *name = e.find("name");
        if (name == nullptr ||
            name->kind != JsonValue::Kind::String)
            return bad("missing 'name'");
        const JsonValue *cat = e.find("cat");
        if (cat == nullptr || cat->kind != JsonValue::Kind::String)
            return bad("missing 'cat'");
        const JsonValue *ph = e.find("ph");
        if (ph == nullptr || ph->kind != JsonValue::Kind::String ||
            ph->string != "i")
            return bad("'ph' is not \"i\"");
        const JsonValue *ts = e.find("ts");
        if (ts == nullptr || ts->kind != JsonValue::Kind::Number)
            return bad("missing numeric 'ts'");
        if (ts->number < prev_ts)
            return bad("timestamps go backward");
        prev_ts = ts->number;
        const JsonValue *args = e.find("args");
        if (args == nullptr ||
            args->kind != JsonValue::Kind::Object ||
            args->find("seq") == nullptr)
            return bad("missing 'args.seq'");
        ++by_name[name->string];
    }
    std::printf("%s: valid chrome trace (%zu event(s), "
                "timestamps nondecreasing)\n",
                path.c_str(), events->array.size());
    for (const auto &[name, count] : by_name)
        std::printf("  %s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
    return 0;
}

/** One benchmark under one configuration; prints the stats table. */
int
runSingleMode(const Options &o)
{
    // A multicore kernel name runs an N-core System (default 2
    // cores); a profile name runs single-core unless --cores > 1
    // asks for a homogeneous System.
    const bool mc_kernel = isMulticoreWorkload(o.bench);
    const BenchmarkProfile *profile =
        mc_kernel ? nullptr : findProfile(o.bench);
    if (!mc_kernel && profile == nullptr) {
        std::fprintf(stderr, "unknown benchmark '%s' "
                     "(try --list)\n", o.bench.c_str());
        return 1;
    }
    const unsigned num_cores = o.cores.value_or(mc_kernel ? 2u : 1u);
    if (mc_kernel && num_cores < 2) {
        std::fprintf(stderr, "multicore kernel '%s' needs "
                     "--cores >= 2\n", o.bench.c_str());
        return 1;
    }

    UarchParams params =
        makeParams(o.mode.value_or(LsuMode::Nosq), o.window == 256u);
    applyMachineFlags(o, params);
    const std::uint64_t warmup = o.warmup.value_or(o.insts / 3);

    std::printf("benchmark %s | %s | window %u | cores %u | "
                "delay %s | SVW %s | mshrs %u | prefetch %u | "
                "bus %s\n\n",
                o.bench.c_str(), lsuModeName(params.mode),
                o.window.value_or(128u), num_cores,
                params.nosqDelay ? "on" : "off",
                params.svwFilter ? "on" : "off", params.memsys.mshrs,
                params.memsys.prefetchDegree,
                params.memsys.busContention ? "occupancy" : "flat");

    // Pipeline trace export: parse and open the sink before the run
    // so a bad spec or unwritable path fails before cycles are
    // spent. Null tracer = byte-identical default behaviour.
    std::optional<obs::PipeTracer> tracer;
    if (!o.trace_pipe.empty()) {
        if (num_cores > 1) {
            std::fprintf(stderr, "--trace-pipe applies only to "
                         "single-core runs\n");
            return 1;
        }
        obs::PipeTraceConfig trace_cfg;
        std::string trace_error;
        if (!obs::parsePipeTraceSpec(o.trace_pipe, trace_cfg,
                                     trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
        tracer.emplace(std::move(trace_cfg));
        if (!tracer->open(trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
    }

    SimResult r;
    if (num_cores > 1) {
        std::vector<std::shared_ptr<const Program>> programs;
        try {
            if (mc_kernel) {
                programs = buildMulticorePrograms(
                    o.bench, num_cores,
                    o.queue_depth.value_or(default_queue_depth),
                    o.seed);
            } else {
                programs.reserve(num_cores);
                for (unsigned i = 0; i < num_cores; ++i) {
                    programs.push_back(ProgramCache::global().get(
                        *profile, o.seed + i));
                }
            }
            System system(params, std::move(programs));
            r = system.run(o.insts, warmup);
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    } else {
        OooCore core(params,
                     ProgramCache::global().get(*profile, o.seed));
        if (tracer)
            core.setTracer(&*tracer);
        r = o.sampling.enabled ? core.runSampled(o.sampling)
                               : core.run(o.insts, warmup);
    }

    if (tracer) {
        std::string trace_error;
        if (!tracer->finish(trace_error)) {
            std::fprintf(stderr, "--trace-pipe: %s\n",
                         trace_error.c_str());
            return 1;
        }
        std::fprintf(stderr, "trace: %llu event(s) -> '%s'\n",
                     static_cast<unsigned long long>(
                         tracer->events()),
                     tracer->config().path.c_str());
    }

    TextTable table;
    table.header({"statistic", "value"});
    auto row = [&](const char *name, const std::string &value) {
        table.row({name, value});
    };
    auto count = [&](const char *name, std::uint64_t v) {
        row(name, std::to_string(v));
    };
    count("instructions", r.insts);
    count("cycles", r.cycles);
    row("IPC", fmtDouble(r.ipc(), 3));
    count("loads", r.loads);
    count("stores", r.stores);
    count("branches", r.branches);
    row("comm loads %", fmtPct(r.pctCommLoads()));
    row("partial-word comm %", fmtPct(r.pctPartialCommLoads()));
    count("bypassed loads", r.bypassedLoads);
    count("shift&mask uops", r.shiftUops);
    count("delayed loads", r.delayedLoads);
    count("bypass mispredicts", r.bypassMispredicts);
    row("mispredicts /10k loads",
        fmtDouble(r.mispredictsPer10kLoads(), 2));
    count("load re-executions", r.reexecLoads);
    row("re-execution rate %", fmtDouble(100 * r.reexecRate(), 3));
    count("load value flushes", r.loadFlushes);
    count("dcache reads (core)", r.dcacheReadsCore);
    count("dcache reads (backend)", r.dcacheReadsBackend);
    count("dcache writes", r.dcacheWrites);
    count("branch mispredicts", r.branchMispredicts);
    count("SQ forwards", r.sqForwards);
    count("SQ partial-overlap stalls", r.sqStalls);
    count("SSN wrap drains", r.ssnWrapDrains);
    count("L1I hits", r.l1iHits);
    count("L1I misses", r.l1iMisses);
    count("L1D hits", r.l1dHits);
    count("L1D misses", r.l1dMisses);
    count("L1D writebacks", r.l1dWritebacks);
    row("L1D MPKI", fmtDouble(r.l1dMpki(), 2));
    count("L2 hits", r.l2Hits);
    count("L2 misses", r.l2Misses);
    count("L2 writebacks", r.l2Writebacks);
    row("L2 MPKI", fmtDouble(r.l2Mpki(), 2));
    count("DTLB misses", r.dtlbMisses);
    count("ITLB misses", r.itlbMisses);
    row("avg L1D miss latency", fmtDouble(r.avgMissLatency(), 1));
    count("MSHR secondary merges", r.mshrMerges);
    count("MSHR occupancy stalls", r.mshrStalls);
    count("prefetch fills", r.prefIssued);
    count("prefetch useful", r.prefUseful);
    row("prefetch accuracy %",
        fmtDouble(100 * r.prefetchAccuracy(), 1));
    count("cycles skipped (events)", r.skippedCycles);
    if (r.multicore) {
        count("cores", r.numCores);
        count("coherence invalidations", r.cohInvalidations);
        count("cache-to-cache transfers", r.cohC2cTransfers);
        count("coherence upgrade misses", r.cohUpgradeMisses);
        for (std::size_t i = 0; i < r.perCore.size(); ++i) {
            const SimResult::PerCore &pc = r.perCore[i];
            const double ipc = pc.cycles
                ? double(pc.insts) / double(pc.cycles) : 0.0;
            table.row({"core " + std::to_string(i) +
                           " insts/IPC/bypassed",
                       std::to_string(pc.insts) + " / " +
                           fmtDouble(ipc, 3) + " / " +
                           std::to_string(pc.bypassedLoads)});
        }
    }
    if (r.sampled) {
        count("sample intervals", r.sampleIntervals);
        count("fast-forwarded insts", r.sampleFfInsts);
        row("sampled IPC mean", fmtDouble(r.sampleIpcMean, 3));
        row("sampled IPC 95% CI +/-",
            fmtDouble(r.sampleIpcCi95, 3));
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Honour NOSQ_FAULT_PLAN before anything touches a syscall
    // seam, so chaos harnesses can exercise the client too.
    {
        std::string fault_error;
        if (!serve::FaultInjector::global().configureFromEnv(
                fault_error)) {
            std::fprintf(stderr, "nosq_sim: %s\n",
                         fault_error.c_str());
            return 2;
        }
    }

    Options o;
    const flags::Parser parser = makeParser(o);
    const flags::Parsed parsed = parser.parse({argv + 1, argv + argc});
    if (parsed.status != flags::Parsed::Status::Ok)
        return parser.finish(parsed, "", 1);

    switch (parsed.mode) {
      case List:
        listProfiles();
        return 0;
      case Validate:
        return runValidateMode(o.file);
      case ValidateTrace:
        return runValidateTraceMode(o.file);
      case Render:
        return runRenderMode(o);
      case Perf: {
        const PerfReport report = runPerfHarness(
            o.insts, o.warmup.value_or(~std::uint64_t(0)));
        const std::string json = perfReportJson(report);
        if (!o.out.empty() && !writeTextFile(o.out, json))
            return 1;
        std::fputs(json.c_str(), stdout);
        return 0;
      }
      case ServerStatus:
      case ServerMetrics: {
        const bool status = parsed.mode == ServerStatus;
        if (o.server.empty()) {
            std::fprintf(stderr, "%s requires --server SOCK\n",
                         status ? "--server-status"
                                : "--server-metrics");
            return 1;
        }
        std::string reply, error;
        if (!(status ? serve::fetchServerStatus(o.server, reply, error)
                     : serve::fetchServerMetrics(o.server, reply,
                                                 error))) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        std::fputs((status ? reply + "\n" : reply).c_str(), stdout);
        return 0;
      }
      default:
        break;
    }

    // Rules between flags that depend on their values.
    const bool sweep = parsed.mode == Sweep;
    if (o.history.size() > 1 &&
        !(sweep && o.kind == SweepKind::History)) {
        std::fprintf(stderr, "--history takes a comma list only "
                     "with --sweep=history\n");
        return 1;
    }
    if (!o.capacities.empty() &&
        !(sweep && o.kind == SweepKind::Capacity)) {
        std::fprintf(stderr, "--capacities applies only to "
                     "--sweep=capacity\n");
        return 1;
    }
    // Multi-core runs: sampled simulation is single-core only, and
    // --queue-depth only shapes the producer/consumer kernels.
    const bool kernel_run = sweep ? o.kind == SweepKind::Multicore
                                  : isMulticoreWorkload(o.bench);
    if (o.sampling.enabled && (kernel_run || o.cores > 1u)) {
        std::fprintf(stderr, "--sample is single-core only\n");
        return 1;
    }
    if (o.queue_depth && !kernel_run) {
        std::fprintf(stderr, "--queue-depth applies only to "
                     "multicore kernel runs\n");
        return 1;
    }
    if (!o.server.empty() &&
        (!o.checkpoint.empty() || !o.resume.empty())) {
        std::fprintf(stderr, "--server and --checkpoint/--resume "
                     "are mutually exclusive (journaling is "
                     "server-side: the daemon owns a persistent "
                     "result store)\n");
        return 1;
    }
    if (!o.checkpoint.empty() && !o.resume.empty()) {
        std::fprintf(stderr, "--checkpoint and --resume are "
                     "mutually exclusive (--resume keeps "
                     "journaling to its own file)\n");
        return 1;
    }
    if (!o.out.empty() &&
        (o.out == o.checkpoint || o.out == o.resume)) {
        std::fprintf(stderr, "--out must not name the journal "
                     "file\n");
        return 1;
    }

    if (sweep)
        return runSweepMode(o);
    if (o.bench.empty()) {
        std::fputs(parser.help().c_str(), stdout);
        return 1;
    }
    return runSingleMode(o);
}
