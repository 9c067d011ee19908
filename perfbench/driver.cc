/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 * One process that links libnosq and times calls to its public entry
 * points on one of two closed-loop workloads (one client submits the
 * whole job list and waits for every result):
 *
 *   fig2-local        the paper's Figure 2 sweep (47 Table 5 profiles
 *                     x the five 128-entry-window bars) via runSweep()
 *   memsys-multicore  the memory-hierarchy grid over four
 *                     memory-bound profiles, the multicore queue
 *                     kernels, and sampled stall-heavy runs, with a
 *                     fresh SweepJournal checkpoint per pass
 *
 * --trace 0 prints the end-to-end metrics from untraced passes. Their
 * times are in reference seconds: a host-speed probe (HostProbe) runs
 * between every two jobs, and each job's time is scaled by how fast
 * the host ran the probe around it. --trace 1 prints the per-layer
 * metrics: it repeats one untraced pass, runs a traced pass whose
 * spans wrap each call into a layer, serves a slice of the jobs from
 * a nosq_sweepd, and reports the traced/untraced gap as the tracing
 * overhead. Every run checks its outputs (the correctness gate, see
 * Gate) and prints the result as one JSON object on the last line of
 * stdout; the host record is the line before it, and a readable
 * table goes to stderr.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchlib.hh"
#include "memsys/hierarchy.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/job_store.hh"
#include "sim/journal.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workload/functional.hh"
#include "workload/profiles.hh"
#include "workload/program_cache.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace nosq;
using namespace nosq::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Fixed run length, independent of NOSQ_SIM_INSTS. */
constexpr std::uint64_t bench_insts = 100000;
constexpr std::uint64_t bench_warmup = bench_insts / 3;

/**
 * HostProbe slice time, in seconds, that defines reference speed: a
 * host that runs a slice in this time turns one wall second into one
 * reference second. It is about the median slice time on the 4-vCPU
 * Xeon VM the benchmark was tuned on.
 */
constexpr double cal_nominal_s = 1.7e-3;

/** Setup repetitions per run; setup_s is their median. */
constexpr int setup_reps = 11;
/** Warm resubmissions per traced run; the warm metrics are their
 * median. Each takes only milliseconds, so many are needed. */
constexpr int warm_reps = 31;

/**
 * Sweep workers, in process and in the daemon. One: on a shared host,
 * parallel workers slow one another by an amount that changes from
 * run to run, and runCalibrated() needs the jobs on one thread.
 */
constexpr unsigned sweep_workers = 1;

const char *const workload_names[] = {"fig2-local", "memsys-multicore"};
const char *const memsys_profiles[] = {"mcf", "art", "equake", "ammp"};

// --- options ----------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string sweepd;
    std::string workdir;
    std::string commit = "unknown";
};

bool
parseU64(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0' || *text == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return errno == 0 && *end == '\0';
}

bool
parseArgs(int argc, char **argv, Options &opt, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (value == nullptr) {
            error = flag + " needs a value";
            return false;
        }
        ++i;
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (!parseU64(value, opt.seed)) {
                error = "bad --seed";
                return false;
            }
        } else if (flag == "--seconds") {
            if (!parseU64(value, n) || n == 0 || n > 3600) {
                error = "bad --seconds";
                return false;
            }
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0) {
                error = "--trace takes 0 or 1";
                return false;
            }
            opt.trace = value[0] == '1';
        } else if (flag == "--sweepd") {
            opt.sweepd = value;
        } else if (flag == "--workdir") {
            opt.workdir = value;
        } else if (flag == "--commit") {
            opt.commit = value;
        } else {
            error = "unknown flag " + flag;
            return false;
        }
    }
    if (std::find(std::begin(workload_names), std::end(workload_names),
                  opt.workload) == std::end(workload_names)) {
        error = "unknown --workload '" + opt.workload + "'";
        return false;
    }
    if (opt.sweepd.empty() || opt.sweepd[0] != '/' ||
        opt.workdir.empty()) {
        error = "--sweepd (absolute) and --workdir are required";
        return false;
    }
    return true;
}

// --- workloads --------------------------------------------------------------

/** The sq-perfect-normalized Figure 2 bars, 128-entry window. */
std::vector<SweepJob>
fig2Jobs(const std::vector<const BenchmarkProfile *> &profiles,
         std::uint64_t seed)
{
    SweepSpec spec;
    spec.benchmarks = profiles;
    spec.configs = paperFigureConfigs(/*big_window=*/false);
    spec.insts = bench_insts;
    spec.warmup = bench_warmup;
    spec.seed = seed;
    return buildJobs(spec);
}

/**
 * The stall-heavy machine of `nosq_sim --perf`'s extension rows:
 * tiny caches in front of a slow memory, one MSHR, no prefetch, so
 * almost every cycle is a quiescent wait.
 */
UarchParams
stallHeavyParams()
{
    UarchParams params = makeParams(LsuMode::Nosq, false);
    params.memsys.memoryLatency = 2500;
    params.memsys.l2.sizeBytes = 32 * 1024;
    params.memsys.l2.hitLatency = 30;
    params.memsys.l1d.sizeBytes = 4 * 1024;
    params.memsys.mshrs = 1;
    params.memsys.prefetchDegree = 0;
    return params;
}

/** The `stall-sampled` schedule of `nosq_sim --perf`. */
SamplingParams
stallSampledSchedule()
{
    SamplingParams sp;
    sp.enabled = true;
    sp.ffLength = 18000;
    sp.warmupLength = 1000;
    sp.interval = 1000;
    sp.intervals = 100;
    return sp;
}

std::vector<const BenchmarkProfile *>
memsysProfilePtrs()
{
    std::vector<const BenchmarkProfile *> out;
    for (const char *name : memsys_profiles)
        out.push_back(findProfile(name));
    return out;
}

struct Workload
{
    std::vector<SweepJob> jobs;
    /**
     * The five Figure 2 bars over the workload's programs: the rows
     * the ideal-IPC error and the nosq.* / lsu.* ratios are taken
     * from. Empty when @c jobs already are those rows (fig2-*).
     */
    std::vector<SweepJob> reference;
    bool journaled = false;
};

Workload
makeWorkload(const Options &opt)
{
    Workload w;
    if (opt.workload == "fig2-local") {
        w.jobs = fig2Jobs(allProfilePtrs(), opt.seed);
        return w;
    }
    // The longest jobs (sampled, then multicore) go first, so the
    // pass does not end waiting on one of them.
    for (const BenchmarkProfile *p : memsysProfilePtrs()) {
        SweepJob job;
        job.profile = p;
        job.params = stallHeavyParams();
        job.config = "stall-sampled";
        job.seed = opt.seed;
        job.sampling = stallSampledSchedule();
        w.jobs.push_back(std::move(job));
    }
    const std::vector<SweepJob> mc = buildMulticoreJobs(
        {"spsc-ring", "mpsc-queue"}, multicoreConfigs(), bench_insts,
        bench_warmup, opt.seed);
    w.jobs.insert(w.jobs.end(), mc.begin(), mc.end());
    SweepSpec spec;
    spec.benchmarks = memsysProfilePtrs();
    spec.configs = memsysConfigs();
    spec.insts = bench_insts;
    spec.warmup = bench_warmup;
    spec.seed = opt.seed;
    const std::vector<SweepJob> grid = buildJobs(spec);
    w.jobs.insert(w.jobs.end(), grid.begin(), grid.end());
    w.reference = fig2Jobs(memsysProfilePtrs(), opt.seed);
    w.journaled = true;
    return w;
}

/** Instructions a job simulates: warm-up plus measured on every
 * core, and for sampled runs every instruction passed through. */
std::uint64_t
simulatedInsts(const SweepJob &job, const SimResult &sim)
{
    if (sim.sampled) {
        return sim.sampleFfInsts +
            (job.sampling.warmupLength + job.sampling.interval) *
            sim.sampleIntervals;
    }
    return sim.insts + job.warmup * std::max(1u, job.cores);
}

bool
isSingleCoreDetailed(const SweepJob &job)
{
    return job.cores <= 1 && !job.sampling.enabled &&
        job.profile != nullptr;
}

// --- correctness gate -------------------------------------------------------

/**
 * The determinism contract, checked on every run. Each job of each
 * pass is attempted once; it fails if its report does not validate,
 * its row is not valid, or its row differs byte for byte from the
 * reference row it must equal (the run's first pass, the local
 * sweep for served jobs, the untraced pass for traced ones).
 */
struct Gate
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void
    check(const std::string &what, const std::vector<RunResult> &rows,
          const std::vector<RunResult> *reference)
    {
        attempted += rows.size();
        std::size_t bad = 0;
        const std::string report = sweepReportJson(rows, bench_insts);
        JsonValue doc;
        std::string error;
        if (!parseJson(report, doc, &error) ||
            !validateSweepReport(doc, &error)) {
            bad = rows.size();
            notes.push_back(what + ": report does not validate: " +
                            error);
        } else if (reference && reference->size() != rows.size()) {
            bad = rows.size();
            notes.push_back(what + ": row count differs");
        } else {
            for (std::size_t i = 0; i < rows.size(); ++i) {
                if (!rows[i].valid ||
                    (reference &&
                     toJson(rows[i]) != toJson((*reference)[i])))
                    ++bad;
            }
            if (reference && bad == 0 &&
                report != sweepReportJson(*reference, bench_insts))
                bad = rows.size();
            if (bad)
                notes.push_back(what + ": " + std::to_string(bad) +
                                " row(s) invalid or not identical");
        }
        failed += bad;
    }

    /** A non-job check (trace file, probe checksum). */
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            notes.push_back(what);
        }
    }
};

// --- local execution --------------------------------------------------------

struct PassTime
{
    double wall_s = 0.0;
    double first_s = 0.0;
};

std::vector<RunResult>
runLocal(const std::vector<SweepJob> &jobs, unsigned workers,
         PassTime &time, SweepJournal *journal = nullptr)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<RunResult> results;
    try {
        results = journal ? runSweep(jobs, *journal, workers)
                          : runSweep(jobs, workers);
    } catch (const SweepError &e) {
        results = e.results();
    }
    time.wall_s = secondsSince(t0);
    return results;
}

/**
 * The host-speed probe: times a slice of calibrationWork() between
 * pieces of simulator work, so that each piece can be put in
 * reference seconds (toReferenceSeconds). A slice runs the work twice
 * and times the second run, so what the simulator left in the caches
 * does not count. Every slice must give the same checksum.
 */
class HostProbe
{
  public:
    /** Time one slice; @return its seconds. */
    double
    slice()
    {
        const std::uint64_t warm = calibrationWork(1);
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t sum = calibrationWork(1);
        const double s = secondsSince(t0);
        if (sum != warm || (!slices_s.empty() && sum != checksum))
            deterministic = false;
        checksum = sum;
        slices_s.push_back(s);
        return s;
    }

    bool deterministic = true;
    /** Every slice timed, for the host record. */
    std::vector<double> slices_s;

  private:
    std::uint64_t checksum = 0;
};

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total;
}

/** A pass timed against the host-speed probe. */
struct CalibratedTime
{
    /** The sweep's own host time; the probe's slices are left out. */
    double wall_s = 0.0;
    /** wall_s with each job in reference seconds. */
    double ref_s = 0.0;
};

/**
 * runSweep() on one worker with a HostProbe slice before the first
 * job and after every job: with one worker the jobs run on this
 * thread and the progress callback comes between them.
 */
std::vector<RunResult>
runCalibrated(const std::vector<SweepJob> &jobs, HostProbe &probe,
              CalibratedTime &time, SweepJournal *journal = nullptr)
{
    std::vector<double> work_s;
    std::vector<double> cal_s{probe.slice()};
    Clock::time_point mark = Clock::now();
    const SweepProgress progress = [&](std::size_t, std::size_t,
                                       std::size_t) {
        work_s.push_back(secondsSince(mark));
        cal_s.push_back(probe.slice());
        mark = Clock::now();
    };
    std::vector<RunResult> results;
    try {
        results = journal ? runSweep(jobs, *journal, sweep_workers, progress)
                          : runSweep(jobs, sweep_workers, progress);
    } catch (const SweepError &e) {
        results = e.results();
    }
    // What runSweep() does after the last callback joins the last job.
    if (!work_s.empty())
        work_s.back() += secondsSince(mark);
    time.wall_s = sum(work_s);
    time.ref_s = sum(toReferenceSeconds(work_s, cal_s, cal_nominal_s));
    return results;
}

/** Distinct (profile, seed) programs a job list synthesizes. */
std::vector<std::pair<const BenchmarkProfile *, std::uint64_t>>
programKeys(const std::vector<SweepJob> &jobs)
{
    std::set<std::pair<std::string, std::uint64_t>> seen;
    std::vector<std::pair<const BenchmarkProfile *, std::uint64_t>> keys;
    for (const SweepJob &job : jobs) {
        if (!job.profile)
            continue;
        for (unsigned i = 0; i < std::max(1u, job.cores); ++i) {
            if (seen.emplace(job.profile->name, job.seed + i).second)
                keys.emplace_back(job.profile, job.seed + i);
        }
    }
    return keys;
}

/** Synthesize every program into an emptied ProgramCache. */
double
synthesizeAll(
    const std::vector<std::pair<const BenchmarkProfile *, std::uint64_t>>
        &keys,
    Tracer *tracer, std::vector<double> *per_program_ms)
{
    ProgramCache::global().clear();
    const Clock::time_point t0 = Clock::now();
    for (const auto &[profile, seed] : keys) {
        const Clock::time_point p0 = Clock::now();
        {
            ScopedSpan span(tracer, "workload.synth", 0, 0);
            ProgramCache::global().get(*profile, seed);
        }
        if (per_program_ms)
            per_program_ms->push_back(1e3 * secondsSince(p0));
    }
    return secondsSince(t0);
}

struct JobTime
{
    double start_s = 0.0;
    double end_s = 0.0;
};

/**
 * The traced pass: a worker pool equivalent to runSweep()'s (jobs
 * claimed in index order) calling runSweepJob() directly, so each
 * job gets a span tree: sim.job -> the simulation itself (ooo.run
 * for a single detailed core, sim.sampled, sim.system for
 * multicore). With a null @p tracer the same pool runs untraced,
 * which is what the tracing overhead is measured against.
 */
std::vector<RunResult>
runTraced(const std::vector<SweepJob> &jobs, unsigned workers,
          Tracer *tracer, std::uint64_t job_base,
          std::vector<JobTime> &times, double &wall_s)
{
    std::vector<RunResult> results(jobs.size());
    times.assign(jobs.size(), JobTime());
    std::atomic<std::size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    ScopedSpan pass(tracer, "sim.pass", 0, 0);
    const std::uint64_t pass_id = pass.id();
    auto work = [&]() {
        for (std::size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
            const SweepJob &job = jobs[i];
            const std::uint64_t job_id = job_base + i + 1;
            times[i].start_s = secondsSince(t0);
            {
                ScopedSpan span(tracer, "sim.job", pass_id, job_id);
                try {
                    const char *layer = job.cores > 1 ? "sim.system"
                        : job.sampling.enabled       ? "sim.sampled"
                                                     : "ooo.run";
                    ScopedSpan run(tracer, layer, span.id(), job_id);
                    results[i] = runSweepJob(job);
                } catch (...) {
                    results[i].benchmark = job.profile
                        ? job.profile->name : job.benchmark;
                    results[i].config = job.config;
                    results[i].valid = false;
                }
            }
            times[i].end_s = secondsSince(t0);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    wall_s = secondsSince(t0);
    return results;
}

/** Write every result into a fresh checkpoint journal. */
std::vector<double>
writeJournal(const std::string &path, const std::vector<SweepJob> &jobs,
             const std::vector<RunResult> &results, Tracer *tracer)
{
    std::remove(path.c_str());
    SweepJournal journal = SweepJournal::create(path);
    journal.bind(jobs);
    std::vector<double> ms;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span(tracer, "sim.journal.record", 0, 0);
        journal.record(i, results[i]);
        ms.push_back(1e3 * secondsSince(t0));
    }
    return ms;
}

// --- served execution -------------------------------------------------------

/** A nosq_sweepd child; stopped (and reaped) on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &tag)
        : socket(tag + ".sock"), store(tag + "-store.jsonl")
    {
        std::remove(socket.c_str());
        std::remove(store.c_str());
        const std::string workers = std::to_string(sweep_workers);
        const std::string log = tag + "-daemon.log";
        std::vector<const char *> argv = {
            opt.sweepd.c_str(), "--socket", socket.c_str(), "--store",
            store.c_str(), "--workers", workers.c_str(), "--log",
            log.c_str(), nullptr};
        start = Clock::now();
        pid = fork();
        if (pid == 0) {
            const int devnull = open("/dev/null", O_RDWR);
            if (devnull >= 0) {
                dup2(devnull, STDIN_FILENO);
                dup2(devnull, STDOUT_FILENO);
            }
            execv(argv[0], const_cast<char *const *>(argv.data()));
            _exit(127);
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Poll `status` until it answers; @return seconds since spawn. */
    bool
    waitReady(double &spawn_s, std::string &error)
    {
        if (pid <= 0) {
            error = "fork failed";
            return false;
        }
        while (secondsSince(start) < 60.0) {
            std::string reply;
            if (serve::fetchServerStatus(socket, reply, error)) {
                spawn_s = secondsSince(start);
                return true;
            }
            int status = 0;
            if (waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                error = "nosq_sweepd exited during start-up";
                return false;
            }
            usleep(1000);
        }
        error = "nosq_sweepd did not answer status within 60 s";
        return false;
    }

    /** SIGTERM (drain), then SIGKILL after 30 s; always reaps. */
    void
    stop()
    {
        if (pid <= 0)
            return;
        kill(pid, SIGTERM);
        const Clock::time_point t0 = Clock::now();
        int status = 0;
        while (waitpid(pid, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 30.0) {
                kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                break;
            }
            usleep(2000);
        }
        pid = -1;
        std::remove(socket.c_str());
    }

    const std::string socket;
    const std::string store;

  private:
    Clock::time_point start;
    pid_t pid = -1;
};

struct ServedPass
{
    double spawn_s = 0.0;
    PassTime cold;
    /** Cold-pass deliveries in arrival order: seconds since
     * submit, and the job index delivered. */
    std::vector<double> deliveries_s;
    std::vector<std::size_t> delivered;
    std::vector<RunResult> results;
    std::vector<double> warm_s;
    std::size_t warm_jobs = 0;
    std::size_t warm_cached = 0;
    std::vector<std::vector<RunResult>> warm_results;
    std::string exposition;
};

bool
submit(const std::string &socket, const std::vector<SweepJob> &jobs,
       serve::ClientOutcome &out, PassTime &time, ServedPass *log,
       std::string &error)
{
    const Clock::time_point t0 = Clock::now();
    double first = -1.0;
    const SweepProgress progress = [&](std::size_t, std::size_t,
                                       std::size_t index) {
        const double now = secondsSince(t0);
        if (first < 0.0)
            first = now;
        if (log) {
            log->deliveries_s.push_back(now);
            log->delivered.push_back(index);
        }
    };
    const bool ok =
        serve::runSweepOnServer(socket, jobs, out, error, progress);
    time.wall_s = secondsSince(t0);
    time.first_s = first;
    return ok;
}

/**
 * One daemon life: spawn against an empty store, a cold pass, @p
 * warm warm resubmissions, a metrics scrape and the RSS reading,
 * then a draining stop. With a tracer, the cold pass records a
 * serve.sweep span with one serve.job child per job (submit to
 * delivery) carrying the job id.
 */
bool
runServed(const Options &opt, const std::string &tag,
          const std::vector<SweepJob> &jobs, int warm, Tracer *tracer,
          std::uint64_t job_base, ServedPass &out, std::string &error)
{
    Daemon daemon(opt, tag);
    {
        ScopedSpan span(tracer, "serve.spawn", 0, 0);
        if (!daemon.waitReady(out.spawn_s, error))
            return false;
    }
    serve::ClientOutcome cold;
    {
        ScopedSpan span(tracer, "serve.sweep", 0, 0);
        const double submit_us = tracer ? tracer->nowUs() : 0.0;
        if (!submit(daemon.socket, jobs, cold, out.cold, &out, error))
            return false;
        for (std::size_t k = 0; tracer && k < out.delivered.size(); ++k) {
            Span s;
            s.name = "serve.job";
            s.id = tracer->newId();
            s.parent = span.id();
            s.job = job_base + out.delivered[k] + 1;
            s.tid = threadIndex();
            s.startUs = submit_us;
            s.durUs = 1e6 * out.deliveries_s[k];
            tracer->add(std::move(s));
        }
    }
    // A failed job arrives as an invalid row, which the gate counts.
    out.results = cold.results;
    for (int r = 0; r < warm; ++r) {
        ScopedSpan span(tracer, "serve.warm", 0, 0);
        serve::ClientOutcome again;
        PassTime t;
        if (!submit(daemon.socket, jobs, again, t, nullptr, error))
            return false;
        out.warm_s.push_back(t.wall_s);
        out.warm_jobs += jobs.size();
        out.warm_cached += again.cached;
        out.warm_results.push_back(std::move(again.results));
    }
    {
        ScopedSpan span(tracer, "serve.scrape", 0, 0);
        if (!serve::fetchServerMetrics(daemon.socket, out.exposition,
                                       error))
            return false;
    }
    const Clock::time_point stop0 = Clock::now();
    daemon.stop();
    std::fprintf(stderr,
                 "perfbench: %s daemon: ready %.3f s, first result "
                 "%.3f s, cold %.3f s, %d warm, stop %.3f s\n",
                 tag.c_str(), out.spawn_s, out.cold.first_s,
                 out.cold.wall_s, warm, secondsSince(stop0));
    return true;
}

// --- probes -----------------------------------------------------------------

/** Timed FunctionalSim::step loop; @return MIPS. */
double
functionalMips(const BenchmarkProfile &profile, std::uint64_t seed,
               Tracer *tracer, std::uint64_t &checksum)
{
    const auto program = ProgramCache::global().get(profile, seed);
    FunctionalSim sim(program);
    DynInst inst;
    std::uint64_t n = 0;
    checksum = 0;
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(tracer, "workload.functional", 0, 0);
        while (n < 2000000 && sim.step(inst)) {
            checksum += inst.addr ^ inst.loadValue;
            ++n;
        }
    }
    return static_cast<double>(n) / secondsSince(t0) / 1e6;
}

/**
 * Timed MemHierarchy::dataRead/dataWrite replay of an mcf address
 * stream, as a blocking in-order client, on three grid points.
 * @return host ns per access
 */
double
memsysNsPerAccess(std::uint64_t seed, Tracer *tracer,
                  std::uint64_t &checksum)
{
    const auto program =
        ProgramCache::global().get(*findProfile("mcf"), seed);
    FunctionalSim sim(program);
    std::vector<std::pair<Addr, bool>> stream;
    DynInst inst;
    for (std::uint64_t n = 0; n < 1000000 && sim.step(inst); ++n) {
        if (inst.cls == InstClass::Load || inst.cls == InstClass::Store)
            stream.emplace_back(inst.addr,
                                inst.cls == InstClass::Store);
    }
    const std::vector<SweepConfig> grid = memsysConfigs();
    checksum = 0;
    double ns = 0.0;
    std::uint64_t accesses = 0;
    // First, a middle and the last hierarchy point (each listed
    // twice, sq then nosq, with the same hierarchy).
    for (const std::size_t point :
         {std::size_t{0}, grid.size() / 2, grid.size() - 2}) {
        MemHierarchy mem(grid[point].materialize().memsys);
        Cycle now = 0;
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(tracer, "memsys.replay", 0, 0);
            for (const auto &[addr, is_store] : stream)
                now += is_store ? mem.dataWrite(addr, now)
                                : mem.dataRead(addr, now);
        }
        ns += 1e9 * secondsSince(t0);
        accesses += stream.size();
        checksum += now;
    }
    return accesses ? ns / static_cast<double>(accesses) : 0.0;
}

// --- metrics ----------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Simulated-count metrics shared by both modes. */
struct SimCounts
{
    double ideal_ipc_err_pct = 0.0;
    double comm_err_pp = 0.0;
    std::map<std::string, double> rel_time;
    double geomean_check_err = 0.0;
};

SimCounts
simCounts(const std::vector<RunResult> &ref_rows)
{
    SimCounts out;
    std::vector<std::pair<double, double>> ipc;
    double comm_err = 0.0;
    for (const RunResult &r : ref_rows) {
        if (r.config != "sq-perfect")
            continue;
        const BenchmarkProfile *p = findProfile(r.benchmark);
        ipc.emplace_back(r.sim.ipc(), p->idealIpc);
        comm_err += std::fabs(r.sim.pctCommLoads() - p->pctComm);
    }
    out.ideal_ipc_err_pct = idealIpcErrPct(ipc);
    out.comm_err_pp = ipc.empty() ? 0.0 : comm_err / ipc.size();
    out.rel_time = relTimeGeomeans(ref_rows, "sq-perfect");
    // Cross-check against the engine's overall reduction of the
    // same rows.
    const SweepReductions red = computeReductions(ref_rows, "sq-perfect");
    for (const auto &[config, stats] : red.groups.back().second) {
        const double mine = out.rel_time[config];
        out.geomean_check_err = std::max(
            out.geomean_check_err,
            std::fabs(mine - stats.relTime.geomean) /
                std::max(1e-300, std::fabs(stats.relTime.geomean)));
    }
    return out;
}

double
perKinst(std::uint64_t count, std::uint64_t insts)
{
    return insts ? 1000.0 * static_cast<double>(count) / insts : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer simulated counts over the reference rows (nosq, lsu)
 * and the workload rows (memsys). */
void
countMetrics(std::vector<Metric> &m, const std::vector<RunResult> &ref_rows,
             const std::vector<SweepJob> &jobs,
             const std::vector<RunResult> &rows)
{
    const SimCounts c = simCounts(ref_rows);
    m.push_back({"workload.comm_err_pp", "pp", c.comm_err_pp});
    for (const char *config :
         {"sq-storesets", "nosq-nodelay", "nosq-delay", "nosq-perfect"}) {
        const auto it = c.rel_time.find(config);
        m.push_back({std::string("nosq.rel_time.") + config, "ratio",
                     it == c.rel_time.end() ? 0.0 : it->second});
    }
    SimResult delay, nodelay, sq;
    auto add = [](SimResult &to, const SimResult &from) {
        to.loads += from.loads;
        to.insts += from.insts;
        to.reexecLoads += from.reexecLoads;
        to.loadFlushes += from.loadFlushes;
        to.bypassMispredicts += from.bypassMispredicts;
        to.delayedLoads += from.delayedLoads;
        to.dcacheReadsCore += from.dcacheReadsCore;
        to.dcacheReadsBackend += from.dcacheReadsBackend;
        to.sqForwards += from.sqForwards;
        to.sqStalls += from.sqStalls;
    };
    for (const RunResult &r : ref_rows) {
        if (r.config == "nosq-delay")
            add(delay, r.sim);
        else if (r.config == "nosq-nodelay")
            add(nodelay, r.sim);
        else if (r.config == "sq-storesets")
            add(sq, r.sim);
    }
    m.push_back({"nosq.reexec_per_load", "ratio",
                 ratio(delay.reexecLoads, delay.loads)});
    m.push_back({"nosq.reexec_useful_ratio", "ratio",
                 ratio(delay.loadFlushes, delay.reexecLoads)});
    m.push_back({"nosq.mispredicts_per_10k_loads.delay", "per10k",
                 delay.mispredictsPer10kLoads()});
    m.push_back({"nosq.mispredicts_per_10k_loads.nodelay", "per10k",
                 nodelay.mispredictsPer10kLoads()});
    m.push_back({"nosq.delayed_load_frac", "ratio",
                 ratio(delay.delayedLoads, delay.loads)});
    m.push_back({"nosq.dcache_reads_per_inst", "ratio",
                 ratio(delay.dcacheReadsCore + delay.dcacheReadsBackend,
                       delay.insts)});
    m.push_back({"lsu.sq_forwards_per_kinst", "per1k",
                 perKinst(sq.sqForwards, sq.insts)});
    m.push_back({"lsu.sq_stalls_per_kinst", "per1k",
                 perKinst(sq.sqStalls, sq.insts)});

    SimResult mem, coh;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SimResult &s = rows[i].sim;
        SimResult &to = jobs[i].cores > 1 ? coh : mem;
        to.insts += s.insts;
        to.l1dMisses += s.l1dMisses;
        to.l2Misses += s.l2Misses;
        to.mshrStalls += s.mshrStalls;
        to.prefIssued += s.prefIssued;
        to.prefUseful += s.prefUseful;
        to.cohInvalidations += s.cohInvalidations;
        to.cohC2cTransfers += s.cohC2cTransfers;
    }
    m.push_back({"memsys.l1d_mpki", "per1k", mem.l1dMpki()});
    m.push_back({"memsys.l2_mpki", "per1k", mem.l2Mpki()});
    m.push_back({"memsys.mshr_stalls_per_kinst", "per1k",
                 perKinst(mem.mshrStalls, mem.insts)});
    m.push_back({"memsys.pref_accuracy", "ratio", mem.prefetchAccuracy()});
    m.push_back({"memsys.coh_invalidations_per_kinst", "per1k",
                 perKinst(coh.cohInvalidations, coh.insts)});
    m.push_back({"memsys.coh_c2c_per_kinst", "per1k",
                 perKinst(coh.cohC2cTransfers, coh.insts)});
}

/** Host-time metrics of one traced local pass. */
struct PoolStats
{
    std::vector<double> job_ms;
    std::map<std::string, std::pair<double, std::uint64_t>> config_ns;
    double ticked_ns = 0.0;
    std::uint64_t ticked_cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t cycles = 0;
    double system_ns = 0.0;
    std::uint64_t system_cycles = 0;
    double busy_s = 0.0;
    double wall_s = 0.0;
    double last_start_s = 0.0;
    unsigned workers = 1;

    void
    add(const std::vector<SweepJob> &jobs,
        const std::vector<RunResult> &rows,
        const std::vector<JobTime> &times)
    {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const double s = times[i].end_s - times[i].start_s;
            const SimResult &sim = rows[i].sim;
            job_ms.push_back(1e3 * s);
            busy_s += s;
            last_start_s = std::max(last_start_s, times[i].start_s);
            if (jobs[i].cores > 1) {
                system_ns += 1e9 * s;
                system_cycles += sim.cycles;
            } else if (isSingleCoreDetailed(jobs[i])) {
                auto &c = config_ns[jobs[i].config];
                c.first += 1e9 * s;
                c.second += simulatedInsts(jobs[i], sim);
                // Host time of the measured region only: scale by
                // its share of the simulated instructions.
                ticked_ns += 1e9 * s * ratio(sim.insts,
                                             simulatedInsts(jobs[i], sim));
                ticked_cycles += sim.cycles - sim.skippedCycles;
                skipped += sim.skippedCycles;
                cycles += sim.cycles;
            }
        }
    }
};

/** Timing families: median, p95 and the sample count. */
void
timingMetrics(std::vector<Metric> &m, const std::string &prefix,
              const std::vector<double> &ms)
{
    m.push_back({prefix + "_p50", "ms", median(ms)});
    m.push_back({prefix + "_p95", "ms", quantile(ms, 0.95)});
    m.push_back({prefix + "_count", "count",
                 static_cast<double>(ms.size())});
}

std::string
hostJson(const Options &opt, std::size_t passes, const std::string &wall)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    return std::string("{\"host\": {\"nproc\": ") +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"cpu\": \"" + jsonEscape(cpu) + "\", \"compiler\": \"" +
        jsonEscape(__VERSION__) + "\", \"build_type\": \"" +
        PERFBENCH_BUILD_TYPE + "\", \"commit\": \"" +
        jsonEscape(opt.commit) + "\", \"workers\": " +
        std::to_string(sweep_workers) + "}, \"workload\": \"" +
        opt.workload + "\", \"seed\": " + std::to_string(opt.seed) +
        ", \"trace\": " + (opt.trace ? "1" : "0") + ", \"passes\": " +
        std::to_string(passes) + (wall.empty() ? "" : ", \"wall\": " + wall) +
        "}";
}

void
printResult(const Options &opt, std::size_t passes, const Gate &gate,
            const std::vector<Metric> &metrics, const std::string &wall = "")
{
    for (const std::string &note : gate.notes)
        std::fprintf(stderr, "perfbench: FAILED %s\n", note.c_str());
    std::fprintf(stderr, "perfbench: %s seed %llu, %s, %zu pass(es), "
                 "%llu/%llu failed\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 opt.trace ? "traced" : "untraced", passes,
                 static_cast<unsigned long long>(gate.failed),
                 static_cast<unsigned long long>(gate.attempted));
    std::string out = "{\"correct\": ";
    out += gate.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(gate.attempted) +
        ", \"failed\": " + std::to_string(gate.failed) +
        ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &mt = metrics[i];
        std::fprintf(stderr, "  %-42s %16.6g %s\n", mt.name.c_str(),
                     mt.value, mt.unit.c_str());
        out += (i ? ", \"" : "\"") + mt.name + "\": {\"value\": " +
            jsonNumber(mt.value) + ", \"unit\": \"" + mt.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n%s\n", hostJson(opt, passes, wall).c_str(), out.c_str());
}

/** Run at least two timed passes (the second checks the first), and
 * more while the next one is expected to end no later than half a
 * pass after the budget. */
bool
anotherPass(double elapsed_s, std::size_t passes, double seconds)
{
    if (passes < 2)
        return true;
    const double mean = elapsed_s / static_cast<double>(passes);
    return elapsed_s + mean / 2.0 <= seconds;
}

// --- the two modes ----------------------------------------------------------

int
runUntraced(const Options &opt, const Workload &w)
{
    Gate gate;
    HostProbe probe;

    const auto keys = programKeys(w.jobs);
    std::vector<double> setup_wall;
    std::vector<double> setup_cal{probe.slice()};
    for (int r = 0; r < setup_reps; ++r) {
        setup_wall.push_back(synthesizeAll(keys, nullptr, nullptr));
        setup_cal.push_back(probe.slice());
    }
    const std::vector<double> setup_ref =
        toReferenceSeconds(setup_wall, setup_cal, cal_nominal_s);

    {
        // Untimed warm-up on every twelfth job, which mixes programs
        // and configurations.
        std::vector<SweepJob> slice;
        for (std::size_t i = 0; i < w.jobs.size(); i += 12)
            slice.push_back(w.jobs[i]);
        PassTime t;
        gate.check("warm-up", runLocal(slice, sweep_workers, t), nullptr);
    }

    // The first timed pass gives the rows every later pass must equal.
    std::vector<double> sweep_wall, sweep_ref;
    std::vector<RunResult> first_rows;
    const Clock::time_point t0 = Clock::now();
    while (anotherPass(secondsSince(t0), sweep_ref.size(), opt.seconds)) {
        CalibratedTime t;
        std::vector<RunResult> rows;
        if (w.journaled) {
            std::remove("pass.jsonl");
            SweepJournal journal = SweepJournal::create("pass.jsonl");
            rows = runCalibrated(w.jobs, probe, t, &journal);
        } else {
            rows = runCalibrated(w.jobs, probe, t);
        }
        const bool first = first_rows.empty();
        gate.check("local pass", rows, first ? nullptr : &first_rows);
        std::fprintf(stderr,
                     "perfbench: pass %zu: sweep %.3f s wall, %.3f "
                     "reference s\n",
                     sweep_ref.size() + 1, t.wall_s, t.ref_s);
        if (first)
            first_rows = std::move(rows);
        sweep_wall.push_back(t.wall_s);
        sweep_ref.push_back(t.ref_s);
    }
    gate.expect(probe.deterministic, "host probe checksum differs");
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::vector<RunResult> ref_rows = first_rows;
    if (!w.reference.empty()) {
        PassTime t;
        ref_rows = runLocal(w.reference, sweep_workers, t);
        gate.check("reference rows", ref_rows, nullptr);
    }
    std::uint64_t insts = 0;
    for (std::size_t i = 0; i < first_rows.size(); ++i)
        insts += simulatedInsts(w.jobs[i], first_rows[i].sim);
    const double sweep = median(sweep_ref);
    std::vector<Metric> m = {
        {"setup_s", "s", median(setup_ref)},
        {"sweep_s", "s", sweep},
        {"sim_mips", "MIPS", ratio(static_cast<double>(insts), sweep) / 1e6},
        {"peak_rss_mb", "MB", rss_mb},
        {"ideal_ipc_err_pct", "%", simCounts(ref_rows).ideal_ipc_err_pct},
    };
    // The wall-clock times behind the reference ones, for the record.
    const std::string wall = "{\"setup_wall_s\": " +
        jsonNumber(median(setup_wall)) + ", \"sweep_wall_s\": " +
        jsonNumber(median(sweep_wall)) + ", \"probe_slice_ms\": " +
        jsonNumber(1e3 * median(probe.slices_s)) + "}";
    printResult(opt, sweep_ref.size(), gate, m, wall);
    return 0;
}

/**
 * The tracing overhead: the same pool on a slice of the job list
 * (every twelfth job, which mixes programs and bars), untraced and
 * traced in alternating order, for at least seven pairs and until
 * the run's budget is spent. Short pairs keep each pair's two halves
 * close in time, so a change in the host's speed hits both.
 * @return the median of the pairs' (traced - untraced) / untraced,
 *         in percent
 */
double
traceOverheadPct(const Options &opt, const std::vector<SweepJob> &jobs,
                 const std::vector<RunResult> &expect,
                 Clock::time_point start, Gate &gate)
{
    std::vector<SweepJob> slice;
    std::vector<RunResult> slice_expect;
    for (std::size_t i = 0; i < jobs.size(); i += 12) {
        slice.push_back(jobs[i]);
        slice_expect.push_back(expect[i]);
    }
    std::vector<double> pct;
    for (std::size_t pair = 0;
         pair < 7 || (pair < 15 && secondsSince(start) < opt.seconds);
         ++pair) {
        Tracer scratch;
        double wall[2] = {};
        for (int k = 0; k < 2; ++k) {
            // Even pairs run untraced first, odd pairs traced first.
            const bool traced = (k == 1) == (pair % 2 == 0);
            std::vector<JobTime> times;
            gate.check(traced ? "overhead pair, traced"
                              : "overhead pair, untraced",
                       runTraced(slice, sweep_workers,
                                 traced ? &scratch : nullptr, 0, times,
                                 wall[traced]),
                       &slice_expect);
        }
        pct.push_back(100.0 * (wall[1] - wall[0]) / wall[0]);
    }
    std::fprintf(stderr, "perfbench: trace overhead over %zu pair(s) "
                 "of %zu jobs: min %.2f%%, median %.2f%%, max %.2f%%\n",
                 pct.size(), slice.size(),
                 *std::min_element(pct.begin(), pct.end()), median(pct),
                 *std::max_element(pct.begin(), pct.end()));
    return median(pct);
}

int
runTracedMode(const Options &opt, const Workload &w)
{
    const Clock::time_point start = Clock::now();
    Gate gate;
    Tracer tracer;
    std::vector<Metric> m;
    const auto keys = programKeys(w.jobs);
    const std::vector<SweepJob> &ref_jobs =
        w.reference.empty() ? w.jobs : w.reference;
    const std::uint64_t ref_base = w.jobs.size();

    // workload: synthesis, then one untraced pass from an emptied
    // ProgramCache, whose lookups give the cache's hit ratio. It is
    // also the pass every later one must equal.
    std::vector<double> synth_ms;
    synthesizeAll(keys, &tracer, &synth_ms);
    ProgramCache::global().clear();
    const std::uint64_t hits0 = ProgramCache::global().hits();
    const std::uint64_t misses0 = ProgramCache::global().misses();
    PassTime untraced_time;
    const std::vector<RunResult> untraced =
        runLocal(w.jobs, sweep_workers, untraced_time);
    gate.check("untraced pass", untraced, nullptr);
    const std::uint64_t hits = ProgramCache::global().hits() - hits0;
    const std::uint64_t misses = ProgramCache::global().misses() - misses0;

    // The in-process layers, timed on a traced pass of the workload.
    std::vector<JobTime> times;
    PoolStats pool;
    pool.workers = sweep_workers;
    const std::vector<RunResult> rows =
        runTraced(w.jobs, sweep_workers, &tracer, ref_base, times,
                  pool.wall_s);
    gate.check("traced pass", rows, &untraced);
    pool.add(w.jobs, rows, times);

    // In-process run times of ref_jobs; the served slice is a prefix.
    std::vector<RunResult> ref_rows = untraced;
    std::vector<JobTime> ref_times = times;
    if (!w.reference.empty()) {
        double wall = 0.0;
        ref_rows = runTraced(w.reference, sweep_workers, &tracer,
                             2 * ref_base, ref_times, wall);
        gate.check("reference rows", ref_rows, nullptr);
        PoolStats ref_pool;
        ref_pool.add(w.reference, ref_rows, ref_times);
        pool.config_ns = ref_pool.config_ns;
    }
    if (pool.system_cycles == 0) {
        // No multicore job in this list: time the System on a 2-core
        // spsc-ring pair, so the metric is measured on every workload.
        const std::vector<SweepJob> probe = buildMulticoreJobs(
            {"spsc-ring"}, multicoreConfigs({2}, {8}), bench_insts,
            bench_warmup, opt.seed);
        std::vector<JobTime> pt;
        double wall = 0.0;
        const auto probe_rows = runTraced(probe, sweep_workers, &tracer,
                                          3 * ref_base, pt, wall);
        gate.check("multicore probe", probe_rows, nullptr);
        PoolStats ps;
        ps.add(probe, probe_rows, pt);
        pool.system_ns = ps.system_ns;
        pool.system_cycles = ps.system_cycles;
    }
    ServedPass sp;
    {
        // The serve layer on a ten-job slice of the reference rows,
        // checked against the local results of the same jobs.
        const std::vector<SweepJob> slice(ref_jobs.begin(),
                                          ref_jobs.begin() + 10);
        const std::vector<RunResult> expect(ref_rows.begin(),
                                            ref_rows.begin() + 10);
        std::string error;
        gate.expect(runServed(opt, "probe", slice, warm_reps, &tracer,
                              4 * ref_base, sp, error),
                    "serve probe: " + error);
        gate.check("serve probe", sp.results, &expect);
        for (const auto &warm : sp.warm_results)
            gate.check("serve probe warm", warm, &expect);
    }

    m.push_back({"workload.synth_ms", "ms", median(synth_ms)});
    m.push_back({"workload.synth_count", "count",
                 static_cast<double>(synth_ms.size())});
    m.push_back({"workload.cache_hit_ratio", "ratio",
                 ratio(hits, hits + misses)});
    {
        std::vector<double> mips;
        std::uint64_t sums[3] = {};
        for (std::uint64_t &sum : sums)
            mips.push_back(functionalMips(*ref_jobs.front().profile,
                                          opt.seed, &tracer, sum));
        gate.expect(sums[0] == sums[1] && sums[1] == sums[2],
                    "functional replay not deterministic");
        m.push_back({"workload.functional_mips", "MIPS", median(mips)});
    }

    for (const char *config : {"sq-perfect", "sq-storesets",
                               "nosq-nodelay", "nosq-delay",
                               "nosq-perfect"}) {
        const auto &c = pool.config_ns[config];
        m.push_back({std::string("ooo.ns_per_inst.") + config, "ns",
                     ratio(c.first, static_cast<double>(c.second))});
    }
    m.push_back({"ooo.ns_per_ticked_cycle", "ns",
                 ratio(pool.ticked_ns,
                       static_cast<double>(pool.ticked_cycles))});
    m.push_back({"ooo.skip_ratio", "ratio",
                 ratio(pool.skipped, pool.cycles)});
    timingMetrics(m, "ooo.job_ms", pool.job_ms);

    countMetrics(m, ref_rows, w.jobs, rows);
    {
        std::vector<double> ns;
        std::uint64_t sums[3] = {};
        for (std::uint64_t &sum : sums)
            ns.push_back(memsysNsPerAccess(opt.seed, &tracer, sum));
        gate.expect(sums[0] == sums[1] && sums[1] == sums[2],
                    "memsys replay not deterministic");
        m.push_back({"memsys.ns_per_access", "ns", median(ns)});
    }

    m.push_back({"sim.worker_util", "ratio",
                 ratio(pool.busy_s, pool.workers * pool.wall_s)});
    m.push_back({"sim.tail_ms", "ms",
                 1e3 * (pool.wall_s - pool.last_start_s)});
    m.push_back({"sim.system_ns_per_cycle", "ns",
                 ratio(pool.system_ns,
                       static_cast<double>(pool.system_cycles))});
    timingMetrics(m, "sim.journal_record_ms",
                  writeJournal("traced.jsonl", w.jobs, rows, &tracer));
    {
        // A warm local resubmission: runSweep() resumed from the
        // complete journal answers every job from it.
        std::vector<double> ms;
        for (int r = 0; r < warm_reps; ++r) {
            ScopedSpan span(&tracer, "sim.journal.resume", 0, 0);
            SweepJournal journal = SweepJournal::resume("traced.jsonl");
            PassTime t;
            gate.check("journal resume",
                       runLocal(w.jobs, sweep_workers, t, &journal), &rows);
            ms.push_back(1e3 * t.wall_s);
        }
        m.push_back({"sim.journal_resume_ms", "ms", median(ms)});
    }
    {
        std::vector<double> ms;
        for (int r = 0; r < 5; ++r) {
            const Clock::time_point t0 = Clock::now();
            ScopedSpan span(&tracer, "sim.report", 0, 0);
            const std::string text = sweepReportJson(rows, bench_insts);
            JsonValue doc;
            gate.expect(parseJson(text, doc) && validateSweepReport(doc),
                        "report round trip");
            ms.push_back(1e3 * secondsSince(t0));
        }
        m.push_back({"sim.report_ms", "ms", median(ms)});
    }

    // serve: client-side timings, the daemon's histograms, and an
    // in-process JobStore replay of this run's results.
    std::vector<obs::ExpositionSample> samples;
    std::string error;
    gate.expect(obs::parseExposition(sp.exposition, samples, &error),
                "metrics exposition: " + error);
    double submit_p50 = 0.0, service_p50 = 0.0, service_p95 = 0.0;
    double service_n = 0.0;
    histogramQuantile(samples, "nosq_sweepd_submit_latency_ms", 0.5,
                      submit_p50);
    histogramQuantile(samples, "nosq_sweepd_job_service_time_ms", 0.5,
                      service_p50);
    histogramQuantile(samples, "nosq_sweepd_job_service_time_ms", 0.95,
                      service_p95);
    expositionValue(samples, "nosq_sweepd_job_service_time_ms_count",
                    service_n);
    const double served_jobs = static_cast<double>(sp.results.size());
    // The daemon keeps two jobs in flight per worker, so its service
    // time includes a wait behind the other one; the work itself is
    // timed by the in-process run of the same jobs instead.
    double local_busy_ms = 0.0;
    for (std::size_t i = 0; i < sp.results.size(); ++i)
        local_busy_ms += 1e3 * (ref_times[i].end_s - ref_times[i].start_s);
    std::vector<double> gaps;
    for (std::size_t k = 1; k < sp.deliveries_s.size(); ++k)
        gaps.push_back(1e3 * (sp.deliveries_s[k] - sp.deliveries_s[k - 1]));
    m.push_back({"serve.submit_latency_ms_p50", "ms", submit_p50});
    m.push_back({"serve.first_result_ms", "ms", 1e3 * sp.cold.first_s});
    m.push_back({"serve.service_ms_p50", "ms", service_p50});
    m.push_back({"serve.service_ms_p95", "ms", service_p95});
    m.push_back({"serve.service_count", "count", service_n});
    m.push_back({"serve.dispatch_overhead_ms_per_job", "ms",
                 ratio(sweep_workers * 1e3 * sp.cold.wall_s - local_busy_ms,
                       served_jobs)});
    m.push_back({"serve.delivery_gap_ms_p95", "ms", quantile(gaps, 0.95)});
    {
        serve::JobStore store;
        std::remove("replay-store.jsonl");
        gate.expect(store.open("replay-store.jsonl", error),
                    "store open: " + error);
        std::vector<double> put_ms;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::string fp = jobFingerprint(w.jobs[i]);
            const Clock::time_point t0 = Clock::now();
            ScopedSpan span(&tracer, "serve.store.put", 0, 0);
            store.put(fp, rows[i]);
            put_ms.push_back(1e3 * secondsSince(t0));
        }
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(&tracer, "serve.store.compact", 0, 0);
            gate.expect(store.compact(error), "store compact: " + error);
        }
        m.push_back({"serve.store_put_ms_p95", "ms",
                     quantile(put_ms, 0.95)});
        m.push_back({"serve.store_compact_ms", "ms",
                     1e3 * secondsSince(t0)});
    }
    m.push_back({"serve.warm_ms_per_job", "ms",
                 ratio(1e3 * median(sp.warm_s), served_jobs)});
    m.push_back({"serve.store_hit_ratio", "ratio",
                 ratio(sp.warm_cached, sp.warm_jobs)});

    const std::vector<Span> spans = tracer.spans();
    const std::map<std::string, double> self = selfTimeByNameUs(spans);
    for (const auto &[name, us] : self)
        std::fprintf(stderr, "  self %-30s %12.3f ms\n", name.c_str(),
                     us / 1e3);
    auto selfMs = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / 1e3;
    };
    m.push_back({"sim.pass_self_ms", "ms", selfMs("sim.pass")});
    m.push_back({"sim.job_self_ms", "ms", selfMs("sim.job")});
    m.push_back({"bench.trace_overhead_pct", "%",
                 traceOverheadPct(opt, w.jobs, untraced, start, gate)});

    const SimCounts counts = simCounts(ref_rows);
    gate.expect(counts.geomean_check_err < 1e-9,
                "geomean disagrees with the engine's reduction");

    const std::string trace_path = "trace-" + opt.workload + ".json";
    const std::string trace = chromeTraceJson(spans);
    std::size_t events = 0;
    gate.expect(writeTextFile(trace_path, trace) &&
                    validateChromeTrace(trace, events, error),
                "span file: " + error);
    std::fprintf(stderr, "perfbench: %zu spans -> %s/%s\n", events,
                 opt.workdir.c_str(), trace_path.c_str());

    // The ≥10-beyond tail of each timing family, for the reader.
    for (const auto &[name, ms] :
         {std::make_pair("ooo.job_ms", pool.job_ms),
          std::make_pair("serve.delivery_gap_ms", gaps)}) {
        const double q = tailQuantile(ms.size());
        if (q == 0.0) {
            std::fprintf(stderr, "  tail %-24s n=%zu: too few samples\n",
                         name, ms.size());
            continue;
        }
        std::fprintf(stderr, "  tail %-24s n=%zu p50=%.3f p%.0f=%.3f\n",
                     name, ms.size(), median(ms), 100 * q,
                     quantile(ms, q));
    }
    printResult(opt, 2, gate, m);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string error;
    if (!parseArgs(argc, argv, opt, error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }
#if !defined(__OPTIMIZE__)
    std::fprintf(stderr, "perfbench: refusing to time an unoptimized "
                 "build (%s)\n", PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
        std::fprintf(stderr, "perfbench: refusing to time a Debug build\n");
        return 2;
    }
    if (chdir(opt.workdir.c_str()) != 0) {
        std::fprintf(stderr, "perfbench: cannot enter %s\n",
                     opt.workdir.c_str());
        return 2;
    }
    signal(SIGPIPE, SIG_IGN);
    const Workload w = makeWorkload(opt);
    try {
        return opt.trace ? runTracedMode(opt, w) : runUntraced(opt, w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
