/**
 * @file
 * The benchmark's own arithmetic and tracing: order statistics with
 * the ten-samples-beyond tail rule, geomean, the ideal-IPC error, a
 * Prometheus histogram quantile over the daemon's `metrics`
 * exposition, and an in-memory span recorder with Chrome
 * trace_event export and per-span self time.
 *
 * Everything here is host-side bookkeeping of the benchmark driver;
 * nothing is linked into the simulator.
 */

#ifndef NOSQ_PERFBENCH_BENCHLIB_HH
#define NOSQ_PERFBENCH_BENCHLIB_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "sim/experiment.hh"

namespace nosq {
namespace bench {

// --- order statistics -------------------------------------------------------

/**
 * The @p q quantile (0..1) of @p samples, linearly interpolated
 * between closest ranks. @return 0 for an empty sample.
 */
double quantile(std::vector<double> samples, double q);

/** quantile(samples, 0.5). */
double median(const std::vector<double> &samples);

/**
 * The highest reported tail percentile (99, 95, 90, 75 or 50) that
 * leaves at least ten of @p n samples beyond it, as a fraction;
 * 0 when even the median has fewer than ten beyond it.
 */
double tailQuantile(std::size_t n);

/**
 * Per configuration, the geometric mean over benchmarks of simulated
 * cycles relative to the same benchmark's run under @p baseline (the
 * Figure 2 bars). Benchmarks without a baseline run are skipped.
 */
std::map<std::string, double> relTimeGeomeans(
    const std::vector<RunResult> &rows, const std::string &baseline);

/**
 * Mean absolute relative error, in percent, of simulated IPC against
 * a reference IPC over (simulated, reference) pairs; pairs whose
 * reference is not positive are skipped. 0 for no usable pair.
 */
double idealIpcErrPct(
    const std::vector<std::pair<double, double>> &sim_vs_ref);

// --- host speed -------------------------------------------------------------

/**
 * One fixed unit of ordinary C++ work, the benchmark's yardstick for
 * the host's current speed: keys from a xorshift stream go into a
 * vector and an unordered_map, the vector is sorted, and each key is
 * looked up again behind a data-dependent branch. It uses nothing
 * from the simulator, so its time changes with the host alone.
 *
 * @return a checksum of the work; equal for every call with @p seed
 */
std::uint64_t calibrationWork(std::uint64_t seed);

/**
 * Work intervals in reference seconds. Interval i was timed between
 * calibration slices i and i + 1 (so @p cal_s has one more entry than
 * @p work_s) and is scaled by @p nominal_s over the mean of those two
 * slices: a slice that takes @p nominal_s marks a host at reference
 * speed. @return empty if the sizes do not fit or a slice is not
 * positive
 */
std::vector<double> toReferenceSeconds(const std::vector<double> &work_s,
                                       const std::vector<double> &cal_s,
                                       double nominal_s);

/**
 * Prometheus histogram_quantile() over one histogram of a parsed
 * exposition: the cumulative `<name>_bucket{le="..."}` series is
 * searched for the bucket holding rank @p q * count and the value is
 * interpolated linearly inside it (from 0 for the first bucket).
 * A rank in the +Inf bucket reports the highest finite bound.
 *
 * @return false if the histogram is absent or empty
 */
bool histogramQuantile(const std::vector<obs::ExpositionSample> &samples,
                       const std::string &name, double q, double &out);

/** The value of sample @p name (no labels); false if absent. */
bool expositionValue(const std::vector<obs::ExpositionSample> &samples,
                     const std::string &name, double &out);

// --- spans ------------------------------------------------------------------

/** One completed span. Times are microseconds since the tracer's
 * epoch. A parent of 0 marks a root. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /** Shared by every span of one job; 0 outside any job. */
    std::uint64_t job = 0;
    int tid = 0;
    double startUs = 0.0;
    double durUs = 0.0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children's intervals
 * (children may overlap one another when they run on different
 * threads). Indexed like @p spans.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Sum of selfTimesUs() per span name. */
std::map<std::string, double> selfTimeByNameUs(
    const std::vector<Span> &spans);

/**
 * Thread-safe in-memory span sink. Spans are kept in memory while
 * the benchmark runs and written out once at the end.
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Microseconds since construction. */
    double nowUs() const;

    std::uint64_t
    newId()
    {
        return next_id.fetch_add(1);
    }

    void add(Span span);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    std::chrono::steady_clock::time_point epoch;
    std::atomic<std::uint64_t> next_id{1};
    mutable std::mutex mutex;
    std::vector<Span> recorded; // guarded by mutex
};

/**
 * Records one span on destruction. With a null tracer it does
 * nothing, which is how the untraced runs stay free of tracing.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, std::uint64_t parent,
               std::uint64_t job);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when untraced), for children to name. */
    std::uint64_t
    id() const
    {
        return span.id;
    }

  private:
    Tracer *tracer;
    Span span;
};

/** Small per-thread index for the trace's "tid" field. */
int threadIndex();

/**
 * Chrome trace_event JSON: one complete event ("ph": "X") per span
 * with name, category (the layer: the name up to its first '.'),
 * ts/dur in microseconds, tid, and args carrying span_id, parent_id
 * and job.
 */
std::string chromeTraceJson(const std::vector<Span> &spans);

/**
 * Check a chromeTraceJson() document: parseable, every event a
 * complete event with non-negative ts/dur, unique span ids, every
 * parent id naming a span whose interval contains the child's, and
 * every child sharing its parent's job id (or the parent having
 * none).
 *
 * @param events set to the number of events on success
 * @return true if valid; otherwise @p error explains why
 */
bool validateChromeTrace(const std::string &text, std::size_t &events,
                         std::string &error);

} // namespace bench
} // namespace nosq

#endif // NOSQ_PERFBENCH_BENCHLIB_HH
