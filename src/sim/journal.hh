/**
 * @file
 * Durable sweep checkpoint/resume journal.
 *
 * Long multi-configuration sweeps (the paper's Figures 2-5 regenerated
 * at full instruction counts) can be interrupted -- CI timeouts,
 * preempted machines, plain SIGKILL. The journal makes a sweep
 * restartable: one record per completed SweepJob, flushed per record,
 * so an interrupted sweep loses at most the jobs that were in flight
 * when it died.
 *
 * The file is a ResultLog (sim/result_log.hh), which owns the record
 * format, salvage, appends, compaction and the failure policy. This
 * layer adds only what is specific to journals:
 *
 *   {"schema": "nosq-journal-v1", "spec": "<hex64>", "jobs": N}
 *   {"fp": "<hex64>", "run": {benchmark, suite, config, valid, stats}}
 *   ...
 *
 *  - The header's "spec" fingerprint hashes the whole job list (every
 *    job's own fingerprint, in order), so a journal can never be
 *    resumed against a different sweep spec: bind() refuses with a
 *    JournalError. A header without a spec is discarded like any
 *    other bad header.
 *  - Each record's "fp" is the job fingerprint -- a hash of the full
 *    job tuple (benchmark, suite, config name, seed, instruction
 *    counts, and every UarchParams field) -- which is exactly the
 *    tuple the engine's determinism contract says the result depends
 *    on. A journaled result is therefore bit-identical to what
 *    re-running the job would produce, and a resumed sweep's merged
 *    report is byte-identical to an uninterrupted run's. bind() maps
 *    fingerprints to job indices and drops (with a warning) records
 *    whose fingerprint is unknown to the job list or whose labels
 *    disagree with their job, then compacts the file.
 *  - A flock()ed sidecar refuses concurrent resumes of one journal.
 */

#ifndef NOSQ_SIM_JOURNAL_HH
#define NOSQ_SIM_JOURNAL_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/result_log.hh"
#include "sim/sweep.hh"

namespace nosq {

/**
 * Fingerprint of one job's full tuple as 16 lowercase hex digits
 * (FNV-1a 64 over a canonical field-by-field serialization; no raw
 * struct bytes, so padding and ABI never leak in). Custom-runner
 * jobs hash a runner-presence marker plus SweepJob::runnerTag
 * instead of the callable itself -- set distinct tags for runners
 * that compute different statistics over identical tuples.
 */
std::string jobFingerprint(const SweepJob &job);

/** Fingerprint of a whole job list (count + every job fingerprint). */
std::string sweepFingerprint(const std::vector<SweepJob> &jobs);

/**
 * Unresumable-journal error: the journal belongs to a different
 * sweep spec, or journal I/O failed outright (unwritable path).
 * Salvageable corruption never throws this; it is reported through
 * SweepJournal::warnings() instead.
 */
class JournalError : public std::runtime_error
{
  public:
    explicit JournalError(const std::string &message)
        : std::runtime_error("journal: " + message)
    {}
};

/**
 * The checkpoint/resume journal for one sweep.
 *
 * Lifecycle: construct via create() (fresh file) or resume()
 * (salvage an existing one), then bind() to the freshly built job
 * list before running. bind() verifies the spec fingerprint, matches
 * salvaged records to job indices, and compacts the file so it is
 * clean for appends. During the sweep, record() appends one line per
 * completed job; it is thread-safe (runSweep calls it from worker
 * threads).
 */
class SweepJournal
{
  public:
    /** Start a fresh journal at @p path (truncated at bind()). */
    static SweepJournal create(std::string path);

    /**
     * Resume from @p path: bind() salvages its records. A missing
     * file degrades to a fresh journal with a warning.
     */
    static SweepJournal resume(std::string path);

    SweepJournal(SweepJournal &&other) noexcept;
    SweepJournal &operator=(SweepJournal &&) = delete;
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;
    ~SweepJournal();

    /**
     * Bind to the sweep's job list: fingerprint every job, verify
     * the journal header against sweepFingerprint(jobs), match
     * salvaged records to job indices, and compact the file
     * (header + salvaged records) ready for appends.
     *
     * @throws JournalError when the journal's spec fingerprint names
     *         a different sweep, or the file cannot be (re)written
     */
    void bind(const std::vector<SweepJob> &jobs);

    /** True once bind() has run. runSweep() binds lazily, so a
     * caller that wants the resume summary (doneCount etc.) before
     * the sweep starts can bind() first; the engine then skips its
     * own bind instead of tripping the bound-twice assertion. */
    bool
    isBound() const
    {
        return bound;
    }

    /** Salvage, skip and append diagnostics, in order. */
    const std::vector<std::string> &
    warnings() const
    {
        return log.warnings();
    }

    /** Jobs already completed by a previous run (after bind()). */
    std::size_t
    doneCount() const
    {
        return done_count;
    }

    /** True when job @p index was journaled as completed. */
    bool
    isDone(std::size_t index) const
    {
        return index < done.size() && done[index];
    }

    /** The journaled result for a done job. */
    const RunResult &
    doneResult(std::size_t index) const
    {
        return log.get(fingerprints[index]);
    }

    /**
     * Append job @p index's completed result and flush it to the OS
     * so a SIGKILL cannot lose it. Thread-safe. Invalid (failed)
     * results are not journaled -- a resumed sweep must retry them --
     * and duplicate job tuples share one record. A failed append is
     * counted in appendFailures(), never thrown mid-sweep.
     */
    void record(std::size_t index, const RunResult &run);

    /** Appends not yet on disk; compact() heals them (runSweep()
     * does so once the pool has joined). */
    std::uint64_t
    appendFailures() const
    {
        return log.appendFailures();
    }

    /** Rewrite the file from memory (ResultLog::compact()). */
    bool
    compact(std::string &error)
    {
        return log.compact(error);
    }

    const std::string &
    path() const
    {
        return log.path();
    }

  private:
    SweepJournal(std::string path, bool resume_);

    void lock();

    ResultLog log;
    bool resuming = false;
    bool bound = false;
    /** flock()ed sidecar ("<path>.lock") held from bind() until
     * destruction: concurrent resumes of one journal are refused. */
    int lock_fd = -1;

    std::vector<std::string> fingerprints; // per job index
    std::vector<char> done;                // per job index
    std::size_t done_count = 0;
};

} // namespace nosq

#endif // NOSQ_SIM_JOURNAL_HH
