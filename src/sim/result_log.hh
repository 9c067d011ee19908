/**
 * @file
 * The durable fingerprint -> RunResult log: the one implementation
 * of load/salvage, append and compaction behind both the sweep
 * checkpoint journal (sim/journal.hh) and the serving daemon's
 * result store (serve/job_store.hh).
 *
 * Format: JSONL, a schema header chosen by the owner followed by one
 * record per result:
 *
 *   {"schema": "<name>", <owner header fields>}
 *   {"fp": "<fingerprint>", "run": {benchmark, suite, config, valid, stats}}
 *   ...
 *
 * Policies, shared by every owner:
 *
 *  - Load salvages rather than aborts. A bad header (unparseable,
 *    wrong schema, or refused by the owner's check) discards every
 *    record and moves the file aside to "<path>.corrupt". A torn
 *    final line (no trailing newline, as a SIGKILL mid-append
 *    leaves) is dropped; a malformed line in the middle is skipped
 *    and the records after it are still read. Records that fail
 *    statsValid() are rejected, and duplicate fingerprints keep the
 *    first record. Every decision lands in warnings().
 *  - put() appends one line and flushes it to the OS, so a SIGKILL
 *    loses at most the record being written. It is thread-safe
 *    (runSweep() calls it from worker threads).
 *  - compact() rewrites the file (header + records in insertion
 *    order) through tmp + fflush + fsync + rename, then reopens it
 *    for appends: either the old file or the new one survives a
 *    crash, whole.
 *  - A failed append is never fatal: it is counted in
 *    appendFailures(), warned, and the stream is cleared so later
 *    appends proceed. The result stays in memory, and the next
 *    compact() heals the file.
 *
 * Fault seams (serve/fault.hh): store.write on every append,
 * store.fsync and store.rename in every compaction -- for journals
 * and stores alike.
 */

#ifndef NOSQ_SIM_RESULT_LOG_HH
#define NOSQ_SIM_RESULT_LOG_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/report.hh"

namespace nosq {

// --- record (de)serialization -----------------------------------------------
//
// Also the serving layer's wire form for completed results, so a
// store, a journal and a worker frame stay mutually intelligible.

/**
 * toJson(RunResult) flattened to one JSONL-safe line. The emitter's
 * newlines only ever separate tokens (strings escape control
 * characters), so erasing them cannot corrupt a value.
 */
std::string runResultJsonLine(const RunResult &run);

/**
 * Rebuild a RunResult from a parsed record "run" object: the inverse
 * of runResultJsonLine(). Counters are exact (integral and below
 * 2^53 through the parser's double) and the sampled/multicore
 * summaries round-trip bit-identically, so a restored result is
 * indistinguishable from the freshly computed one.
 * @return false on any shape violation
 */
bool runResultFromJson(const JsonValue &v, RunResult &out);

/**
 * A JSON number that is exactly one of the emitter's integer
 * counters: integral, non-negative, and strictly below 2^53 (the
 * double-exact range). Anything else fails -- never an undefined or
 * silently truncating cast.
 */
bool jsonExactCounter(const JsonValue &v, std::uint64_t &out);

/**
 * One result file and its records in memory. put() and compact() may
 * run concurrently with each other; every other member is for the
 * owning thread while no put() is in flight.
 */
class ResultLog
{
  public:
    /** One stored result, in insertion order. */
    struct Record
    {
        std::string fp;
        RunResult run;
    };

    /**
     * The owner's extra header validation, run after the schema
     * matched. Return false to discard the file (after explaining
     * why through warn()); throw to refuse it outright.
     */
    using HeaderCheck = std::function<bool(const JsonValue &header)>;

    /**
     * @param schema the header's "schema" value
     * @param label  names the log in warnings ("journal", "store")
     */
    ResultLog(std::string schema, std::string label,
              std::string path = "");
    ResultLog(ResultLog &&other) noexcept;
    ResultLog &operator=(ResultLog &&) = delete;
    ResultLog(const ResultLog &) = delete;
    ResultLog &operator=(const ResultLog &) = delete;
    ~ResultLog();

    /**
     * Salvage the records at @p path (see the file comment). Does
     * not write: call compact() before appending.
     * @return false when the file does not exist (an empty log)
     */
    bool load(const std::string &path, const HeaderCheck &check = {});

    /** Extra header members after "schema", written verbatim by
     * compact() (e.g. `, "spec": "...", "jobs": 4`). */
    void
    setHeaderFields(std::string fields)
    {
        header_fields = std::move(fields);
    }

    /** Keep only the records @p keep accepts (not thread-safe). */
    void retainIf(
        const std::function<bool(const Record &record)> &keep);

    /**
     * Record @p run under @p fp and append it. Results that fail
     * statsValid() are not kept (a failed job must re-run);
     * duplicate fingerprints keep the first record. Thread-safe.
     */
    void put(const std::string &fp, const RunResult &run);

    /**
     * Rewrite the file as header + every record, then reopen it for
     * appends; resets appendFailures(). @return false with @p error
     * set (and warned) when the rewrite fails -- the old file stays
     * in place and appends continue to it
     */
    bool compact(std::string &error);

    bool
    has(const std::string &fp) const
    {
        return index.find(fp) != index.end();
    }

    /** The stored result for @p fp (has() must be true). */
    const RunResult &
    get(const std::string &fp) const
    {
        return records[index.at(fp)].run;
    }

    std::size_t
    size() const
    {
        return records.size();
    }

    /** Appends that failed to reach the file since the last
     * successful compact(). */
    std::uint64_t
    appendFailures() const
    {
        return append_failures;
    }

    /** Salvage, append and compaction diagnostics, in order. */
    const std::vector<std::string> &
    warnings() const
    {
        return warns;
    }

    void
    warn(std::string message)
    {
        warns.push_back(std::move(message));
    }

    const std::string &
    path() const
    {
        return file_path;
    }

  private:
    std::string recordLine(const Record &record) const;

    std::string schema;
    std::string label;
    std::string file_path;
    std::string header_fields;

    /** Serializes put() and compact() against each other. */
    std::mutex mutex;
    std::FILE *file = nullptr;
    /** A deque, so get()'s references survive later put()s. */
    std::deque<Record> records;
    std::unordered_map<std::string, std::size_t> index;
    std::vector<std::string> warns;
    std::uint64_t append_failures = 0;
};

} // namespace nosq

#endif // NOSQ_SIM_RESULT_LOG_HH
