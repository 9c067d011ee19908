/**
 * @file
 * Deterministic fault injection for the serving stack.
 *
 * Every syscall seam the daemon, its forked workers, and the sweep
 * client rely on -- socket connect/read/write, store
 * append/fsync/rename, worker fork, the job body, the heartbeat --
 * funnels through a named *fault site*. A fault plan maps sites to
 * actions that fire on precise hit counts, so a test can say "the
 * 3rd store append fails", "every 5th socket call takes an EINTR",
 * or "the 2nd dispatched job wedges its worker" and get exactly
 * that, every run.
 *
 * Plan grammar (comma-separated rules, from `NOSQ_FAULT_PLAN` or
 * `nosq_sweepd --fault-plan`):
 *
 *   plan   := rule (',' rule)*
 *   rule   := site ':' action trigger
 *   site   := sock.connect | sock.read | sock.write
 *           | store.write  | store.fsync | store.rename
 *           | worker.fork  | worker.job  | worker.beat
 *           | sock.* | store.* | worker.*     (prefix wildcard)
 *   action := fail | short | eintr | wedge | crash
 *   trigger:= '@' N     fire on exactly the Nth hit (one-shot)
 *           | '%' N     fire on every Nth hit (periodic)
 *
 * Examples: "store.write:fail@3", "sock.read:short@7",
 * "worker.job:wedge@2", "sock.*:eintr%5".
 *
 * Semantics per site (what the seam does when a rule fires):
 *
 *   sock.connect  fail -> ECONNREFUSED; eintr -> EINTR
 *   sock.read     fail -> ECONNRESET; short -> 1-byte read;
 *                 eintr -> EINTR
 *   sock.write    fail -> EPIPE; short -> 1-byte write;
 *                 eintr -> EINTR
 *   store.write   fail -> the append is dropped (simulated EIO)
 *   store.fsync   fail -> fsync reports EIO
 *   store.rename  fail -> rename reports EIO
 *                 (the store.* seams live in sim/result_log.cc, so
 *                 they fire for sweep journals as well as stores)
 *   worker.fork   fail -> fork reports EAGAIN
 *   worker.job    fail -> the job returns an error frame;
 *                 wedge -> the worker spins without heartbeat
 *                 (until the daemon's timeout kills it);
 *                 crash -> the worker _exit()s mid-job
 *   worker.beat   fail -> the heartbeat bump is skipped
 *
 * Zero overhead when off: with no plan configured, every check is a
 * single inline branch on a bool. Counters live in anonymous shared
 * memory once shareCounters() is called (the dispatcher does, before
 * forking), so hits registered inside workers are visible in the
 * daemon's `--server-status` fault dump and tests can assert a plan
 * actually fired.
 */

#ifndef NOSQ_SERVE_FAULT_HH
#define NOSQ_SERVE_FAULT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

struct sockaddr;

namespace nosq {
namespace serve {

enum class FaultSite : unsigned {
    SockConnect,
    SockRead,
    SockWrite,
    StoreWrite,
    StoreFsync,
    StoreRename,
    WorkerFork,
    WorkerJob,
    WorkerBeat,
    Count
};

constexpr std::size_t fault_site_count =
    static_cast<std::size_t>(FaultSite::Count);

/** The canonical plan-grammar name of @p site ("sock.read", ...). */
const char *faultSiteName(FaultSite site);

enum class FaultAction : unsigned {
    None,  ///< no fault; proceed normally
    Fail,  ///< the operation reports a hard error
    Short, ///< partial I/O: transfer a single byte
    Eintr, ///< the syscall is interrupted (errno = EINTR)
    Wedge, ///< spin forever without heartbeat (worker.job only)
    Crash, ///< _exit() mid-operation (worker.job only)
};

/**
 * The process-wide fault injector. Disabled (and overhead-free)
 * until configure() installs a nonempty plan; check() then counts
 * every hit and answers which action, if any, fires on it.
 */
class FaultInjector
{
  public:
    static FaultInjector &global();

    /**
     * Install @p plan (the grammar above), replacing any previous
     * one and zeroing all counters. An empty plan disables
     * injection. @return false with @p error set on a malformed
     * plan (the previous plan stays in force)
     */
    bool configure(const std::string &plan, std::string &error);

    /**
     * Configure from the NOSQ_FAULT_PLAN environment variable, if
     * set. @return false with @p error set when the variable holds
     * a malformed plan
     */
    bool configureFromEnv(std::string &error);

    bool
    enabled() const
    {
        return enabled_;
    }

    /** The plan text currently in force (empty when disabled). */
    const std::string &
    plan() const
    {
        return plan_;
    }

    /**
     * Register one hit at @p site and return the action that fires
     * on it (usually None). With no plan configured this is a
     * single predicted branch.
     */
    FaultAction
    check(FaultSite site)
    {
        if (!enabled_)
            return FaultAction::None;
        return checkSlow(site);
    }

    /** Total check() calls at @p site since configure(). */
    std::uint64_t hits(FaultSite site) const;

    /** Hits at @p site that returned a non-None action. */
    std::uint64_t fired(FaultSite site) const;

    /** True when the plan names @p site (directly or by wildcard). */
    bool planned(FaultSite site) const;

    /**
     * Move the hit/fired counters into anonymous shared memory so
     * processes forked AFTER this call contribute to (and observe)
     * the same counts. Existing counts carry over. Idempotent.
     */
    void shareCounters();

    /**
     * One-line JSON object of per-site counters for every planned
     * site: {"sock.read":{"hits":12,"fired":2},...}. "{}" when
     * disabled.
     */
    std::string statusJson() const;

  private:
    struct Rule
    {
        FaultSite site = FaultSite::Count;
        FaultAction action = FaultAction::None;
        std::uint64_t at = 0;     ///< one-shot hit number (@N)
        std::uint64_t period = 0; ///< periodic stride (%N)
    };

    struct Counters
    {
        std::atomic<std::uint64_t> hits[fault_site_count];
        std::atomic<std::uint64_t> fired[fault_site_count];
    };

    FaultAction checkSlow(FaultSite site);

    bool enabled_ = false;
    std::string plan_;
    std::vector<Rule> rules_;
    Counters local_{};
    Counters *counters_ = &local_;
    bool shared_ = false;
};

// --- injected syscall wrappers ----------------------------------------------
// Each wrapper is the real syscall when injection is off; with a
// plan it first consults the matching fault site. EINTR produced
// here is indistinguishable from a signal-interrupted syscall, so
// the callers' retry loops are exercised for real.

/** connect(2) via the sock.connect site. */
int faultConnect(int fd, const ::sockaddr *addr, unsigned addrlen);

/** read(2) via the sock.read site. */
ssize_t faultRead(int fd, void *buf, std::size_t count);

/** send(2) via the sock.write site. */
ssize_t faultSend(int fd, const void *buf, std::size_t count,
                  int flags);

/** fork(2) via the worker.fork site. */
pid_t faultFork();

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_FAULT_HH
