/**
 * @file
 * nosq_sweepd: the sweep-serving daemon (sweep-as-a-service).
 *
 * Owns a persistent fingerprint -> result store and a pool of
 * forked simulation workers; accepts nosq-serve-v1 requests over a
 * Unix-domain socket (see docs/SERVING.md and serve/protocol.hh),
 * dedupes identical jobs across clients, and streams results back
 * as they complete. `nosq_sim --server=<socket> --sweep=...` is the
 * matching client.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include <unistd.h>

#include "common/flags.hh"
#include "common/logging.hh"
#include "serve/dispatcher.hh"
#include "serve/fault.hh"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    // First signal: drain (finish in-flight work, refuse new
    // submits, compact the store, exit 0). Second: stop now.
    if (g_stop < 2)
        g_stop = g_stop + 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Role tag for the NOSQ_LOG_PREFIX attribution prefix; forked
    // workers re-tag themselves in workerMain().
    nosq::setLogRole("daemon");
    nosq::serve::DispatcherOptions opts;
    opts.storePath = "nosq_store.jsonl";
    opts.stopFlag = &g_stop;
    std::string log_path;
    std::optional<std::string> fault_plan;

    namespace flags = nosq::flags;
    using flags::Arg;
    const flags::Parser parser(
        "nosq_sweepd: sweep-serving daemon (nosq-serve-v1)\n"
        "\n"
        "Serves sweep jobs to nosq_sim --server clients from a persistent\n"
        "result store, sharding fresh jobs across forked worker processes\n"
        "and deduplicating identical submissions. Runs in the foreground.\n"
        "The first SIGTERM/SIGINT drains: in-flight jobs finish, new\n"
        "submits get 'draining', the store is compacted, and the daemon\n"
        "exits 0; a second signal stops immediately. See docs/SERVING.md\n"
        "for the protocol and an operator guide.\n\n"
        "Usage: nosq_sweepd --socket PATH [options]\n\n",
        {{"serve", ""}},
        {
        {"--socket", Arg::Required, "PATH", 1,
         "Unix-domain socket to listen on (required; keep it short, "
         "the AF_UNIX limit is ~107 bytes)",
         flags::text(opts.socketPath)},
        {"--store", Arg::Required, "FILE", 1,
         "persistent result store (default: nosq_store.jsonl)",
         flags::text(opts.storePath)},
        {"--workers", Arg::Required, "N", 1,
         "worker processes, 1..64 (default: NOSQ_JOBS, else hardware "
         "concurrency)",
         flags::number(opts.workers, 1, 64, "1..64")},
        {"--heartbeat-timeout", Arg::Required, "SEC", 1,
         "seconds without worker heartbeat progress before the worker "
         "is presumed wedged and killed; must exceed the longest single "
         "job (default: 300)",
         flags::number(opts.heartbeatTimeoutSec, 1, 1u << 20,
                       "positive integer")},
        {"--max-job-attempts", Arg::Required, "N", 1,
         "quarantine a job after its worker dies or wedges N times, "
         "instead of crash-looping the pool; 0 disables (default: 3)",
         flags::number(opts.maxJobAttempts, 0, 1u << 20,
                       "non-negative integer")},
        {"--max-pending", Arg::Required, "N", 1,
         "reject submits needing fresh executions while N jobs are "
         "already pending ('overloaded', clients back off and retry); "
         "0 = unbounded (default: 0)",
         flags::number(opts.maxPending, 0, 1u << 20,
                       "non-negative integer")},
        {"--drain-timeout", Arg::Required, "SEC", 1,
         "on SIGTERM, wait this long for in-flight jobs before forcing "
         "shutdown (default: 60)",
         flags::number(opts.drainTimeoutSec, 1, 1u << 20,
                       "positive integer")},
        {"--fault-plan", Arg::Required, "PLAN", 1,
         "deterministic fault injection for tests, e.g. "
         "'store.write:fail@3,sock.*:eintr%5' (overrides the "
         "NOSQ_FAULT_PLAN env var; see docs/SERVING.md for the "
         "grammar)",
         flags::text(fault_plan)},
        {"--log", Arg::Required, "FILE", 1,
         "append diagnostics to FILE instead of stderr",
         flags::text(log_path)},
        });
    const flags::Parsed parsed = parser.parse({argv + 1, argv + argc});
    if (parsed.status != flags::Parsed::Status::Ok)
        return parser.finish(parsed, "nosq_sweepd: ", 2);
    if (opts.socketPath.empty()) {
        std::fputs("nosq_sweepd: --socket is required\n", stderr);
        std::fputs(parser.help().c_str(), stderr);
        return 2;
    }

    if (!log_path.empty() &&
        std::freopen(log_path.c_str(), "a", stderr) == nullptr) {
        // stderr may already be clobbered by the failed freopen;
        // stdout is still intact for the complaint.
        std::fprintf(stdout,
                     "nosq_sweepd: cannot open log '%s': %s\n",
                     log_path.c_str(), std::strerror(errno));
        return 2;
    }
    setvbuf(stderr, nullptr, _IONBF, 0);

    std::string fault_error;
    const bool fault_ok =
        fault_plan
            ? nosq::serve::FaultInjector::global().configure(
                  *fault_plan, fault_error)
            : nosq::serve::FaultInjector::global().configureFromEnv(
                  fault_error);
    if (!fault_ok) {
        std::fprintf(stderr, "nosq_sweepd: %s\n",
                     fault_error.c_str());
        return 2;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    nosq::serve::Dispatcher dispatcher(opts);
    std::string error;
    if (!dispatcher.init(error)) {
        std::fprintf(stderr, "nosq_sweepd: %s\n", error.c_str());
        return 1;
    }
    return dispatcher.run();
}
