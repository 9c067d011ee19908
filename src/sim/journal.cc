#include "sim/journal.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <unordered_map>

#include "common/fnv.hh"
#include "common/logging.hh"

namespace nosq {

namespace {

constexpr const char *journal_schema = "nosq-journal-v1";

// --- fingerprinting --------------------------------------------------------

// The FNV-1a accumulator lives in common/fnv.hh (shared with the
// program cache); the byte-feeding discipline there must stay
// stable, because the fingerprints below are persisted in journals.

/** Every UarchParams field, nested component configs included. */
void
hashParams(Fnv &fnv, const UarchParams &p)
{
    // forEachUarchField owns the key names and the visit order, and
    // both are persisted in journal fingerprints: its contract (keys
    // stable, new fields appended) is what keeps old journals
    // resumable. The serve wire form iterates the same enumeration,
    // so a daemon-side fingerprint can never disagree with ours.
    forEachUarchField(p, [&fnv](const char *key, const auto &v) {
        fnv.field(key, static_cast<std::uint64_t>(v));
    });
}

/** Spec hash over already-computed per-job fingerprints. */
std::string
specFingerprint(std::size_t count,
                const std::vector<std::string> &fps)
{
    Fnv fnv;
    fnv.text("nosq-sweep-spec-v1");
    fnv.field("jobs", count);
    for (const std::string &fp : fps)
        fnv.text(fp);
    return fnv.hex();
}

} // anonymous namespace

std::string
jobFingerprint(const SweepJob &job)
{
    Fnv fnv;
    fnv.text("nosq-job-v1");
    fnv.text(job.profile ? job.profile->name : job.benchmark);
    fnv.text(suiteName(job.profile ? job.profile->suite
                                   : job.suite));
    fnv.text(job.config);
    fnv.field("seed", job.seed);
    fnv.field("insts", job.insts);
    fnv.field("warmup", job.warmup);
    fnv.field("cores", job.cores);
    fnv.field("qdepth", job.queueDepth);
    fnv.field("smp.on", job.sampling.enabled);
    fnv.field("smp.ff", job.sampling.ffLength);
    fnv.field("smp.warm", job.sampling.warmupLength);
    fnv.field("smp.int", job.sampling.interval);
    fnv.field("smp.n", job.sampling.intervals);
    fnv.field("smp.seed", job.sampling.seed);
    // The callable itself is unhashable; runnerTag is the caller's
    // stand-in identity for it (two studies with different runners
    // over identical tuples must not share a journal).
    fnv.field("runner", job.runner ? 1 : 0);
    fnv.text(job.runnerTag);
    fnv.text(job.memsysLabel);
    hashParams(fnv, job.params);
    return fnv.hex();
}

std::string
sweepFingerprint(const std::vector<SweepJob> &jobs)
{
    std::vector<std::string> fps;
    fps.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        fps.push_back(jobFingerprint(job));
    return specFingerprint(jobs.size(), fps);
}

// --- SweepJournal ----------------------------------------------------------

SweepJournal::SweepJournal(std::string path, bool resume_)
    : log(journal_schema, "journal", std::move(path)),
      resuming(resume_)
{}

SweepJournal
SweepJournal::create(std::string path)
{
    return SweepJournal(std::move(path), /*resume=*/false);
}

SweepJournal
SweepJournal::resume(std::string path)
{
    return SweepJournal(std::move(path), /*resume=*/true);
}

SweepJournal::SweepJournal(SweepJournal &&other) noexcept
    : log(std::move(other.log)), resuming(other.resuming),
      bound(other.bound), lock_fd(other.lock_fd),
      fingerprints(std::move(other.fingerprints)),
      done(std::move(other.done)), done_count(other.done_count)
{
    other.lock_fd = -1;
}

SweepJournal::~SweepJournal()
{
    if (lock_fd >= 0) {
        // Unlink BEFORE releasing the lock: a process that opened
        // this inode meanwhile will fail lock()'s post-flock inode
        // check and retry against a fresh sidecar, so no two
        // holders can ever coexist, and no .lock litter remains.
        std::remove((path() + ".lock").c_str());
        ::close(lock_fd); // releases the flock
    }
}

void
SweepJournal::lock()
{
    // Inter-process exclusion before any read or rewrite: two
    // concurrent resumes of one journal would silently lose each
    // other's records (the compaction rename orphans the inode the
    // other process appends to). The lock lives on a sidecar file
    // because the journal's own inode is replaced by that rename.
    // The destructor unlinks the sidecar while still holding the
    // lock, so after flocking we must confirm the file we locked
    // is still the one on disk (a racer may have locked a fresh
    // sidecar created after an unlink) and retry if not.
    const std::string lock_path = path() + ".lock";
    for (int attempt = 0; lock_fd < 0; ++attempt) {
        const int fd =
            ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd < 0)
            throw JournalError("cannot open '" + lock_path + "'");
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            ::close(fd);
            // A just-SIGKILLed holder can take a few milliseconds
            // to tear down its descriptors, so the kill-and-resume
            // recipe must not flake on that window: retry briefly.
            // A genuinely live sweep holds its lock for the whole
            // run, far longer than this grace period.
            if (attempt >= 7) {
                throw JournalError("'" + path() + "' is in use "
                                   "by another sweep; refusing to "
                                   "share a journal");
            }
            ::usleep(150 * 1000);
            continue;
        }
        struct stat fd_stat, path_stat;
        if (::fstat(fd, &fd_stat) == 0 &&
            ::stat(lock_path.c_str(), &path_stat) == 0 &&
            fd_stat.st_dev == path_stat.st_dev &&
            fd_stat.st_ino == path_stat.st_ino) {
            lock_fd = fd;
        } else {
            // Locked an orphaned sidecar inode; try the current one.
            ::close(fd);
            if (attempt >= 7)
                throw JournalError("cannot acquire '" + lock_path +
                                   "'");
        }
    }
}

void
SweepJournal::bind(const std::vector<SweepJob> &jobs)
{
    nosq_assert(!bound, "journal bound twice");
    bound = true;
    lock();

    fingerprints.clear();
    fingerprints.reserve(jobs.size());
    // Identical job tuples produce identical results (the engine's
    // determinism contract), so one journal record serves every job
    // index sharing its fingerprint.
    std::unordered_map<std::string, std::vector<std::size_t>>
        indices_of;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        fingerprints.push_back(jobFingerprint(jobs[i]));
        indices_of[fingerprints.back()].push_back(i);
    }
    // Reuses the per-job fingerprints computed above rather than
    // hashing every tuple a second time.
    const std::string spec =
        specFingerprint(jobs.size(), fingerprints);
    done.assign(jobs.size(), 0);
    done_count = 0;

    // The header's spec fingerprint, or "" when it has none.
    const auto header_spec = [](const JsonValue &header) {
        const JsonValue *file_spec = header.find("spec");
        return file_spec != nullptr &&
                file_spec->kind == JsonValue::Kind::String
            ? file_spec->string
            : std::string();
    };

    if (!resuming) {
        // A fresh --checkpoint over a journal of this very sweep is
        // almost always a re-typed command that meant --resume;
        // truncating it would silently destroy every completed
        // job. Anything else at the path (other spec, not a
        // journal) is overwritten as requested.
        if (std::FILE *in = std::fopen(path().c_str(), "rb")) {
            std::string first;
            int c;
            while ((c = std::fgetc(in)) != EOF && c != '\n')
                first += static_cast<char>(c);
            std::fclose(in);
            JsonValue header;
            const JsonValue *schema = nullptr;
            if (parseJson(first, header, nullptr))
                schema = header.find("schema");
            if (schema != nullptr &&
                schema->kind == JsonValue::Kind::String &&
                schema->string == journal_schema &&
                header_spec(header) == spec) {
                throw JournalError(
                    "'" + path() + "' already journals this "
                    "sweep; resume it (--resume) instead of "
                    "overwriting, or delete the file first");
            }
        }
    } else if (!log.load(path(), [&](const JsonValue &header) {
                   // A header naming a DIFFERENT sweep spec is a user
                   // error and refuses loudly; one without a spec is
                   // discarded like any other untrusted header.
                   const std::string file_spec = header_spec(header);
                   if (file_spec.empty()) {
                       log.warn("journal header lacks a spec "
                                "fingerprint; discarding all records");
                       return false;
                   }
                   if (file_spec != spec) {
                       throw JournalError(
                           "'" + path() + "' was written by a "
                           "different sweep spec (journal " +
                           file_spec + ", current sweep " + spec +
                           "); refusing to resume");
                   }
                   // The spec hash already encodes the job count, so
                   // a disagreeing "jobs" field means the header was
                   // edited -- records still verify individually,
                   // but say so.
                   const JsonValue *count = header.find("jobs");
                   if (count == nullptr ||
                       count->kind != JsonValue::Kind::Number ||
                       count->number !=
                           static_cast<double>(jobs.size())) {
                       log.warn("journal header jobs count disagrees "
                                "with the sweep; records are verified "
                                "individually");
                   }
                   return true;
               })) {
        log.warn("journal '" + path() + "' not found; starting fresh");
    }

    log.retainIf([&](const ResultLog::Record &record) {
        const auto it = indices_of.find(record.fp);
        if (it == indices_of.end()) {
            log.warn("journal record " + record.fp + " is not in this "
                     "sweep's job list; skipping it");
            return false;
        }
        const SweepJob &job = jobs[it->second.front()];
        const RunResult &run = record.run;
        if (run.benchmark !=
                (job.profile ? job.profile->name : job.benchmark) ||
            run.config != job.config ||
            run.suite != (job.profile ? job.profile->suite : job.suite) ||
            run.memsys != job.memsysLabel) {
            log.warn("journal record " + record.fp + " labels "
                     "disagree with its fingerprint's job; skipping it");
            return false;
        }
        for (const std::size_t index : it->second)
            done[index] = 1;
        done_count += it->second.size();
        return true;
    });

    // Compact -- fresh header plus the salvaged records -- so
    // corruption never survives a resume and appends land on a clean
    // tail.
    log.setHeaderFields(", \"spec\": \"" + spec + "\", \"jobs\": " +
                        std::to_string(jobs.size()));
    std::string error;
    if (!log.compact(error))
        throw JournalError(error);
}

void
SweepJournal::record(std::size_t index, const RunResult &run)
{
    nosq_assert(bound && index < fingerprints.size(),
                "record() before bind() or out of range");
    log.put(fingerprints[index], run);
}

} // namespace nosq
