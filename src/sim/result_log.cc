/**
 * @file
 * ResultLog implementation (see result_log.hh).
 */

#include "sim/result_log.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "serve/fault.hh"

namespace nosq {

using serve::FaultAction;
using serve::FaultInjector;
using serve::FaultSite;

// --- one-line record (de)serialization -------------------------------------

std::string
runResultJsonLine(const RunResult &run)
{
    std::string json = toJson(run);
    json.erase(std::remove(json.begin(), json.end(), '\n'),
               json.end());
    return json;
}

/**
 * Rejects a corrupt "-1", "1e300", or "123.5" so the record is
 * skipped and its job re-runs.
 */
bool
jsonExactCounter(const JsonValue &v, std::uint64_t &out)
{
    if (v.kind != JsonValue::Kind::Number)
        return false;
    const double d = v.number;
    // Strictly below 2^53: at exactly 2^53 the double may already
    // be a rounded 2^53+1, so the value is no longer provably the
    // one that was written.
    if (!(d >= 0.0) || d >= 9007199254740992.0 /* 2^53 */ ||
        d != std::floor(d))
        return false;
    out = static_cast<std::uint64_t>(d);
    return true;
}

static bool
suiteFromName(const std::string &name, Suite &out)
{
    for (const Suite s : {Suite::Media, Suite::Int, Suite::Fp}) {
        if (name == suiteName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

/**
 * The counters are exact: they were emitted via std::to_string and
 * stay integral through the parser's double (all simulator counters
 * are far below 2^53). The derived "ipc" member is ignored --
 * SimResult recomputes it.
 */
bool
runResultFromJson(const JsonValue &v, RunResult &out)
{
    if (v.kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *benchmark = v.find("benchmark");
    const JsonValue *suite = v.find("suite");
    const JsonValue *config = v.find("config");
    const JsonValue *valid = v.find("valid");
    const JsonValue *stats = v.find("stats");
    if (!benchmark || benchmark->kind != JsonValue::Kind::String ||
        !suite || suite->kind != JsonValue::Kind::String ||
        !config || config->kind != JsonValue::Kind::String ||
        !valid || valid->kind != JsonValue::Kind::Bool ||
        !stats || stats->kind != JsonValue::Kind::Object)
        return false;
    out.benchmark = benchmark->string;
    if (!suiteFromName(suite->string, out.suite))
        return false;
    out.config = config->string;
    // Optional hierarchy label (memsys sweeps): must round-trip, or
    // a resumed report would drop the field and no longer be
    // byte-identical to an uninterrupted run's.
    const JsonValue *memsys = v.find("memsys");
    if (memsys != nullptr) {
        if (memsys->kind != JsonValue::Kind::String)
            return false;
        out.memsys = memsys->string;
    }
    out.valid = valid->boolean;

    // The same counter table the emitter and validator iterate, so
    // a new SimResult counter cannot be silently dropped here.
    bool ok = true;
    forEachSimCounter(out.sim, [&](const char *key,
                                   std::uint64_t &slot) {
        const JsonValue *field = stats->find(key);
        if (field == nullptr || !jsonExactCounter(*field, slot))
            ok = false;
    });
    if (!ok)
        return false;

    // Sampled-run summary: optional (exact-mode records omit it),
    // but a sampled record must restore every field or a resumed
    // report would no longer be byte-identical. jsonNumber() emits
    // shortest-round-trip doubles, so the parse restores the exact
    // bit pattern.
    const JsonValue *intervals = stats->find("sample_intervals");
    if (intervals != nullptr) {
        const JsonValue *ff = stats->find("sample_ff_insts");
        const JsonValue *mean = stats->find("sample_ipc_mean");
        const JsonValue *ci = stats->find("sample_ipc_ci95");
        if (ff == nullptr || mean == nullptr || ci == nullptr ||
            !jsonExactCounter(*intervals, out.sim.sampleIntervals) ||
            !jsonExactCounter(*ff, out.sim.sampleFfInsts) ||
            mean->kind != JsonValue::Kind::Number ||
            ci->kind != JsonValue::Kind::Number)
            return false;
        out.sim.sampled = true;
        out.sim.sampleIpcMean = mean->number;
        out.sim.sampleIpcCi95 = ci->number;
    }

    // Multicore summary: optional (single-core records omit it),
    // but a multicore record must restore the core count, every
    // coherence counter, and every per-core row, or a resumed
    // report would no longer be byte-identical.
    const JsonValue *cores = stats->find("cores");
    if (cores != nullptr) {
        std::uint64_t n = 0;
        if (!jsonExactCounter(*cores, n) || n == 0)
            return false;
        out.sim.multicore = true;
        out.sim.numCores = n;
        bool coh_ok = true;
        forEachCoherenceCounter(
            out.sim, [&](const char *key, std::uint64_t &slot) {
                const JsonValue *field = stats->find(key);
                if (field == nullptr ||
                    !jsonExactCounter(*field, slot))
                    coh_ok = false;
            });
        if (!coh_ok)
            return false;
        out.sim.perCore.assign(static_cast<std::size_t>(n), {});
        for (std::size_t i = 0; i < out.sim.perCore.size(); ++i) {
            const std::string prefix =
                "core" + std::to_string(i) + "_";
            forEachPerCoreCounter(
                out.sim.perCore[i],
                [&](const char *key, std::uint64_t &slot) {
                    const JsonValue *field =
                        stats->find(prefix + key);
                    if (field == nullptr ||
                        !jsonExactCounter(*field, slot))
                        coh_ok = false;
                });
        }
        if (!coh_ok)
            return false;
    }
    return true;
}

// --- ResultLog -------------------------------------------------------------

ResultLog::ResultLog(std::string schema_, std::string label_,
                     std::string path_)
    : schema(std::move(schema_)), label(std::move(label_)),
      file_path(std::move(path_))
{}

ResultLog::ResultLog(ResultLog &&other) noexcept
    : schema(std::move(other.schema)), label(std::move(other.label)),
      file_path(std::move(other.file_path)),
      header_fields(std::move(other.header_fields)),
      file(other.file), records(std::move(other.records)),
      index(std::move(other.index)), warns(std::move(other.warns)),
      append_failures(other.append_failures)
{
    other.file = nullptr;
}

ResultLog::~ResultLog()
{
    if (file != nullptr)
        std::fclose(file);
}

bool
ResultLog::load(const std::string &path, const HeaderCheck &check)
{
    file_path = path;
    records.clear();
    index.clear();

    std::string text;
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr)
        return false;
    char buffer[1 << 16];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0)
        text.append(buffer, got);
    std::fclose(in);
    if (text.empty()) {
        warn(label + " '" + path + "' is empty; starting fresh");
        return true;
    }

    // Header: nothing below an untrusted header can be trusted.
    const std::size_t header_end = text.find('\n');
    JsonValue header;
    const JsonValue *found = nullptr;
    if (header_end != std::string::npos &&
        parseJson(text.substr(0, header_end), header, nullptr))
        found = header.find("schema");
    bool header_ok = false;
    if (found == nullptr) {
        warn(label + " header is corrupt; discarding all records");
    } else if (found->kind != JsonValue::Kind::String ||
               found->string != schema) {
        warn(label + " has schema '" + found->string +
             "', expected '" + schema + "'; discarding all records");
    } else {
        header_ok = !check || check(header);
    }
    if (!header_ok) {
        // The records may be hand-recoverable (e.g. one flipped
        // header byte): keep the file aside rather than letting the
        // next compaction destroy it.
        const std::string aside = path + ".corrupt";
        std::remove(aside.c_str());
        if (std::rename(path.c_str(), aside.c_str()) == 0)
            warn("kept the unreadable " + label + " at '" + aside +
                 "' for manual recovery");
        return true;
    }

    std::size_t pos = header_end + 1;
    for (std::size_t n = 1; pos < text.size(); ++n) {
        const std::string where =
            label + " record " + std::to_string(n);
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            warn(where + " is corrupt (torn final line); dropping "
                 "it");
            break;
        }
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        JsonValue rec;
        if (!parseJson(line, rec, nullptr)) {
            warn(where + " is corrupt; skipping it");
            continue;
        }
        const JsonValue *fp = rec.find("fp");
        const JsonValue *run_json = rec.find("run");
        Record record;
        if (fp == nullptr || fp->kind != JsonValue::Kind::String ||
            fp->string.empty() || run_json == nullptr ||
            !runResultFromJson(*run_json, record.run)) {
            warn(where + " is malformed; skipping it");
            continue;
        }
        if (!statsValid(record.run)) {
            warn(where + " is marked invalid; skipping it (its job "
                 "will re-run)");
            continue;
        }
        record.fp = fp->string;
        if (!index.emplace(record.fp, records.size()).second) {
            warn(where + " duplicates fingerprint " + record.fp +
                 "; keeping the first record");
            continue;
        }
        records.push_back(std::move(record));
    }
    return true;
}

void
ResultLog::retainIf(const std::function<bool(const Record &)> &keep)
{
    std::deque<Record> kept;
    index.clear();
    for (Record &record : records) {
        if (!keep(record))
            continue;
        index.emplace(record.fp, kept.size());
        kept.push_back(std::move(record));
    }
    records = std::move(kept);
}

std::string
ResultLog::recordLine(const Record &record) const
{
    return "{\"fp\": \"" + jsonEscape(record.fp) + "\", \"run\": " +
        runResultJsonLine(record.run) + "}\n";
}

void
ResultLog::put(const std::string &fp, const RunResult &run)
{
    if (!statsValid(run))
        return;
    std::lock_guard<std::mutex> lock(mutex);
    if (!index.emplace(fp, records.size()).second)
        return;
    records.push_back(Record{fp, run});
    const std::string line = recordLine(records.back());
    // fflush per record hands the bytes to the OS, so losing them
    // takes a machine failure, not just a SIGKILL.
    bool appended = false;
    if (file == nullptr)
        errno = EBADF;
    else if (FaultInjector::global().check(FaultSite::StoreWrite) ==
             FaultAction::Fail)
        errno = EIO;
    else
        appended = std::fwrite(line.data(), 1, line.size(), file) ==
                line.size() &&
            std::fflush(file) == 0;
    if (!appended) {
        // Lose this one record on disk, not the log: the in-memory
        // copy still serves, later appends proceed, and the next
        // compact() rewrites everything.
        ++append_failures;
        warn(label + " append to '" + file_path + "' failed: " +
             std::strerror(errno) +
             " (1 record unpersisted until compaction)");
        if (file != nullptr)
            std::clearerr(file);
    }
}

bool
ResultLog::compact(std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::string contents =
        "{\"schema\": \"" + schema + "\"" + header_fields + "}\n";
    for (const Record &record : records)
        contents += recordLine(record);

    const std::string tmp = file_path + ".tmp";
    const auto fail = [&](const std::string &what) {
        error = what + ": " + std::strerror(errno);
        std::remove(tmp.c_str());
        warn(label + " compaction failed: " + error);
        return false;
    };
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr)
        return fail("cannot write '" + tmp + "'");
    // fsync before the rename: without it a power loss after the
    // rename but before writeback can leave an empty file, breaking
    // the either-old-or-new-survives guarantee (fflush alone only
    // covers process death).
    bool wrote =
        std::fwrite(contents.data(), 1, contents.size(), out) ==
            contents.size() &&
        std::fflush(out) == 0;
    if (wrote && FaultInjector::global().check(FaultSite::StoreFsync) ==
                     FaultAction::Fail) {
        errno = EIO;
        wrote = false;
    } else if (wrote) {
        wrote = ::fsync(::fileno(out)) == 0;
    }
    const int write_errno = errno;
    if (std::fclose(out) != 0 || !wrote) {
        if (!wrote)
            errno = write_errno;
        return fail("cannot write '" + tmp + "'");
    }
    bool renamed = false;
    if (FaultInjector::global().check(FaultSite::StoreRename) ==
        FaultAction::Fail)
        errno = EIO;
    else
        renamed = std::rename(tmp.c_str(), file_path.c_str()) == 0;
    if (!renamed)
        return fail("cannot replace '" + file_path + "'");

    // The old handle (if any) appends to the replaced inode; from
    // here on appends go to the compacted file.
    if (file != nullptr)
        std::fclose(file);
    file = std::fopen(file_path.c_str(), "ab");
    if (file == nullptr)
        return fail("cannot append to '" + file_path + "'");
    append_failures = 0; // every record is on disk again
    return true;
}

} // namespace nosq
