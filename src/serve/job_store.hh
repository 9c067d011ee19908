/**
 * @file
 * The daemon's persistent fingerprint -> result store: the warm
 * cache behind nosq_sweepd.
 *
 * A JobStore is a ResultLog (sim/result_log.hh) bound to the
 * "nosq-store-v1" schema, so it shares the sweep journal's record
 * shape, salvage rules, per-put flush, tmp + fsync + rename
 * compaction and heal-on-compact failure policy. Anything that can
 * read a journal can read a store.
 */

#ifndef NOSQ_SERVE_JOB_STORE_HH
#define NOSQ_SERVE_JOB_STORE_HH

#include <string>

#include "sim/result_log.hh"

namespace nosq {
namespace serve {

class JobStore : public ResultLog
{
  public:
    JobStore() : ResultLog("nosq-store-v1", "store") {}

    /**
     * Open (creating if missing) the store at @p path, salvage its
     * records, compact, and keep the file open for appends.
     * Salvage diagnostics land in warnings().
     * @return false with @p error set when the path is unusable
     */
    bool
    open(const std::string &path, std::string &error)
    {
        load(path);
        return compact(error);
    }
};

} // namespace serve
} // namespace nosq

#endif // NOSQ_SERVE_JOB_STORE_HH
