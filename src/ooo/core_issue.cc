/**
 * @file
 * Issue/execute stage: class-limited select, memory ordering rules
 * per LSU mode, store queue search, and cache access timing.
 */

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "obs/pipe_trace.hh"
#include "ooo/core.hh"

namespace nosq {

namespace {

/** InstClass values, Store being the last. */
constexpr std::size_t num_inst_classes =
    static_cast<std::size_t>(InstClass::Store) + 1;

} // anonymous namespace

/** Earliest cycle at which both of @p c's source operands are ready. */
Cycle
OooCore::operandsReadyAt(const IssueCandidate &c) const
{
    Cycle ready = 0;
    if (c.physA != invalid_phys_reg)
        ready = rename.readyAt(c.physA);
    if (c.physB != invalid_phys_reg)
        ready = std::max(ready, rename.readyAt(c.physB));
    return ready;
}

/**
 * Memory-ordering gate for loads (non-bypassed). Applies the delay /
 * StoreSets / oracle rules and the associative SQ partial-overlap
 * stall. May set waitStoreCommit as a side effect.
 */
bool
OooCore::loadMayIssue(Inflight &inf)
{
    // Waiting for a specific store to commit (delay mechanism,
    // partial-overlap stall, or oracle multi-writer rule).
    if (inf.waitStoreCommit) {
        if (ssn.commit < inf.waitSsn)
            return false;
        inf.waitStoreCommit = false;
    }

    if (params.isNosq())
        return true;

    // Baseline scheduling: wait for the designated store to execute.
    if (inf.depSsn != invalid_ssn && inf.depSsn > ssn.commit) {
        const Inflight *store = findStoreBySsn(inf.depSsn);
        if (store != nullptr && !store->completed(cycle))
            return false;
    }

    // Associative SQ search: a partial overlap stalls the load until
    // the overlapping store commits (conventional policy).
    const auto r = sq.search(inf.di->addr, inf.di->size, inf.di->seq);
    if (r.outcome == SqSearchOutcome::Stall) {
        ++res.sqStalls;
        inf.waitStoreCommit = true;
        inf.waitSsn = r.ssn;
        return false;
    }
    return true;
}

void
OooCore::executeLoad(Inflight &inf)
{
    const DynInst &di = *inf.di;

    // Every load dispatched to the out-of-order engine reads the
    // data cache (in the baseline, in parallel with the SQ search).
    const Cycle cache_lat = mem.dataRead(di.addr, cycle);
    ++res.dcacheReadsCore;

    Cycle lat = cache_lat;
    if (!params.isNosq()) {
        const auto r = sq.search(di.addr, di.size, di.seq);
        if (r.outcome == SqSearchOutcome::Forward) {
            ++res.sqForwards;
            inf.sawSqForward = true;
            inf.value = extendValue(r.raw, di.size,
                                    loadExtend(di.si.op));
            inf.ssnNvul = r.ssn;
            lat = params.memsys.l1d.hitLatency;
        } else {
            inf.value = readImage(di.addr, di.size, di.si.op);
            inf.ssnNvul = ssn.commit;
        }
    } else {
        // NoSQ: a simple cache access against committed state. If an
        // older in-flight store to this address exists, this value is
        // stale and verification will catch it (case (i)).
        inf.value = readImage(di.addr, di.size, di.si.op);
        inf.ssnNvul = ssn.commit;
    }

    inf.completeCycle = cycle + params.issueToExec + lat - 1;
}

void
OooCore::executeStore(Inflight &inf)
{
    const DynInst &di = *inf.di;
    sq.execute(di.ssn, di.addr, di.size, di.memValue);
    storeSets.storeExecuted(di.pc, di.ssn);
    inf.completeCycle = cycle + params.issueToExec;
}

void
OooCore::doIssue()
{
    if (iqWaiting.empty())
        return;

    // Per-class issue limits (Section 4.1), indexed by InstClass.
    const std::array<unsigned, num_inst_classes> limit = {
        params.issueSimple, params.issueComplex, params.issueBranch,
        params.issueLoad, params.issueStore};
    std::array<unsigned, num_inst_classes> issued{};
    unsigned total = 0;

    // Walk the issue queue oldest first (it is seq-ascending) and
    // compact it in place: issued entries drop out, everything else
    // stays in order. The class limit and operand check read the
    // record alone; the ROB slot is touched only for a candidate
    // that passes both.
    const InstSeq front_seq = rob.front().di->seq;
    std::size_t keep = 0;
    for (std::size_t k = 0; k < iqWaiting.size(); ++k) {
        const IssueCandidate c = iqWaiting[k];
        const auto cls = static_cast<std::size_t>(c.cls);
        if (total >= params.issueWidth || issued[cls] >= limit[cls] ||
            operandsReadyAt(c) > cycle) {
            iqWaiting[keep++] = c;
            continue;
        }
        Inflight &inf =
            rob.at(static_cast<std::size_t>(c.seq - front_seq));
        nosq_assert(inf.di->seq == c.seq && inf.inIq && !inf.issued,
                    "stale issue candidate");
        if (c.cls == InstClass::Load && !loadMayIssue(inf)) {
            iqWaiting[keep++] = c;
            continue;
        }

        // --- issue ------------------------------------------------------
        tickWork = true;
        inf.issued = true;
        inf.completedFlag = true;
        ++issued[cls];
        ++total;

        if (tracer) {
            tracer->event(obs::TraceLane::Issue, "pipe", "issue",
                          cycle, inf.di->seq, inf.di->pc,
                          inf.isShiftUop ? "\"shift_uop\":true" : "");
        }

        if (c.cls == InstClass::Load) {
            executeLoad(inf);
        } else if (c.cls == InstClass::Store) {
            executeStore(inf);
        } else if (inf.isShiftUop) {
            inf.completeCycle = cycle + params.issueToExec;
        } else {
            inf.completeCycle = cycle + params.issueToExec +
                execLatency(inf.di->si.op) - 1;
            if (inf.di->isBranch() && inf.branchMispredicted &&
                redirectWaitSeq == inf.di->seq) {
                // Fetch redirects when the branch resolves.
                fetchStalledUntil = std::max(fetchStalledUntil,
                                             inf.completeCycle + 1);
                redirectWaitSeq = 0;
            }
        }

        // Wake dependents: earliest consumer issue is producer issue
        // plus effective latency (full bypass network).
        if (inf.allocatesDst) {
            const Cycle effective =
                inf.completeCycle - cycle - params.issueToExec + 1;
            rename.setReadyAt(inf.physDst, cycle + effective);
        }
    }
    iqWaiting.resize(keep);
}

bool
OooCore::issueIndexConsistent() const
{
    // Both the ROB and the records are seq-ascending: match every
    // waiting ROB entry to the next record, then require none left.
    std::size_t k = 0;
    for (std::size_t i = 0; i < rob.size(); ++i) {
        const Inflight &inf = rob.at(i);
        if (!inf.inIq || inf.issued)
            continue;
        if (k == iqWaiting.size())
            return false;
        const IssueCandidate &c = iqWaiting[k++];
        const InstClass cls =
            inf.isShiftUop ? InstClass::SimpleInt : inf.di->cls;
        if (c.seq != inf.di->seq || c.physA != inf.physA ||
            c.physB != inf.physB || c.cls != cls) {
            return false;
        }
    }
    return k == iqWaiting.size();
}

} // namespace nosq
