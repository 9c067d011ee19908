/**
 * @file
 * Rename/dispatch stage: SSN assignment, structure allocation, and
 * the SMB short-circuit (Tables 1 and 3).
 */

#include "common/logging.hh"
#include "obs/pipe_trace.hh"
#include "ooo/core.hh"

namespace nosq {

void
OooCore::doRename()
{
    unsigned renamed = 0;
    while (renamed < params.renameWidth && !fetchQueue.empty()) {
        Inflight &inf = fetchQueue.front();
        if (inf.renameReady > cycle)
            break;
        if (rob.full())
            break;
        if (!renameOne(inf))
            break; // structural stall
        Inflight &entry = rob.pushBack(inf);
        if (tracer) {
            tracer->event(obs::TraceLane::Rename, "pipe", "rename",
                          cycle, entry.di->seq, entry.di->pc);
        }
        // Newly renamed IQ entries are by construction not yet
        // issued: register them as issue candidates. Operands and
        // issue class are final once rename is done.
        if (entry.inIq) {
            nosq_assert(iqWaiting.empty() ||
                            iqWaiting.back().seq < entry.di->seq,
                        "issue-candidate index out of order");
            iqWaiting.push_back(
                {entry.di->seq, entry.physA, entry.physB,
                 entry.isShiftUop ? InstClass::SimpleInt
                                  : entry.di->cls});
        }
        fetchQueue.dropFront();
        ++renamed;
        tickWork = true;
    }
}

void
OooCore::renameSources(Inflight &inf)
{
    if (readsRa(inf.di->si))
        inf.physA = rename.lookup(inf.di->si.ra);
    if (readsRb(inf.di->si))
        inf.physB = rename.lookup(inf.di->si.rb);
}

void
OooCore::allocateDest(Inflight &inf)
{
    inf.archDst = inf.di->si.rd;
    inf.physDst = rename.allocate(inf.archDst, inf.prevDst);
    inf.allocatesDst = true;
}

/**
 * NoSQ load rename (Table 3). @return false to stall (never stalls
 * today; kept for symmetry).
 */
bool
OooCore::renameLoadNosq(Inflight &inf)
{
    const DynInst &di = *inf.di;
    const bool writes = writesReg(di.si);

    // --- decide bypass / delay / plain cache access -------------------
    bool do_bypass = false;
    bool do_delay = false;
    SSN ssn_byp = invalid_ssn;
    unsigned pred_shift = 0;

    if (params.mode == LsuMode::NosqPerfect) {
        // Oracle: bypass every load whose bytes were all written by
        // one still-in-flight store; idealized partial-word support
        // handles every shape.
        const std::uint32_t writer = di.youngestWriterSsn();
        if (writer != 0 && SSN(writer) > ssn.commit &&
            findStoreBySsn(writer) != nullptr) {
            do_bypass = true;
            ssn_byp = writer;
        }
    } else {
        const auto pred = bypassPred.lookup(di.pc, inf.pathHash);
        inf.predHit = pred.hit;
        inf.predBypass = pred.bypass;
        if (pred.bypass) {
            inf.predDistValid = true;
            inf.predDist = pred.dist;
        }
        if (pred.bypass) {
            const SSN candidate = ssn.rename - pred.dist;
            // "hit in the predictor and SSNbyp > SSNcommit"
            if (pred.dist <= ssn.inflight() && candidate > ssn.commit
                && candidate <= ssn.rename) {
                if (pred.confident || !params.nosqDelay) {
                    do_bypass = true;
                    ssn_byp = candidate;
                    pred_shift = pred.shift;
                } else {
                    do_delay = true;
                    ssn_byp = candidate;
                }
            }
        }
    }

    if (tracer && tracer->inWindow(di.seq)) {
        std::string args = "\"hit\":";
        args += inf.predHit ? "true" : "false";
        args += ",\"bypass\":";
        args += inf.predBypass ? "true" : "false";
        if (inf.predDistValid)
            args += ",\"dist\":" + std::to_string(inf.predDist);
        args += ",\"decision\":\"";
        args += do_bypass ? "bypass" : do_delay ? "delay" : "cache";
        args += "\"";
        tracer->event(obs::TraceLane::Nosq, "nosq", "bypass_pred",
                      cycle, di.seq, di.pc, args);
    }

    if (do_bypass) {
        Inflight *store = findStoreBySsn(ssn_byp);
        nosq_assert(store != nullptr,
                    "bypass source not in flight");
        const SrqEntry &se = srq.read(ssn_byp);

        BypassPair pair;
        pair.storeData = store->di->storeData;
        pair.storeSizeLog = se.sizeLog;
        pair.storeFpCvt = se.fpCvt;
        pair.loadSize = di.size;
        pair.loadExtend = loadExtend(di.si.op);
        pair.shiftBytes = params.mode == LsuMode::NosqPerfect
            ? shiftAmount(store->di->addr, di.addr)
            : pred_shift;

        inf.bypassed = true;
        inf.ssnByp = ssn_byp;
        inf.ssnNvul = ssn_byp;
        inf.predShift = pair.shiftBytes;
        ++res.bypassedLoads;

        if (params.mode == LsuMode::NosqPerfect) {
            // Idealized value; never verified wrong.
            inf.value = di.loadValue;
        } else {
            inf.value = bypassValue(pair);
        }

        if (writes && !needsShiftMask(pair) &&
            params.mode != LsuMode::NosqPerfect) {
            // Pure map-table short-circuit: the load vanishes from
            // the out-of-order engine entirely.
            inf.archDst = di.si.rd;
            inf.physDst = se.dtag;
            rename.shareMap(inf.archDst, se.dtag, inf.prevDst);
            inf.sharesDst = true;
            inf.completedFlag = true;
            inf.completeCycle = cycle;
        } else if (writes && params.mode == LsuMode::NosqPerfect &&
                   di.singleWriter() &&
                   !needsShiftMask(pair)) {
            inf.archDst = di.si.rd;
            inf.physDst = se.dtag;
            rename.shareMap(inf.archDst, se.dtag, inf.prevDst);
            inf.sharesDst = true;
            inf.completedFlag = true;
            inf.completeCycle = cycle;
        } else {
            // Inject a shift & mask uop in place of the load: it
            // reads the store's data register and occupies an issue
            // queue slot (Section 3.5).
            if (writes)
                allocateDest(inf);
            inf.isShiftUop = true;
            inf.physA = se.dtag;
            inf.physB = invalid_phys_reg;
            inf.inIq = true;
            ++res.shiftUops;
        }
        return true;
    }

    // Non-bypassing (or delayed) load: dispatch to the out-of-order
    // engine and access the data cache.
    if (writes)
        allocateDest(inf);
    if (do_delay) {
        inf.delayed = true;
        inf.waitStoreCommit = true;
        inf.waitSsn = ssn_byp;
        ++res.delayedLoads;
    }
    inf.inIq = true;
    return true;
}

void
OooCore::renameLoadBaseline(Inflight &inf)
{
    const DynInst &di = *inf.di;
    if (writesReg(di.si))
        allocateDest(inf);
    ++lqOccupancy;

    if (params.mode == LsuMode::SqPerfect) {
        // Oracle scheduling: wait for the writer store to execute
        // (single covering writer) or commit (anything partial).
        const std::uint32_t writer = di.youngestWriterSsn();
        if (writer != 0 && SSN(writer) > ssn.commit) {
            if (di.singleWriter())
                inf.depSsn = writer; // wait until it executes
            else {
                inf.waitStoreCommit = true;
                inf.waitSsn = writer;
            }
        }
    } else {
        // StoreSets: wait for the predicted store to execute.
        const auto dep = storeSets.loadDependence(di.pc);
        if (dep.has_value() && *dep > ssn.commit)
            inf.depSsn = *dep;
    }
    inf.inIq = true;
}

void
OooCore::renameStore(Inflight &inf)
{
    const DynInst &di = *inf.di;
    ++ssn.rename;
    nosq_assert(ssn.rename == di.ssn, "SSN diverged from oracle");
    storeSeqRing[di.ssn & storeSeqMask] = di.seq;

    if (params.isNosq()) {
        // Table 3: SRQ[SSN].dtag = RAT[st.dreg]; the store is marked
        // completed and never enters the out-of-order engine.
        SrqEntry se;
        se.dtag = inf.physB;
        se.sizeLog = static_cast<std::uint8_t>(
            di.size == 1 ? 0 : di.size == 2 ? 1 : di.size == 4 ? 2
                                                               : 3);
        se.fpCvt = storeFpCvt(di.si.op);
        srq.write(di.ssn, se);
        inf.completedFlag = true;
        inf.completeCycle = cycle;
    } else {
        sq.allocate(di.ssn, di.seq);
        storeSets.storeRenamed(di.pc, di.ssn);
        inf.inIq = true;
    }
}

bool
OooCore::renameOne(Inflight &inf)
{
    const DynInst &di = *inf.di;
    inf.ssnAtRename = ssn.rename;

    // --- SSN wraparound drain (Section 2) -----------------------------
    if (di.isStore() &&
        ssn.nextWraps(params.ssnWrapPeriod)) {
        if (!rob.empty())
            return false; // drain in progress
        drainForSsnWrap();
    }

    // --- structural stalls, checked before any mutation ----------------
    const bool writes = writesReg(di.si);
    bool needs_iq = true;
    bool needs_phys = writes;

    if (di.isStore())
        needs_iq = !params.isNosq();
    // NoSQ loads may turn into pure short-circuits (no IQ, no
    // physical register); we conservatively require the resources the
    // non-bypassing path would need, except when a confident bypass
    // is certain to share.
    if (di.isStore() && !params.isNosq() && sq.full())
        return false;
    if (di.isLoad() && !params.isNosq() &&
        lqOccupancy >= params.lqSize) {
        return false;
    }
    if (needs_iq && iqWaiting.size() >= params.iqSize)
        return false;
    if (needs_phys && !rename.hasFree())
        return false;

    // --- rename proper ---------------------------------------------------
    renameSources(inf);

    if (di.isLoad()) {
        if (params.isNosq())
            return renameLoadNosq(inf);
        renameLoadBaseline(inf);
        return true;
    }
    if (di.isStore()) {
        renameStore(inf);
        return true;
    }

    // ALU / branch / nop.
    if (writes)
        allocateDest(inf);
    if (di.si.op == Opcode::Nop || di.si.op == Opcode::Halt) {
        inf.completedFlag = true;
        inf.completeCycle = cycle;
        return true;
    }
    inf.inIq = true;
    return true;
}

} // namespace nosq
