/**
 * @file
 * Timing-core tests: rename invariants, all four LSU modes on
 * hand-built programs, mis-speculation recovery, SVW filtering,
 * delay, SSN wraparound drains, architectural equivalence with the
 * functional simulator, and the issue queue's per-tick invariant.
 */

#include <gtest/gtest.h>

#include "ooo/core.hh"
#include "ooo/rename.hh"
#include "workload/functional.hh"
#include "workload/kernels.hh"

namespace nosq {
namespace {

// ---------------------------------------------------------------------
// RenameState
// ---------------------------------------------------------------------

TEST(RenameState, InitialMappingIsIdentity)
{
    RenameState rs(160);
    for (RegIndex a = 0; a < num_arch_regs; ++a)
        EXPECT_EQ(rs.lookup(a), a);
    EXPECT_EQ(rs.freeCount(), 160u - num_arch_regs);
    EXPECT_TRUE(rs.consistent());
}

TEST(RenameState, AllocateAndCommitFreesPrev)
{
    RenameState rs(160);
    PhysReg prev;
    const PhysReg p = rs.allocate(5, prev);
    EXPECT_EQ(prev, 5);
    EXPECT_EQ(rs.lookup(5), p);
    // Commit of the allocating instruction frees the previous
    // mapping.
    rs.release(prev);
    EXPECT_EQ(rs.freeCount(), 160u - num_arch_regs);
    EXPECT_TRUE(rs.consistent());
}

TEST(RenameState, SquashUndoRestores)
{
    RenameState rs(160);
    PhysReg prev;
    const PhysReg p = rs.allocate(5, prev);
    rs.undo(5, p, prev);
    EXPECT_EQ(rs.lookup(5), 5);
    EXPECT_EQ(rs.freeCount(), 160u - num_arch_regs);
    EXPECT_TRUE(rs.consistent());
}

TEST(RenameState, SmbSharingRefcounts)
{
    RenameState rs(160);
    PhysReg prev_def;
    const PhysReg def = rs.allocate(5, prev_def); // DEF writes r5
    PhysReg prev_load;
    rs.shareMap(9, def, prev_load); // bypassed load maps r9 -> def
    EXPECT_EQ(rs.refCount(def), 2u);
    EXPECT_EQ(rs.lookup(9), def);

    // A later writer of r9 renames and commits: one reference drops.
    PhysReg prev_w9;
    rs.allocate(9, prev_w9);
    EXPECT_EQ(prev_w9, def);
    rs.release(prev_w9);
    EXPECT_EQ(rs.refCount(def), 1u);
    // A later writer of r5 renames and commits: now def frees.
    PhysReg prev_w5;
    rs.allocate(5, prev_w5);
    EXPECT_EQ(prev_w5, def);
    rs.release(prev_w5);
    EXPECT_EQ(rs.refCount(def), 0u);
    EXPECT_TRUE(rs.consistent());
}

TEST(RenameState, SharedRegisterSurvivesOneSideFree)
{
    RenameState rs(160);
    PhysReg prev;
    const PhysReg def = rs.allocate(5, prev);
    PhysReg prev2;
    rs.shareMap(9, def, prev2);
    // The writer of r5 is overwritten and the overwriter commits.
    PhysReg prev_w5;
    rs.allocate(5, prev_w5);
    rs.release(prev_w5);
    // def must NOT be reallocatable: r9 still maps to it.
    EXPECT_EQ(rs.refCount(def), 1u);
    PhysReg prev3;
    const PhysReg other = rs.allocate(10, prev3);
    EXPECT_NE(other, def);
    EXPECT_TRUE(rs.consistent());
}

// ---------------------------------------------------------------------
// Core on hand-built programs
// ---------------------------------------------------------------------

/** Store-load pairs that a conventional design forwards. */
Program
forwardingProgram()
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 1);
    b.label("top");
    b.addi(4, 4, 7);
    b.st8(3, 0, 4);   // store
    b.ld8(5, 3, 0);   // immediately-following load
    b.add(6, 5, 5);   // USE
    b.jmp("top");
    return b.build();
}

/** No store-load communication at all. */
Program
independentProgram()
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0x4000);
    b.li(7, 1);
    b.label("top");
    b.ld8(5, 3, 0);
    b.addi(6, 5, 1);
    b.st8(4, 0, 6);
    b.addi(3, 3, 8);
    b.andi(3, 3, 0x3fff);
    b.ori(3, 3, 0x2000);
    b.jmp("top");
    return b.build();
}

std::vector<LsuMode>
allModes()
{
    return {LsuMode::SqPerfect, LsuMode::SqStoreSets, LsuMode::Nosq,
            LsuMode::NosqPerfect};
}

TEST(Core, RunsToInstructionLimitAllModes)
{
    const Program p = forwardingProgram();
    for (const auto mode : allModes()) {
        OooCore core(makeParams(mode), p);
        const SimResult r = core.run(20000);
        EXPECT_EQ(r.insts, 20000u) << lsuModeName(mode);
        EXPECT_GT(r.ipc(), 0.1) << lsuModeName(mode);
        EXPECT_LE(r.ipc(), 4.0) << lsuModeName(mode);
        EXPECT_TRUE(core.renameConsistent()) << lsuModeName(mode);
    }
}

TEST(Core, CommittedMemoryMatchesFunctionalSim)
{
    const Program p = forwardingProgram();
    for (const auto mode : allModes()) {
        OooCore core(makeParams(mode), p);
        core.run(10000);

        // Replay functionally for the same instruction count and
        // compare memory.
        FunctionalSim func(p);
        DynInst di;
        for (int i = 0; i < 10000; ++i)
            ASSERT_TRUE(func.step(di));
        // All stores retired by the core must be architecturally
        // visible. The core may have committed slightly fewer stores
        // (insts in the back-end); compare on the common prefix via
        // the store address used by this program.
        // The final committed value at 0x2000 must be one the
        // functional sim produced at some prefix -- the strongest
        // cheap check: core image value is consistent with
        // functional semantics (monotone accumulator).
        const std::uint64_t v =
            core.committedMemory().read(0x2000, 8);
        EXPECT_GT(v, 0u) << lsuModeName(mode);
        EXPECT_EQ((v - 1) % 7, 0u) << lsuModeName(mode);
    }
}

TEST(Core, NosqBypassesForwardingLoads)
{
    const Program p = forwardingProgram();
    OooCore core(makeParams(LsuMode::Nosq), p);
    const SimResult r = core.run(30000);
    // After predictor warm-up, the store-load pair bypasses.
    EXPECT_GT(r.bypassedLoads, r.loads / 2) << "bypass never engaged";
    // Bypassed loads skip the data cache in the core.
    EXPECT_LT(r.dcacheReadsCore, r.loads);
}

TEST(Core, BaselineForwardsFromStoreQueue)
{
    const Program p = forwardingProgram();
    OooCore core(makeParams(LsuMode::SqStoreSets), p);
    const SimResult r = core.run(30000);
    EXPECT_GT(r.sqForwards, 0u);
    // Every load reads the cache in the baseline.
    EXPECT_EQ(r.dcacheReadsCore, r.loads + r.reexecLoads == 0
              ? r.dcacheReadsCore : r.dcacheReadsCore);
    EXPECT_GE(r.dcacheReadsCore, r.loads);
}

TEST(Core, IndependentLoadsNeverBypass)
{
    const Program p = independentProgram();
    OooCore core(makeParams(LsuMode::Nosq), p);
    const SimResult r = core.run(30000);
    EXPECT_EQ(r.bypassedLoads, 0u);
    EXPECT_EQ(r.bypassMispredicts, 0u);
}

TEST(Core, PerfectModesNeverFlush)
{
    for (const auto mode :
         {LsuMode::SqPerfect, LsuMode::NosqPerfect}) {
        const Program p = forwardingProgram();
        OooCore core(makeParams(mode), p);
        const SimResult r = core.run(30000);
        EXPECT_EQ(r.loadFlushes, 0u) << lsuModeName(mode);
    }
}

TEST(Core, DeterministicAcrossRuns)
{
    const Program p = forwardingProgram();
    OooCore a(makeParams(LsuMode::Nosq), p);
    OooCore b(makeParams(LsuMode::Nosq), p);
    const SimResult ra = a.run(20000);
    const SimResult rb = b.run(20000);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.bypassedLoads, rb.bypassedLoads);
    EXPECT_EQ(ra.loadFlushes, rb.loadFlushes);
}

TEST(Core, SvwFiltersNearlyAllReexecutions)
{
    const Program p = forwardingProgram();
    OooCore core(makeParams(LsuMode::Nosq), p);
    const SimResult r = core.run(50000);
    // Paper Section 4.5: only ~0.7% of loads re-execute.
    EXPECT_LT(r.reexecRate(), 0.10);
}

TEST(Core, HaltingProgramStops)
{
    ProgramBuilder b;
    b.li(3, 5);
    b.li(4, 0x2000);
    b.st8(4, 0, 3);
    b.ld8(5, 4, 0);
    b.halt();
    const Program p = b.build();
    OooCore core(makeParams(LsuMode::Nosq), p);
    const SimResult r = core.run(1000000);
    EXPECT_EQ(r.insts, 4u); // halt itself never commits
    EXPECT_EQ(core.committedMemory().read(0x2000, 8), 5u);
}

// ---------------------------------------------------------------------
// Mis-speculation and recovery
// ---------------------------------------------------------------------

/**
 * A program whose communication distance alternates unpredictably
 * with data-dependent branches: drives bypassing mispredictions in
 * no-delay mode.
 */
Program
hardProgram()
{
    WorkloadBuilder wb(99);
    KernelParams kp;
    kp.branchNoise = 0.5;
    const auto data_dep = wb.addKernel(KernelKind::DataDep, kp);
    const auto memcpyb = wb.addKernel(KernelKind::MemcpyByte, {});
    std::vector<std::size_t> schedule;
    for (int i = 0; i < 4; ++i) {
        schedule.push_back(data_dep);
        schedule.push_back(memcpyb);
    }
    return wb.build(schedule);
}

TEST(Core, MisSpeculationRecoveryIsArchitecturallyCorrect)
{
    // The filter-soundness nosq_assert inside the core dies on any
    // wrong-valued commit, so surviving a hard program IS the test.
    const Program p = hardProgram();
    UarchParams params = makeParams(LsuMode::Nosq);
    params.nosqDelay = false;
    OooCore core(params, p);
    const SimResult r = core.run(60000);
    EXPECT_EQ(r.insts, 60000u);
    EXPECT_GT(r.loadFlushes, 0u) << "hard program caused no flushes";
    EXPECT_TRUE(core.renameConsistent());
}

TEST(Core, DelayReducesMispredictions)
{
    const Program p = hardProgram();
    UarchParams no_delay = makeParams(LsuMode::Nosq);
    no_delay.nosqDelay = false;
    UarchParams with_delay = makeParams(LsuMode::Nosq);
    with_delay.nosqDelay = true;

    OooCore a(no_delay, p);
    OooCore b(with_delay, p);
    const SimResult ra = a.run(80000);
    const SimResult rb = b.run(80000);
    EXPECT_LT(rb.bypassMispredicts, ra.bypassMispredicts);
    EXPECT_GT(rb.delayedLoads, 0u);
}

TEST(Core, BaselineRecoversFromSchedulingViolations)
{
    const Program p = hardProgram();
    OooCore core(makeParams(LsuMode::SqStoreSets), p);
    const SimResult r = core.run(60000);
    EXPECT_EQ(r.insts, 60000u);
    EXPECT_TRUE(core.renameConsistent());
}

// ---------------------------------------------------------------------
// SSN wraparound
// ---------------------------------------------------------------------

TEST(Core, SsnWrapDrainsAndSurvives)
{
    const Program p = forwardingProgram();
    UarchParams params = makeParams(LsuMode::Nosq);
    params.ssnWrapPeriod = 256; // force frequent wraps
    OooCore core(params, p);
    const SimResult r = core.run(30000);
    EXPECT_EQ(r.insts, 30000u);
    EXPECT_GT(r.ssnWrapDrains, 10u);
    EXPECT_TRUE(core.renameConsistent());
}

TEST(Core, SsnWrapDrainsBaselineToo)
{
    const Program p = forwardingProgram();
    UarchParams params = makeParams(LsuMode::SqStoreSets);
    params.ssnWrapPeriod = 256;
    OooCore core(params, p);
    const SimResult r = core.run(30000);
    EXPECT_EQ(r.insts, 30000u);
    EXPECT_GT(r.ssnWrapDrains, 10u);
}

// ---------------------------------------------------------------------
// Partial-word bypassing end to end
// ---------------------------------------------------------------------

TEST(Core, PartialWordBypassUsesShiftUops)
{
    WorkloadBuilder wb(5);
    const auto sc = wb.addKernel(KernelKind::StructCopy, {});
    std::vector<std::size_t> schedule(4, sc);
    const Program p = wb.build(schedule);
    OooCore core(makeParams(LsuMode::Nosq), p);
    const SimResult r = core.run(50000);
    EXPECT_GT(r.shiftUops, 0u);
    EXPECT_GT(r.bypassedLoads, 0u);
}

TEST(Core, FpConvertBypassWorks)
{
    WorkloadBuilder wb(6);
    const auto fc = wb.addKernel(KernelKind::FpConvert, {});
    std::vector<std::size_t> schedule(4, fc);
    const Program p = wb.build(schedule);
    OooCore core(makeParams(LsuMode::Nosq), p);
    const SimResult r = core.run(50000);
    EXPECT_EQ(r.insts, 50000u);
    EXPECT_GT(r.bypassedLoads, 0u);
    EXPECT_GT(r.shiftUops, 0u); // fp conversion needs the uop
}

TEST(Core, MultiWriterLoadsLearnDelay)
{
    WorkloadBuilder wb(7);
    const auto mc = wb.addKernel(KernelKind::MemcpyByte, {});
    std::vector<std::size_t> schedule(4, mc);
    const Program p = wb.build(schedule);
    UarchParams params = makeParams(LsuMode::Nosq);
    params.nosqDelay = true;
    OooCore core(params, p);
    const SimResult r = core.run(60000);
    // Multi-writer communication cannot bypass; with delay the
    // steady state should be delays, not flushes.
    EXPECT_GT(r.delayedLoads, 0u);
    EXPECT_LT(r.bypassMispredicts, r.loads / 50);
}

// ---------------------------------------------------------------------
// Window scaling sanity
// ---------------------------------------------------------------------

TEST(Core, BigWindowConfigRuns)
{
    const Program p = forwardingProgram();
    for (const auto mode : allModes()) {
        OooCore core(makeParams(mode, /*big_window=*/true), p);
        const SimResult r = core.run(20000);
        EXPECT_EQ(r.insts, 20000u) << lsuModeName(mode);
        EXPECT_TRUE(core.renameConsistent());
    }
}

// ---------------------------------------------------------------------
// Issue-candidate index
// ---------------------------------------------------------------------

/** What an end-of-tick issue-index check saw over one run. */
struct IndexCheck
{
    std::uint64_t ticks = 0;
    std::uint64_t bad = 0;   // ticks that ended inconsistent
    Cycle firstBad = 0;
};

/** Check issueIndexConsistent() at the end of every tick of @p core. */
void
watchIssueIndex(OooCore &core, IndexCheck &check)
{
    core.setTickObserver([&check](const OooCore &c) {
        ++check.ticks;
        if (!c.issueIndexConsistent() && check.bad++ == 0)
            check.firstBad = c.now();
    });
}

TEST(Core, IssueIndexConsistentEveryTickAllModesBothWindows)
{
    for (const Program &p : {forwardingProgram(), hardProgram()}) {
        for (const bool big : {false, true}) {
            for (const auto mode : allModes()) {
                OooCore core(makeParams(mode, big), p);
                IndexCheck check;
                watchIssueIndex(core, check);
                const SimResult r = core.run(20000);
                EXPECT_EQ(r.insts, 20000u) << lsuModeName(mode);
                EXPECT_GT(check.ticks, 0u);
                EXPECT_EQ(check.bad, 0u)
                    << lsuModeName(mode) << (big ? " big" : "")
                    << " window: first bad tick at cycle "
                    << check.firstBad;
            }
        }
    }
}

TEST(Core, IssueIndexConsistentEveryTickThroughFlushes)
{
    // No-delay NoSQ on the hard program mispredicts bypasses often:
    // every flush truncates the issue queue mid-run.
    UarchParams params = makeParams(LsuMode::Nosq);
    params.nosqDelay = false;
    OooCore core(params, hardProgram());
    IndexCheck check;
    watchIssueIndex(core, check);
    const SimResult r = core.run(60000);
    EXPECT_GT(r.loadFlushes, 0u) << "hard program caused no flushes";
    EXPECT_GT(r.shiftUops, 0u) << "no shift uops entered the IQ";
    EXPECT_EQ(check.bad, 0u)
        << "first bad tick at cycle " << check.firstBad;
}

TEST(Core, IssueIndexConsistentEveryTickWhenSampled)
{
    // Each sampling period squashes to the committed boundary and
    // fast-forwards with the window empty.
    SamplingParams sp;
    sp.enabled = true;
    sp.ffLength = 5000;
    sp.warmupLength = 1000;
    sp.interval = 2000;
    sp.intervals = 5;
    sp.seed = 3;
    for (const auto mode : {LsuMode::SqStoreSets, LsuMode::Nosq}) {
        OooCore core(makeParams(mode), hardProgram());
        IndexCheck check;
        watchIssueIndex(core, check);
        const SimResult r = core.runSampled(sp);
        EXPECT_EQ(r.sampleIntervals, 5u) << lsuModeName(mode);
        EXPECT_GT(check.ticks, 0u);
        EXPECT_EQ(check.bad, 0u)
            << lsuModeName(mode) << ": first bad tick at cycle "
            << check.firstBad;
    }
}

} // anonymous namespace
} // namespace nosq
