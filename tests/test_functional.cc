/**
 * @file
 * Tests for the functional simulator: architectural semantics, the
 * byte-granular dependence oracle, and the rewindable trace stream.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <unordered_map>

#include "isa/program.hh"
#include "ooo/core.hh"
#include "workload/functional.hh"
#include "workload/generator.hh"
#include "workload/memory.hh"
#include "workload/profiles.hh"

namespace nosq {
namespace {

/** Run @p prog until halt (or limit) collecting the trace. */
std::vector<DynInst>
runAll(const Program &prog, std::size_t limit = 100000)
{
    FunctionalSim sim(prog);
    std::vector<DynInst> out;
    DynInst di;
    while (out.size() < limit && sim.step(di))
        out.push_back(di);
    return out;
}

/** runAll() variant that also collects the per-byte oracle detail. */
std::vector<std::pair<DynInst, OracleBytes>>
runAllWithBytes(const Program &prog, std::size_t limit = 100000)
{
    FunctionalSim sim(prog);
    std::vector<std::pair<DynInst, OracleBytes>> out;
    DynInst di;
    OracleBytes bytes;
    while (out.size() < limit && sim.step(di, &bytes))
        out.emplace_back(di, bytes);
    return out;
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788ull);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344ull);
    EXPECT_EQ(m.read(0x1002, 2), 0x5566ull);
}

TEST(SparseMemory, UnwrittenReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0xdead0000, 8), 0ull);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr addr = SparseMemory::page_size - 4;
    m.write(addr, 8, 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.read(addr, 8), 0xa1b2c3d4e5f60718ull);
}

TEST(ShadowMemory, TracksLastWriterPerByte)
{
    ShadowMemory s;
    s.recordStore(0x100, 8, 1, 10); // SSN 1 writes 8 bytes
    s.recordStore(0x102, 2, 2, 11); // SSN 2 overwrites bytes 2-3
    EXPECT_EQ(s.writer(0x100).ssn, 1u);
    EXPECT_EQ(s.writer(0x102).ssn, 2u);
    EXPECT_EQ(s.writer(0x103).ssn, 2u);
    EXPECT_EQ(s.writer(0x104).ssn, 1u);
    EXPECT_FALSE(s.writer(0x200).valid());
}

/**
 * Random accesses clustered around page boundaries, over pages that
 * are written, read before any write, and never written at all.
 */
Addr
randomAddr(std::mt19937_64 &rng)
{
    // Pages 0x10..0x13 are live; 0x40 is only ever read.
    const Addr page = std::uniform_int_distribution<int>(0, 4)(rng) == 4
        ? 0x40 : 0x10 + std::uniform_int_distribution<int>(0, 3)(rng);
    const Addr offset = std::uniform_int_distribution<int>(0, 1)(rng)
        ? std::uniform_int_distribution<Addr>(
              SparseMemory::page_size - 12, SparseMemory::page_size - 1)(
              rng)
        : std::uniform_int_distribution<Addr>(
              0, SparseMemory::page_size - 1)(rng);
    return (page << SparseMemory::page_bits) + offset;
}

unsigned
randomSize(std::mt19937_64 &rng)
{
    return 1u << std::uniform_int_distribution<int>(0, 3)(rng);
}

TEST(SparseMemory, PageAccessesMatchBytewiseModel)
{
    std::mt19937_64 rng(7);
    SparseMemory m;
    std::unordered_map<Addr, std::uint8_t> model;
    auto model_read = [&](Addr a, unsigned size) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i) {
            const auto it = model.find(a + i);
            if (it != model.end())
                v |= std::uint64_t(it->second) << (8 * i);
        }
        return v;
    };

    int straddles = 0;
    for (int op = 0; op < 20000; ++op) {
        const Addr a = randomAddr(rng);
        const unsigned size = randomSize(rng);
        straddles += (a & SparseMemory::page_mask) + size >
            SparseMemory::page_size;
        switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
          case 0: {
            if ((a >> SparseMemory::page_bits) == 0x40)
                break; // keep the read-only page unwritten
            const std::uint64_t v = rng();
            m.write(a, size, v);
            for (unsigned i = 0; i < size; ++i)
                model[a + i] = std::uint8_t(v >> (8 * i));
            break;
          }
          case 1: {
            if ((a >> SparseMemory::page_bits) == 0x40)
                break;
            // A multi-page block write.
            std::vector<std::uint8_t> data(
                std::uniform_int_distribution<std::size_t>(
                    1, 2 * SparseMemory::page_size + 3)(rng));
            for (auto &b : data)
                b = std::uint8_t(rng());
            const Addr base = a & ~Addr(0xff);
            m.writeBytes(base, data.data(), data.size());
            for (std::size_t i = 0; i < data.size(); ++i)
                model[base + i] = data[i];
            break;
          }
          default:
            ASSERT_EQ(m.read(a, size), model_read(a, size))
                << "addr 0x" << std::hex << a << " size " << size;
            ASSERT_EQ(m.readByte(a), model_read(a, 1));
        }
    }
    EXPECT_GT(straddles, 1000);
    // Reads and empty writes never materialize a page: the only pages
    // present are the ones a write touched, so page 0x40 is absent.
    const std::uint8_t unused = 0;
    m.writeBytes(Addr(0x40) << SparseMemory::page_bits, &unused, 0);
    std::set<Addr> written;
    for (const auto &kv : model)
        written.insert(kv.first >> SparseMemory::page_bits);
    EXPECT_EQ(written.count(0x40), 0u);
    EXPECT_EQ(m.numPages(), written.size());
}

TEST(ShadowMemory, PageWalkMatchesBytewiseModel)
{
    std::mt19937_64 rng(11);
    ShadowMemory s;
    std::unordered_map<Addr, ByteWriter> model;
    for (int op = 1; op <= 20000; ++op) {
        const Addr a = randomAddr(rng);
        const unsigned size = randomSize(rng);
        if ((a >> SparseMemory::page_bits) != 0x40 && rng() % 2 == 0) {
            s.recordStore(a, size, op, 3 * op);
            for (unsigned i = 0; i < size; ++i) {
                ByteWriter &w = model[a + i];
                w.ssn = op;
                w.seq = 3 * op;
                w.size = std::uint8_t(size);
            }
            continue;
        }
        unsigned visited = 0;
        s.forEachWriter(a, size, [&](unsigned i, const ByteWriter &w) {
            const auto it = model.find(a + i);
            const ByteWriter want =
                it == model.end() ? ByteWriter() : it->second;
            EXPECT_EQ(i, visited++);
            EXPECT_EQ(w.ssn, want.ssn);
            EXPECT_EQ(w.seq, want.seq);
            EXPECT_EQ(w.size, want.size);
            EXPECT_EQ(s.writer(a + i).ssn, want.ssn);
        });
        ASSERT_EQ(visited, size);
    }
}

TEST(Functional, AluBasics)
{
    ProgramBuilder b;
    b.li(3, 10);
    b.li(4, 3);
    b.add(5, 3, 4);
    b.sub(6, 3, 4);
    b.mul(7, 3, 4);
    b.cmplt(8, 4, 3);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(5), 13u);
    EXPECT_EQ(sim.reg(6), 7u);
    EXPECT_EQ(sim.reg(7), 30u);
    EXPECT_EQ(sim.reg(8), 1u);
}

TEST(Functional, ZeroRegisterIsImmutable)
{
    ProgramBuilder b;
    b.li(reg_zero, 99);
    b.addi(3, reg_zero, 5);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(reg_zero), 0u);
    EXPECT_EQ(sim.reg(3), 5u);
}

TEST(Functional, StoreLoadRoundTripAllSizes)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, static_cast<std::int64_t>(0xfedcba9876543210ull));
    b.st8(3, 0, 4);
    b.st4(3, 8, 4);
    b.st2(3, 12, 4);
    b.st1(3, 14, 4);
    b.ld8(10, 3, 0);
    b.ld4u(11, 3, 8);
    b.ld2u(12, 3, 12);
    b.ld1u(13, 3, 14);
    b.ld4s(14, 3, 8);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(10), 0xfedcba9876543210ull);
    EXPECT_EQ(sim.reg(11), 0x76543210ull);
    EXPECT_EQ(sim.reg(12), 0x3210ull);
    EXPECT_EQ(sim.reg(13), 0x10ull);
    EXPECT_EQ(sim.reg(14), 0x76543210ull); // positive, no extension
}

TEST(Functional, SignExtendingLoads)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0xff);
    b.st1(3, 0, 4);
    b.ld1s(5, 3, 0);
    b.ld1u(6, 3, 0);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(5), 0xffffffffffffffffull);
    EXPECT_EQ(sim.reg(6), 0xffull);
}

TEST(Functional, FpConvertStoreLoad)
{
    // Store 1.5 (double) as float32, load it back as double.
    ProgramBuilder b;
    b.li(3, 0x3000);
    b.li(4, 0x3ff8000000000000ll); // 1.5 as double bits
    b.sts(3, 0, 4);
    b.lds(5, 3, 0);
    b.halt();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(5), 0x3ff8000000000000ull);
    // In-memory image must be the 4-byte float pattern.
    EXPECT_EQ(sim.memory().read(0x3000, 4), 0x3fc00000ull);
}

TEST(Functional, BranchesAndCalls)
{
    ProgramBuilder b;
    b.li(3, 2);
    b.label("loop");
    b.addi(4, 4, 10);
    b.addi(3, 3, -1);
    b.bne(3, reg_zero, "loop");
    b.call("fn");
    b.halt();
    b.label("fn");
    b.addi(4, 4, 100);
    b.ret();
    Program p = b.build();
    FunctionalSim sim(p);
    DynInst di;
    while (sim.step(di)) {}
    EXPECT_EQ(sim.reg(4), 120u);
}

TEST(Functional, TraceRecordsBranchOutcome)
{
    ProgramBuilder b;
    b.li(3, 1);
    b.beq(3, reg_zero, "skip"); // not taken
    b.bne(3, reg_zero, "skip"); // taken
    b.nop();
    b.label("skip");
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    ASSERT_GE(trace.size(), 3u);
    EXPECT_FALSE(trace[1].taken);
    EXPECT_EQ(trace[1].npc, trace[1].pc + inst_bytes);
    EXPECT_TRUE(trace[2].taken);
    EXPECT_EQ(trace[2].npc, 4 * inst_bytes);
}

TEST(Functional, OracleSingleWriter)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 42);
    b.st8(3, 0, 4);   // SSN 1
    b.ld8(5, 3, 0);
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    const DynInst &ld = trace[3];
    ASSERT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.singleWriter());
    EXPECT_EQ(ld.youngestWriterSsn(), 1u);
    EXPECT_EQ(ld.loadValue, 42u);
}

TEST(Functional, OracleMultiWriter)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0x11);
    b.li(5, 0x22);
    b.st1(3, 0, 4);   // SSN 1
    b.st1(3, 1, 5);   // SSN 2
    b.ld2u(6, 3, 0);  // reads both
    b.halt();
    Program p = b.build();
    const auto trace = runAllWithBytes(p);
    const DynInst &ld = trace[5].first;
    const OracleBytes &bytes = trace[5].second;
    ASSERT_TRUE(ld.isLoad());
    EXPECT_FALSE(ld.singleWriter());
    EXPECT_EQ(bytes.writerSsn[0], 1u);
    EXPECT_EQ(bytes.writerSsn[1], 2u);
    EXPECT_EQ(ld.youngestWriterSsn(), 2u);
    EXPECT_EQ(ld.loadValue, 0x2211u);
}

TEST(Functional, OraclePartiallyUnwrittenIsNotSingleWriter)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 0x7f);
    b.st1(3, 0, 4);   // only byte 0 written
    b.ld2u(5, 3, 0);
    b.halt();
    Program p = b.build();
    const auto trace = runAllWithBytes(p);
    const DynInst &ld = trace[3].first;
    const OracleBytes &bytes = trace[3].second;
    EXPECT_FALSE(ld.singleWriter());
    EXPECT_EQ(bytes.writerSsn[0], 1u);
    EXPECT_EQ(bytes.writerSsn[1], 0u);
}

TEST(Functional, OracleOverwriteTracksYoungest)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 1);
    b.li(5, 2);
    b.st8(3, 0, 4);   // SSN 1
    b.st8(3, 0, 5);   // SSN 2 overwrites
    b.ld8(6, 3, 0);
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    const DynInst &ld = trace[5];
    EXPECT_TRUE(ld.singleWriter());
    EXPECT_EQ(ld.youngestWriterSsn(), 2u);
    EXPECT_EQ(ld.loadValue, 2u);
}

TEST(Functional, InitDataDoesNotCreateWriters)
{
    ProgramBuilder b;
    b.li(3, 0x4000);
    b.ld8(4, 3, 0);
    b.halt();
    b.initWords(0x4000, {777});
    Program p = b.build();
    const auto trace = runAll(p);
    const DynInst &ld = trace[1];
    EXPECT_EQ(ld.loadValue, 777u);
    EXPECT_EQ(ld.youngestWriterSsn(), 0u);
    EXPECT_FALSE(ld.singleWriter());
}

TEST(Functional, SsnsAreSequential)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    for (int i = 0; i < 5; ++i)
        b.st8(3, i * 8, 3);
    b.halt();
    Program p = b.build();
    const auto trace = runAll(p);
    SSN expect = 1;
    for (const auto &di : trace) {
        if (di.isStore()) {
            EXPECT_EQ(di.ssn, expect++);
        }
    }
    EXPECT_EQ(expect, 6u);
}

TEST(TraceStream, SequentialDelivery)
{
    ProgramBuilder b;
    b.li(3, 1);
    b.li(4, 2);
    b.add(5, 3, 4);
    b.halt();
    Program p = b.build();
    TraceStream ts(p, 8);
    EXPECT_EQ(ts.next().seq, 1u);
    EXPECT_EQ(ts.next().seq, 2u);
    EXPECT_EQ(ts.peek().seq, 3u);
    EXPECT_EQ(ts.next().seq, 3u);
    EXPECT_EQ(ts.next().seq, 4u); // halt
    EXPECT_FALSE(ts.hasNext());
}

TEST(TraceStream, RewindReplaysIdentically)
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.li(4, 7);
    b.st8(3, 0, 4);
    b.ld8(5, 3, 0);
    b.halt();
    Program p = b.build();
    TraceStream ts(p, 8);
    std::vector<DynInst> first;
    for (int i = 0; i < 5; ++i)
        first.push_back(ts.next());
    ts.rewindTo(3);
    EXPECT_EQ(ts.cursorSeq(), 3u);
    const DynInst &replay = ts.next();
    EXPECT_EQ(replay.seq, first[2].seq);
    EXPECT_EQ(replay.pc, first[2].pc);
    EXPECT_EQ(replay.addr, first[2].addr);
}

TEST(TraceStream, RetireBoundsBuffer)
{
    ProgramBuilder b;
    b.label("top");
    b.addi(3, 3, 1);
    b.jmp("top");
    Program p = b.build();
    TraceStream ts(p, 256);
    for (int i = 0; i < 10000; ++i) {
        const DynInst &di = ts.next();
        if (di.seq > 256)
            ts.retireUpTo(di.seq - 256);
    }
    // After retirement the stream can still rewind within the window.
    ts.rewindTo(ts.cursorSeq() - 64);
    EXPECT_TRUE(ts.hasNext());
}

/** An endless loop with a load and a store every iteration. */
Program
endlessLoop()
{
    ProgramBuilder b;
    b.li(3, 0x2000);
    b.label("top");
    b.addi(4, 4, 1);
    b.st8(3, 0, 4);
    b.ld8(5, 3, 0);
    b.jmp("top");
    return b.build();
}

TEST(TraceStream, RecordsStayInPlaceWhileUnretired)
{
    TraceStream ts(endlessLoop(), 32);
    const DynInst &held = ts.next();
    const DynInst *where = &held;
    const DynInst copy = held;
    // Fill the rest of the ring without retiring the held record.
    for (std::size_t i = 1; i < ts.capacity(); ++i)
        ts.next();
    EXPECT_EQ(&held, where);
    EXPECT_EQ(held.seq, copy.seq);
    EXPECT_EQ(held.pc, copy.pc);
    EXPECT_EQ(held.npc, copy.npc);
    ts.rewindTo(held.seq);
    EXPECT_EQ(&ts.next(), where);
}

TEST(TraceStream, RingHoldsWindowPlusRetireMargin)
{
    // The core's pattern at its limit: `window` fetched-but-unretired
    // records, retirement chasing the cursor, and rewinds to the
    // barrier. None of it may trip the overflow assert, and every
    // record in flight keeps its address. window + margin + 1 = 129
    // is one past a power of two, so a ring sized without the
    // peek-ahead slot would hold only 128.
    constexpr std::size_t window = 64;
    TraceStream ts(endlessLoop(), window);
    std::vector<const DynInst *> inflight;
    for (int i = 0; i < 5000; ++i) {
        while (inflight.size() < window)
            inflight.push_back(&ts.next());
        ASSERT_TRUE(ts.hasNext()); // the peeked record fits too
        for (std::size_t k = 0; k < inflight.size(); ++k)
            ASSERT_EQ(inflight[k]->seq, inflight[0]->seq + k);
        const std::size_t retire = 1 + i % 7;
        ts.retireUpTo(inflight[retire - 1]->seq);
        inflight.erase(inflight.begin(), inflight.begin() + retire);
        if (i % 13 == 0) {
            ts.rewindTo(ts.retiredSeq() + 1);
            inflight.clear();
        }
    }
}

TEST(TraceStreamDeathTest, OverflowingTheWindowAsserts)
{
    EXPECT_DEATH(
        {
            TraceStream ts(endlessLoop(), 8);
            for (std::size_t i = 0; i <= ts.capacity(); ++i)
                ts.next();
        },
        "endSeq - baseSeq < ring.size");
}

TEST(TraceStream, BigWindowCoreRunsInEveryMode)
{
    const BenchmarkProfile *profile = findProfile("gcc");
    ASSERT_NE(profile, nullptr);
    const Program prog = synthesize(*profile, 1);
    for (const auto mode : {LsuMode::SqPerfect, LsuMode::SqStoreSets,
                            LsuMode::Nosq, LsuMode::NosqPerfect}) {
        OooCore core(makeParams(mode, /*big_window=*/true), prog);
        const SimResult r = core.run(6000, 2000);
        EXPECT_EQ(r.insts, 6000u) << lsuModeName(mode);
        EXPECT_TRUE(core.renameConsistent()) << lsuModeName(mode);
    }

    SamplingParams sp;
    sp.enabled = true;
    sp.ffLength = 3000;
    sp.warmupLength = 500;
    sp.interval = 1000;
    sp.intervals = 4;
    OooCore core(makeParams(LsuMode::Nosq, /*big_window=*/true), prog);
    const SimResult s = core.runSampled(sp);
    EXPECT_EQ(s.sampleIntervals, 4u);
    EXPECT_EQ(s.insts, 4000u);
}

} // anonymous namespace
} // namespace nosq
