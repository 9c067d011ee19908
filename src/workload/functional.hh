/**
 * @file
 * The architectural (functional) simulator.
 *
 * Executes the micro-ISA one instruction at a time, producing DynInst
 * records annotated with the byte-granular dependence oracle. The
 * timing model treats its output as the correct-path instruction
 * stream (trace-driven control flow).
 */

#ifndef NOSQ_WORKLOAD_FUNCTIONAL_HH
#define NOSQ_WORKLOAD_FUNCTIONAL_HH

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "workload/memory.hh"
#include "workload/trace.hh"

namespace nosq {

/** Architectural interpreter with dependence-oracle annotation. */
class FunctionalSim
{
  public:
    /**
     * Borrow a shared program (the normal path: sweeps run many
     * cores over one synthesized program, see workload/program_cache.hh).
     */
    explicit FunctionalSim(std::shared_ptr<const Program> program);

    /** Copying convenience overload, so callers may pass temporaries. */
    explicit FunctionalSim(const Program &program);

    /**
     * Execute one instruction.
     *
     * @param out receives the dynamic instruction record
     * @param bytes if non-null, receives the per-byte last-writer
     *        detail for loads (zeroed for everything else)
     * @return false once the program has halted (out is not written)
     */
    bool step(DynInst &out, OracleBytes *bytes = nullptr);

    bool halted() const { return isHalted; }
    Addr pc() const { return currentPc; }

    /** Architectural register read (for tests and examples). */
    std::uint64_t reg(RegIndex index) const { return regFile[index]; }

    const SparseMemory &memory() const { return mem; }
    SparseMemory &memory() { return mem; }

    /** Total dynamic instructions executed so far. */
    InstSeq instCount() const { return seqCounter; }

    /** Total dynamic stores executed so far (== last assigned SSN). */
    SSN storeCount() const { return ssnCounter; }

  private:
    std::uint64_t aluResult(const Instruction &si) const;

    // Shared-const so one synthesized program serves many concurrent
    // simulations without a per-core copy (the copying constructor
    // still allows temporaries).
    std::shared_ptr<const Program> prog;
    Addr currentPc;
    std::array<std::uint64_t, num_arch_regs> regFile{};
    SparseMemory mem;
    ShadowMemory shadow;
    InstSeq seqCounter = 0;
    SSN ssnCounter = 0;
    bool isHalted = false;

    /**
     * Ring of the last comm_oracle_stores store seqs, indexed by
     * store ordinal (the SSN) modulo the ring size: the communication
     * oracle's recent-store window, maintained here so DynInst can
     * carry the precomputed partial-word classification instead of
     * the per-byte arrays the timing core used to rescan at
     * retirement.
     */
    std::array<InstSeq, comm_oracle_stores> recentStoreSeqs{};
};

/**
 * Rewindable stream of DynInsts on top of FunctionalSim.
 *
 * The timing model fetches through a cursor; on a pipeline flush it
 * rewinds the cursor to the squashed instruction. Records live in a
 * fixed power-of-two ring: FunctionalSim::step writes each one
 * straight into its slot (seq & mask) and the pipeline reads it in
 * place, never copying it.
 *
 * Ownership: the stream owns every record. A record stays valid, at a
 * stable address, until retireUpTo() has moved retire_margin
 * instructions past it, so references handed out by peek()/next()
 * may be held (OooCore's Inflight::di) for as long as the instruction
 * is in flight. The ring is sized for the caller's largest unretired
 * window; buffering more than that is an assertion failure.
 */
class TraceStream
{
  public:
    /**
     * Records kept behind the retirement barrier, so that
     * rewindTo(retiredSeq() + 1) always works.
     */
    static constexpr std::size_t retire_margin = 64;

    /**
     * @param window the most instructions the caller holds fetched but
     *        unretired (OooCore: robSize + fetchBufferSize); the ring
     *        holds nextPow2(window + retire_margin + 1) records, the 1
     *        being the record peek() reads ahead of the cursor
     */
    TraceStream(std::shared_ptr<const Program> program,
                std::size_t window);
    TraceStream(const Program &program, std::size_t window);

    /** @return true if an instruction is available at the cursor. */
    bool hasNext();

    /** Inspect the instruction at the cursor without consuming it. */
    const DynInst &peek();

    /** Consume the instruction at the cursor and advance. */
    const DynInst &next();

    /**
     * Move the cursor back so the next fetched instruction is @p seq.
     * @p seq must not have been retired.
     */
    void rewindTo(InstSeq seq);

    /** Mark all instructions with seq <= @p seq retired. */
    void retireUpTo(InstSeq seq);

    /** Dynamic seq the cursor will deliver next (1-based). */
    InstSeq cursorSeq() const { return cursor; }

    /** Highest seq marked retired (the rewind barrier). */
    InstSeq retiredSeq() const { return retired; }

    /** Ring size in records (a power of two). */
    std::size_t capacity() const { return ring.size(); }

    FunctionalSim &functional() { return func; }

  private:
    bool fill();
    DynInst &slot(InstSeq seq) { return ring[seq & mask]; }

    FunctionalSim func;
    std::vector<DynInst> ring;
    std::size_t mask = 0;
    InstSeq baseSeq = 1; // oldest buffered seq
    InstSeq endSeq = 1;  // one past the youngest buffered seq
    InstSeq cursor = 1;  // seq next() delivers
    InstSeq retired = 0;
};

} // namespace nosq

#endif // NOSQ_WORKLOAD_FUNCTIONAL_HH
