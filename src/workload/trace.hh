/**
 * @file
 * Dynamic instruction records (the rewindable stream that owns them
 * is TraceStream, workload/functional.hh).
 */

#ifndef NOSQ_WORKLOAD_TRACE_HH
#define NOSQ_WORKLOAD_TRACE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/isa.hh"

namespace nosq {

/**
 * In-window communication oracle window (Table 5): a load counts as
 * communicating when its youngest writer store is at most this many
 * dynamic instructions older.
 */
constexpr unsigned comm_oracle_window = 128;

/**
 * How many recent stores the communication oracle keeps sizes for
 * when classifying partial-word communication (the historical
 * 4 * comm_oracle_window pruning bound of the retirement-side map
 * this replaced; preserved exactly for bit-identical statistics).
 */
constexpr unsigned comm_oracle_stores = 4 * comm_oracle_window;

/**
 * Per-byte last-writer detail for one load: the SSN and dynamic
 * sequence number of the last store that wrote each accessed byte
 * (zero if the byte was never stored to). This is the full-resolution
 * form of the dependence oracle; the timing model only needs the
 * precomputed summary carried in DynInst, so the detail is produced
 * on demand (FunctionalSim::step's optional out-parameter) and never
 * copied through the pipeline.
 */
struct OracleBytes
{
    std::array<std::uint32_t, 8> writerSsn{};
    std::array<std::uint32_t, 8> writerSeq{};
};

/**
 * One dynamic instruction as produced by the functional simulator.
 *
 * Loads carry a precomputed summary of the byte-granular dependence
 * oracle (youngest writer, single-writer coverage, and the windowed
 * partial-word communication classification). The timing model uses
 * real values (storeData / loadValue / memValue) so speculation
 * outcomes are decided by genuine value comparison, never by oracle
 * flags.
 *
 * Each record is written once, into its slot of the TraceStream
 * ring, and the pipeline reads it there through Inflight::di; it is
 * never copied between stages. Keep it lean all the same: step()
 * writes one per simulated instruction. Per-byte oracle detail lives
 * in OracleBytes, off the hot path.
 */
struct DynInst
{
    InstSeq seq = 0; // 1-based dynamic sequence number
    Addr pc = 0;
    Instruction si;
    InstClass cls = InstClass::SimpleInt;

    // --- memory operations ------------------------------------------
    Addr addr = 0;
    std::uint8_t size = 0;
    /** Stores: the full 64-bit value of the data register. */
    std::uint64_t storeData = 0;
    /** Raw bytes read/written at [addr, addr+size), little-endian. */
    std::uint64_t memValue = 0;
    /** Loads: architectural register result (after extend/convert). */
    std::uint64_t loadValue = 0;
    /** Stores: the store's oracle SSN (1-based). */
    SSN ssn = 0;

    // --- load dependence oracle (precomputed summary) -----------------
    /** Youngest writer SSN over all accessed bytes (0: none). */
    std::uint32_t oracleWriterSsn = 0;
    /** Youngest writer dynamic seq over all accessed bytes (0: none). */
    std::uint32_t oracleWriterSeq = 0;
    /** One single store wrote every accessed byte. */
    bool oracleSingleWriter = false;
    /**
     * The load classifies as partial-word communication if it
     * communicates at all: it is sub-word itself, or some accessed
     * byte was last written by a sub-word store still inside the
     * comm_oracle_stores recent-store window.
     */
    bool oraclePartial = false;

    // --- control flow -------------------------------------------------
    bool taken = false;
    Addr npc = 0; // next executed PC
    bool halted = false;

    bool isLoad() const { return cls == InstClass::Load; }
    bool isStore() const { return cls == InstClass::Store; }
    bool isBranch() const { return cls == InstClass::Branch; }

    /**
     * @return the youngest writer SSN over all accessed bytes, or 0 if
     * no byte was ever written by a store.
     */
    std::uint32_t youngestWriterSsn() const { return oracleWriterSsn; }

    /** @return the youngest writer dynamic seq, or 0. */
    std::uint32_t youngestWriterSeq() const { return oracleWriterSeq; }

    /**
     * @return true if one single store wrote every accessed byte (the
     * bypassable case); multi-writer and partially-unwritten loads
     * return false.
     */
    bool singleWriter() const { return oracleSingleWriter; }
};

} // namespace nosq

#endif // NOSQ_WORKLOAD_TRACE_HH
