/**
 * @file
 * Fundamental scalar types shared by all simulator components.
 */

#ifndef NOSQ_COMMON_TYPES_HH
#define NOSQ_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace nosq {

/** Simulated clock cycle count. */
using Cycle = std::uint64_t;

/** Virtual (and, in this model, physical) byte address. */
using Addr = std::uint64_t;

/**
 * Store sequence number. SSNs are assigned to stores at rename in
 * monotonically increasing order and name both in-flight and committed
 * stores (Roth, ISCA 2005). The architectural width is 20 bits; the
 * simulator keeps SSNs in 64 bits and models the 20-bit wraparound drain
 * explicitly (see nosq/ssn.hh).
 */
using SSN = std::uint64_t;

/** Dynamic instruction sequence number (program order, from 1). */
using InstSeq = std::uint64_t;

/** Architectural register index. */
using RegIndex = std::uint16_t;

/** Physical register index. */
using PhysReg = std::uint16_t;

/** Sentinel for "no physical register". */
constexpr PhysReg invalid_phys_reg = 0xffff;

/** Sentinel for "no SSN" / "no store". */
constexpr SSN invalid_ssn = ~SSN(0);

/** Sentinel for "no instruction". */
constexpr InstSeq invalid_seq = ~InstSeq(0);

/** Smallest power of two >= @p n (n >= 1): ring capacities. */
inline std::size_t
nextPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace nosq

#endif // NOSQ_COMMON_TYPES_HH
