#include "workload/functional.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace nosq {

FunctionalSim::FunctionalSim(std::shared_ptr<const Program> program)
    : prog(std::move(program)), currentPc(prog->entryPc)
{
    for (const auto &[base, bytes] : prog->initData)
        mem.writeBytes(base, bytes.data(), bytes.size());
    // A distant, initially-zero stack.
    regFile[reg_sp] = 0x7ff0'0000;
}

FunctionalSim::FunctionalSim(const Program &program)
    : FunctionalSim(std::make_shared<const Program>(program))
{
}

std::uint64_t
FunctionalSim::aluResult(const Instruction &si) const
{
    const std::uint64_t a = regFile[si.ra];
    const std::uint64_t b = regFile[si.rb];
    const auto imm = static_cast<std::uint64_t>(si.imm);

    auto as_double = [](std::uint64_t bits) {
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    };
    auto from_double = [](double d) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return bits;
    };

    switch (si.op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Sll: return a << (b & 63);
      case Opcode::Srl: return a >> (b & 63);
      case Opcode::Sra:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(a) >> (b & 63));
      case Opcode::CmpEq: return a == b ? 1 : 0;
      case Opcode::CmpLt:
        return static_cast<std::int64_t>(a) <
            static_cast<std::int64_t>(b) ? 1 : 0;
      case Opcode::AddI: return a + imm;
      case Opcode::AndI: return a & imm;
      case Opcode::OrI: return a | imm;
      case Opcode::XorI: return a ^ imm;
      case Opcode::SllI: return a << (imm & 63);
      case Opcode::SrlI: return a >> (imm & 63);
      case Opcode::SraI:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(a) >> (imm & 63));
      case Opcode::LdImm: return imm;
      case Opcode::Mul: return a * b;
      case Opcode::FAdd: return from_double(as_double(a) + as_double(b));
      case Opcode::FMul: return from_double(as_double(a) * as_double(b));
      case Opcode::FDiv: {
        const double divisor = as_double(b);
        return from_double(divisor == 0.0
                           ? 0.0 : as_double(a) / divisor);
      }
      case Opcode::CvtIF:
        return from_double(
            static_cast<double>(static_cast<std::int64_t>(a)));
      default:
        nosq_panic("aluResult of non-ALU opcode %s", opcodeName(si.op));
    }
}

bool
FunctionalSim::step(DynInst &out, OracleBytes *bytes)
{
    if (isHalted)
        return false;

    if (bytes != nullptr)
        *bytes = OracleBytes();

    const Instruction &si = prog->fetch(currentPc);

    out = DynInst();
    out.seq = ++seqCounter;
    out.pc = currentPc;
    out.si = si;
    out.cls = instClass(si.op);
    out.npc = currentPc + inst_bytes;

    switch (out.cls) {
      case InstClass::Load: {
        const unsigned size = memSize(si.op);
        const Addr addr = regFile[si.ra] +
            static_cast<std::uint64_t>(si.imm);
        out.addr = addr;
        out.size = static_cast<std::uint8_t>(size);
        out.memValue = mem.read(addr, size);
        out.loadValue = extendValue(out.memValue, size,
                                    loadExtend(si.op));

        // Precompute the dependence-oracle summary the timing model
        // consumes: youngest writer, single-writer coverage, and the
        // windowed partial-word classification. The recent-store
        // window here replicates the retirement-side pruning bound
        // exactly (the simulated commit order of the instructions
        // older than this load IS their program order, so membership
        // is identical): a writer store is "recent" iff it is among
        // the last comm_oracle_stores stores.
        const InstSeq floor_seq =
            ssnCounter <= comm_oracle_stores
                ? 1
                : recentStoreSeqs[(ssnCounter + 1) %
                                  comm_oracle_stores];
        std::uint32_t ys_ssn = 0, ys_seq = 0;
        std::uint32_t first_ssn = 0;
        bool single = true;
        bool partial = size < 8;
        shadow.forEachWriter(addr, size, [&](unsigned i,
                                             const ByteWriter &w) {
            if (bytes != nullptr) {
                bytes->writerSsn[i] = w.ssn;
                bytes->writerSeq[i] = w.seq;
            }
            if (i == 0)
                first_ssn = w.ssn;
            else if (w.ssn != first_ssn)
                single = false;
            ys_ssn = std::max(ys_ssn, w.ssn);
            ys_seq = std::max(ys_seq, w.seq);
            if (!partial && w.seq != 0 && w.seq >= floor_seq &&
                w.size < 8) {
                partial = true;
            }
        });
        out.oracleWriterSsn = ys_ssn;
        out.oracleWriterSeq = ys_seq;
        out.oracleSingleWriter = first_ssn != 0 && single;
        out.oraclePartial = partial;
        regFile[si.rd] = out.loadValue;
        break;
      }
      case InstClass::Store: {
        const unsigned size = memSize(si.op);
        const Addr addr = regFile[si.ra] +
            static_cast<std::uint64_t>(si.imm);
        out.addr = addr;
        out.size = static_cast<std::uint8_t>(size);
        out.storeData = regFile[si.rb];
        out.ssn = ++ssnCounter;
        const std::uint64_t raw = storeFpCvt(si.op)
            ? regToFp32(out.storeData)
            : out.storeData;
        out.memValue = size == 8
            ? raw : (raw & ((1ull << (size * 8)) - 1));
        mem.write(addr, size, raw);
        shadow.recordStore(addr, size, out.ssn, out.seq);
        recentStoreSeqs[out.ssn % comm_oracle_stores] = out.seq;
        break;
      }
      case InstClass::Branch: {
        bool taken = false;
        Addr target = static_cast<Addr>(si.imm);
        switch (si.op) {
          case Opcode::Beq:
            taken = regFile[si.ra] == regFile[si.rb];
            break;
          case Opcode::Bne:
            taken = regFile[si.ra] != regFile[si.rb];
            break;
          case Opcode::Blt:
            taken = static_cast<std::int64_t>(regFile[si.ra]) <
                static_cast<std::int64_t>(regFile[si.rb]);
            break;
          case Opcode::Bge:
            taken = static_cast<std::int64_t>(regFile[si.ra]) >=
                static_cast<std::int64_t>(regFile[si.rb]);
            break;
          case Opcode::Jmp:
            taken = true;
            break;
          case Opcode::Call:
            taken = true;
            regFile[si.rd] = currentPc + inst_bytes;
            break;
          case Opcode::Ret:
            taken = true;
            target = regFile[si.ra];
            break;
          default:
            nosq_panic("unknown branch opcode");
        }
        out.taken = taken;
        if (taken)
            out.npc = target;
        break;
      }
      default: {
        if (si.op == Opcode::Halt) {
            out.halted = true;
            isHalted = true;
        } else if (si.op != Opcode::Nop) {
            const std::uint64_t result = aluResult(si);
            if (si.rd != reg_zero)
                regFile[si.rd] = result;
        }
        break;
      }
    }

    regFile[reg_zero] = 0;
    currentPc = out.npc;
    return true;
}

TraceStream::TraceStream(std::shared_ptr<const Program> program,
                         std::size_t window)
    : func(std::move(program)),
      ring(nextPow2(window + retire_margin + 1)), mask(ring.size() - 1)
{
}

TraceStream::TraceStream(const Program &program, std::size_t window)
    : TraceStream(std::make_shared<const Program>(program), window)
{
}

bool
TraceStream::fill()
{
    // The slot for endSeq is baseSeq's once the ring is full: writing
    // it would pull a live record out from under its holder.
    nosq_assert(endSeq - baseSeq < ring.size(),
                "trace ring overflow: unretired window exceeds capacity");
    if (!func.step(slot(endSeq)))
        return false;
    ++endSeq;
    return true;
}

bool
TraceStream::hasNext()
{
    return cursor < endSeq || fill();
}

const DynInst &
TraceStream::peek()
{
    nosq_assert(hasNext(), "peek past end of trace");
    return slot(cursor);
}

const DynInst &
TraceStream::next()
{
    nosq_assert(hasNext(), "next past end of trace");
    return slot(cursor++);
}

void
TraceStream::rewindTo(InstSeq seq)
{
    nosq_assert(seq > retired, "rewind past retirement barrier");
    nosq_assert(seq >= baseSeq && seq <= endSeq,
                "rewind target not buffered");
    cursor = seq;
}

void
TraceStream::retireUpTo(InstSeq seq)
{
    retired = std::max(retired, seq);
    // Keep a retire_margin-record margin behind the barrier (and
    // behind the cursor) so rewindTo(retired + 1) always works.
    const InstSeq keep = std::min(retired + 1, cursor);
    if (keep > baseSeq + retire_margin)
        baseSeq = keep - retire_margin;
}

} // namespace nosq
