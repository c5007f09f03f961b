/**
 * @file
 * Predecoded program IR for the simulator hot path.
 *
 * The executor used to re-derive every static fact about an
 * instruction -- uarch::coreTiming, µop counts, operand classification,
 * zero-idiom and dest-read checks, implicit reads, flag dependencies --
 * on every *dynamic* instruction, and the Runner re-materialized the
 * full unrolled measurement code (unroll x body, one heap-allocated
 * operand vector per Instruction) on every measurement. A Program
 * caches all of that once, at decode time:
 *
 *  - Each static instruction decodes to one flat DecodedInsn entry
 *    holding the resolved core timing, pool slices for its µop port
 *    masks / source-readiness registers / address-readiness registers,
 *    and one-bit facts (load/store µop decomposition, zero idiom,
 *    flags read, branch, privileged). The executor consumes these
 *    directly; uarch::coreTiming is never called on the hot path.
 *
 *  - A Program is a sequence of *blocks*, each a pattern of entries
 *    executed `repeat` times in a row. An unrolled measurement loop
 *    body is decoded ONCE and iterated localUnrollCount times instead
 *    of being copied localUnrollCount times. Execution happens in a
 *    *virtual* instruction index space identical to the fully
 *    materialized sequence: branch-predictor keys, CALL return
 *    addresses, the RET bounds check, and the front-end footprint
 *    model all see exactly the indices the legacy vector path saw, so
 *    predecoding is measurement-invariant by construction (the golden
 *    table/profile gates prove it).
 *
 * Branch targets: an entry's `target` is relative to the start of the
 * current pattern copy unless `targetAbsolute` is set (used by the
 * measurement loop's back edge, which jumps from the loop-tail block
 * into the repeated body block). The single-segment decode of a plain
 * instruction vector starts at virtual index 0, where relative and
 * absolute targets coincide with the legacy encoding.
 */

#ifndef NB_SIM_PROGRAM_HH
#define NB_SIM_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "uarch/timing.hh"
#include "uarch/uarch.hh"
#include "x86/instruction.hh"

namespace nb::sim
{

/**
 * Handler class of a decoded instruction: one value per semantics
 * body (Machine::semantics in sim/semantics.hh), assigned at decode
 * time so the threaded executor dispatches with a single computed
 * goto instead of re-switching on the opcode per dynamic instruction.
 * Opcodes sharing one body share a class; the body disambiguates on
 * the opcode where needed.
 */
enum class OpClass : std::uint8_t
{
    Nop,        ///< NOP, PAUSE
    Mov,        ///< MOV, MOVNTI, MOVZX
    Movsx,
    Lea,
    Xchg,
    Bswap,
    Cmov,       ///< CMOVZ/NZ/C/NC
    AddAdc,     ///< ADD, ADC
    SubSbbCmp,  ///< SUB, SBB, CMP
    Logic,      ///< AND, OR, XOR, TEST
    IncDec,
    Neg,
    Not,
    Imul,
    Mul,
    Div,        ///< DIV, IDIV
    Shift,      ///< SHL, SHR, SAR, ROL, ROR
    Popcnt,
    Lzcnt,
    Tzcnt,
    Bitscan,    ///< BSF, BSR
    BitTest,    ///< BT, BTS, BTR
    Setz,
    Setnz,
    Jmp,
    Jcc,        ///< JZ/NZ/C/NC/L/GE/LE/G
    Call,
    Ret,
    Push,
    Pop,
    MovVec,     ///< MOVAPS, MOVUPS
    Pxor,
    Paddd,
    Addps,
    Mulps,
    Divps,
    Addpd,
    Mulpd,
    Divpd,
    Vaddps,
    Vmulps,
    Vfma,       ///< VFMADD231PS
    Rdtsc,
    Rdpmc,
    Rdmsr,
    Wrmsr,
    Wbinvd,
    Clflush,
    Prefetch,   ///< PREFETCHT0, PREFETCHNTA
    Cli,
    Sti,
    PfcMarker,  ///< PFC_PAUSE, PFC_RESUME (§III-I)
    Fence,      ///< LFENCE, MFENCE
    SFence,
    Cpuid,
    Unhandled,  ///< supported by the uarch, no executor semantics
    NumClasses,
};

inline constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::NumClasses);

/** Bits of HotTiming::flags (the one-bit facts the hot loop tests). */
namespace hotflag
{
inline constexpr std::uint16_t kZeroIdiom = 1u << 0;
inline constexpr std::uint16_t kReadsFlags = 1u << 1;
inline constexpr std::uint16_t kDoLoadUop = 1u << 2;
inline constexpr std::uint16_t kDoStoreUop = 1u << 3;
inline constexpr std::uint16_t kHasLoad = 1u << 4;
inline constexpr std::uint16_t kHasStore = 1u << 5;
inline constexpr std::uint16_t kIsBranch = 1u << 6;
inline constexpr std::uint16_t kTargetAbsolute = 1u << 7;
inline constexpr std::uint16_t kPrivileged = 1u << 8;
} // namespace hotflag

/**
 * Hot per-entry facts consumed by the issue/dispatch stage of the
 * threaded executor, packed to 12 bytes (five entries per cache line
 * alongside the one-byte OpClass array). Cold facts stay in the
 * DecodedInsn pool.
 */
struct HotTiming
{
    std::uint16_t latency = 1;
    std::uint16_t blockCycles = 0;
    std::uint16_t opWidth = 64;
    std::uint16_t flags = 0;     ///< hotflag:: bits
    std::uint16_t uopCount = 0;  ///< core µops (port-pool slice length)
    std::uint8_t nIssueUops = 1;
    std::int8_t memOpIdx = -1;
};

/**
 * Hot per-entry pool references (readiness register slices, µop port
 * slice, branch target), packed to 20 bytes.
 */
struct HotRefs
{
    std::uint32_t uopBegin = 0;
    std::uint32_t srcBegin = 0;
    std::uint32_t addrBegin = 0;
    std::int32_t target = -1;
    std::uint16_t srcCount = 0;
    std::uint16_t addrCount = 0;
};

/**
 * One predecoded instruction: every static fact the executor needs,
 * flat (pool slices instead of owned vectors). Semantics still read
 * the operands of the original instruction via Program::insn().
 */
struct DecodedInsn
{
    /** Index of the source instruction in the owning Program. */
    std::uint32_t insnIdx = 0;

    /** Branch target (see the file comment); -1 if none. */
    std::int32_t target = -1;

    // Pool slices (Program::uopPorts/srcRegs/addrRegs/dstRegs).
    std::uint32_t uopBegin = 0;  ///< core µop port masks
    std::uint32_t srcBegin = 0;  ///< registers gating source readiness
    std::uint32_t addrBegin = 0; ///< registers gating address readiness
    std::uint32_t dstBegin = 0;  ///< registers written (defs; analysis)
    std::uint16_t uopCount = 0;
    std::uint16_t srcCount = 0;
    std::uint16_t addrCount = 0;
    std::uint16_t dstCount = 0;

    // Resolved uarch::CoreTiming.
    std::uint16_t latency = 1;
    std::uint16_t blockCycles = 0;

    /** Width of operand 0 in bits (64 if no operands; up to 256 for
     *  YMM operands). */
    std::uint16_t opWidth = 64;
    /** Issue slots: max(1, core µops + load µop + 2 store µops). */
    std::uint8_t nIssueUops = 1;
    /** Operand index of the memory operand; -1 if none. */
    std::int8_t memOpIdx = -1;

    bool hasLoad = false;       ///< Instruction::isLoad()
    bool hasStore = false;      ///< Instruction::isStore()
    bool doLoadUop = false;     ///< explicit load µop dispatched
    bool doStoreUop = false;    ///< explicit store-addr/data µops
    bool zeroIdiom = false;     ///< dependency-breaking idiom
    bool readsFlags = false;    ///< OpcodeInfo::readsFlags
    bool writesFlags = false;   ///< OpcodeInfo::writesFlags
    bool isBranch = false;      ///< Instruction::isBranch()
    bool privileged = false;    ///< OpcodeInfo::privileged
    bool targetAbsolute = false;///< target is a virtual index
};

/** Handler class of an opcode (one computed-goto label per class in
 *  the threaded executor, one semantics body per class). */
OpClass opcodeClass(x86::Opcode op);

/** The hotflag:: bits of a decoded entry (HotTiming::flags). */
std::uint16_t hotFlags(const DecodedInsn &d);

/**
 * A predecoded, repeat-encoded instruction sequence bound to one
 * microarchitecture family. Move-only: decoded entries reference
 * pools owned by the Program.
 */
class Program
{
  public:
    /** One decode input: a pattern executed `repeat` times in a row.
     *  Branch targets inside `code` are pattern-relative (assembler
     *  output indices) unless `absoluteTargets` marks them as virtual
     *  indices into the whole program. */
    struct Segment
    {
        std::vector<x86::Instruction> code;
        std::uint64_t repeat = 1;
        bool absoluteTargets = false;
    };

    /** One repeat block of the decoded program. */
    struct Block
    {
        std::uint32_t entryBegin = 0; ///< first entry of the pattern
        std::uint32_t entryCount = 0; ///< pattern length
        std::uint64_t repeat = 1;     ///< dynamic copies of the pattern
        std::uint64_t firstVirtual = 0; ///< virtual index of copy 0
    };

    Program() = default;
    Program(Program &&) = default;
    Program &operator=(Program &&) = default;
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /**
     * Decode a sequence of segments against a microarchitecture.
     * Segments with repeat == 0 or empty code contribute nothing.
     *
     * @throws nb::FatalError for opcodes the family does not support
     *         (same message the legacy executor produced; raised at
     *         decode time instead of first dynamic execution).
     */
    static Program decode(const uarch::MicroArch &ua,
                          std::vector<Segment> segments);

    /** Decode a plain instruction vector (one block, repeat 1) -- the
     *  compatibility shim behind Machine::execute(vector). */
    static Program decode(const uarch::MicroArch &ua,
                          std::vector<x86::Instruction> code);

    /** Dynamic length: total instructions when fully expanded. */
    std::uint64_t virtualSize() const { return virtualSize_; }

    /** Static length: decoded entries across all patterns. */
    std::size_t entryCount() const { return entries_.size(); }

    const std::vector<Block> &blocks() const { return blocks_; }
    const DecodedInsn &entry(std::size_t idx) const
    {
        return entries_[idx];
    }

    // Struct-of-arrays view for the threaded executor: parallel arrays
    // indexed by entry (entries and source instructions are pushed in
    // lockstep, so the entry index doubles as the instruction index).
    const OpClass *opClasses() const { return opClass_.data(); }
    const HotTiming *hotTiming() const { return hotTiming_.data(); }
    const HotRefs *hotRefs() const { return hotRefs_.data(); }
    const x86::Instruction *insnArray() const { return insns_.data(); }
    const uarch::PortMask *portPool() const { return portPool_.data(); }
    const x86::Reg *regPool() const { return regPool_.data(); }

    /** The source instruction of an entry (semantics). */
    const x86::Instruction &insn(const DecodedInsn &d) const
    {
        return insns_[d.insnIdx];
    }

    /** Pool accessors (valid for `count` elements from `begin`). */
    const uarch::PortMask *uopPorts(const DecodedInsn &d) const
    {
        return portPool_.data() + d.uopBegin;
    }
    const x86::Reg *srcRegs(const DecodedInsn &d) const
    {
        return regPool_.data() + d.srcBegin;
    }
    const x86::Reg *addrRegs(const DecodedInsn &d) const
    {
        return regPool_.data() + d.addrBegin;
    }
    /** Registers the instruction writes (explicit destination(s) plus
     *  the implicit writes). Consumed by the static analyzer; the
     *  executor keys readiness on srcRegs/addrRegs and ignores it. */
    const x86::Reg *dstRegs(const DecodedInsn &d) const
    {
        return regPool_.data() + d.dstBegin;
    }

    /**
     * Expand back to the materialized instruction vector the legacy
     * path executed: patterns copied `repeat` times, relative branch
     * targets relocated to absolute indices. For tests and debugging;
     * the executor never materializes.
     */
    std::vector<x86::Instruction> materialize() const;

  private:
    std::vector<x86::Instruction> insns_; ///< one per static entry
    std::vector<DecodedInsn> entries_;
    std::vector<Block> blocks_;
    std::vector<uarch::PortMask> portPool_;
    std::vector<x86::Reg> regPool_;
    // Hot parallel arrays (same index space as entries_).
    std::vector<OpClass> opClass_;
    std::vector<HotTiming> hotTiming_;
    std::vector<HotRefs> hotRefs_;
    std::uint64_t virtualSize_ = 0;
};

} // namespace nb::sim

#endif // NB_SIM_PROGRAM_HH
