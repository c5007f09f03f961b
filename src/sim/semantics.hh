/**
 * @file
 * One statement of what the simulated core does per instruction,
 * shared by both executors: the threaded computed-goto
 * executor (Machine::execute, dispatch.cc) and the switch-based
 * reference (Machine::executeReference, machine.cc).
 *
 * Every piece of execution is written here once, as an always-inline
 * Machine member that each executor compiles into its own loop:
 *  - the semantics body of each OpClass (Machine::semantics);
 *  - the shared prologue (source/address readiness, issue, load µop,
 *    core µops) and epilogue (store µops, branch prediction,
 *    retirement);
 *  - the paths that bypass both (PFC markers, fences, CPUID);
 *  - the scheduler primitives (issue slot, µop dispatch, retirement)
 *    with their ExecObserver bumps;
 *  - the virtual-index cursor, the per-instruction bookkeeping and the
 *    amortized budget/fault checkpoint.
 *
 * The executors differ only in how they read a decoded instruction (the
 * struct-of-arrays hot image vs the DecodedInsn pool), how they pick
 * the body (handler table vs switch) and how they count PMU events
 * (batched vs immediate). The parity suite pins those three.
 *
 * Internal to sim/.
 */

#ifndef NB_SIM_SEMANTICS_HH
#define NB_SIM_SEMANTICS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>

#include "common/logging.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "sim/machine.hh"

/** Force inlining into each executor loop when optimizing. An -O0 build
 *  calls the steps instead: it would not fold the body switch, so
 *  each of the threaded executor's 51 handlers would carry all of it. */
#ifdef __OPTIMIZE__
#define NB_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define NB_ALWAYS_INLINE inline
#endif

namespace nb::sim
{

inline float
asFloat(std::uint32_t bits_)
{
    float f;
    std::memcpy(&f, &bits_, sizeof(f));
    return f;
}

inline std::uint32_t
asBits(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

inline double
asDouble(std::uint64_t bits_)
{
    double d;
    std::memcpy(&d, &bits_, sizeof(d));
    return d;
}

inline std::uint64_t
asBits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

/** Apply a float op to each 32-bit lane of the used lanes. */
template <typename F>
VecReg
mapPs(const VecReg &a, const VecReg &b, unsigned width_bits, F &&f)
{
    VecReg out{};
    unsigned lanes64 = width_bits / 64;
    for (unsigned i = 0; i < lanes64; ++i) {
        std::uint32_t lo = f(asFloat(static_cast<std::uint32_t>(a[i])),
                             asFloat(static_cast<std::uint32_t>(b[i])));
        std::uint32_t hi = f(asFloat(static_cast<std::uint32_t>(a[i] >> 32)),
                             asFloat(static_cast<std::uint32_t>(b[i] >> 32)));
        out[i] = static_cast<std::uint64_t>(hi) << 32 | lo;
    }
    return out;
}

/** Apply a double op to each 64-bit lane. */
template <typename F>
VecReg
mapPd(const VecReg &a, const VecReg &b, unsigned width_bits, F &&f)
{
    VecReg out{};
    for (unsigned i = 0; i < width_bits / 64; ++i)
        out[i] = asBits(f(asDouble(a[i]), asDouble(b[i])));
    return out;
}

inline std::uint64_t
widthMask(unsigned width_bits)
{
    return width_bits >= 64 ? ~0ULL : (1ULL << width_bits) - 1;
}

inline std::uint64_t
signBit(unsigned width_bits)
{
    return 1ULL << (width_bits - 1);
}

/** State of one execute()/executeReference() call. */
struct ExecContext
{
    const Program *program = nullptr;
    /** Virtual index of the next instruction (the fallthrough /
     *  return address while an instruction runs). */
    std::uint64_t nextIdx = 0;
    /** Virtual index of the current pattern copy's first entry
     *  (resolves pattern-relative branch targets). */
    std::uint64_t copyBase = 0;
    ExecStats stats;
    /** Issue width after the front-end footprint rule (§III-F). */
    unsigned issueWidth = 4;
    unsigned windowSize = 0;
    unsigned retireWidth = 0;
    /** Mask of the modeled execution ports. */
    uarch::PortMask portLimit = 0;
    /** The attached ExecObserver, if any. */
    ExecObserver *observer = nullptr;
};

/**
 * One dynamic instruction as the shared steps see it: its static
 * facts, which an executor fills from its program layout, and the values
 * the prologue, the body and the epilogue hand to each other.
 */
struct InsnState
{
    // Static facts (see DecodedInsn).
    const x86::Instruction *insn = nullptr;
    const x86::Operand *memOp = nullptr;
    const x86::Reg *srcRegs = nullptr;
    const x86::Reg *addrRegs = nullptr;
    const uarch::PortMask *uopPorts = nullptr;
    std::int32_t target = -1;
    std::uint16_t flags = 0; ///< hotflag:: bits
    std::uint16_t srcCount = 0;
    std::uint16_t addrCount = 0;
    std::uint16_t uopCount = 0;
    std::uint16_t latency = 1;
    std::uint16_t blockCycles = 0;
    std::uint16_t opWidth = 64;
    std::uint16_t nIssueUops = 1;

    // Timing from the prologue; the body and epilogue move resultReady.
    Cycles addrReady = 0;
    Cycles issueReady = 0;
    Cycles coreDone = 0;
    Cycles firstDispatch = 0;
    Cycles resultReady = 0;

    // Values. `loaded`/`loadedVec` are not reset per instruction: every
    // Memory-operand read implies the load µop set them (POP, RET and
    // the prefetches never read them).
    Addr memVaddr = 0;
    std::uint64_t loaded = 0;
    VecReg loadedVec{};
    bool taken = false;
    std::uint64_t branchTarget = 0;
    std::optional<std::uint64_t> storeValue;
    std::optional<VecReg> storeVec;
};

/**
 * Cursor over a Program's virtual index space: (block, iteration
 * within the block's repeat count, offset within the pattern).
 * Sequential advance is O(1); a taken branch relocates by scanning the
 * block list (blocks are contiguous in virtual space and few).
 */
class ProgramCursor
{
  public:
    explicit ProgramCursor(const Program &prog)
        : blocks_(prog.blocks()), vsize_(prog.virtualSize())
    {
    }

    /** Control fell off the end of the program. */
    bool done() const { return vidx_ >= vsize_; }

    /** The entry at the cursor. Moves to the fallthrough position and
     *  publishes it (and the entry's copy base) in @p ctx. */
    NB_ALWAYS_INLINE std::uint32_t
    advance(ExecContext &ctx)
    {
        const Program::Block &b = blocks_[blockIdx_];
        const std::uint32_t entry = b.entryBegin + offset_;
        ctx.copyBase = copyBase_;
        ++vidx_;
        if (++offset_ == b.entryCount) {
            offset_ = 0;
            if (++iter_ == b.repeat) {
                iter_ = 0;
                ++blockIdx_;
            }
            copyBase_ = vidx_;
        }
        ctx.nextIdx = vidx_;
        return entry;
    }

    /** Continue at @p next (a taken branch when it is not the
     *  fallthrough). */
    NB_ALWAYS_INLINE void
    follow(std::uint64_t next)
    {
        if (next == vidx_)
            return;
        for (blockIdx_ = 0; blockIdx_ < blocks_.size(); ++blockIdx_) {
            const Program::Block &b = blocks_[blockIdx_];
            std::uint64_t span =
                static_cast<std::uint64_t>(b.entryCount) * b.repeat;
            if (next < b.firstVirtual + span) {
                std::uint64_t rel = next - b.firstVirtual;
                iter_ = rel / b.entryCount;
                offset_ = static_cast<std::uint32_t>(rel % b.entryCount);
                copyBase_ = b.firstVirtual + iter_ * b.entryCount;
                break;
            }
        }
        vidx_ = next; // past the end: control falls off the program
    }

  private:
    const std::vector<Program::Block> &blocks_;
    std::uint64_t vsize_;
    std::size_t blockIdx_ = 0;
    std::uint64_t iter_ = 0;
    std::uint32_t offset_ = 0;
    std::uint64_t vidx_ = 0;     ///< virtual index of the cursor
    std::uint64_t copyBase_ = 0; ///< virtual index of the current copy
};

// ------------------------------------------------ scheduler primitives

NB_ALWAYS_INLINE Cycles
Machine::issueSlot(ExecContext &ctx)
{
    // Scheduler-window back-pressure: stall issue until the oldest
    // in-flight µop completes.
    if (sched_.window.size() >= ctx.windowSize) {
        Cycles oldest = sched_.window.front();
        sched_.window.pop_front();
        if (oldest > sched_.issueCycle) {
            sched_.issueCycle = oldest;
            sched_.issuedInCycle = 0;
        }
    }
    if (sched_.issuedInCycle >= ctx.issueWidth) {
        ++sched_.issueCycle;
        sched_.issuedInCycle = 0;
    }
    ++sched_.issuedInCycle;
    if (ctx.observer)
        ++ctx.observer->uopsIssued;
    return sched_.issueCycle;
}

NB_ALWAYS_INLINE Machine::UopTiming
Machine::dispatchUop(ExecContext &ctx, uarch::PortMask ports, Cycles ready,
                     unsigned latency, unsigned block_cycles)
{
    ready = std::max(ready, sched_.minDispatch);
    if (ports == 0) {
        // µop that occupies no execution port (e.g. eliminated or
        // fence-internal); completes at readiness.
        Cycles done = ready + latency;
        sched_.maxCompletion = std::max(sched_.maxCompletion, done);
        sched_.window.push_back(done);
        if (ctx.observer)
            ++ctx.observer->uopsDispatched;
        return {ready, done};
    }
    // Choose the allowed port with the earliest dispatch opportunity;
    // break ties towards the least-used port, so that symmetric ports
    // (e.g. the two load ports) split a dependent chain evenly. The
    // set-bit walk visits ports in ascending index order.
    unsigned best_port = 0;
    Cycles best_cycle = ~Cycles{0};
    for (unsigned m = ports & ctx.portLimit; m != 0; m &= m - 1) {
        unsigned p = static_cast<unsigned>(std::countr_zero(m));
        Cycles c = std::max(ready, sched_.portFree[p]);
        if (c < best_cycle ||
            (c == best_cycle &&
             sched_.portUse[p] < sched_.portUse[best_port])) {
            best_cycle = c;
            best_port = p;
        }
    }
    NB_ASSERT(best_cycle != ~Cycles{0}, "empty port mask");

    ++sched_.portUse[best_port];
    sched_.portFree[best_port] = best_cycle + 1 + block_cycles;
    Cycles done = best_cycle + std::max(1u, latency);
    sched_.maxCompletion = std::max(sched_.maxCompletion, done);
    sched_.window.push_back(done);

    count(EventId::UopsExecuted, 1, best_cycle);
    if (best_port < 8)
        count(portEvent(best_port), 1, best_cycle);
    if (ctx.observer) {
        ++ctx.observer->uopsDispatched;
        ++ctx.observer->portUops[best_port];
    }
    return {best_cycle, done};
}

NB_ALWAYS_INLINE void
Machine::retireInstr(ExecContext &ctx, Cycles completion, bool is_branch,
                     bool mispredicted)
{
    Cycles retire = std::max(completion, sched_.lastRetire);
    if (retire == sched_.lastRetire &&
        sched_.retiredInCycle >= ctx.retireWidth) {
        ++retire;
    }
    if (retire != sched_.lastRetire)
        sched_.retiredInCycle = 0;
    ++sched_.retiredInCycle;
    sched_.lastRetire = retire;
    sched_.maxCompletion = std::max(sched_.maxCompletion, retire);
    if (ctx.observer)
        ctx.observer->retireStallCycles += retire - completion;

    count(EventId::InstrRetired, 1, retire);
    if (is_branch) {
        count(EventId::BrInstRetired, 1, retire);
        if (mispredicted)
            count(EventId::BrMispRetired, 1, retire);
    }
}

// ------------------------------------------- per-instruction bookkeeping

NB_ALWAYS_INLINE void
Machine::checkpoint(ExecContext &ctx)
{
    // Cycle budget + execute-site fault injection: one predictable mask
    // test per instruction; the deadline compare and fault-plan probe
    // run every 1024th instruction, and the cold path is out of line.
    if ((ctx.stats.instructions & 1023u) == 0 &&
        (cycleDeadline_ != 0 || fault::activePlan() != nullptr))
        budgetCheckpoint(ctx);
}

NB_ALWAYS_INLINE void
Machine::beginInsn(InsnState &s, const ExecContext &ctx)
{
    s.taken = false;
    s.branchTarget = ctx.nextIdx;
    s.storeValue.reset();
    s.storeVec.reset();
    if (s.flags & hotflag::kPrivileged)
        requirePrivilege(*s.insn);
}

NB_ALWAYS_INLINE void
Machine::endInsn(ExecContext &ctx, ProgramCursor &cursor)
{
    ++ctx.stats.instructions;
    cursor.follow(ctx.nextIdx);
    if (interruptsEnabled_ && sched_.maxCompletion >= nextInterrupt_)
        maybeInterrupt(ctx);
}

// ------------------------------------- fences and markers (§IV-A1)

/** Classes that bypass the shared prologue and epilogue: each is one
 *  complete path in Machine::serialize(). */
constexpr bool
isSerializing(OpClass c)
{
    return c == OpClass::PfcMarker || c == OpClass::Fence ||
           c == OpClass::SFence || c == OpClass::Cpuid;
}

NB_ALWAYS_INLINE void
Machine::serialize(OpClass c, InsnState &s, ExecContext &ctx)
{
    switch (c) {
      case OpClass::PfcMarker: {
        // Magic markers: pause/resume counting (§III-I). Acts like a
        // light dispatch fence with a small fixed overhead.
        Cycles fence_point = sched_.maxCompletion + 5;
        sched_.minDispatch = std::max(sched_.minDispatch, fence_point);
        pmu_.setPaused(s.insn->opcode == x86::Opcode::PFC_PAUSE);
        retireInstr(ctx, fence_point, false, false);
        break;
      }
      case OpClass::Fence: {
        // LFENCE/MFENCE: dispatches only after all prior instructions
        // completed locally; no later instruction begins execution
        // until it completes.
        Cycles done = sched_.maxCompletion + 2;
        sched_.minDispatch = std::max(sched_.minDispatch, done);
        count(EventId::UopsIssued, 1, issueSlot(ctx));
        retireInstr(ctx, done, false, false);
        break;
      }
      case OpClass::SFence:
        count(EventId::UopsIssued, 1, issueSlot(ctx));
        retireInstr(ctx, sched_.maxCompletion + 1, false, false);
        break;
      case OpClass::Cpuid: {
        // Serializing, but with a variable latency and µop count
        // (Paoloni's observation): unsuitable for short benchmarks.
        using x86::Reg;
        Cycles fence_point = sched_.maxCompletion;
        unsigned extra_uops =
            static_cast<unsigned>(rng_.nextRange(16, 48));
        Cycles extra_lat = rng_.nextRange(0, 200);
        Cycles done = fence_point + 100 + extra_lat;
        for (unsigned i = 0; i < extra_uops; ++i) {
            count(EventId::UopsIssued, 1, issueSlot(ctx));
            dispatchUop(ctx, s.uopPorts[i % s.uopCount], fence_point, 1,
                        0);
        }
        sched_.minDispatch = std::max(sched_.minDispatch, done);
        sched_.maxCompletion = std::max(sched_.maxCompletion, done);
        // Leaf-dependent model values.
        arch_.writeGpr(Reg::RAX, 64, 0x000506E3); // family/model-ish id
        arch_.writeGpr(Reg::RBX, 64, 0x756E6547);
        arch_.writeGpr(Reg::RCX, 64, 0x6C65746E);
        arch_.writeGpr(Reg::RDX, 64, 0x49656E69);
        for (Reg r : {Reg::RAX, Reg::RBX, Reg::RCX, Reg::RDX})
            sched_.regReady[static_cast<unsigned>(r)] = done;
        retireInstr(ctx, done, false, false);
        break;
      }
      default:
        panic("not a serializing class: ", static_cast<unsigned>(c));
    }
}

// ------------------------------------------------ prologue / epilogue

NB_ALWAYS_INLINE void
Machine::prologue(InsnState &s, ExecContext &ctx)
{
    // Source readiness: the registers to wait on were classified at
    // decode time.
    Cycles src_ready = 0;
    if (!(s.flags & hotflag::kZeroIdiom)) {
        for (unsigned i = 0; i < s.srcCount; ++i) {
            src_ready = std::max(
                src_ready,
                sched_.regReady[static_cast<unsigned>(s.srcRegs[i])]);
        }
        if (s.flags & hotflag::kReadsFlags)
            src_ready = std::max(src_ready, sched_.flagsReady);
    }
    s.addrReady = 0;
    for (unsigned i = 0; i < s.addrCount; ++i) {
        s.addrReady = std::max(
            s.addrReady,
            sched_.regReady[static_cast<unsigned>(s.addrRegs[i])]);
    }

    // Issue accounting (µop count resolved at decode time).
    s.issueReady = 0;
    for (unsigned i = 0; i < s.nIssueUops; ++i) {
        Cycles ic = issueSlot(ctx);
        count(EventId::UopsIssued, 1, ic);
        s.issueReady = std::max(s.issueReady, ic);
        ++ctx.stats.uops;
    }

    // Load µop (semantics + timing together).
    Cycles load_done = 0;
    s.memVaddr = s.memOp ? effectiveAddress(s.memOp->mem) : 0;
    if (s.flags & hotflag::kDoLoadUop) {
        NB_ASSERT(s.memOp != nullptr, "load without memory operand");
        auto lt = dispatchUop(ctx, ports_.loadPorts,
                              std::max(s.addrReady, s.issueReady), 1, 0);
        Cycles lat;
        if (s.memOp->widthBits > 64) {
            s.loadedVec =
                loadVec(s.memVaddr, s.memOp->widthBits / 8, &lat);
        } else {
            auto [value, l] = loadValue(s.memVaddr, s.memOp->widthBits / 8);
            s.loaded = value;
            lat = l;
        }
        load_done = lt.dispatch + lat;
        sched_.maxCompletion = std::max(sched_.maxCompletion, load_done);
    }

    // Core µops (timing resolved at decode time).
    Cycles core_ready = std::max({src_ready, s.issueReady, load_done});
    s.coreDone = core_ready;
    s.firstDispatch = core_ready;
    if (s.uopCount != 0) {
        auto t0 = dispatchUop(ctx, s.uopPorts[0], core_ready, s.latency,
                              s.blockCycles);
        s.coreDone = t0.done;
        s.firstDispatch = t0.dispatch;
        for (unsigned i = 1; i < s.uopCount; ++i) {
            auto ti = dispatchUop(ctx, s.uopPorts[i], core_ready, 1, 0);
            s.coreDone = std::max(s.coreDone, ti.done);
        }
    } else if (s.flags & hotflag::kHasLoad) {
        s.coreDone = load_done;
    } else {
        // NOP-like: completes at issue.
        s.coreDone = s.issueReady;
        sched_.maxCompletion = std::max(sched_.maxCompletion, s.coreDone);
        sched_.window.push_back(s.coreDone);
    }
    s.resultReady = s.coreDone;
}

NB_ALWAYS_INLINE void
Machine::epilogue(InsnState &s, ExecContext &ctx)
{
    // Store µops (timing); the semantic write was queued by the body.
    const Cycles addr_rdy = std::max(s.addrReady, s.issueReady);
    if (s.flags & hotflag::kDoStoreUop) {
        NB_ASSERT(s.memOp != nullptr, "store without memory operand");
        auto sa = dispatchUop(ctx, ports_.storeAddrPorts, addr_rdy, 1, 0);
        Cycles data_rdy = std::max(s.resultReady, s.issueReady);
        auto sd = dispatchUop(ctx, ports_.storeDataPorts, data_rdy, 1, 0);
        Cycles store_done = std::max(sa.done, sd.done);
        sched_.maxCompletion = std::max(sched_.maxCompletion, store_done);
        const unsigned bytes = s.memOp->widthBits / 8;
        if (s.storeVec)
            storeVec(s.memVaddr, *s.storeVec, bytes);
        else if (s.storeValue)
            storeValue(s.memVaddr, *s.storeValue, bytes);
        s.resultReady = std::max(s.resultReady, store_done);
    } else if (s.flags & hotflag::kHasStore) {
        // PUSH/CALL already performed the write; account the µops.
        dispatchUop(ctx, ports_.storeAddrPorts, addr_rdy, 1, 0);
        dispatchUop(ctx, ports_.storeDataPorts, addr_rdy, 1, 0);
    }

    // Branch prediction and redirect.
    const bool is_branch = (s.flags & hotflag::kIsBranch) != 0;
    bool mispredicted = false;
    if (is_branch) {
        auto [it, inserted] = branchTable_.try_emplace(ctx.nextIdx - 1, 1);
        std::uint8_t &counter = it->second;
        bool predicted_taken = counter >= 2;
        const x86::Opcode op = s.insn->opcode;
        if (op == x86::Opcode::JMP || op == x86::Opcode::CALL ||
            op == x86::Opcode::RET) {
            predicted_taken = s.taken; // unconditional / RAS-predicted
        }
        mispredicted = predicted_taken != s.taken;
        if (s.taken && counter < 3)
            ++counter;
        else if (!s.taken && counter > 0)
            --counter;
        if (mispredicted) {
            // Pipeline restart.
            Cycles redirect = s.coreDone + 15;
            sched_.issueCycle = std::max(sched_.issueCycle, redirect);
            sched_.issuedInCycle = 0;
        }
        if (s.taken)
            ctx.nextIdx = s.branchTarget;
    }

    retireInstr(ctx, s.resultReady, is_branch, mispredicted);
}

// ----------------------------------------------------------- semantics

NB_ALWAYS_INLINE void
Machine::semantics(OpClass c, InsnState &s, ExecContext &ctx)
{
    using x86::Opcode;
    using x86::Operand;
    using x86::OperandKind;
    using x86::Reg;

    const x86::Instruction &insn = *s.insn;
    const Opcode opcode = insn.opcode;
    const unsigned op_width = s.opWidth;

    auto read_src = [&](const Operand &op) -> std::uint64_t {
        switch (op.kind) {
          case OperandKind::Register:
            return arch_.readGpr(op.reg, op.widthBits);
          case OperandKind::Immediate:
            return static_cast<std::uint64_t>(op.imm) &
                   widthMask(op.widthBits);
          case OperandKind::Memory:
            return s.loaded & widthMask(op.widthBits);
          case OperandKind::None:
            break;
        }
        panic("unreadable operand");
    };
    auto read_vec_src = [&](const Operand &op) -> VecReg {
        if (op.kind == OperandKind::Register)
            return arch_.readVec(op.reg);
        if (op.kind == OperandKind::Memory)
            return s.loadedVec;
        panic("unreadable vector operand");
    };
    auto ready_at = [&](Reg r) {
        sched_.regReady[static_cast<unsigned>(r)] = s.resultReady;
    };
    auto write_dst = [&](std::uint64_t value) {
        const Operand &dst = insn.operands[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeGpr(dst.reg, dst.widthBits, value);
            ready_at(dst.reg);
        } else if (dst.kind == OperandKind::Memory) {
            s.storeValue = value;
        } else {
            panic("bad destination operand");
        }
    };
    auto write_vec_dst = [&](const VecReg &value) {
        const Operand &dst = insn.operands[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeVec(dst.reg, value);
            ready_at(dst.reg);
        } else if (dst.kind == OperandKind::Memory) {
            s.storeVec = value;
        } else {
            panic("bad vector destination");
        }
    };
    // RDX:RAX results (widening multiply, divide, counter reads).
    auto write_rdx_rax = [&](std::uint64_t rdx, std::uint64_t rax) {
        arch_.writeGpr(Reg::RAX, 64, rax);
        arch_.writeGpr(Reg::RDX, 64, rdx);
        ready_at(Reg::RAX);
        ready_at(Reg::RDX);
    };
    auto set_zf_sf = [&](std::uint64_t result) {
        arch_.zf = (result & widthMask(op_width)) == 0;
        arch_.sf = (result & signBit(op_width)) != 0;
    };
    auto flags_written = [&]() { sched_.flagsReady = s.resultReady; };
    auto vec_op = [&](unsigned a, unsigned b) {
        return std::pair{read_vec_src(insn.operands[a]),
                         read_vec_src(insn.operands[b])};
    };
    auto take_branch = [&]() {
        s.taken = true;
        const auto t = static_cast<std::uint64_t>(s.target);
        s.branchTarget =
            s.flags & hotflag::kTargetAbsolute ? t : ctx.copyBase + t;
    };

    switch (c) {
      case OpClass::Nop:
        break;
      case OpClass::Mov:
        write_dst(read_src(insn.operands[1]));
        break;
      case OpClass::Movsx: {
        std::uint64_t v = read_src(insn.operands[1]);
        unsigned sw = insn.operands[1].widthBits;
        if (v & signBit(sw))
            v |= ~widthMask(sw);
        write_dst(v);
        break;
      }
      case OpClass::Lea:
        write_dst(s.memVaddr & widthMask(op_width));
        break;
      case OpClass::Xchg: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        write_dst(b);
        const Operand &src = insn.operands[1];
        if (src.kind == OperandKind::Register) {
            arch_.writeGpr(src.reg, src.widthBits, a);
            ready_at(src.reg);
        } else {
            s.storeValue = a;
        }
        break;
      }
      case OpClass::Bswap: {
        std::uint64_t v = read_src(insn.operands[0]);
        if (op_width == 64)
            v = __builtin_bswap64(v);
        else
            v = __builtin_bswap32(static_cast<std::uint32_t>(v));
        write_dst(v);
        break;
      }
      case OpClass::Cmov: {
        bool cond = opcode == Opcode::CMOVZ    ? arch_.zf
                    : opcode == Opcode::CMOVNZ ? !arch_.zf
                    : opcode == Opcode::CMOVC  ? arch_.cf
                                               : !arch_.cf;
        write_dst(read_src(insn.operands[cond ? 1 : 0]));
        break;
      }

      case OpClass::AddAdc: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        std::uint64_t carry = opcode == Opcode::ADC && arch_.cf ? 1 : 0;
        std::uint64_t r = (a + b + carry) & widthMask(op_width);
        arch_.cf = r < a || (carry && r == a);
        arch_.of = ((a ^ r) & (b ^ r) & signBit(op_width)) != 0;
        set_zf_sf(r);
        flags_written();
        write_dst(r);
        break;
      }
      case OpClass::SubSbbCmp: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        std::uint64_t borrow = opcode == Opcode::SBB && arch_.cf ? 1 : 0;
        std::uint64_t r = (a - b - borrow) & widthMask(op_width);
        arch_.cf = a < b + borrow;
        arch_.of = ((a ^ b) & (a ^ r) & signBit(op_width)) != 0;
        set_zf_sf(r);
        flags_written();
        if (opcode != Opcode::CMP)
            write_dst(r);
        break;
      }
      case OpClass::Logic: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        std::uint64_t r = opcode == Opcode::OR    ? a | b
                          : opcode == Opcode::XOR ? a ^ b
                                                  : a & b;
        r &= widthMask(op_width);
        arch_.cf = false;
        arch_.of = false;
        set_zf_sf(r);
        flags_written();
        if (opcode != Opcode::TEST)
            write_dst(r);
        break;
      }
      case OpClass::IncDec: {
        std::uint64_t a = read_src(insn.operands[0]);
        bool inc = opcode == Opcode::INC;
        std::uint64_t r = (inc ? a + 1 : a - 1) & widthMask(op_width);
        // INC/DEC preserve CF.
        arch_.of = (inc ? r : a) == signBit(op_width);
        set_zf_sf(r);
        flags_written();
        write_dst(r);
        break;
      }
      case OpClass::Neg: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t r = (0 - a) & widthMask(op_width);
        arch_.cf = a != 0;
        set_zf_sf(r);
        flags_written();
        write_dst(r);
        break;
      }
      case OpClass::Not:
        write_dst(~read_src(insn.operands[0]) & widthMask(op_width));
        break;

      case OpClass::Imul: {
        if (insn.operands.size() == 1) {
            // RDX:RAX = RAX * src (signed widening).
            auto a = static_cast<__int128>(
                static_cast<std::int64_t>(arch_.readGpr(Reg::RAX, 64)));
            auto b = static_cast<__int128>(static_cast<std::int64_t>(
                read_src(insn.operands[0])));
            __int128 p = a * b;
            write_rdx_rax(static_cast<std::uint64_t>(p >> 64),
                          static_cast<std::uint64_t>(p));
        } else {
            // Two-operand form multiplies into operand 0; the
            // three-operand form multiplies operands 1 and 2.
            unsigned first = insn.operands.size() == 2 ? 0 : 1;
            std::uint64_t r = read_src(insn.operands[first]) *
                              read_src(insn.operands[first + 1]);
            write_dst(r & widthMask(op_width));
        }
        flags_written();
        break;
      }
      case OpClass::Mul: {
        auto a = static_cast<unsigned __int128>(arch_.readGpr(Reg::RAX, 64));
        auto b =
            static_cast<unsigned __int128>(read_src(insn.operands[0]));
        unsigned __int128 p = a * b;
        write_rdx_rax(static_cast<std::uint64_t>(p >> 64),
                      static_cast<std::uint64_t>(p));
        flags_written();
        break;
      }
      case OpClass::Div: {
        std::uint64_t divisor = read_src(insn.operands[0]);
        if (divisor == 0)
            fatal("divide error (#DE): division by zero");
        unsigned __int128 dividend =
            (static_cast<unsigned __int128>(arch_.readGpr(Reg::RDX, 64))
             << 64) |
            arch_.readGpr(Reg::RAX, 64);
        std::uint64_t q, rem;
        if (opcode == Opcode::DIV) {
            q = static_cast<std::uint64_t>(dividend / divisor);
            rem = static_cast<std::uint64_t>(dividend % divisor);
        } else {
            auto sd = static_cast<__int128>(dividend);
            auto sv = static_cast<std::int64_t>(divisor);
            q = static_cast<std::uint64_t>(sd / sv);
            rem = static_cast<std::uint64_t>(sd % sv);
        }
        write_rdx_rax(rem, q);
        flags_written();
        break;
      }

      case OpClass::Shift: {
        std::uint64_t a = read_src(insn.operands[0]);
        unsigned max_shift = op_width == 64 ? 63 : 31;
        unsigned n = static_cast<unsigned>(read_src(insn.operands[1])) &
                     max_shift;
        std::uint64_t r = a;
        if (n != 0) {
            switch (opcode) {
              case Opcode::SHL:
                arch_.cf = (a >> (op_width - n)) & 1;
                r = a << n;
                break;
              case Opcode::SHR:
                arch_.cf = (a >> (n - 1)) & 1;
                r = a >> n;
                break;
              case Opcode::SAR: {
                std::uint64_t sx = a;
                if (a & signBit(op_width))
                    sx |= ~widthMask(op_width);
                arch_.cf = (sx >> (n - 1)) & 1;
                r = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(sx) >> n);
                break;
              }
              case Opcode::ROL:
                r = (a << n) | (a >> (op_width - n));
                break;
              case Opcode::ROR:
                r = (a >> n) | (a << (op_width - n));
                break;
              default:
                break;
            }
            r &= widthMask(op_width);
            set_zf_sf(r);
            flags_written();
        }
        write_dst(r);
        break;
      }

      case OpClass::Popcnt: {
        std::uint64_t v = read_src(insn.operands[1]);
        write_dst(static_cast<std::uint64_t>(std::popcount(v)));
        arch_.zf = v == 0;
        flags_written();
        break;
      }
      case OpClass::Lzcnt: {
        std::uint64_t v = read_src(insn.operands[1]);
        write_dst(v == 0 ? op_width
                         : static_cast<unsigned>(std::countl_zero(v)) -
                               (64 - op_width));
        arch_.cf = v == 0;
        flags_written();
        break;
      }
      case OpClass::Tzcnt: {
        std::uint64_t v = read_src(insn.operands[1]);
        write_dst(v == 0 ? op_width
                         : static_cast<unsigned>(std::countr_zero(v)));
        arch_.cf = v == 0;
        flags_written();
        break;
      }
      case OpClass::Bitscan: {
        std::uint64_t v = read_src(insn.operands[1]);
        arch_.zf = v == 0;
        flags_written();
        if (v != 0) {
            write_dst(opcode == Opcode::BSF
                          ? static_cast<unsigned>(std::countr_zero(v))
                          : 63 - static_cast<unsigned>(std::countl_zero(v)));
        }
        break;
      }
      case OpClass::BitTest: {
        std::uint64_t a = read_src(insn.operands[0]);
        unsigned pos =
            static_cast<unsigned>(read_src(insn.operands[1])) % op_width;
        arch_.cf = (a >> pos) & 1;
        flags_written();
        if (opcode == Opcode::BTS)
            write_dst(a | (1ULL << pos));
        else if (opcode == Opcode::BTR)
            write_dst(a & ~(1ULL << pos));
        break;
      }
      case OpClass::Setz:
        write_dst(arch_.zf ? 1 : 0);
        break;
      case OpClass::Setnz:
        write_dst(arch_.zf ? 0 : 1);
        break;

      // ----------------------------------------------- control flow
      case OpClass::Jmp:
        take_branch();
        break;
      case OpClass::Jcc: {
        bool taken = false;
        switch (opcode) {
          case Opcode::JZ:
            taken = arch_.zf;
            break;
          case Opcode::JNZ:
            taken = !arch_.zf;
            break;
          case Opcode::JC:
            taken = arch_.cf;
            break;
          case Opcode::JNC:
            taken = !arch_.cf;
            break;
          case Opcode::JL:
            taken = arch_.sf != arch_.of;
            break;
          case Opcode::JGE:
            taken = arch_.sf == arch_.of;
            break;
          case Opcode::JLE:
            taken = arch_.zf || arch_.sf != arch_.of;
            break;
          case Opcode::JG:
            taken = !arch_.zf && arch_.sf == arch_.of;
            break;
          default:
            break;
        }
        if (taken)
            take_branch();
        break;
      }
      case OpClass::Call: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, ctx.nextIdx, 8);
        ready_at(Reg::RSP);
        take_branch();
        break;
      }
      case OpClass::Ret: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        dispatchUop(ctx, ports_.loadPorts,
                    std::max(s.addrReady, s.issueReady), 1, 0);
        std::uint64_t value = loadValue(rsp, 8).first;
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        ready_at(Reg::RSP);
        s.taken = true;
        if (value > ctx.program->virtualSize())
            fatal("RET to invalid target ", value);
        s.branchTarget = value;
        break;
      }
      case OpClass::Push: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, read_src(insn.operands[0]), 8);
        ready_at(Reg::RSP);
        break;
      }
      case OpClass::Pop: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        auto pt = dispatchUop(ctx, ports_.loadPorts,
                              std::max(s.addrReady, s.issueReady), 1, 0);
        auto [value, lat] = loadValue(rsp, 8);
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        s.resultReady = std::max(s.resultReady, pt.dispatch + lat);
        write_dst(value);
        ready_at(Reg::RSP);
        break;
      }

      // ----------------------------------------------------- vector
      case OpClass::MovVec:
        write_vec_dst(read_vec_src(insn.operands[1]));
        break;
      case OpClass::Pxor: {
        auto [a, b] = vec_op(0, 1);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i)
            r[i] = a[i] ^ b[i];
        write_vec_dst(r);
        break;
      }
      case OpClass::Paddd: {
        auto [a, b] = vec_op(0, 1);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i) {
            std::uint32_t lo = static_cast<std::uint32_t>(a[i]) +
                               static_cast<std::uint32_t>(b[i]);
            std::uint32_t hi = static_cast<std::uint32_t>(a[i] >> 32) +
                               static_cast<std::uint32_t>(b[i] >> 32);
            r[i] = static_cast<std::uint64_t>(hi) << 32 | lo;
        }
        write_vec_dst(r);
        break;
      }
      case OpClass::Addps: {
        auto [a, b] = vec_op(0, 1);
        write_vec_dst(mapPs(a, b, 128, [](float x, float y) {
            return asBits(x + y);
        }));
        break;
      }
      case OpClass::Mulps: {
        auto [a, b] = vec_op(0, 1);
        write_vec_dst(mapPs(a, b, 128, [](float x, float y) {
            return asBits(x * y);
        }));
        break;
      }
      case OpClass::Divps: {
        auto [a, b] = vec_op(0, 1);
        write_vec_dst(mapPs(a, b, 128, [](float x, float y) {
            return asBits(y == 0.0f ? 0.0f : x / y);
        }));
        break;
      }
      case OpClass::Addpd: {
        auto [a, b] = vec_op(0, 1);
        write_vec_dst(
            mapPd(a, b, 128, [](double x, double y) { return x + y; }));
        break;
      }
      case OpClass::Mulpd: {
        auto [a, b] = vec_op(0, 1);
        write_vec_dst(
            mapPd(a, b, 128, [](double x, double y) { return x * y; }));
        break;
      }
      case OpClass::Divpd: {
        auto [a, b] = vec_op(0, 1);
        write_vec_dst(mapPd(a, b, 128, [](double x, double y) {
            return y == 0.0 ? 0.0 : x / y;
        }));
        break;
      }
      case OpClass::Vaddps: {
        auto [a, b] = vec_op(1, 2);
        write_vec_dst(mapPs(a, b, 256, [](float x, float y) {
            return asBits(x + y);
        }));
        break;
      }
      case OpClass::Vmulps: {
        auto [a, b] = vec_op(1, 2);
        write_vec_dst(mapPs(a, b, 256, [](float x, float y) {
            return asBits(x * y);
        }));
        break;
      }
      case OpClass::Vfma: {
        VecReg acc = read_vec_src(insn.operands[0]);
        auto [a, b] = vec_op(1, 2);
        VecReg prod = mapPs(a, b, 256, [](float x, float y) {
            return asBits(x * y);
        });
        write_vec_dst(mapPs(acc, prod, 256, [](float x, float y) {
            return asBits(x + y);
        }));
        break;
      }

      // ------------------------------------- counters and system
      case OpClass::Rdtsc:
        write_rdx_rax(s.firstDispatch >> 32, s.firstDispatch & 0xFFFFFFFF);
        break;
      case OpClass::Rdpmc: {
        if (privilege_ != Privilege::Kernel && !rdpmcUser_) {
            fatal("general protection fault: RDPMC in user mode with "
                  "CR4.PCE = 0");
        }
        auto idx = static_cast<std::uint32_t>(arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value;
        // The counters are sampled at the cycle the µop executes --
        // NOT serialized against older instructions (§IV-A1).
        if (idx >= kRdpmcFixedBase) {
            if (!pmu_.hasFixed())
                fatal("RDPMC: no fixed counters on ", uarch_.name);
            value = pmu_.readFixed(idx - kRdpmcFixedBase, s.firstDispatch);
        } else {
            if (idx >= pmu_.numProg())
                fatal("RDPMC: counter index ", idx, " out of range");
            value = pmu_.readProg(idx, s.firstDispatch);
        }
        write_rdx_rax(value >> 32, value & 0xFFFFFFFF);
        break;
      }
      case OpClass::Rdmsr: {
        auto addr = static_cast<std::uint32_t>(arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = readMsrAt(addr, s.firstDispatch);
        write_rdx_rax(value >> 32, value & 0xFFFFFFFF);
        break;
      }
      case OpClass::Wrmsr: {
        auto addr = static_cast<std::uint32_t>(arch_.readGpr(Reg::RCX, 32));
        writeMsr(addr, (arch_.readGpr(Reg::RDX, 64) << 32) |
                           arch_.readGpr(Reg::RAX, 32));
        // Serializing (§IV-A1).
        sched_.minDispatch = std::max(sched_.minDispatch, s.coreDone);
        break;
      }
      case OpClass::Wbinvd:
        caches_.wbinvd();
        sched_.minDispatch = std::max(sched_.minDispatch, s.coreDone);
        break;
      case OpClass::Clflush:
        caches_.clflush(memory_.translate(s.memVaddr));
        break;
      case OpClass::Prefetch:
        caches_.access(memory_.translate(s.memVaddr),
                       opcode == Opcode::PREFETCHT0
                           ? cache::AccessType::PrefetchT0
                           : cache::AccessType::PrefetchNTA);
        // Occupies a load port but produces no register result.
        dispatchUop(ctx, ports_.loadPorts,
                    std::max(s.addrReady, s.issueReady), 1, 0);
        break;
      case OpClass::Cli:
        interruptsEnabled_ = false;
        break;
      case OpClass::Sti:
        interruptsEnabled_ = true;
        scheduleNextInterrupt();
        break;

      // Served by serialize(); no body.
      case OpClass::PfcMarker:
      case OpClass::Fence:
      case OpClass::SFence:
      case OpClass::Cpuid:
      case OpClass::Unhandled:
      case OpClass::NumClasses:
        panic("unhandled opcode in executor: ", insn.info().mnemonic);
    }
}

} // namespace nb::sim

#endif // NB_SIM_SEMANTICS_HH
