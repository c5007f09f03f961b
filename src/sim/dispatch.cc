/**
 * @file
 * The primary execution path: a threaded (computed-goto) interpreter
 * over the Program's struct-of-arrays hot layout.
 *
 * Control flow dispatches on the per-entry OpClass through a label
 * table instead of re-deriving everything from the Instruction each
 * time: the hot fields (timing, flags, pool offsets) come from the
 * packed HotTiming/HotRefs parallel arrays, and the AoS DecodedInsn
 * pool is never touched on this path. PMU events that are not
 * time-resolved are batched by Machine::count() (see BatchCountScope)
 * and committed in bulk on return.
 *
 * Parity contract: every observable -- ExecStats, architectural
 * registers and flags, counter totals, time-resolved samples, the RNG
 * stream, branch-predictor state -- must be bit-identical to
 * Machine::executeReference() (machine.cc + exec.cc). The semantics
 * bodies below mirror the executeInstr switch case for case; keep the
 * two in lockstep and extend the parity suite when adding opcodes.
 */

#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "sim/machine.hh"
#include "sim/semantics.hh"
#include "uarch/timing.hh"

namespace nb::sim
{

using x86::Instruction;
using x86::MemRef;
using x86::Opcode;
using x86::Operand;
using x86::OperandKind;
using x86::Reg;

void
Machine::budgetCheckpoint(ExecContext &ctx)
{
    const Cycles consumed = sched_.maxCompletion - ctx.stats.startCycle;
    fault::maybeInject(fault::Site::Execute, consumed);
    if (cycleDeadline_ == 0 || sched_.maxCompletion < cycleDeadline_)
        return;
    // Commit the batched PMU state so the error carries an accurate
    // partial snapshot (the flush is idempotent; the BatchCountScope
    // flush during unwind then finds nothing pending).
    flushPendingCounts();
    std::ostringstream os;
    os << "cycle budget exceeded (" << cycleBudget_ << " cycles): "
       << ctx.stats.instructions << " instructions retired, "
       << consumed << " cycles consumed in this call";
    if (pmu_.hasFixed()) {
        const Cycles now = sched_.maxCompletion;
        os << "; partial PMU fixed counters: instructions="
           << pmu_.readFixed(0, now)
           << ", core_cycles=" << pmu_.readFixed(1, now)
           << ", ref_cycles=" << pmu_.readFixed(2, now);
    }
    const std::string msg = os.str();
    detail::emitMessage("fatal: ", msg);
    throw BudgetExceededError(msg, ctx.stats.instructions, consumed,
                              cycleBudget_);
}

ExecStats
Machine::execute(const Program &prog)
{
    // Batch non-time-resolved PMU accounting for the whole call; the
    // scope flushes on every exit path, including fatal()/exceptions.
    BatchCountScope batch_scope(*this);

    ExecContext ctx;
    ctx.program = &prog;
    ctx.stats.startCycle = sched_.maxCompletion;

    // Opt-in observation sink (see ExecObserver): accrual is purely
    // additive bookkeeping on already-computed values, so attaching an
    // observer cannot perturb timing, semantics, or PMU state. The
    // nullptr check is one predicted-not-taken branch when detached.
    ExecObserver *const obs = execObserver_;

    // Front-end footprint model (§III-F): code that no longer fits the
    // instruction cache decodes at a reduced rate. The footprint is
    // the *dynamic* layout's size -- repeat-encoded programs occupy
    // the same i-cache space as their materialized equivalent.
    std::uint64_t footprint = prog.virtualSize() * 4; // 4 bytes/insn
    ctx.effectiveIssueWidth = uarch_.issueWidth;
    if (footprint > 256 * 1024)
        ctx.effectiveIssueWidth = std::max(1u, uarch_.issueWidth / 4);
    else if (footprint > 32 * 1024)
        ctx.effectiveIssueWidth = std::max(2u, uarch_.issueWidth / 2);
    const unsigned issue_width = ctx.effectiveIssueWidth;

    // Struct-of-arrays views over the program's hot layout.
    const OpClass *op_class = prog.opClasses();
    const HotTiming *hot_timing = prog.hotTiming();
    const HotRefs *hot_refs = prog.hotRefs();
    const Instruction *insn_arr = prog.insnArray();
    const uarch::PortMask *port_pool = prog.portPool();
    const Reg *reg_pool = prog.regPool();

    // Cursor over the virtual index space: (block, iteration within
    // the block's repeat count, offset within the pattern). Sequential
    // advance is O(1); a taken branch relocates by scanning the block
    // list (blocks are contiguous in virtual space and few).
    const std::vector<Program::Block> &blocks = prog.blocks();
    const std::uint64_t vsize = prog.virtualSize();
    std::size_t block_idx = 0;
    std::uint64_t iter = 0;
    std::uint32_t offset = 0;
    std::uint64_t vidx = 0;      // virtual index of the cursor
    std::uint64_t copy_base = 0; // virtual index of the current copy

    auto relocate = [&](std::uint64_t v) {
        for (block_idx = 0; block_idx < blocks.size(); ++block_idx) {
            const Program::Block &b = blocks[block_idx];
            std::uint64_t span =
                static_cast<std::uint64_t>(b.entryCount) * b.repeat;
            if (v < b.firstVirtual + span) {
                std::uint64_t rel = v - b.firstVirtual;
                iter = rel / b.entryCount;
                offset = static_cast<std::uint32_t>(rel % b.entryCount);
                copy_base = b.firstVirtual + iter * b.entryCount;
                vidx = v;
                return;
            }
        }
        vidx = v; // past the end: control falls off the program
    };

    // ---------------------------------------------------------------
    // Per-instruction state. Everything lives before the first label
    // and is *assigned* per instruction, so the computed gotos below
    // never jump into the scope of a fresh initialization (which C++
    // forbids). `loaded`/`loaded_vec` are not re-zeroed per
    // instruction: every Memory-operand read implies kDoLoadUop set
    // them this instruction (POP/RET/PREFETCH never read them).
    // ---------------------------------------------------------------
    std::uint32_t entry = 0;
    const Instruction *insn = nullptr;
    HotTiming ht{};
    HotRefs hr{};
    unsigned flags = 0;
    const Operand *mem_op = nullptr;
    Cycles src_ready = 0;
    Cycles addr_ready = 0;
    Cycles issue_ready = 0;
    Cycles load_done = 0;
    Cycles core_done = 0;
    Cycles first_dispatch = 0;
    Cycles result_ready = 0;
    std::uint64_t loaded = 0;
    VecReg loaded_vec{};
    Addr mem_vaddr = 0;
    bool is_branch = false;
    bool taken = false;
    bool mispredicted = false;
    std::uint64_t branch_target = 0;
    std::optional<std::uint64_t> store_value;
    std::optional<VecReg> store_vec;
    unsigned store_bytes = 8;
    unsigned op_width = 64;

    // Scheduler primitives, inlined from machine.cc so the whole
    // dispatch loop optimizes as one unit (the out-of-line member
    // calls cost ~4 calls per instruction on the reference path).
    // Bodies are copies of Machine::issueSlot / dispatchUop /
    // retireInstr -- keep them in lockstep.
    const unsigned window_size = uarch_.windowSize;
    const unsigned retire_width = uarch_.retireWidth;
    const unsigned n_ports = ports_.numPorts;
    const uarch::PortMask port_limit =
        static_cast<uarch::PortMask>((1u << n_ports) - 1);

    auto issue_slot = [&]() -> Cycles {
        // Scheduler-window back-pressure: stall issue until the
        // oldest in-flight µop completes.
        if (sched_.window.size() >= window_size) {
            Cycles oldest = sched_.window.front();
            sched_.window.pop_front();
            if (oldest > sched_.issueCycle) {
                sched_.issueCycle = oldest;
                sched_.issuedInCycle = 0;
            }
        }
        if (sched_.issuedInCycle >= issue_width) {
            ++sched_.issueCycle;
            sched_.issuedInCycle = 0;
        }
        ++sched_.issuedInCycle;
        if (obs)
            ++obs->uopsIssued;
        return sched_.issueCycle;
    };

    auto dispatch_uop = [&](uarch::PortMask ports, Cycles ready,
                            unsigned latency,
                            unsigned block_cycles) -> UopTiming {
        ready = std::max(ready, sched_.minDispatch);
        if (ports == 0) {
            // µop that occupies no execution port (e.g. eliminated or
            // fence-internal); completes at readiness.
            Cycles done = ready + latency;
            sched_.maxCompletion = std::max(sched_.maxCompletion, done);
            sched_.window.push_back(done);
            if (obs)
                ++obs->uopsDispatched;
            return {ready, done};
        }
        // Choose the allowed port with the earliest dispatch
        // opportunity; break ties towards the least-used port.
        // Iterating set bits visits ports in ascending index order --
        // the same pick order as the reference's 0..numPorts scan.
        unsigned best_port = 0;
        Cycles best_cycle = ~Cycles{0};
        for (unsigned m = ports & port_limit; m != 0; m &= m - 1) {
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
        if (latency == 0)
            done = best_cycle + 1;
        sched_.maxCompletion = std::max(sched_.maxCompletion, done);
        sched_.window.push_back(done);

        count(EventId::UopsExecuted, 1, best_cycle);
        if (best_port < 8)
            count(portEvent(best_port), 1, best_cycle);
        if (obs) {
            ++obs->uopsDispatched;
            ++obs->portUops[best_port];
        }
        return {best_cycle, done};
    };

    auto retire_insn = [&](Cycles completion, bool is_br, bool mispred) {
        Cycles retire = std::max(completion, sched_.lastRetire);
        if (retire == sched_.lastRetire &&
            sched_.retiredInCycle >= retire_width) {
            ++retire;
        }
        if (retire != sched_.lastRetire)
            sched_.retiredInCycle = 0;
        ++sched_.retiredInCycle;
        sched_.lastRetire = retire;
        sched_.maxCompletion = std::max(sched_.maxCompletion, retire);
        if (obs)
            obs->retireStallCycles += retire - completion;

        count(EventId::InstrRetired, 1, retire);
        if (is_br) {
            count(EventId::BrInstRetired, 1, retire);
            if (mispred)
                count(EventId::BrMispRetired, 1, retire);
        }
    };

    // Shared prologue: source/address readiness, issue slots, the load
    // µop, and the core µops -- everything executeInstr does between
    // the fence special cases and the semantics switch.
    auto prologue = [&]() {
        src_ready = 0;
        if (!(flags & hotflag::kZeroIdiom)) {
            const Reg *src = reg_pool + hr.srcBegin;
            for (unsigned i = 0; i < hr.srcCount; ++i) {
                src_ready = std::max(
                    src_ready,
                    sched_.regReady[static_cast<unsigned>(src[i])]);
            }
            if (flags & hotflag::kReadsFlags)
                src_ready = std::max(src_ready, sched_.flagsReady);
        }
        addr_ready = 0;
        const Reg *addr = reg_pool + hr.addrBegin;
        for (unsigned i = 0; i < hr.addrCount; ++i) {
            addr_ready = std::max(
                addr_ready,
                sched_.regReady[static_cast<unsigned>(addr[i])]);
        }

        issue_ready = 0;
        for (unsigned i = 0; i < ht.nIssueUops; ++i) {
            Cycles ic = issue_slot();
            count(EventId::UopsIssued, 1, ic);
            issue_ready = std::max(issue_ready, ic);
            ++ctx.stats.uops;
        }

        load_done = 0;
        mem_vaddr = 0;
        if (mem_op)
            mem_vaddr = effectiveAddress(mem_op->mem);

        if (flags & hotflag::kDoLoadUop) {
            NB_ASSERT(mem_op != nullptr, "load without memory operand");
            Cycles ready = std::max(addr_ready, issue_ready);
            auto lt = dispatch_uop(ports_.loadPorts, ready, 1, 0);
            Cycles lat;
            if (mem_op->widthBits > 64) {
                loaded_vec =
                    loadVec(mem_vaddr, mem_op->widthBits / 8, &lat);
            } else {
                auto [value, l] =
                    loadValue(mem_vaddr, mem_op->widthBits / 8);
                loaded = value;
                lat = l;
            }
            load_done = lt.dispatch + lat;
            sched_.maxCompletion =
                std::max(sched_.maxCompletion, load_done);
        }

        Cycles core_ready = std::max({src_ready, issue_ready, load_done});
        core_done = core_ready;
        first_dispatch = core_ready;
        if (ht.uopCount != 0) {
            const uarch::PortMask *uop_ports = port_pool + hr.uopBegin;
            auto t0 = dispatch_uop(uop_ports[0], core_ready, ht.latency,
                                  ht.blockCycles);
            core_done = t0.done;
            first_dispatch = t0.dispatch;
            for (unsigned i = 1; i < ht.uopCount; ++i) {
                auto ti = dispatch_uop(uop_ports[i], core_ready, 1, 0);
                core_done = std::max(core_done, ti.done);
            }
        } else if (flags & hotflag::kHasLoad) {
            core_done = load_done;
        } else {
            // NOP-like: completes at issue.
            core_done = issue_ready;
            sched_.maxCompletion =
                std::max(sched_.maxCompletion, core_done);
            sched_.window.push_back(core_done);
        }
        result_ready = core_done;
    };

    // Pattern-relative branch targets resolve against the current
    // copy's virtual base (see program.hh).
    auto resolve_target = [&]() -> std::uint64_t {
        std::uint64_t t = static_cast<std::uint64_t>(hr.target);
        return flags & hotflag::kTargetAbsolute ? t : ctx.copyBase + t;
    };

    auto read_src = [&](const Operand &op) -> std::uint64_t {
        switch (op.kind) {
          case OperandKind::Register:
            return arch_.readGpr(op.reg, op.widthBits);
          case OperandKind::Immediate:
            return static_cast<std::uint64_t>(op.imm) &
                   widthMask(op.widthBits);
          case OperandKind::Memory:
            return loaded & widthMask(op.widthBits);
          case OperandKind::None:
            break;
        }
        panic("unreadable operand");
    };
    auto read_vec_src = [&](const Operand &op) -> VecReg {
        if (op.kind == OperandKind::Register)
            return arch_.readVec(op.reg);
        if (op.kind == OperandKind::Memory)
            return loaded_vec;
        panic("unreadable vector operand");
    };
    auto write_dst = [&](std::uint64_t value) {
        const Operand &dst = insn->operands[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeGpr(dst.reg, dst.widthBits, value);
            sched_.regReady[static_cast<unsigned>(dst.reg)] =
                result_ready;
        } else if (dst.kind == OperandKind::Memory) {
            store_value = value;
        } else {
            panic("bad destination operand");
        }
    };
    auto write_vec_dst = [&](const VecReg &value) {
        const Operand &dst = insn->operands[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeVec(dst.reg, value);
            sched_.regReady[static_cast<unsigned>(dst.reg)] =
                result_ready;
        } else if (dst.kind == OperandKind::Memory) {
            store_vec = value;
        } else {
            panic("bad vector destination");
        }
    };
    auto set_zf_sf = [&](std::uint64_t result, unsigned width) {
        arch_.zf = (result & widthMask(width)) == 0;
        arch_.sf = (result & signBit(width)) != 0;
    };
    auto flags_written = [&]() { sched_.flagsReady = result_ready; };

    // One label per OpClass, in enum order.
    static const void *const handlers[] = {
        &&op_nop,        &&op_mov,        &&op_movsx,
        &&op_lea,        &&op_xchg,       &&op_bswap,
        &&op_cmov,       &&op_add_adc,    &&op_sub_sbb_cmp,
        &&op_logic,      &&op_inc_dec,    &&op_neg,
        &&op_not,        &&op_imul,       &&op_mul,
        &&op_div,        &&op_shift,      &&op_popcnt,
        &&op_lzcnt,      &&op_tzcnt,      &&op_bitscan,
        &&op_bit_test,   &&op_setz,       &&op_setnz,
        &&op_jmp,        &&op_jcc,        &&op_call,
        &&op_ret,        &&op_push,       &&op_pop,
        &&op_mov_vec,    &&op_pxor,       &&op_paddd,
        &&op_addps,      &&op_mulps,      &&op_divps,
        &&op_addpd,      &&op_mulpd,      &&op_divpd,
        &&op_vaddps,     &&op_vmulps,     &&op_vfma,
        &&op_rdtsc,      &&op_rdpmc,      &&op_rdmsr,
        &&op_wrmsr,      &&op_wbinvd,     &&op_clflush,
        &&op_prefetch,   &&op_cli,        &&op_sti,
        &&op_pfc_marker, &&op_fence,      &&op_sfence,
        &&op_cpuid,      &&op_unhandled,
    };
    static_assert(sizeof(handlers) / sizeof(handlers[0]) ==
                  kNumOpClasses);

next_insn:
    if (vidx >= vsize)
        goto finished;
    if (ctx.stats.instructions >= maxInstr_) {
        fatal("instruction budget exceeded (", maxInstr_,
              "); possible endless loop in microbenchmark");
    }
    // Amortized resilience checkpoint (cycle budget + execute-site
    // fault injection): one predictable mask test per instruction;
    // the deadline compare and fault-plan probe run every 1024th
    // instruction, and the cold path lives out of line.
    if ((ctx.stats.instructions & 1023u) == 0 &&
        (cycleDeadline_ != 0 || fault::activePlan() != nullptr))
        budgetCheckpoint(ctx);
    {
        const Program::Block &b = blocks[block_idx];
        entry = b.entryBegin + offset;
        ctx.copyBase = copy_base;
        // Advance the cursor to the fallthrough position.
        ++vidx;
        if (++offset == b.entryCount) {
            offset = 0;
            if (++iter == b.repeat) {
                iter = 0;
                ++block_idx;
            }
            copy_base = vidx;
        }
    }
    ctx.nextIdx = vidx;
    insn = insn_arr + entry;
    ht = hot_timing[entry];
    hr = hot_refs[entry];
    flags = ht.flags;
    op_width = ht.opWidth;
    mem_op = ht.memOpIdx >= 0 ? &insn->operands[ht.memOpIdx] : nullptr;
    store_bytes = mem_op ? mem_op->widthBits / 8 : 8;
    is_branch = (flags & hotflag::kIsBranch) != 0;
    taken = false;
    mispredicted = false;
    branch_target = ctx.nextIdx;
    store_value.reset();
    store_vec.reset();
    if (flags & hotflag::kPrivileged)
        requirePrivilege(*insn);
    goto *handlers[static_cast<unsigned>(op_class[entry])];

    // ----------------------------------------------------------- ALU
op_nop:
    prologue();
    goto epilogue;

op_mov:
    prologue();
    write_dst(read_src(insn->operands[1]));
    goto epilogue;

op_movsx:
    prologue();
    {
        std::uint64_t v = read_src(insn->operands[1]);
        unsigned sw = insn->operands[1].widthBits;
        if (v & signBit(sw))
            v |= ~widthMask(sw);
        write_dst(v);
    }
    goto epilogue;

op_lea:
    prologue();
    write_dst(mem_vaddr & widthMask(op_width));
    goto epilogue;

op_xchg:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        std::uint64_t b = read_src(insn->operands[1]);
        write_dst(b);
        const Operand &src = insn->operands[1];
        if (src.kind == OperandKind::Register) {
            arch_.writeGpr(src.reg, src.widthBits, a);
            sched_.regReady[static_cast<unsigned>(src.reg)] =
                result_ready;
        } else {
            store_value = a;
        }
    }
    goto epilogue;

op_bswap:
    prologue();
    {
        std::uint64_t v = read_src(insn->operands[0]);
        if (op_width == 64)
            v = __builtin_bswap64(v);
        else
            v = __builtin_bswap32(static_cast<std::uint32_t>(v));
        write_dst(v);
    }
    goto epilogue;

op_cmov:
    prologue();
    {
        bool cond = insn->opcode == Opcode::CMOVZ    ? arch_.zf
                    : insn->opcode == Opcode::CMOVNZ ? !arch_.zf
                    : insn->opcode == Opcode::CMOVC  ? arch_.cf
                                                     : !arch_.cf;
        std::uint64_t v = cond ? read_src(insn->operands[1])
                               : read_src(insn->operands[0]);
        write_dst(v);
    }
    goto epilogue;

op_add_adc:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        std::uint64_t b = read_src(insn->operands[1]);
        std::uint64_t carry =
            insn->opcode == Opcode::ADC && arch_.cf ? 1 : 0;
        std::uint64_t r = (a + b + carry) & widthMask(op_width);
        arch_.cf = r < a || (carry && r == a);
        arch_.of = ((a ^ r) & (b ^ r) & signBit(op_width)) != 0;
        set_zf_sf(r, op_width);
        flags_written();
        write_dst(r);
    }
    goto epilogue;

op_sub_sbb_cmp:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        std::uint64_t b = read_src(insn->operands[1]);
        std::uint64_t borrow =
            insn->opcode == Opcode::SBB && arch_.cf ? 1 : 0;
        std::uint64_t r = (a - b - borrow) & widthMask(op_width);
        arch_.cf = a < b + borrow;
        arch_.of = ((a ^ b) & (a ^ r) & signBit(op_width)) != 0;
        set_zf_sf(r, op_width);
        flags_written();
        if (insn->opcode != Opcode::CMP)
            write_dst(r);
    }
    goto epilogue;

op_logic:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        std::uint64_t b = read_src(insn->operands[1]);
        std::uint64_t r;
        if (insn->opcode == Opcode::OR)
            r = a | b;
        else if (insn->opcode == Opcode::XOR)
            r = a ^ b;
        else
            r = a & b;
        r &= widthMask(op_width);
        arch_.cf = false;
        arch_.of = false;
        set_zf_sf(r, op_width);
        flags_written();
        if (insn->opcode != Opcode::TEST)
            write_dst(r);
    }
    goto epilogue;

op_inc_dec:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        std::uint64_t r =
            (insn->opcode == Opcode::INC ? a + 1 : a - 1) &
            widthMask(op_width);
        // INC/DEC preserve CF.
        arch_.of = insn->opcode == Opcode::INC
                       ? r == signBit(op_width)
                       : a == signBit(op_width);
        set_zf_sf(r, op_width);
        flags_written();
        write_dst(r);
    }
    goto epilogue;

op_neg:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        std::uint64_t r = (0 - a) & widthMask(op_width);
        arch_.cf = a != 0;
        set_zf_sf(r, op_width);
        flags_written();
        write_dst(r);
    }
    goto epilogue;

op_not:
    prologue();
    write_dst(~read_src(insn->operands[0]) & widthMask(op_width));
    goto epilogue;

op_imul:
    prologue();
    {
        if (insn->operands.size() == 1) {
            // RDX:RAX = RAX * src (signed widening).
            auto a = static_cast<__int128>(
                static_cast<std::int64_t>(arch_.readGpr(Reg::RAX, 64)));
            auto b = static_cast<__int128>(static_cast<std::int64_t>(
                read_src(insn->operands[0])));
            __int128 p = a * b;
            arch_.writeGpr(Reg::RAX, 64, static_cast<std::uint64_t>(p));
            arch_.writeGpr(Reg::RDX, 64,
                           static_cast<std::uint64_t>(p >> 64));
            sched_.regReady[static_cast<unsigned>(Reg::RAX)] =
                result_ready;
            sched_.regReady[static_cast<unsigned>(Reg::RDX)] =
                result_ready;
        } else if (insn->operands.size() == 2) {
            std::uint64_t r = read_src(insn->operands[0]) *
                              read_src(insn->operands[1]);
            write_dst(r & widthMask(op_width));
        } else {
            std::uint64_t r = read_src(insn->operands[1]) *
                              read_src(insn->operands[2]);
            write_dst(r & widthMask(op_width));
        }
        flags_written();
    }
    goto epilogue;

op_mul:
    prologue();
    {
        auto a = static_cast<unsigned __int128>(
            arch_.readGpr(Reg::RAX, 64));
        auto b = static_cast<unsigned __int128>(
            read_src(insn->operands[0]));
        unsigned __int128 p = a * b;
        arch_.writeGpr(Reg::RAX, 64, static_cast<std::uint64_t>(p));
        arch_.writeGpr(Reg::RDX, 64,
                       static_cast<std::uint64_t>(p >> 64));
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
        flags_written();
    }
    goto epilogue;

op_div:
    prologue();
    {
        std::uint64_t divisor = read_src(insn->operands[0]);
        if (divisor == 0)
            fatal("divide error (#DE): division by zero");
        unsigned __int128 dividend =
            (static_cast<unsigned __int128>(
                 arch_.readGpr(Reg::RDX, 64))
             << 64) |
            arch_.readGpr(Reg::RAX, 64);
        std::uint64_t q, rem;
        if (insn->opcode == Opcode::DIV) {
            q = static_cast<std::uint64_t>(dividend / divisor);
            rem = static_cast<std::uint64_t>(dividend % divisor);
        } else {
            auto sd = static_cast<__int128>(dividend);
            auto sv = static_cast<std::int64_t>(divisor);
            q = static_cast<std::uint64_t>(sd / sv);
            rem = static_cast<std::uint64_t>(sd % sv);
        }
        arch_.writeGpr(Reg::RAX, 64, q);
        arch_.writeGpr(Reg::RDX, 64, rem);
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
        flags_written();
    }
    goto epilogue;

op_shift:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        unsigned max_shift = op_width == 64 ? 63 : 31;
        unsigned n =
            static_cast<unsigned>(read_src(insn->operands[1])) &
            max_shift;
        std::uint64_t r = a;
        if (n != 0) {
            switch (insn->opcode) {
              case Opcode::SHL:
                arch_.cf = (a >> (op_width - n)) & 1;
                r = a << n;
                break;
              case Opcode::SHR:
                arch_.cf = (a >> (n - 1)) & 1;
                r = a >> n;
                break;
              case Opcode::SAR: {
                std::uint64_t s = a;
                if (a & signBit(op_width))
                    s |= ~widthMask(op_width);
                arch_.cf = (s >> (n - 1)) & 1;
                r = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(s) >> n);
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
            set_zf_sf(r, op_width);
            flags_written();
        }
        write_dst(r);
    }
    goto epilogue;

op_popcnt:
    prologue();
    {
        std::uint64_t v = read_src(insn->operands[1]);
        write_dst(static_cast<std::uint64_t>(std::popcount(v)));
        arch_.zf = v == 0;
        flags_written();
    }
    goto epilogue;

op_lzcnt:
    prologue();
    {
        std::uint64_t v = read_src(insn->operands[1]);
        unsigned lz =
            v == 0 ? op_width
                   : static_cast<unsigned>(std::countl_zero(v)) -
                         (64 - op_width);
        write_dst(lz);
        arch_.cf = v == 0;
        flags_written();
    }
    goto epilogue;

op_tzcnt:
    prologue();
    {
        std::uint64_t v = read_src(insn->operands[1]);
        unsigned tz = v == 0
                          ? op_width
                          : static_cast<unsigned>(std::countr_zero(v));
        write_dst(tz);
        arch_.cf = v == 0;
        flags_written();
    }
    goto epilogue;

op_bitscan:
    prologue();
    {
        std::uint64_t v = read_src(insn->operands[1]);
        arch_.zf = v == 0;
        flags_written();
        if (v != 0) {
            unsigned pos =
                insn->opcode == Opcode::BSF
                    ? static_cast<unsigned>(std::countr_zero(v))
                    : 63 - static_cast<unsigned>(std::countl_zero(v));
            write_dst(pos);
        }
    }
    goto epilogue;

op_bit_test:
    prologue();
    {
        std::uint64_t a = read_src(insn->operands[0]);
        unsigned pos = static_cast<unsigned>(
                           read_src(insn->operands[1])) %
                       op_width;
        arch_.cf = (a >> pos) & 1;
        flags_written();
        if (insn->opcode == Opcode::BTS)
            write_dst(a | (1ULL << pos));
        else if (insn->opcode == Opcode::BTR)
            write_dst(a & ~(1ULL << pos));
    }
    goto epilogue;

op_setz:
    prologue();
    write_dst(arch_.zf ? 1 : 0);
    goto epilogue;

op_setnz:
    prologue();
    write_dst(arch_.zf ? 0 : 1);
    goto epilogue;

    // ------------------------------------------------- control flow
op_jmp:
    prologue();
    taken = true;
    branch_target = resolve_target();
    goto epilogue;

op_jcc:
    prologue();
    {
        switch (insn->opcode) {
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
            branch_target = resolve_target();
    }
    goto epilogue;

op_call:
    prologue();
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, ctx.nextIdx, 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        taken = true;
        branch_target = resolve_target();
    }
    goto epilogue;

op_ret:
    prologue();
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        dispatch_uop(ports_.loadPorts, std::max(addr_ready, issue_ready),
                    1, 0);
        auto [value, lat] = loadValue(rsp, 8);
        (void)lat;
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        taken = true;
        if (value > vsize)
            fatal("RET to invalid target ", value);
        branch_target = value;
    }
    goto epilogue;

op_push:
    prologue();
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, read_src(insn->operands[0]), 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
    }
    goto epilogue;

op_pop:
    prologue();
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        auto pt = dispatch_uop(ports_.loadPorts,
                              std::max(addr_ready, issue_ready), 1, 0);
        auto [value, lat] = loadValue(rsp, 8);
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        result_ready = std::max(result_ready, pt.dispatch + lat);
        write_dst(value);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
    }
    goto epilogue;

    // ------------------------------------------------------- vector
op_mov_vec:
    prologue();
    write_vec_dst(read_vec_src(insn->operands[1]));
    goto epilogue;

op_pxor:
    prologue();
    {
        VecReg a = read_vec_src(insn->operands[0]);
        VecReg b = read_vec_src(insn->operands[1]);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i)
            r[i] = a[i] ^ b[i];
        write_vec_dst(r);
    }
    goto epilogue;

op_paddd:
    prologue();
    {
        VecReg a = read_vec_src(insn->operands[0]);
        VecReg b = read_vec_src(insn->operands[1]);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i) {
            std::uint32_t lo = static_cast<std::uint32_t>(a[i]) +
                               static_cast<std::uint32_t>(b[i]);
            std::uint32_t hi = static_cast<std::uint32_t>(a[i] >> 32) +
                               static_cast<std::uint32_t>(b[i] >> 32);
            r[i] = static_cast<std::uint64_t>(hi) << 32 | lo;
        }
        write_vec_dst(r);
    }
    goto epilogue;

op_addps:
    prologue();
    write_vec_dst(mapPs(read_vec_src(insn->operands[0]),
                        read_vec_src(insn->operands[1]), 128,
                        [](float x, float y) { return asBits(x + y); }));
    goto epilogue;

op_mulps:
    prologue();
    write_vec_dst(mapPs(read_vec_src(insn->operands[0]),
                        read_vec_src(insn->operands[1]), 128,
                        [](float x, float y) { return asBits(x * y); }));
    goto epilogue;

op_divps:
    prologue();
    write_vec_dst(mapPs(read_vec_src(insn->operands[0]),
                        read_vec_src(insn->operands[1]), 128,
                        [](float x, float y) {
                            return asBits(y == 0.0f ? 0.0f : x / y);
                        }));
    goto epilogue;

op_addpd:
    prologue();
    write_vec_dst(mapPd(read_vec_src(insn->operands[0]),
                        read_vec_src(insn->operands[1]), 128,
                        [](double x, double y) { return x + y; }));
    goto epilogue;

op_mulpd:
    prologue();
    write_vec_dst(mapPd(read_vec_src(insn->operands[0]),
                        read_vec_src(insn->operands[1]), 128,
                        [](double x, double y) { return x * y; }));
    goto epilogue;

op_divpd:
    prologue();
    write_vec_dst(mapPd(read_vec_src(insn->operands[0]),
                        read_vec_src(insn->operands[1]), 128,
                        [](double x, double y) {
                            return y == 0.0 ? 0.0 : x / y;
                        }));
    goto epilogue;

op_vaddps:
    prologue();
    write_vec_dst(mapPs(read_vec_src(insn->operands[1]),
                        read_vec_src(insn->operands[2]), 256,
                        [](float x, float y) { return asBits(x + y); }));
    goto epilogue;

op_vmulps:
    prologue();
    write_vec_dst(mapPs(read_vec_src(insn->operands[1]),
                        read_vec_src(insn->operands[2]), 256,
                        [](float x, float y) { return asBits(x * y); }));
    goto epilogue;

op_vfma:
    prologue();
    {
        VecReg acc = read_vec_src(insn->operands[0]);
        VecReg prod = mapPs(read_vec_src(insn->operands[1]),
                            read_vec_src(insn->operands[2]), 256,
                            [](float x, float y) {
                                return asBits(x * y);
                            });
        write_vec_dst(mapPs(acc, prod, 256, [](float x, float y) {
            return asBits(x + y);
        }));
    }
    goto epilogue;

    // ------------------------------------------- counters and system
op_rdtsc:
    prologue();
    {
        std::uint64_t tsc = first_dispatch;
        arch_.writeGpr(Reg::RAX, 64, tsc & 0xFFFFFFFF);
        arch_.writeGpr(Reg::RDX, 64, tsc >> 32);
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
    }
    goto epilogue;

op_rdpmc:
    prologue();
    {
        if (privilege_ != Privilege::Kernel && !rdpmcUser_) {
            fatal("general protection fault: RDPMC in user mode with "
                  "CR4.PCE = 0");
        }
        std::uint32_t idx = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value;
        // The counters are sampled at the cycle the µop executes --
        // NOT serialized against older instructions (§IV-A1).
        Cycles sample = first_dispatch;
        if (idx >= kRdpmcFixedBase) {
            if (!pmu_.hasFixed())
                fatal("RDPMC: no fixed counters on ", uarch_.name);
            value = pmu_.readFixed(idx - kRdpmcFixedBase, sample);
        } else {
            if (idx >= pmu_.numProg())
                fatal("RDPMC: counter index ", idx, " out of range");
            value = pmu_.readProg(idx, sample);
        }
        arch_.writeGpr(Reg::RAX, 64, value & 0xFFFFFFFF);
        arch_.writeGpr(Reg::RDX, 64, value >> 32);
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
    }
    goto epilogue;

op_rdmsr:
    prologue();
    {
        std::uint32_t addr = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = readMsrAt(addr, first_dispatch);
        arch_.writeGpr(Reg::RAX, 64, value & 0xFFFFFFFF);
        arch_.writeGpr(Reg::RDX, 64, value >> 32);
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
    }
    goto epilogue;

op_wrmsr:
    prologue();
    {
        std::uint32_t addr = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = (arch_.readGpr(Reg::RDX, 64) << 32) |
                              arch_.readGpr(Reg::RAX, 32);
        writeMsr(addr, value);
        // Serializing (§IV-A1).
        sched_.minDispatch = std::max(sched_.minDispatch, core_done);
    }
    goto epilogue;

op_wbinvd:
    prologue();
    caches_.wbinvd();
    sched_.minDispatch = std::max(sched_.minDispatch, core_done);
    goto epilogue;

op_clflush:
    prologue();
    caches_.clflush(memory_.translate(mem_vaddr));
    goto epilogue;

op_prefetch:
    prologue();
    {
        Addr paddr = memory_.translate(mem_vaddr);
        caches_.access(paddr, insn->opcode == Opcode::PREFETCHT0
                                  ? cache::AccessType::PrefetchT0
                                  : cache::AccessType::PrefetchNTA);
        // Occupies a load port but produces no register result.
        dispatch_uop(ports_.loadPorts, std::max(addr_ready, issue_ready),
                    1, 0);
    }
    goto epilogue;

op_cli:
    prologue();
    interruptsEnabled_ = false;
    goto epilogue;

op_sti:
    prologue();
    interruptsEnabled_ = true;
    scheduleNextInterrupt();
    goto epilogue;

    // --------------------------------- fences and markers (§IV-A1).
    // These replicate executeInstr's early returns: no shared
    // prologue, no store/branch epilogue, no ctx.stats.uops.
op_pfc_marker:
    // Magic markers: pause/resume counting (§III-I). Acts like a
    // light dispatch fence with a small fixed overhead.
    {
        Cycles fence_point = sched_.maxCompletion + 5;
        sched_.minDispatch = std::max(sched_.minDispatch, fence_point);
        pmu_.setPaused(insn->opcode == Opcode::PFC_PAUSE);
        retire_insn(fence_point, false, false);
    }
    goto after_insn;

op_fence:
    // LFENCE/MFENCE: dispatches only after all prior instructions
    // completed locally; no later instruction begins execution until
    // it completes.
    {
        Cycles fence_point = sched_.maxCompletion;
        Cycles done = fence_point + 2;
        sched_.minDispatch = std::max(sched_.minDispatch, done);
        count(EventId::UopsIssued, 1, issue_slot());
        retire_insn(done, false, false);
    }
    goto after_insn;

op_sfence:
    count(EventId::UopsIssued, 1, issue_slot());
    retire_insn(sched_.maxCompletion + 1, false, false);
    goto after_insn;

op_cpuid:
    // Serializing, but with a variable latency and µop count
    // (Paoloni's observation): unsuitable for short benchmarks.
    {
        Cycles fence_point = sched_.maxCompletion;
        unsigned extra_uops =
            static_cast<unsigned>(rng_.nextRange(16, 48));
        Cycles extra_lat = rng_.nextRange(0, 200);
        Cycles done = fence_point + 100 + extra_lat;
        const uarch::PortMask *cpuid_ports = port_pool + hr.uopBegin;
        for (unsigned i = 0; i < extra_uops; ++i) {
            count(EventId::UopsIssued, 1, issue_slot());
            dispatch_uop(cpuid_ports[i % ht.uopCount], fence_point, 1, 0);
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
        retire_insn(done, false, false);
    }
    goto after_insn;

op_unhandled:
    panic("unhandled opcode in executor: ", insn->info().mnemonic);

    // ---------------------------------------------------------------
    // Shared epilogue: store µops, branch prediction, retirement.
    // ---------------------------------------------------------------
epilogue:
    if (flags & hotflag::kDoStoreUop) {
        NB_ASSERT(mem_op != nullptr, "store without memory operand");
        Cycles addr_rdy = std::max(addr_ready, issue_ready);
        auto sa = dispatch_uop(ports_.storeAddrPorts, addr_rdy, 1, 0);
        Cycles data_rdy = std::max(result_ready, issue_ready);
        auto sd = dispatch_uop(ports_.storeDataPorts, data_rdy, 1, 0);
        Cycles store_done = std::max(sa.done, sd.done);
        sched_.maxCompletion = std::max(sched_.maxCompletion, store_done);
        if (store_vec) {
            storeVec(mem_vaddr, *store_vec, store_bytes);
        } else if (store_value) {
            storeValue(mem_vaddr, *store_value, store_bytes);
        }
        result_ready = std::max(result_ready, store_done);
    } else if (flags & hotflag::kHasStore) {
        // PUSH/CALL already performed the write; account the µops.
        Cycles addr_rdy = std::max(addr_ready, issue_ready);
        dispatch_uop(ports_.storeAddrPorts, addr_rdy, 1, 0);
        dispatch_uop(ports_.storeDataPorts, addr_rdy, 1, 0);
    }

    if (is_branch) {
        std::uint64_t key = ctx.nextIdx - 1;
        auto [it, inserted] = branchTable_.try_emplace(key, 1);
        std::uint8_t &counter = it->second;
        bool predicted_taken = counter >= 2;
        if (insn->opcode == Opcode::JMP ||
            insn->opcode == Opcode::CALL ||
            insn->opcode == Opcode::RET) {
            predicted_taken = taken; // unconditional / RAS-predicted
        }
        mispredicted = predicted_taken != taken;
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        if (mispredicted) {
            // Pipeline restart.
            Cycles redirect = core_done + 15;
            sched_.issueCycle = std::max(sched_.issueCycle, redirect);
            sched_.issuedInCycle = 0;
        }
        if (taken)
            ctx.nextIdx = branch_target;
    }

    retire_insn(result_ready, is_branch, mispredicted);
    // fall through

after_insn:
    ++ctx.stats.instructions;
    if (ctx.nextIdx != vidx)
        relocate(ctx.nextIdx); // a taken branch redirected us
    if (interruptsEnabled_ && sched_.maxCompletion >= nextInterrupt_)
        maybeInterrupt(ctx);
    goto next_insn;

finished:
    ctx.stats.endCycle = sched_.maxCompletion;
    if (obs) {
        obs->instructions += ctx.stats.instructions;
        obs->cycles += ctx.stats.endCycle - ctx.stats.startCycle;
    }
    return ctx.stats;
}

} // namespace nb::sim
