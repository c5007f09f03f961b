/**
 * @file
 * Reference instruction execution: semantics plus per-instruction
 * timing orchestration (µop decomposition, dependence tracking,
 * fences, branches, counter-read sampling).
 *
 * This is the frozen pre-threaded-dispatch path behind
 * Machine::executeReference(). The primary executor (dispatch.cc)
 * must stay bit-identical to it in every observable; the parity suite
 * compares the two instruction class by instruction class. Do not
 * optimize this file -- it is the baseline the dispatch_vs_predecode
 * bench gate measures against.
 */

#include <algorithm>
#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"
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
Machine::executeInstr(const DecodedInsn &d, ExecContext &ctx)
{
    const Program &prog = *ctx.program;
    const Instruction &insn = prog.insn(d);

    if (d.privileged)
        requirePrivilege(insn);

    // ---------------------------------------------------------------
    // Magic markers: pause/resume counting (§III-I). Acts like a light
    // dispatch fence with a small fixed overhead.
    // ---------------------------------------------------------------
    if (insn.opcode == Opcode::PFC_PAUSE ||
        insn.opcode == Opcode::PFC_RESUME) {
        Cycles fence_point = sched_.maxCompletion + 5;
        sched_.minDispatch = std::max(sched_.minDispatch, fence_point);
        pmu_.setPaused(insn.opcode == Opcode::PFC_PAUSE);
        retireInstr(fence_point, false, false);
        return;
    }

    const Operand *mem_op =
        d.memOpIdx >= 0 ? &insn.operands[d.memOpIdx] : nullptr;
    bool has_load = d.hasLoad;
    bool has_store = d.hasStore;

    // Pattern-relative branch targets resolve against the current
    // copy's virtual base (see program.hh).
    auto resolve_target = [&]() -> std::uint64_t {
        std::uint64_t t = static_cast<std::uint64_t>(d.target);
        return d.targetAbsolute ? t : ctx.copyBase + t;
    };

    // ---------------------------------------------------------------
    // Source readiness (timing): the registers to wait on were
    // classified at decode time.
    // ---------------------------------------------------------------
    Cycles src_ready = 0;
    if (!d.zeroIdiom) {
        const Reg *src = prog.srcRegs(d);
        for (unsigned i = 0; i < d.srcCount; ++i) {
            src_ready = std::max(
                src_ready,
                sched_.regReady[static_cast<unsigned>(src[i])]);
        }
        if (d.readsFlags)
            src_ready = std::max(src_ready, sched_.flagsReady);
    }

    Cycles addr_ready = 0;
    const Reg *addr = prog.addrRegs(d);
    for (unsigned i = 0; i < d.addrCount; ++i) {
        addr_ready = std::max(
            addr_ready,
            sched_.regReady[static_cast<unsigned>(addr[i])]);
    }

    // ---------------------------------------------------------------
    // Fences and serialization (§IV-A1).
    // ---------------------------------------------------------------
    if (insn.opcode == Opcode::LFENCE || insn.opcode == Opcode::MFENCE) {
        // Dispatches only after all prior instructions completed
        // locally; no later instruction begins execution until it
        // completes.
        Cycles fence_point = sched_.maxCompletion;
        Cycles done = fence_point + 2;
        sched_.minDispatch = std::max(sched_.minDispatch, done);
        count(EventId::UopsIssued, 1, issueSlot(ctx.effectiveIssueWidth));
        retireInstr(done, false, false);
        return;
    }
    if (insn.opcode == Opcode::SFENCE) {
        count(EventId::UopsIssued, 1, issueSlot(ctx.effectiveIssueWidth));
        retireInstr(sched_.maxCompletion + 1, false, false);
        return;
    }
    if (insn.opcode == Opcode::CPUID) {
        // Serializing, but with a variable latency and µop count
        // (Paoloni's observation): unsuitable for short benchmarks.
        Cycles fence_point = sched_.maxCompletion;
        unsigned extra_uops =
            static_cast<unsigned>(rng_.nextRange(16, 48));
        Cycles extra_lat = rng_.nextRange(0, 200);
        Cycles done = fence_point + 100 + extra_lat;
        // The port rotation for the synthetic µops, resolved once
        // (this used to call uarch::coreTiming three times per µop).
        const uarch::PortMask *cpuid_ports = prog.uopPorts(d);
        for (unsigned i = 0; i < extra_uops; ++i) {
            count(EventId::UopsIssued, 1,
                  issueSlot(ctx.effectiveIssueWidth));
            dispatchUop(cpuid_ports[i % d.uopCount], fence_point, 1, 0);
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
        retireInstr(done, false, false);
        return;
    }

    // ---------------------------------------------------------------
    // Issue accounting (µop count resolved at decode time).
    // ---------------------------------------------------------------
    unsigned issue_uops = d.nIssueUops;
    Cycles issue_ready = 0;
    for (unsigned i = 0; i < issue_uops; ++i) {
        Cycles ic = issueSlot(ctx.effectiveIssueWidth);
        count(EventId::UopsIssued, 1, ic);
        issue_ready = std::max(issue_ready, ic);
        ++ctx.stats.uops;
    }

    // ---------------------------------------------------------------
    // Load µop (semantics + timing together).
    // ---------------------------------------------------------------
    Cycles load_done = 0;
    std::uint64_t loaded = 0;
    VecReg loaded_vec{};
    Addr mem_vaddr = 0;
    if (mem_op)
        mem_vaddr = effectiveAddress(mem_op->mem);

    if (d.doLoadUop) {
        NB_ASSERT(mem_op != nullptr, "load without memory operand");
        Cycles ready = std::max(addr_ready, issue_ready);
        auto lt = dispatchUop(ports_.loadPorts, ready, 1, 0);
        Cycles lat;
        if (mem_op->widthBits > 64) {
            loaded_vec = loadVec(mem_vaddr, mem_op->widthBits / 8, &lat);
        } else {
            auto [value, l] = loadValue(mem_vaddr, mem_op->widthBits / 8);
            loaded = value;
            lat = l;
        }
        load_done = lt.dispatch + lat;
        sched_.maxCompletion = std::max(sched_.maxCompletion, load_done);
    }

    // ---------------------------------------------------------------
    // Core µops (timing resolved at decode time).
    // ---------------------------------------------------------------
    Cycles core_ready = std::max({src_ready, issue_ready, load_done});
    Cycles core_done = core_ready;
    Cycles first_dispatch = core_ready;
    if (d.uopCount != 0) {
        const uarch::PortMask *uop_ports = prog.uopPorts(d);
        auto t0 = dispatchUop(uop_ports[0], core_ready, d.latency,
                              d.blockCycles);
        core_done = t0.done;
        first_dispatch = t0.dispatch;
        for (unsigned i = 1; i < d.uopCount; ++i) {
            auto ti = dispatchUop(uop_ports[i], core_ready, 1, 0);
            core_done = std::max(core_done, ti.done);
        }
    } else if (has_load) {
        core_done = load_done;
    } else {
        // NOP-like: completes at issue.
        core_done = issue_ready;
        sched_.maxCompletion = std::max(sched_.maxCompletion, core_done);
        sched_.window.push_back(core_done);
    }

    // ---------------------------------------------------------------
    // Semantics.
    // ---------------------------------------------------------------
    Cycles result_ready = core_done;
    bool is_branch = d.isBranch;
    bool taken = false;
    bool mispredicted = false;
    std::uint64_t branch_target = ctx.nextIdx;

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

    std::optional<std::uint64_t> store_value;
    std::optional<VecReg> store_vec;
    unsigned store_bytes = mem_op ? mem_op->widthBits / 8 : 8;

    auto write_dst = [&](std::uint64_t value) {
        const Operand &dst = insn.operands[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeGpr(dst.reg, dst.widthBits, value);
            sched_.regReady[static_cast<unsigned>(dst.reg)] = result_ready;
        } else if (dst.kind == OperandKind::Memory) {
            store_value = value;
        } else {
            panic("bad destination operand");
        }
    };
    auto write_vec_dst = [&](const VecReg &value) {
        const Operand &dst = insn.operands[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeVec(dst.reg, value);
            sched_.regReady[static_cast<unsigned>(dst.reg)] = result_ready;
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

    unsigned op_width = d.opWidth;

    switch (insn.opcode) {
      case Opcode::NOP:
      case Opcode::PAUSE:
        break;

      case Opcode::MOV:
        write_dst(read_src(insn.operands[1]));
        break;
      case Opcode::MOVNTI:
        write_dst(read_src(insn.operands[1]));
        break;
      case Opcode::MOVZX:
        write_dst(read_src(insn.operands[1]));
        break;
      case Opcode::MOVSX: {
        std::uint64_t v = read_src(insn.operands[1]);
        unsigned sw = insn.operands[1].widthBits;
        if (v & signBit(sw))
            v |= ~widthMask(sw);
        write_dst(v);
        break;
      }
      case Opcode::LEA:
        write_dst(mem_vaddr & widthMask(op_width));
        break;
      case Opcode::XCHG: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        write_dst(b);
        const Operand &src = insn.operands[1];
        if (src.kind == OperandKind::Register) {
            arch_.writeGpr(src.reg, src.widthBits, a);
            sched_.regReady[static_cast<unsigned>(src.reg)] = result_ready;
        } else {
            store_value = a;
        }
        break;
      }
      case Opcode::BSWAP: {
        std::uint64_t v = read_src(insn.operands[0]);
        if (op_width == 64)
            v = __builtin_bswap64(v);
        else
            v = __builtin_bswap32(static_cast<std::uint32_t>(v));
        write_dst(v);
        break;
      }
      case Opcode::CMOVZ:
      case Opcode::CMOVNZ:
      case Opcode::CMOVC:
      case Opcode::CMOVNC: {
        bool cond = insn.opcode == Opcode::CMOVZ    ? arch_.zf
                    : insn.opcode == Opcode::CMOVNZ ? !arch_.zf
                    : insn.opcode == Opcode::CMOVC  ? arch_.cf
                                                    : !arch_.cf;
        std::uint64_t v = cond ? read_src(insn.operands[1])
                               : read_src(insn.operands[0]);
        write_dst(v);
        break;
      }

      case Opcode::ADD:
      case Opcode::ADC: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        std::uint64_t carry =
            insn.opcode == Opcode::ADC && arch_.cf ? 1 : 0;
        std::uint64_t r = (a + b + carry) & widthMask(op_width);
        arch_.cf = r < a || (carry && r == a);
        arch_.of = ((a ^ r) & (b ^ r) & signBit(op_width)) != 0;
        set_zf_sf(r, op_width);
        flags_written();
        write_dst(r);
        break;
      }
      case Opcode::SUB:
      case Opcode::SBB:
      case Opcode::CMP: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        std::uint64_t borrow =
            insn.opcode == Opcode::SBB && arch_.cf ? 1 : 0;
        std::uint64_t r = (a - b - borrow) & widthMask(op_width);
        arch_.cf = a < b + borrow;
        arch_.of = ((a ^ b) & (a ^ r) & signBit(op_width)) != 0;
        set_zf_sf(r, op_width);
        flags_written();
        if (insn.opcode != Opcode::CMP)
            write_dst(r);
        break;
      }
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::TEST: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t b = read_src(insn.operands[1]);
        std::uint64_t r;
        if (insn.opcode == Opcode::OR)
            r = a | b;
        else if (insn.opcode == Opcode::XOR)
            r = a ^ b;
        else
            r = a & b;
        r &= widthMask(op_width);
        arch_.cf = false;
        arch_.of = false;
        set_zf_sf(r, op_width);
        flags_written();
        if (insn.opcode != Opcode::TEST)
            write_dst(r);
        break;
      }
      case Opcode::INC:
      case Opcode::DEC: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t r = (insn.opcode == Opcode::INC ? a + 1 : a - 1) &
                          widthMask(op_width);
        // INC/DEC preserve CF.
        arch_.of = insn.opcode == Opcode::INC
                       ? r == signBit(op_width)
                       : a == signBit(op_width);
        set_zf_sf(r, op_width);
        flags_written();
        write_dst(r);
        break;
      }
      case Opcode::NEG: {
        std::uint64_t a = read_src(insn.operands[0]);
        std::uint64_t r = (0 - a) & widthMask(op_width);
        arch_.cf = a != 0;
        set_zf_sf(r, op_width);
        flags_written();
        write_dst(r);
        break;
      }
      case Opcode::NOT:
        write_dst(~read_src(insn.operands[0]) & widthMask(op_width));
        break;

      case Opcode::IMUL: {
        if (insn.operands.size() == 1) {
            // RDX:RAX = RAX * src (signed widening).
            auto a = static_cast<__int128>(
                static_cast<std::int64_t>(arch_.readGpr(Reg::RAX, 64)));
            auto b = static_cast<__int128>(static_cast<std::int64_t>(
                read_src(insn.operands[0])));
            __int128 p = a * b;
            arch_.writeGpr(Reg::RAX, 64, static_cast<std::uint64_t>(p));
            arch_.writeGpr(Reg::RDX, 64,
                           static_cast<std::uint64_t>(p >> 64));
            sched_.regReady[static_cast<unsigned>(Reg::RAX)] =
                result_ready;
            sched_.regReady[static_cast<unsigned>(Reg::RDX)] =
                result_ready;
        } else if (insn.operands.size() == 2) {
            std::uint64_t r = read_src(insn.operands[0]) *
                              read_src(insn.operands[1]);
            write_dst(r & widthMask(op_width));
        } else {
            std::uint64_t r = read_src(insn.operands[1]) *
                              read_src(insn.operands[2]);
            write_dst(r & widthMask(op_width));
        }
        flags_written();
        break;
      }
      case Opcode::MUL: {
        auto a = static_cast<unsigned __int128>(arch_.readGpr(Reg::RAX,
                                                              64));
        auto b = static_cast<unsigned __int128>(
            read_src(insn.operands[0]));
        unsigned __int128 p = a * b;
        arch_.writeGpr(Reg::RAX, 64, static_cast<std::uint64_t>(p));
        arch_.writeGpr(Reg::RDX, 64, static_cast<std::uint64_t>(p >> 64));
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
        flags_written();
        break;
      }
      case Opcode::DIV:
      case Opcode::IDIV: {
        std::uint64_t divisor = read_src(insn.operands[0]);
        if (divisor == 0)
            fatal("divide error (#DE): division by zero");
        unsigned __int128 dividend =
            (static_cast<unsigned __int128>(arch_.readGpr(Reg::RDX, 64))
             << 64) |
            arch_.readGpr(Reg::RAX, 64);
        std::uint64_t q, rem;
        if (insn.opcode == Opcode::DIV) {
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
        break;
      }

      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::SAR:
      case Opcode::ROL:
      case Opcode::ROR: {
        std::uint64_t a = read_src(insn.operands[0]);
        unsigned max_shift = op_width == 64 ? 63 : 31;
        unsigned n = static_cast<unsigned>(read_src(insn.operands[1])) &
                     max_shift;
        std::uint64_t r = a;
        if (n != 0) {
            switch (insn.opcode) {
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
        break;
      }

      case Opcode::POPCNT: {
        std::uint64_t v = read_src(insn.operands[1]);
        write_dst(static_cast<std::uint64_t>(std::popcount(v)));
        arch_.zf = v == 0;
        flags_written();
        break;
      }
      case Opcode::LZCNT: {
        std::uint64_t v = read_src(insn.operands[1]);
        unsigned lz = v == 0 ? op_width
                             : static_cast<unsigned>(std::countl_zero(v)) -
                                   (64 - op_width);
        write_dst(lz);
        arch_.cf = v == 0;
        flags_written();
        break;
      }
      case Opcode::TZCNT: {
        std::uint64_t v = read_src(insn.operands[1]);
        unsigned tz = v == 0
                          ? op_width
                          : static_cast<unsigned>(std::countr_zero(v));
        write_dst(tz);
        arch_.cf = v == 0;
        flags_written();
        break;
      }
      case Opcode::BSF:
      case Opcode::BSR: {
        std::uint64_t v = read_src(insn.operands[1]);
        arch_.zf = v == 0;
        flags_written();
        if (v != 0) {
            unsigned pos = insn.opcode == Opcode::BSF
                               ? static_cast<unsigned>(
                                     std::countr_zero(v))
                               : 63 - static_cast<unsigned>(
                                          std::countl_zero(v));
            write_dst(pos);
        }
        break;
      }
      case Opcode::BT:
      case Opcode::BTS:
      case Opcode::BTR: {
        std::uint64_t a = read_src(insn.operands[0]);
        unsigned pos = static_cast<unsigned>(
                           read_src(insn.operands[1])) %
                       op_width;
        arch_.cf = (a >> pos) & 1;
        flags_written();
        if (insn.opcode == Opcode::BTS)
            write_dst(a | (1ULL << pos));
        else if (insn.opcode == Opcode::BTR)
            write_dst(a & ~(1ULL << pos));
        break;
      }
      case Opcode::SETZ:
        write_dst(arch_.zf ? 1 : 0);
        break;
      case Opcode::SETNZ:
        write_dst(arch_.zf ? 0 : 1);
        break;

      // ------------------------------------------------- control flow
      case Opcode::JMP:
        taken = true;
        branch_target = resolve_target();
        break;
      case Opcode::JZ:
      case Opcode::JNZ:
      case Opcode::JC:
      case Opcode::JNC:
      case Opcode::JL:
      case Opcode::JGE:
      case Opcode::JLE:
      case Opcode::JG: {
        switch (insn.opcode) {
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
        break;
      }
      case Opcode::CALL: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, ctx.nextIdx, 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        taken = true;
        branch_target = resolve_target();
        break;
      }
      case Opcode::RET: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        dispatchUop(ports_.loadPorts, std::max(addr_ready, issue_ready),
                    1, 0);
        auto [value, lat] = loadValue(rsp, 8);
        (void)lat;
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        taken = true;
        if (value > prog.virtualSize())
            fatal("RET to invalid target ", value);
        branch_target = value;
        break;
      }

      case Opcode::PUSH: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, read_src(insn.operands[0]), 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        break;
      }
      case Opcode::POP: {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        auto pt = dispatchUop(ports_.loadPorts,
                              std::max(addr_ready, issue_ready), 1, 0);
        auto [value, lat] = loadValue(rsp, 8);
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        result_ready = std::max(result_ready, pt.dispatch + lat);
        write_dst(value);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        break;
      }

      // ------------------------------------------------------- vector
      case Opcode::MOVAPS:
      case Opcode::MOVUPS:
        write_vec_dst(read_vec_src(insn.operands[1]));
        break;
      case Opcode::PXOR: {
        VecReg a = read_vec_src(insn.operands[0]);
        VecReg b = read_vec_src(insn.operands[1]);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i)
            r[i] = a[i] ^ b[i];
        write_vec_dst(r);
        break;
      }
      case Opcode::PADDD: {
        VecReg a = read_vec_src(insn.operands[0]);
        VecReg b = read_vec_src(insn.operands[1]);
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
      case Opcode::ADDPS:
        write_vec_dst(mapPs(read_vec_src(insn.operands[0]),
                            read_vec_src(insn.operands[1]), 128,
                            [](float x, float y) {
                                return asBits(x + y);
                            }));
        break;
      case Opcode::MULPS:
        write_vec_dst(mapPs(read_vec_src(insn.operands[0]),
                            read_vec_src(insn.operands[1]), 128,
                            [](float x, float y) {
                                return asBits(x * y);
                            }));
        break;
      case Opcode::DIVPS:
        write_vec_dst(mapPs(read_vec_src(insn.operands[0]),
                            read_vec_src(insn.operands[1]), 128,
                            [](float x, float y) {
                                return asBits(y == 0.0f ? 0.0f : x / y);
                            }));
        break;
      case Opcode::ADDPD:
        write_vec_dst(mapPd(read_vec_src(insn.operands[0]),
                            read_vec_src(insn.operands[1]), 128,
                            [](double x, double y) { return x + y; }));
        break;
      case Opcode::MULPD:
        write_vec_dst(mapPd(read_vec_src(insn.operands[0]),
                            read_vec_src(insn.operands[1]), 128,
                            [](double x, double y) { return x * y; }));
        break;
      case Opcode::DIVPD:
        write_vec_dst(mapPd(read_vec_src(insn.operands[0]),
                            read_vec_src(insn.operands[1]), 128,
                            [](double x, double y) {
                                return y == 0.0 ? 0.0 : x / y;
                            }));
        break;
      case Opcode::VADDPS:
        write_vec_dst(mapPs(read_vec_src(insn.operands[1]),
                            read_vec_src(insn.operands[2]), 256,
                            [](float x, float y) {
                                return asBits(x + y);
                            }));
        break;
      case Opcode::VMULPS:
        write_vec_dst(mapPs(read_vec_src(insn.operands[1]),
                            read_vec_src(insn.operands[2]), 256,
                            [](float x, float y) {
                                return asBits(x * y);
                            }));
        break;
      case Opcode::VFMADD231PS: {
        VecReg acc = read_vec_src(insn.operands[0]);
        VecReg prod = mapPs(read_vec_src(insn.operands[1]),
                            read_vec_src(insn.operands[2]), 256,
                            [](float x, float y) {
                                return asBits(x * y);
                            });
        write_vec_dst(mapPs(acc, prod, 256, [](float x, float y) {
            return asBits(x + y);
        }));
        break;
      }

      // ------------------------------------------- counters and system
      case Opcode::RDTSC: {
        std::uint64_t tsc = first_dispatch;
        arch_.writeGpr(Reg::RAX, 64, tsc & 0xFFFFFFFF);
        arch_.writeGpr(Reg::RDX, 64, tsc >> 32);
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
        break;
      }
      case Opcode::RDPMC: {
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
        break;
      }
      case Opcode::RDMSR: {
        std::uint32_t addr = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = readMsrAt(addr, first_dispatch);
        arch_.writeGpr(Reg::RAX, 64, value & 0xFFFFFFFF);
        arch_.writeGpr(Reg::RDX, 64, value >> 32);
        sched_.regReady[static_cast<unsigned>(Reg::RAX)] = result_ready;
        sched_.regReady[static_cast<unsigned>(Reg::RDX)] = result_ready;
        break;
      }
      case Opcode::WRMSR: {
        std::uint32_t addr = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = (arch_.readGpr(Reg::RDX, 64) << 32) |
                              arch_.readGpr(Reg::RAX, 32);
        writeMsr(addr, value);
        // Serializing (§IV-A1).
        sched_.minDispatch = std::max(sched_.minDispatch, core_done);
        break;
      }
      case Opcode::WBINVD:
        caches_.wbinvd();
        sched_.minDispatch = std::max(sched_.minDispatch, core_done);
        break;
      case Opcode::CLFLUSH:
        caches_.clflush(memory_.translate(mem_vaddr));
        break;
      case Opcode::PREFETCHT0:
      case Opcode::PREFETCHNTA: {
        Addr paddr = memory_.translate(mem_vaddr);
        caches_.access(paddr, insn.opcode == Opcode::PREFETCHT0
                                  ? cache::AccessType::PrefetchT0
                                  : cache::AccessType::PrefetchNTA);
        // Occupies a load port but produces no register result.
        dispatchUop(ports_.loadPorts, std::max(addr_ready, issue_ready),
                    1, 0);
        break;
      }
      case Opcode::CLI:
        interruptsEnabled_ = false;
        break;
      case Opcode::STI:
        interruptsEnabled_ = true;
        scheduleNextInterrupt();
        break;

      default:
        panic("unhandled opcode in executor: ", insn.info().mnemonic);
    }

    // ---------------------------------------------------------------
    // Store µops (timing); semantic write already queued above or done
    // via write_dst.
    // ---------------------------------------------------------------
    if (d.doStoreUop) {
        NB_ASSERT(mem_op != nullptr, "store without memory operand");
        Cycles addr_rdy = std::max(addr_ready, issue_ready);
        auto sa = dispatchUop(ports_.storeAddrPorts, addr_rdy, 1, 0);
        Cycles data_rdy = std::max(result_ready, issue_ready);
        auto sd = dispatchUop(ports_.storeDataPorts, data_rdy, 1, 0);
        Cycles store_done = std::max(sa.done, sd.done);
        sched_.maxCompletion = std::max(sched_.maxCompletion, store_done);
        if (store_vec) {
            storeVec(mem_vaddr, *store_vec, store_bytes);
        } else if (store_value) {
            storeValue(mem_vaddr, *store_value, store_bytes);
        }
        result_ready = std::max(result_ready, store_done);
    } else if (has_store) {
        // PUSH/CALL already performed the write; account the µops.
        Cycles addr_rdy = std::max(addr_ready, issue_ready);
        dispatchUop(ports_.storeAddrPorts, addr_rdy, 1, 0);
        dispatchUop(ports_.storeDataPorts, addr_rdy, 1, 0);
    }

    // ---------------------------------------------------------------
    // Branch prediction and redirect.
    // ---------------------------------------------------------------
    if (is_branch) {
        std::uint64_t key = ctx.nextIdx - 1;
        auto [it, inserted] = branchTable_.try_emplace(key, 1);
        std::uint8_t &counter = it->second;
        bool predicted_taken = counter >= 2;
        if (insn.opcode == Opcode::JMP || insn.opcode == Opcode::CALL ||
            insn.opcode == Opcode::RET) {
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

    retireInstr(result_ready, is_branch, mispredicted);
}

} // namespace nb::sim
