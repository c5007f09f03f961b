/**
 * @file
 * The primary execution path: a threaded (computed-goto) executor over
 * the Program's struct-of-arrays hot layout.
 *
 * Control flow dispatches on the per-entry OpClass through a label
 * table; the hot fields (timing, flags, pool offsets) come from the
 * packed HotTiming/HotRefs parallel arrays, and the AoS DecodedInsn
 * pool is never touched on this path. PMU events that are not
 * time-resolved are batched by Machine::count() (see BatchCountScope)
 * and committed in bulk on return.
 *
 * What each instruction does is not written here: every handler is
 * the shared prologue, the class's body and the shared epilogue from
 * sim/semantics.hh, which Machine::executeReference() runs too. The
 * parity suite (tests/test_dispatch.cc) pins what this executor adds --
 * the SoA image, the handler-table order and batched PMU accounting --
 * against that reference.
 */

#include "sim/semantics.hh"

namespace nb::sim
{

ExecStats
Machine::execute(const Program &prog)
{
    // Batch non-time-resolved PMU accounting for the whole call; the
    // scope flushes on every exit path, including fatal()/exceptions.
    BatchCountScope batch_scope(*this);

    ExecContext ctx = beginExec(prog);
    ProgramCursor cursor(prog);

    // Struct-of-arrays views over the program's hot layout.
    const OpClass *op_class = prog.opClasses();
    const HotTiming *hot_timing = prog.hotTiming();
    const HotRefs *hot_refs = prog.hotRefs();
    const x86::Instruction *insn_arr = prog.insnArray();
    const uarch::PortMask *port_pool = prog.portPool();
    const x86::Reg *reg_pool = prog.regPool();

    // Everything lives before the first label and is *assigned* per
    // instruction, so the computed gotos below never jump into the
    // scope of a fresh initialization (which C++ forbids).
    InsnState s;
    std::uint32_t entry = 0;

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
    if (cursor.done())
        goto finished;
    checkpoint(ctx);
    entry = cursor.advance(ctx);
    {
        const HotTiming ht = hot_timing[entry];
        const HotRefs hr = hot_refs[entry];
        s.insn = insn_arr + entry;
        s.memOp = ht.memOpIdx >= 0 ? &s.insn->operands[ht.memOpIdx]
                                   : nullptr;
        s.srcRegs = reg_pool + hr.srcBegin;
        s.addrRegs = reg_pool + hr.addrBegin;
        s.uopPorts = port_pool + hr.uopBegin;
        s.target = hr.target;
        s.flags = ht.flags;
        s.srcCount = hr.srcCount;
        s.addrCount = hr.addrCount;
        s.uopCount = ht.uopCount;
        s.latency = ht.latency;
        s.blockCycles = ht.blockCycles;
        s.opWidth = ht.opWidth;
        s.nIssueUops = ht.nIssueUops;
    }
    beginInsn(s, ctx);
    // The prologue is common to every class but the serializing ones,
    // so it runs here, once, instead of in each handler.
    if (!isSerializing(op_class[entry]))
        prologue(s, ctx);
    goto *handlers[static_cast<unsigned>(op_class[entry])];

    // ----------------------------------------------------------- ALU
op_nop:
    semantics(OpClass::Nop, s, ctx);
    goto shared_epilogue;
op_mov:
    semantics(OpClass::Mov, s, ctx);
    goto shared_epilogue;
op_movsx:
    semantics(OpClass::Movsx, s, ctx);
    goto shared_epilogue;
op_lea:
    semantics(OpClass::Lea, s, ctx);
    goto shared_epilogue;
op_xchg:
    semantics(OpClass::Xchg, s, ctx);
    goto shared_epilogue;
op_bswap:
    semantics(OpClass::Bswap, s, ctx);
    goto shared_epilogue;
op_cmov:
    semantics(OpClass::Cmov, s, ctx);
    goto shared_epilogue;
op_add_adc:
    semantics(OpClass::AddAdc, s, ctx);
    goto shared_epilogue;
op_sub_sbb_cmp:
    semantics(OpClass::SubSbbCmp, s, ctx);
    goto shared_epilogue;
op_logic:
    semantics(OpClass::Logic, s, ctx);
    goto shared_epilogue;
op_inc_dec:
    semantics(OpClass::IncDec, s, ctx);
    goto shared_epilogue;
op_neg:
    semantics(OpClass::Neg, s, ctx);
    goto shared_epilogue;
op_not:
    semantics(OpClass::Not, s, ctx);
    goto shared_epilogue;
op_imul:
    semantics(OpClass::Imul, s, ctx);
    goto shared_epilogue;
op_mul:
    semantics(OpClass::Mul, s, ctx);
    goto shared_epilogue;
op_div:
    semantics(OpClass::Div, s, ctx);
    goto shared_epilogue;
op_shift:
    semantics(OpClass::Shift, s, ctx);
    goto shared_epilogue;
op_popcnt:
    semantics(OpClass::Popcnt, s, ctx);
    goto shared_epilogue;
op_lzcnt:
    semantics(OpClass::Lzcnt, s, ctx);
    goto shared_epilogue;
op_tzcnt:
    semantics(OpClass::Tzcnt, s, ctx);
    goto shared_epilogue;
op_bitscan:
    semantics(OpClass::Bitscan, s, ctx);
    goto shared_epilogue;
op_bit_test:
    semantics(OpClass::BitTest, s, ctx);
    goto shared_epilogue;
op_setz:
    semantics(OpClass::Setz, s, ctx);
    goto shared_epilogue;
op_setnz:
    semantics(OpClass::Setnz, s, ctx);
    goto shared_epilogue;

    // -------------------------------------------------- control flow
op_jmp:
    semantics(OpClass::Jmp, s, ctx);
    goto shared_epilogue;
op_jcc:
    semantics(OpClass::Jcc, s, ctx);
    goto shared_epilogue;
op_call:
    semantics(OpClass::Call, s, ctx);
    goto shared_epilogue;
op_ret:
    semantics(OpClass::Ret, s, ctx);
    goto shared_epilogue;
op_push:
    semantics(OpClass::Push, s, ctx);
    goto shared_epilogue;
op_pop:
    semantics(OpClass::Pop, s, ctx);
    goto shared_epilogue;

    // -------------------------------------------------------- vector
op_mov_vec:
    semantics(OpClass::MovVec, s, ctx);
    goto shared_epilogue;
op_pxor:
    semantics(OpClass::Pxor, s, ctx);
    goto shared_epilogue;
op_paddd:
    semantics(OpClass::Paddd, s, ctx);
    goto shared_epilogue;
op_addps:
    semantics(OpClass::Addps, s, ctx);
    goto shared_epilogue;
op_mulps:
    semantics(OpClass::Mulps, s, ctx);
    goto shared_epilogue;
op_divps:
    semantics(OpClass::Divps, s, ctx);
    goto shared_epilogue;
op_addpd:
    semantics(OpClass::Addpd, s, ctx);
    goto shared_epilogue;
op_mulpd:
    semantics(OpClass::Mulpd, s, ctx);
    goto shared_epilogue;
op_divpd:
    semantics(OpClass::Divpd, s, ctx);
    goto shared_epilogue;
op_vaddps:
    semantics(OpClass::Vaddps, s, ctx);
    goto shared_epilogue;
op_vmulps:
    semantics(OpClass::Vmulps, s, ctx);
    goto shared_epilogue;
op_vfma:
    semantics(OpClass::Vfma, s, ctx);
    goto shared_epilogue;

    // ------------------------------------------- counters and system
op_rdtsc:
    semantics(OpClass::Rdtsc, s, ctx);
    goto shared_epilogue;
op_rdpmc:
    semantics(OpClass::Rdpmc, s, ctx);
    goto shared_epilogue;
op_rdmsr:
    semantics(OpClass::Rdmsr, s, ctx);
    goto shared_epilogue;
op_wrmsr:
    semantics(OpClass::Wrmsr, s, ctx);
    goto shared_epilogue;
op_wbinvd:
    semantics(OpClass::Wbinvd, s, ctx);
    goto shared_epilogue;
op_clflush:
    semantics(OpClass::Clflush, s, ctx);
    goto shared_epilogue;
op_prefetch:
    semantics(OpClass::Prefetch, s, ctx);
    goto shared_epilogue;
op_cli:
    semantics(OpClass::Cli, s, ctx);
    goto shared_epilogue;
op_sti:
    semantics(OpClass::Sti, s, ctx);
    goto shared_epilogue;

    // ------------- fences and markers: no shared prologue or epilogue
op_pfc_marker:
    serialize(OpClass::PfcMarker, s, ctx);
    goto after_insn;
op_fence:
    serialize(OpClass::Fence, s, ctx);
    goto after_insn;
op_sfence:
    serialize(OpClass::SFence, s, ctx);
    goto after_insn;
op_cpuid:
    serialize(OpClass::Cpuid, s, ctx);
    goto after_insn;

op_unhandled:
    semantics(OpClass::Unhandled, s, ctx);
    // fall through (not reached: the body panics)

shared_epilogue:
    epilogue(s, ctx);
    // fall through

after_insn:
    endInsn(ctx, cursor);
    goto next_insn;

finished:
    return endExec(ctx);
}

} // namespace nb::sim
