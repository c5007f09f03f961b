/**
 * @file
 * Bit-identity of the threaded computed-goto executor
 * (Machine::execute) against the switch-based reference executor
 * (Machine::executeReference).
 *
 * Both executors run the same semantics bodies and scheduler primitives
 * (sim/semantics.hh); what these tests pin is what the threaded
 * executor adds -- the struct-of-arrays image, the handler-table order
 * and batched PMU accounting. It is only correct if it is
 * indistinguishable from the reference: identical ExecStats,
 * architectural state (GPRs, vector registers, flags), every PMU
 * scalar total, AND the time-resolved counter samples -- batching
 * the PMU accounting must not move any increment to a different
 * cycle. Each test runs the
 * same predecoded program on two identically-seeded machines, one
 * per executor, and compares everything.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb::sim
{
namespace
{

using x86::assemble;
using x86::Reg;

std::unique_ptr<Machine>
makeMachine(bool kernel = true, bool interrupts = false)
{
    auto m =
        std::make_unique<Machine>(uarch::getMicroArch("Skylake"), 42);
    m->setPrivilege(kernel ? Privilege::Kernel : Privilege::User);
    m->setInterruptsEnabled(interrupts);
    for (Addr page = 0; page < 64; ++page) {
        m->memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                        0x10000 + page * kPageSize);
    }
    return m;
}

/**
 * Execute @p prog through both executors on machines prepared by
 * @p setup (applied identically to both) and compare every
 * observable: ExecStats, GPRs, vector registers, flags, all scalar
 * event totals, and time-resolved fixed/programmable/MSR samples at
 * a sweep of cycles.
 */
void
expectParity(const Program &prog,
             const std::function<void(Machine &)> &setup = {},
             bool kernel = true, bool interrupts = false)
{
    auto threaded = makeMachine(kernel, interrupts);
    auto reference = makeMachine(kernel, interrupts);
    if (setup) {
        setup(*threaded);
        setup(*reference);
    }

    ExecStats st = threaded->execute(prog);
    ExecStats sr = reference->executeReference(prog);

    EXPECT_EQ(st.instructions, sr.instructions);
    EXPECT_EQ(st.uops, sr.uops);
    EXPECT_EQ(st.startCycle, sr.startCycle);
    EXPECT_EQ(st.endCycle, sr.endCycle);
    EXPECT_EQ(st.interrupts, sr.interrupts);

    EXPECT_EQ(threaded->arch().gpr, reference->arch().gpr);
    EXPECT_EQ(threaded->arch().vec, reference->arch().vec);
    EXPECT_EQ(threaded->arch().zf, reference->arch().zf);
    EXPECT_EQ(threaded->arch().cf, reference->arch().cf);
    EXPECT_EQ(threaded->arch().sf, reference->arch().sf);
    EXPECT_EQ(threaded->arch().of, reference->arch().of);

    for (unsigned e = 0; e < kNumEvents; ++e) {
        EXPECT_EQ(threaded->pmu().total(static_cast<EventId>(e)),
                  reference->pmu().total(static_cast<EventId>(e)))
            << "event " << e;
    }

    // Time-resolved identity: batched accounting must not shift any
    // logged increment to a different cycle. Sweep sample points past
    // the end so post-retirement plateaus compare too.
    for (Cycles c = 0; c <= sr.endCycle + 3; c += 3) {
        for (unsigned i = 0; i < 3; ++i) {
            EXPECT_EQ(threaded->pmu().readFixed(i, c),
                      reference->pmu().readFixed(i, c))
                << "fixed " << i << " at cycle " << c;
        }
        for (unsigned i = 0; i < threaded->pmu().numProg(); ++i) {
            EXPECT_EQ(threaded->pmu().readProg(i, c),
                      reference->pmu().readProg(i, c))
                << "prog " << i << " at cycle " << c;
        }
        EXPECT_EQ(threaded->pmu().aperf(c), reference->pmu().aperf(c));
        EXPECT_EQ(threaded->pmu().mperf(c), reference->pmu().mperf(c));
    }
}

void
expectParity(const std::string &asm_code,
             const std::function<void(Machine &)> &setup = {},
             bool kernel = true, bool interrupts = false)
{
    expectParity(Program::decode(uarch::getMicroArch("Skylake"),
                                 assemble(asm_code)),
                 setup, kernel, interrupts);
}

/** Configure all four Skylake programmable counters so UopsIssued /
 *  UopsExecuted / port events are logged -- the widest loggedMask the
 *  batching has to preserve cycle-exactly. */
void
configureCounters(Machine &m)
{
    m.pmu().configureProg(0, EventCode{0x0E, 0x01}); // UopsIssued
    m.pmu().configureProg(1, EventCode{0xB1, 0x01}); // UopsExecuted
    m.pmu().configureProg(2, EventCode{0xA1, 0x01}); // port 0
    m.pmu().configureProg(3, EventCode{0xC4, 0x00}); // branches
}

TEST(DispatchParity, AluMix)
{
    expectParity("mov RAX, 7; mov RBX, RAX; add RBX, 5; imul RBX, RBX; "
                 "sub RAX, 3; xor RCX, RCX; lea RDX, [RAX+RBX*4+8]; "
                 "shl RDX, 3; popcnt RSI, RDX; neg RAX; not RBX; "
                 "inc RCX; dec RDX; cmovz RDI, RAX; bswap RBX; "
                 "test RDX, RDX; setz AL");
}

TEST(DispatchParity, LoadsAndStores)
{
    expectParity("mov R14, 0x10000; mov RBX, 77; mov [R14], RBX; "
                 "mov RCX, [R14]; mov [R14+64], RCX; "
                 "mov R14, 0x10000; mov [R14], R14; mov R14, [R14]; "
                 "mov R14, [R14]; add RCX, [R14+64]; "
                 "mov RDX, 0x10400; mov [RDX], RCX; mov RSI, [RDX]");
}

TEST(DispatchParity, FencesAndSerialization)
{
    expectParity("mov RAX, 1; lfence; imul RAX, RAX; mfence; "
                 "add RAX, 2; sfence; imul RBX, RAX; lfence");
}

TEST(DispatchParity, CpuidSerialization)
{
    // CPUID consumes the machine RNG (variable latency and µop count,
    // §IV-A1); identical seeds must give identical streams through
    // both executors.
    expectParity("mov RAX, 3; cpuid; imul RBX, RBX; cpuid; "
                 "add RCX, 1; cpuid");
}

TEST(DispatchParity, BranchesCallsAndLoops)
{
    expectParity(
        "mov R15, 50; l: add RAX, 1; imul RBX, RBX; dec R15; jnz l; "
        "mov RAX, 1; call f; add RAX, 100; jmp done; "
        "f: add RAX, 10; ret; done: nop",
        [](Machine &m) {
            m.arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
        });
}

TEST(DispatchParity, PfcMarkersPauseAndResume)
{
    expectParity("add RAX, 1; pfc_pause; add RAX, 1; imul RBX, RBX; "
                 "pfc_resume; add RAX, 1",
                 configureCounters);
}

TEST(DispatchParity, VectorOps)
{
    expectParity("pxor XMM1, XMM1; pxor XMM2, XMM2; paddd XMM1, XMM2; "
                 "movaps [0x10080], XMM1; movaps XMM3, [0x10080]; "
                 "addps XMM3, XMM1; mulps XMM3, XMM3; "
                 "vaddps YMM4, YMM3, YMM3");
}

TEST(DispatchParity, ConfiguredCountersTimeResolved)
{
    // The widest logged set: every programmable counter live, so
    // UopsIssued / UopsExecuted / port counts all take the immediate
    // (logged) path while the rest batch. Their interleaving must
    // stay cycle-exact.
    expectParity("mov R15, 30; l: add RAX, 1; imul RBX, RBX; "
                 "mov RCX, [R14]; dec R15; jnz l",
                 [](Machine &m) {
                     configureCounters(m);
                     m.arch().writeGpr(Reg::R14, 64, 0x10000);
                 });
}

TEST(DispatchParity, UserModeTimerInterrupts)
{
    // User mode with interrupts enabled: the interrupt points derive
    // from the machine RNG, so parity here proves the threaded loop
    // polls (and advances) the interrupt state exactly like the
    // reference.
    auto prog = Program::decode(
        uarch::getMicroArch("Skylake"),
        assemble("mov R15, 20000; l: add RAX, 1; dec R15; jnz l"));
    expectParity(prog, {}, /*kernel=*/false, /*interrupts=*/true);
}

TEST(DispatchParity, RepeatEncodedMatchesMaterialized)
{
    // A repeat-encoded block through the threaded executor must be
    // indistinguishable from the same body materialized N times --
    // and from the reference executor on either encoding.
    std::vector<Program::Segment> segments(1);
    segments[0].code = assemble("add RAX, 1; imul RBX, RBX");
    segments[0].repeat = 100;
    Program repeat_prog = Program::decode(
        uarch::getMicroArch("Skylake"), std::move(segments));

    std::vector<x86::Instruction> body =
        assemble("add RAX, 1; imul RBX, RBX");
    std::vector<x86::Instruction> unrolled;
    for (int i = 0; i < 100; ++i)
        unrolled.insert(unrolled.end(), body.begin(), body.end());
    Program materialized = Program::decode(
        uarch::getMicroArch("Skylake"), unrolled);

    expectParity(repeat_prog);
    expectParity(materialized);

    auto a = makeMachine();
    auto b = makeMachine();
    ExecStats sa = a->execute(repeat_prog);
    ExecStats sb = b->execute(materialized);
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.uops, sb.uops);
    EXPECT_EQ(sa.endCycle, sb.endCycle);
    EXPECT_EQ(a->arch().gpr, b->arch().gpr);
    for (unsigned e = 0; e < kNumEvents; ++e) {
        EXPECT_EQ(a->pmu().total(static_cast<EventId>(e)),
                  b->pmu().total(static_cast<EventId>(e)));
    }
}

TEST(DispatchParity, EveryOpClass)
{
    // One parity case per handler class, plus every opcode that shares
    // a class with another (ADC/SBB/CMP, AND/OR, the shift family,
    // every Jcc taken and not taken). A handlers[] entry out of order
    // runs the wrong body for some class here, and the scan below
    // fails as soon as a new class has no parity case.
    const std::vector<std::string> programs = {
        // Moves, exchanges and sign/zero extension.
        "mov RBX, 0x80; movsx RAX, BL; movsx RCX, word [0x10000]; "
        "mov qword [0x10000], RBX; movzx RDX, byte [0x10000]; "
        "xchg RAX, RBX; xchg RCX, [0x10008]; movnti [0x10010], RCX; "
        "bswap RCX; lea RSI, [RAX+RBX*2+3]; cmovnz RDI, RSI",
        // Carry-chain and logic ops, multiplication and division.
        "mov RAX, -1; add RAX, 1; adc RBX, 5; sbb RCX, 3; cmp RAX, RBX; "
        "and RAX, 0xF0; or RBX, RAX; xor RDX, RDX; test RBX, RBX; "
        "neg RCX; not RDX; inc RSI; dec RDI; imul RSI, RCX, 3; "
        "mov RAX, 1000; mov RCX, 7; xor RDX, RDX; mul RCX; "
        "xor RDX, RDX; div RCX; mov RAX, -1000; mov RDX, -1; idiv RCX",
        // Shifts and bit manipulation.
        "mov RAX, -3839; shl RAX, 1; shr RAX, 3; "
        "neg RAX; sar RAX, 2; rol RAX, 5; ror RAX, 7; shr RAX, 0; "
        "mov RBX, 0x0F00; popcnt RCX, RBX; lzcnt RDX, RBX; "
        "tzcnt RSI, RBX; bsf RDI, RBX; bsr R8, RBX; bsf R9, R10; "
        "bt RBX, 9; bts RBX, 1; btr RBX, 8; setz AL; setnz CL",
        // Every Jcc, taken and not taken, across <, == and > flags.
        "mov R15, 4; top: cmp R15, 2; "
        "jz a; lea RBX, [RBX+1]; a: jnz b; lea RBX, [RBX+2]; "
        "b: jc c; lea RBX, [RBX+4]; c: jnc d; lea RBX, [RBX+8]; "
        "d: jl e; lea RBX, [RBX+16]; e: jge f; lea RBX, [RBX+32]; "
        "f: jle g; lea RBX, [RBX+64]; g: jg h; lea RBX, [RBX+128]; "
        "h: dec R15; jnz top; jmp out; out: nop; pause",
        // Stack, calls and returns.
        "mov RAX, 11; push RAX; push qword [0x10000]; pop RBX; pop RCX; "
        "call f; jmp done; f: add RAX, 1; ret; done: nop",
        // Packed single/double and AVX arithmetic.
        "pxor XMM1, XMM1; paddd XMM1, XMM1; movups XMM2, [0x10080]; "
        "addps XMM2, XMM1; mulps XMM2, XMM2; divps XMM2, XMM1; "
        "addpd XMM3, XMM2; mulpd XMM3, XMM3; divpd XMM3, XMM2; "
        "movaps [0x100C0], XMM3; vaddps YMM4, YMM3, YMM2; "
        "vmulps YMM5, YMM4, YMM3; vfmadd231ps YMM5, YMM4, YMM3",
        // Counters, MSRs, cache control and interrupts (kernel mode).
        "rdtsc; mov RCX, 0; rdpmc; mov RCX, 0x40000001; rdpmc; "
        "mov RCX, 0xE8; rdmsr; mov RCX, 0x1A4; xor RAX, RAX; "
        "xor RDX, RDX; wrmsr; mov RAX, [0x10040]; clflush [0x10040]; "
        "prefetcht0 [0x10100]; prefetchnta [0x10140]; wbinvd; "
        "mov RAX, [0x10040]; cli; sti",
        // Serialization, fences and the counting markers.
        "pfc_pause; imul RAX, RAX; pfc_resume; lfence; mfence; sfence; "
        "mov RAX, 0; cpuid; add RAX, RBX",
    };

    const auto &ua = uarch::getMicroArch("Skylake");
    std::vector<bool> covered(kNumOpClasses, false);
    auto setup = [](Machine &m) {
        configureCounters(m);
        m.arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
        for (Addr a = 0x10000; a < 0x10200; a += 8)
            m.memory().writeVirt(a, 0x3F800000'40000000ULL + a, 8);
    };
    for (const std::string &text : programs) {
        SCOPED_TRACE(text);
        Program prog = Program::decode(ua, assemble(text));
        for (std::size_t i = 0; i < prog.entryCount(); ++i)
            covered[static_cast<unsigned>(prog.opClasses()[i])] = true;
        expectParity(prog, setup);
    }

    for (unsigned c = 0; c < kNumOpClasses; ++c) {
        if (static_cast<OpClass>(c) == OpClass::Unhandled)
            continue;
        EXPECT_TRUE(covered[c]) << "OpClass " << c << " has no parity case";
    }
}

TEST(DispatchParity, DecodedSnippetMatchesReference)
{
    // A snippet decoded once runs the same through the threaded
    // executor and the frozen reference loop.
    auto m = makeMachine();
    auto n = makeMachine();
    auto code = assemble("mov RAX, 5; add RAX, 3");
    ExecStats sm = m->execute(Program::decode(m->uarch(), code));
    ExecStats sn = n->executeReference(Program::decode(n->uarch(), code));
    EXPECT_EQ(sm.endCycle, sn.endCycle);
    EXPECT_EQ(m->arch().gpr, n->arch().gpr);
    EXPECT_EQ(m->arch().gpr[0], 8u);
}

} // namespace
} // namespace nb::sim
