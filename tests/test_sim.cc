/**
 * @file
 * Tests for the simulated machine: instruction semantics, the dataflow
 * timing model (latency/throughput/ports), counter-read sampling and
 * serialization (§IV-A1), privilege checks (§III-D), and the interrupt
 * model (§IV-A2).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb::sim
{
namespace
{

using x86::assemble;
using x86::Reg;

/** A kernel-mode machine with a few identity-mapped pages. */
std::unique_ptr<Machine>
makeMachine(const std::string &uarch = "Skylake", bool kernel = true)
{
    auto m = std::make_unique<Machine>(uarch::getMicroArch(uarch), 42);
    m->setPrivilege(kernel ? Privilege::Kernel : Privilege::User);
    m->setInterruptsEnabled(false);
    for (Addr page = 0; page < 64; ++page) {
        m->memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                        0x10000 + page * kPageSize);
    }
    return m;
}

std::uint64_t
gpr(Machine &m, Reg r)
{
    return m.arch().readGpr(r, 64);
}

/** Decode-and-execute: these tests exercise machine semantics, not
 *  program caching, so each snippet is decoded fresh at the call. */
ExecStats
execProgram(Machine &m, const std::vector<x86::Instruction> &code)
{
    return m.execute(Program::decode(m.uarch(), code));
}

TEST(Semantics, MovAndAluBasics)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 7; mov RBX, RAX; add RBX, 5; "
                        "sub RAX, 3; xor RCX, RCX"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 4u);
    EXPECT_EQ(gpr(*m, Reg::RBX), 12u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 0u);
}

TEST(Semantics, ThirtyTwoBitWritesZeroExtend)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, -1; mov EAX, 5"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 5u);
}

TEST(Semantics, PartialWritesMerge)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 0x1234; mov AL, 0"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 0x1200u);
}

TEST(Semantics, FlagsAndConditionalBranch)
{
    auto m = makeMachine();
    // Loop: counts 5 iterations through R15/JNZ (the generated-code
    // loop shape from Algorithm 1).
    execProgram(*m, assemble(
        "mov R15, 5; xor RAX, RAX; loop: add RAX, 2; dec R15; jnz loop"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 10u);
}

TEST(Semantics, CmovAndSetcc)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 1; cmp RAX, 1; setz BL; "
                        "mov RCX, 99; cmovz RCX, RAX"));
    EXPECT_EQ(gpr(*m, Reg::RBX) & 0xFF, 1u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 1u);
}

TEST(Semantics, MulDivPair)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 100; mov RBX, 7; mul RBX; "
                        "mov RCX, RAX; mov RAX, 700; xor RDX, RDX; "
                        "mov RBX, 7; div RBX"));
    EXPECT_EQ(gpr(*m, Reg::RCX), 700u);
    EXPECT_EQ(gpr(*m, Reg::RAX), 100u);
    EXPECT_EQ(gpr(*m, Reg::RDX), 0u);
}

TEST(Semantics, DivideByZeroFaults)
{
    auto m = makeMachine();
    EXPECT_THROW(execProgram(*m, assemble("xor RBX, RBX; mov RAX, 1; div RBX")),
                 FatalError);
}

TEST(Semantics, ImulForms)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 6; mov RBX, 7; imul RAX, RBX; "
                        "imul RCX, RBX, 3"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 42u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 21u);
}

TEST(Semantics, ShiftsAndBitOps)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 1; shl RAX, 12; mov RBX, RAX; "
                        "shr RBX, 4; popcnt RCX, RAX; tzcnt RDX, RAX"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 4096u);
    EXPECT_EQ(gpr(*m, Reg::RBX), 256u);
    EXPECT_EQ(gpr(*m, Reg::RCX), 1u);
    EXPECT_EQ(gpr(*m, Reg::RDX), 12u);
}

TEST(Semantics, LoadStoreRoundTrip)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RAX, 0xABCD; mov [0x10040], RAX; "
                        "mov RBX, [0x10040]"));
    EXPECT_EQ(gpr(*m, Reg::RBX), 0xABCDu);
    EXPECT_EQ(m->memory().readVirt(0x10040, 8), 0xABCDu);
}

TEST(Semantics, AddressingModes)
{
    auto m = makeMachine();
    // 0x10000 + 8*8 + 0x40 = 0x10080.
    execProgram(*m, assemble("mov RBX, 0x10000; mov RCX, 8; mov RAX, 42; "
                        "mov [RBX+RCX*8+0x40], RAX; "
                        "mov RDX, [0x10080]"));
    EXPECT_EQ(gpr(*m, Reg::RDX), 42u);
}

TEST(Semantics, PushPopAndCallRet)
{
    auto m = makeMachine();
    m->arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
    execProgram(*m, assemble("mov RAX, 11; push RAX; mov RAX, 0; pop RBX"));
    EXPECT_EQ(gpr(*m, Reg::RBX), 11u);

    execProgram(*m, assemble("mov RAX, 1; call f; add RAX, 100; jmp done; "
                        "f: add RAX, 10; ret; done: nop"));
    EXPECT_EQ(gpr(*m, Reg::RAX), 111u);
}

TEST(Semantics, PointerChase)
{
    // The §III-A idiom: store the pointer to itself, then chase it.
    auto m = makeMachine();
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14; "
                        "mov R14, [R14]; mov R14, [R14]"));
    EXPECT_EQ(gpr(*m, Reg::R14), 0x10000u);
}

TEST(Semantics, VectorOps)
{
    auto m = makeMachine();
    execProgram(*m, assemble("pxor XMM1, XMM1; pxor XMM2, XMM2; "
                        "paddd XMM1, XMM2"));
    EXPECT_EQ(m->arch().readVec(Reg::XMM1)[0], 0u);
    // Store/load 128-bit.
    m->arch().writeVec(Reg::XMM3, {1, 2, 0, 0});
    execProgram(*m, assemble("movaps [0x10080], XMM3; movaps XMM4, [0x10080]"));
    EXPECT_EQ(m->arch().readVec(Reg::XMM4)[0], 1u);
    EXPECT_EQ(m->arch().readVec(Reg::XMM4)[1], 2u);
}

TEST(Semantics, PageFaultOnUnmapped)
{
    auto m = makeMachine();
    EXPECT_THROW(execProgram(*m, assemble("mov RAX, [0x900000]")), FatalError);
}

TEST(Semantics, RunawayLoopGuard)
{
    // The cycle budget is the one runaway guard: it stops an endless
    // loop with a typed error that carries the progress made.
    auto m = makeMachine();
    m->setCycleBudget(10000);
    try {
        execProgram(*m, assemble("spin: jmp spin"));
        FAIL() << "endless loop was not stopped";
    } catch (const BudgetExceededError &e) {
        EXPECT_EQ(e.budget(), 10000u);
        EXPECT_GE(e.cycles(), 10000u);
        EXPECT_GT(e.instructions(), 0u);
    }
}

// -------------------------------------------------------- privileges --

TEST(Privilege, PrivilegedInstructionsFaultInUserMode)
{
    for (const char *text : {"rdmsr", "wrmsr", "wbinvd", "cli", "sti"}) {
        auto m = makeMachine("Skylake", false);
        m->arch().writeGpr(Reg::RCX, 64, msr::kAperf);
        EXPECT_THROW(execProgram(*m, assemble(text)), FatalError) << text;
    }
}

TEST(Privilege, KernelModeAllowsPrivileged)
{
    auto m = makeMachine();
    execProgram(*m, assemble("wbinvd; cli; sti"));
    m->arch().writeGpr(Reg::RCX, 64, msr::kAperf);
    execProgram(*m, assemble("rdmsr"));
}

TEST(Privilege, RdpmcRespectsCr4Pce)
{
    auto m = makeMachine("Skylake", false);
    m->setRdpmcUserEnabled(false);
    m->arch().writeGpr(Reg::RCX, 64, kRdpmcFixedBase);
    EXPECT_THROW(execProgram(*m, assemble("rdpmc")), FatalError);
    m->setRdpmcUserEnabled(true);
    execProgram(*m, assemble("rdpmc"));
}

// ------------------------------------------------------------ timing --

/** Measured cycles of a code block via fixed counter 1, LFENCE-fenced. */
Cycles
measureCycles(Machine &m, const std::string &body)
{
    auto pre = assemble("lfence");
    execProgram(m, pre);
    Cycles before = m.cycles();
    execProgram(m, assemble(body));
    execProgram(m, pre);
    return m.cycles() - before;
}

TEST(Timing, DependentAddChainIsOneCyclePerLink)
{
    auto m = makeMachine();
    std::string chain;
    for (int i = 0; i < 100; ++i)
        chain += "add RAX, RBX;";
    Cycles c = measureCycles(*m, chain);
    EXPECT_NEAR(c, 100, 6);
}

TEST(Timing, DependentImulChainIsThreeCyclesPerLink)
{
    auto m = makeMachine();
    std::string chain;
    for (int i = 0; i < 100; ++i)
        chain += "imul RAX, RAX;";
    EXPECT_NEAR(measureCycles(*m, chain), 300, 8);
}

TEST(Timing, IndependentAddsReachIssueWidth)
{
    auto m = makeMachine();
    std::string body;
    for (int i = 0; i < 50; ++i)
        body += "add RAX, 1; add RBX, 1; add RSI, 1; add RDI, 1;";
    // 200 independent single-µop adds on a 4-wide machine: ~50 cycles.
    EXPECT_NEAR(measureCycles(*m, body), 50, 10);
}

TEST(Timing, ZeroIdiomBreaksDependency)
{
    auto m = makeMachine();
    std::string chained, broken;
    for (int i = 0; i < 60; ++i) {
        chained += "imul RAX, RAX;";
        broken += "imul RAX, RAX; xor RAX, RAX;";
    }
    Cycles with_dep = measureCycles(*m, chained);
    Cycles without_dep = measureCycles(*m, broken);
    EXPECT_LT(without_dep, with_dep / 2);
}

TEST(Timing, L1LoadLatencyFourCycles)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14"));
    std::string chase;
    for (int i = 0; i < 100; ++i)
        chase += "mov R14, [R14];";
    EXPECT_NEAR(measureCycles(*m, chase), 400, 12);
}

TEST(Timing, LoadPortsSplitEvenly)
{
    auto m = makeMachine();
    m->pmu().configureProg(0, sim::EventCode{0xA1, 0x04}); // PORT_2
    m->pmu().configureProg(1, sim::EventCode{0xA1, 0x08}); // PORT_3
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14"));
    auto p2_before = m->pmu().total(EventId::UopsPort2);
    auto p3_before = m->pmu().total(EventId::UopsPort3);
    std::string chase;
    for (int i = 0; i < 200; ++i)
        chase += "mov R14, [R14];";
    execProgram(*m, assemble(chase));
    auto p2 = m->pmu().total(EventId::UopsPort2) - p2_before;
    auto p3 = m->pmu().total(EventId::UopsPort3) - p3_before;
    EXPECT_NEAR(p2, 100, 8);
    EXPECT_NEAR(p3, 100, 8);
}

TEST(Timing, MispredictionPenaltyAndTraining)
{
    auto m = makeMachine();
    // A loop branch mispredicts at most a couple of times once the
    // 2-bit counters are warm (§III-H).
    auto before = m->pmu().total(EventId::BrMispRetired);
    execProgram(*m, assemble("mov R15, 50; l: dec R15; jnz l"));
    auto first = m->pmu().total(EventId::BrMispRetired) - before;
    before = m->pmu().total(EventId::BrMispRetired);
    execProgram(*m, assemble("mov R15, 50; l: dec R15; jnz l"));
    auto second = m->pmu().total(EventId::BrMispRetired) - before;
    EXPECT_LE(second, first);
    EXPECT_LE(second, 2u);
}

TEST(Timing, DivBlocksTheDivider)
{
    auto m = makeMachine();
    // Dependency-broken divisions: throughput limited by blockCycles.
    std::string body;
    for (int i = 0; i < 20; ++i)
        body += "mov RAX, 1000; xor RDX, RDX; div RBX;";
    execProgram(*m, assemble("mov RBX, 3"));
    Cycles c = measureCycles(*m, body);
    EXPECT_GT(c, 20 * 20); // ~24+ cycles each, way below latency*count
}

// -------------------------------------------------- counter sampling --

TEST(Counters, RdpmcReadsFixedCounter)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov RCX, 0x40000000; rdpmc; mov RSI, RAX"));
    std::uint64_t instr1 = gpr(*m, Reg::RSI);
    EXPECT_GT(instr1, 0u);
    // The fence makes the second read observe the three NOPs (§IV-A1).
    execProgram(*m, assemble(
        "nop; nop; nop; lfence; mov RCX, 0x40000000; rdpmc"));
    std::uint64_t instr2 =
        gpr(*m, Reg::RAX) | (gpr(*m, Reg::RDX) << 32);
    EXPECT_GE(instr2, instr1 + 3);
}

TEST(Counters, ProgrammableCounterViaMsrInterface)
{
    auto m = makeMachine();
    // Program counter 0 with UOPS_ISSUED.ANY via WRMSR, then read it
    // with RDPMC -- the §II mechanism.
    std::uint64_t evtsel = 0x0E | (0x01 << 8) | (1 << 22);
    m->arch().writeGpr(Reg::RCX, 64, msr::kPerfEvtSel0);
    m->arch().writeGpr(Reg::RAX, 64, evtsel & 0xFFFFFFFF);
    m->arch().writeGpr(Reg::RDX, 64, evtsel >> 32);
    execProgram(*m, assemble("wrmsr"));
    EXPECT_EQ(m->pmu().progEvent(0), EventId::UopsIssued);

    execProgram(*m, assemble("xor RCX, RCX; rdpmc; mov RSI, RAX; "
                        "add RBX, 1; add RBX, 1; add RBX, 1;"
                        "xor RCX, RCX; rdpmc"));
    std::uint64_t diff = gpr(*m, Reg::RAX) - gpr(*m, Reg::RSI);
    EXPECT_GE(diff, 3u);
}

TEST(Counters, PauseResumeGating)
{
    auto m = makeMachine();
    m->pmu().configureProg(0, sim::EventCode{0x0E, 0x01});
    auto total_before = m->pmu().total(EventId::UopsIssued);
    execProgram(*m, assemble("pfc_pause; add RAX, 1; add RAX, 1; pfc_resume"));
    auto gated = m->pmu().total(EventId::UopsIssued) - total_before;
    EXPECT_EQ(gated, 0u);
    execProgram(*m, assemble("add RAX, 1"));
    EXPECT_GT(m->pmu().total(EventId::UopsIssued), total_before);
}

TEST(Counters, UnfencedReadSamplesEarly)
{
    // §IV-A1: without serialization the RDPMC may execute before older
    // long-latency work completes, under-counting cycles.
    auto measure = [](bool fenced) {
        auto m = makeMachine();
        std::string body = "mov RCX, 0x40000001; rdpmc; mov RSI, RAX;";
        for (int i = 0; i < 40; ++i)
            body += "imul RBX, RBX;";
        body += fenced ? "lfence; mov RCX, 0x40000001; rdpmc"
                       : "mov RCX, 0x40000001; rdpmc";
        execProgram(*m, assemble("mov RBX, 3"));
        execProgram(*m, assemble(body));
        return gpr(*m, Reg::RAX) - gpr(*m, Reg::RSI);
    };
    std::uint64_t fenced = measure(true);
    std::uint64_t unfenced = measure(false);
    EXPECT_GE(fenced, 120u);  // waits for the 40x3-cycle chain
    EXPECT_LT(unfenced, 60u); // sampled long before completion
}

TEST(Counters, CpuidHasVariableCost)
{
    auto m = makeMachine();
    std::vector<std::uint64_t> costs;
    for (int i = 0; i < 10; ++i) {
        Cycles before = m->cycles();
        execProgram(*m, assemble("cpuid"));
        costs.push_back(m->cycles() - before);
    }
    // Not all executions take the same time (Paoloni's observation).
    std::sort(costs.begin(), costs.end());
    EXPECT_NE(costs.front(), costs.back());
}

TEST(Counters, AperfMperfViaRdmsr)
{
    auto m = makeMachine();
    execProgram(*m, assemble("imul RAX, RAX; imul RAX, RAX; imul RAX, RAX"));
    std::uint64_t aperf = m->readMsr(msr::kAperf);
    std::uint64_t mperf = m->readMsr(msr::kMperf);
    EXPECT_GT(aperf, 0u);
    // MPERF runs at the (slower) reference clock.
    EXPECT_LT(mperf, aperf);
}

TEST(Counters, UncoreCountersKernelOnly)
{
    auto m = makeMachine();
    // Kernel: CBox lookup counter is readable.
    (void)m->readMsr(msr::kCboxLookupBase);
    // The MSR path itself is privileged at the instruction level.
    auto u = makeMachine("Skylake", false);
    u->arch().writeGpr(Reg::RCX, 64, msr::kCboxLookupBase);
    EXPECT_THROW(execProgram(*u, assemble("rdmsr")), FatalError);
}

// -------------------------------------------------------- interrupts --

TEST(Interrupts, PerturbOnlyWhenEnabled)
{
    auto run = [](bool irq_enabled) {
        Machine m(uarch::getMicroArch("Skylake"), 7);
        m.setPrivilege(Privilege::Kernel);
        m.setInterruptsEnabled(irq_enabled);
        auto before = m.pmu().total(EventId::InstrRetired);
        std::vector<x86::Instruction> code =
            assemble("mov R15, 2000000; l: dec R15; jnz l");
        ExecStats stats = execProgram(m, code);
        EXPECT_EQ(stats.interrupts > 0, irq_enabled);
        return m.pmu().total(EventId::InstrRetired) - before;
    };
    std::uint64_t with_irq = run(true);
    std::uint64_t without_irq = run(false);
    // The interrupt handlers retire extra instructions (§IV-A2).
    EXPECT_GT(with_irq, without_irq);
}

TEST(Interrupts, CliStiControl)
{
    auto m = makeMachine();
    execProgram(*m, assemble("sti"));
    EXPECT_TRUE(m->interruptsEnabled());
    execProgram(*m, assemble("cli"));
    EXPECT_FALSE(m->interruptsEnabled());
}

// ---------------------------------------------------------- snapshot --

TEST(Snapshot, RestoredMachineRunsLikeANewOne)
{
    // Loads, stores, a taken branch and CPUID touch all the state
    // restore() puts back: caches, TLB, physical pages, branch table,
    // RNG, PMU and scheduler.
    auto code = assemble("mov R14, 0x10000; mov R15, 2000; "
                         "l: mov RAX, [R14]; mov [R14+4096], R15; "
                         "cpuid; add R14, 64; dec R15; jnz l");
    auto prepare = [] {
        auto m = makeMachine();
        m->setInterruptsEnabled(true);
        return m;
    };
    auto observe = [&](Machine &m) {
        ExecStats stats = execProgram(m, code);
        std::vector<std::uint64_t> seen = {stats.startCycle,
                                           stats.endCycle,
                                           stats.interrupts};
        for (unsigned e = 0; e < kNumEvents; ++e)
            seen.push_back(m.pmu().total(static_cast<EventId>(e)));
        for (std::uint64_t v : m.arch().gpr)
            seen.push_back(v);
        return seen;
    };

    auto fresh = prepare();
    auto reused = prepare();
    Machine::Snapshot snap = reused->snapshot();
    auto expected = observe(*fresh);
    observe(*reused);
    reused->restore(snap);
    EXPECT_EQ(reused->memory().readVirt(0x11000, 8), 0u);
    EXPECT_EQ(observe(*reused), expected);
}

// --------------------------------------------------------------- TLB --

TEST(Tlb, ArrayLruReplacement)
{
    TlbArray tlb({8, 2}); // 4 sets x 2 ways
    EXPECT_FALSE(tlb.access(0));  // set 0
    EXPECT_FALSE(tlb.access(4));  // set 0
    EXPECT_TRUE(tlb.access(0));
    EXPECT_FALSE(tlb.access(8));  // set 0: evicts LRU = vpn 4
    EXPECT_TRUE(tlb.access(0));
    EXPECT_FALSE(tlb.access(4));
    tlb.flush();
    EXPECT_FALSE(tlb.probe(0));
}

TEST(Tlb, TwoLevelPenalties)
{
    Tlb tlb;
    auto first = tlb.access(0x5000);
    EXPECT_EQ(first.level, TlbLevel::PageWalk);
    EXPECT_EQ(first.penalty, tlb.config().walkLatency);
    auto second = tlb.access(0x5000);
    EXPECT_EQ(second.level, TlbLevel::Dtlb);
    EXPECT_EQ(second.penalty, 0u);
    EXPECT_EQ(tlb.dtlbMisses(), 1u);
    EXPECT_EQ(tlb.stlbMisses(), 1u);
}

TEST(Tlb, StlbCatchesDtlbEvictions)
{
    Tlb tlb;
    unsigned dtlb_entries = tlb.config().dtlb.entries;
    // Touch 2x the DTLB capacity, then revisit: misses hit the STLB.
    for (unsigned i = 0; i < 2 * dtlb_entries; ++i)
        tlb.access(i * kPageSize);
    auto res = tlb.access(0);
    EXPECT_EQ(res.level, TlbLevel::Stlb);
    EXPECT_EQ(res.penalty, tlb.config().stlbLatency);
}

TEST(Tlb, MachineCountsTlbEvents)
{
    auto m = makeMachine();
    m->pmu().configureProg(0, sim::EventCode{0x08, 0x01});
    auto walks_before = m->pmu().total(EventId::DtlbMissWalk);
    // 8 loads from 8 different (fresh) pages: 8 walks.
    std::string body;
    for (int i = 0; i < 8; ++i)
        body += "mov RBX, [0x1" + std::to_string(i) + "000];";
    execProgram(*m, assemble(body));
    EXPECT_EQ(m->pmu().total(EventId::DtlbMissWalk) - walks_before, 8u);
    // Re-run: all DTLB hits now.
    walks_before = m->pmu().total(EventId::DtlbMissWalk);
    execProgram(*m, assemble(body));
    EXPECT_EQ(m->pmu().total(EventId::DtlbMissWalk) - walks_before, 0u);
}

TEST(Tlb, MissPenaltyExtendsLoadLatency)
{
    auto m = makeMachine();
    execProgram(*m, assemble("mov R14, 0x10000; mov [R14], R14"));
    // Warm chase: 4 cycles/load; after a TLB flush the first load of
    // the page pays the walk.
    std::string chase;
    for (int i = 0; i < 50; ++i)
        chase += "mov R14, [R14];";
    Cycles warm = measureCycles(*m, chase);
    m->tlb().flush();
    Cycles cold = measureCycles(*m, chase);
    EXPECT_EQ(cold - warm, m->tlb().config().walkLatency);
}

// --------------------------------------------------------- footprint --

TEST(Frontend, HugeCodeFootprintSlowsIssue)
{
    // §III-F: unrolled code that no longer fits the instruction cache
    // decodes slower than loop-kept code.
    auto big = makeMachine();
    std::vector<x86::Instruction> code;
    auto nop = assemble("nop")[0];
    for (int i = 0; i < 20000; ++i)
        code.push_back(nop);
    Cycles before = big->cycles();
    execProgram(*big, code);
    Cycles big_cycles = big->cycles() - before;

    auto small = makeMachine();
    std::vector<x86::Instruction> small_code(
        code.begin(), code.begin() + 2000);
    Cycles sum = 0;
    for (int i = 0; i < 10; ++i) {
        before = small->cycles();
        execProgram(*small, small_code);
        sum += small->cycles() - before;
    }
    EXPECT_GT(big_cycles, sum * 3 / 2);
}

} // namespace
} // namespace nb::sim
