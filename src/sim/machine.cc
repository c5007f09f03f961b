/**
 * @file
 * Machine framework: construction, memory helpers, interrupts, MSRs,
 * snapshots, the per-call begin/end and budget checkpoint, and the
 * reference executor. The threaded executor lives in
 * dispatch.cc; what each instruction does (bodies, prologue,
 * epilogue, scheduler primitives) is in semantics.hh, shared by both.
 */

#include "machine.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "sim/semantics.hh"

namespace nb::sim
{

Machine::Machine(const uarch::MicroArch &ua, std::uint64_t seed)
    : uarch_(ua), ports_(ua.ports()), rng_(seed),
      pmu_(ua.numProgCounters, ua.hasFixedCounters, ua.refClockRatio),
      caches_(ua.cacheConfig, &rng_)
{
    sched_.portFree.assign(ports_.numPorts, 0);
    sched_.portUse.assign(ports_.numPorts, 0);
    scheduleNextInterrupt();
}

void
Machine::setInterruptsEnabled(bool enabled)
{
    interruptsEnabled_ = enabled;
    if (enabled)
        scheduleNextInterrupt();
}

void
Machine::scheduleNextInterrupt()
{
    std::uint64_t period = uarch_.interruptPeriodCycles;
    // +/- 20% jitter.
    std::uint64_t jitter = rng_.nextRange(period * 8 / 10, period * 12 / 10);
    nextInterrupt_ = sched_.maxCompletion + jitter;
}

void
Machine::flushPendingCounts()
{
    for (unsigned i = 0; i < kNumEvents; ++i) {
        if (pendingCounts_[i] != 0) {
            pmu_.commit(static_cast<EventId>(i), pendingCounts_[i]);
            pendingCounts_[i] = 0;
        }
    }
}

void
Machine::countLoadLevel(const cache::AccessResult &res, Cycles at)
{
    using cache::HitLevel;
    count(EventId::MemLoads, 1, at);
    switch (res.level) {
      case HitLevel::L1:
        count(EventId::MemLoadL1Hit, 1, at);
        break;
      case HitLevel::L2:
        count(EventId::MemLoadL1Miss, 1, at);
        count(EventId::MemLoadL2Hit, 1, at);
        break;
      case HitLevel::L3:
        count(EventId::MemLoadL1Miss, 1, at);
        count(EventId::MemLoadL2Miss, 1, at);
        count(EventId::MemLoadL3Hit, 1, at);
        break;
      case HitLevel::Memory:
        count(EventId::MemLoadL1Miss, 1, at);
        count(EventId::MemLoadL2Miss, 1, at);
        count(EventId::MemLoadL3Miss, 1, at);
        break;
    }
}

Addr
Machine::effectiveAddress(const x86::MemRef &mem) const
{
    Addr addr = static_cast<Addr>(mem.disp);
    if (mem.base != x86::Reg::Invalid)
        addr += arch_.readGpr(mem.base, 64);
    if (mem.index != x86::Reg::Invalid)
        addr += arch_.readGpr(mem.index, 64) * mem.scale;
    return addr;
}

std::pair<std::uint64_t, Cycles>
Machine::loadValue(Addr vaddr, unsigned bytes)
{
    Addr paddr = memory_.translate(vaddr);
    // Address translation consults the TLB hierarchy; misses add their
    // penalty to the load-to-use latency.
    TlbResult tlb_res = tlb_.access(vaddr);
    std::uint64_t evictions_before = caches_.l1().stats().evictions;
    auto res = caches_.access(paddr, cache::AccessType::Load);
    std::uint64_t evictions_after = caches_.l1().stats().evictions;
    Cycles at = sched_.maxCompletion;
    countLoadLevel(res, at);
    if (tlb_res.level == TlbLevel::Stlb)
        count(EventId::DtlbMissStlbHit, 1, at);
    else if (tlb_res.level == TlbLevel::PageWalk)
        count(EventId::DtlbMissWalk, 1, at);
    if (evictions_after > evictions_before) {
        count(EventId::L1dReplacement, evictions_after - evictions_before,
              at);
    }
    return {memory_.phys().read(paddr, bytes),
            res.latency + tlb_res.penalty};
}

void
Machine::storeValue(Addr vaddr, std::uint64_t value, unsigned bytes)
{
    Addr paddr = memory_.translate(vaddr);
    tlb_.access(vaddr); // stores translate too (no latency modelled)
    std::uint64_t evictions_before = caches_.l1().stats().evictions;
    caches_.access(paddr, cache::AccessType::Store);
    std::uint64_t evictions_after = caches_.l1().stats().evictions;
    Cycles at = sched_.maxCompletion;
    count(EventId::MemStores, 1, at);
    if (evictions_after > evictions_before) {
        count(EventId::L1dReplacement, evictions_after - evictions_before,
              at);
    }
    memory_.phys().write(paddr, value, bytes);
}

VecReg
Machine::loadVec(Addr vaddr, unsigned bytes, Cycles *latency)
{
    VecReg v{};
    Cycles max_lat = 0;
    for (unsigned off = 0; off < bytes; off += 8) {
        auto [value, lat] = loadValue(vaddr + off, 8);
        v[off / 8] = value;
        max_lat = std::max(max_lat, lat);
    }
    *latency = max_lat;
    return v;
}

void
Machine::storeVec(Addr vaddr, const VecReg &value, unsigned bytes)
{
    for (unsigned off = 0; off < bytes; off += 8)
        storeValue(vaddr + off, value[off / 8], 8);
}

void
Machine::requirePrivilege(const x86::Instruction &insn) const
{
    if (insn.info().privileged && privilege_ != Privilege::Kernel) {
        fatal("general protection fault: privileged instruction '",
              insn.toString(), "' executed in user mode");
    }
}

void
Machine::maybeInterrupt(ExecContext &ctx)
{
    if (!interruptsEnabled_ || sched_.maxCompletion < nextInterrupt_)
        return;

    // Timer interrupt: the handler runs a few hundred instructions,
    // perturbing counts and cache state (§IV-A2, [30, 31]).
    Cycles at = sched_.maxCompletion;
    std::uint64_t handler_instr = rng_.nextRange(300, 900);
    std::uint64_t handler_cycles = rng_.nextRange(3000, 10000);
    count(EventId::InstrRetired, handler_instr, at);
    count(EventId::UopsIssued, handler_instr + handler_instr / 4, at);
    count(EventId::UopsExecuted, handler_instr, at);
    count(EventId::BrInstRetired, handler_instr / 5, at);
    count(EventId::BrMispRetired, rng_.nextRange(0, 4), at);

    // The handler touches some cache lines in a reserved physical range.
    constexpr Addr kHandlerBase = 0xF000'0000ULL;
    unsigned lines = static_cast<unsigned>(rng_.nextRange(8, 32));
    for (unsigned i = 0; i < lines; ++i) {
        Addr line = kHandlerBase +
                    rng_.nextBelow(512) * kCacheLineSize;
        caches_.access(line, cache::AccessType::Load);
    }

    // Pipeline restart after the handler.
    sched_.issueCycle = at + handler_cycles;
    sched_.issuedInCycle = 0;
    sched_.minDispatch = std::max(sched_.minDispatch, at + handler_cycles);
    sched_.maxCompletion = at + handler_cycles;
    sched_.lastRetire = std::max(sched_.lastRetire, at + handler_cycles);
    ++ctx.stats.interrupts;
    scheduleNextInterrupt();
}

ExecContext
Machine::beginExec(const Program &prog) const
{
    ExecContext ctx;
    ctx.program = &prog;
    ctx.stats.startCycle = sched_.maxCompletion;
    // Front-end footprint model (§III-F): code that no longer fits the
    // instruction cache decodes at a reduced rate. The footprint is
    // the *dynamic* layout's size -- repeat-encoded programs occupy
    // the same i-cache space as their materialized equivalent.
    std::uint64_t footprint = prog.virtualSize() * 4; // 4 bytes/insn
    ctx.issueWidth = uarch_.issueWidth;
    if (footprint > 256 * 1024)
        ctx.issueWidth = std::max(1u, uarch_.issueWidth / 4);
    else if (footprint > 32 * 1024)
        ctx.issueWidth = std::max(2u, uarch_.issueWidth / 2);
    ctx.windowSize = uarch_.windowSize;
    ctx.retireWidth = uarch_.retireWidth;
    ctx.portLimit =
        static_cast<uarch::PortMask>((1u << ports_.numPorts) - 1);
    ctx.observer = execObserver_;
    return ctx;
}

ExecStats
Machine::endExec(ExecContext &ctx) const
{
    ctx.stats.endCycle = sched_.maxCompletion;
    if (ctx.observer) {
        ctx.observer->instructions += ctx.stats.instructions;
        ctx.observer->cycles += ctx.stats.endCycle - ctx.stats.startCycle;
    }
    return ctx.stats;
}

void
Machine::budgetCheckpoint(ExecContext &ctx)
{
    // Issue is in order, so every later RDPMC/RDMSR samples at or
    // after the current issue cycle: the PMU can fold everything up
    // to it, which bounds its logs on long runs.
    pmu_.foldThrough(sched_.issueCycle);
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
Machine::executeReference(const Program &prog)
{
    ExecContext ctx = beginExec(prog);
    ProgramCursor cursor(prog);
    InsnState s;
    while (!cursor.done()) {
        checkpoint(ctx);
        const DecodedInsn &d = prog.entry(cursor.advance(ctx));
        s.insn = &prog.insn(d);
        s.memOp = d.memOpIdx >= 0 ? &s.insn->operands[d.memOpIdx] : nullptr;
        s.srcRegs = prog.srcRegs(d);
        s.addrRegs = prog.addrRegs(d);
        s.uopPorts = prog.uopPorts(d);
        s.target = d.target;
        s.flags = hotFlags(d);
        s.srcCount = d.srcCount;
        s.addrCount = d.addrCount;
        s.uopCount = d.uopCount;
        s.latency = d.latency;
        s.blockCycles = d.blockCycles;
        s.opWidth = d.opWidth;
        s.nIssueUops = d.nIssueUops;
        beginInsn(s, ctx);

        const OpClass c = opcodeClass(s.insn->opcode);
        if (isSerializing(c)) {
            serialize(c, s, ctx);
        } else {
            prologue(s, ctx);
            semantics(c, s, ctx);
            epilogue(s, ctx);
        }
        endInsn(ctx, cursor);
    }
    return endExec(ctx);
}

Machine::Snapshot::Snapshot(const Machine &m)
    : rng(m.rng_), arch(m.arch_), phys(m.memory_.phys().snapshot()),
      pmu(m.pmu_), caches(m.caches_.snapshot()), tlb(m.tlb_),
      sched(m.sched_), privilege(m.privilege_),
      interruptsEnabled(m.interruptsEnabled_), rdpmcUser(m.rdpmcUser_),
      cycleBudget(m.cycleBudget_),
      cycleDeadline(m.cycleDeadline_), nextInterrupt(m.nextInterrupt_),
      branchTable(m.branchTable_)
{
}

Machine::Snapshot
Machine::snapshot() const
{
    return Snapshot(*this);
}

void
Machine::restore(const Snapshot &s)
{
    rng_ = s.rng;
    arch_ = s.arch;
    memory_.phys().restore(s.phys);
    pmu_ = s.pmu;
    caches_.restore(s.caches);
    tlb_ = s.tlb;
    sched_ = s.sched;
    privilege_ = s.privilege;
    interruptsEnabled_ = s.interruptsEnabled;
    rdpmcUser_ = s.rdpmcUser;
    cycleBudget_ = s.cycleBudget;
    cycleDeadline_ = s.cycleDeadline;
    nextInterrupt_ = s.nextInterrupt;
    branchTable_ = s.branchTable;
}

std::uint64_t
Machine::readMsr(std::uint32_t addr)
{
    return readMsrAt(addr, sched_.maxCompletion);
}

std::uint64_t
Machine::readMsrAt(std::uint32_t addr, Cycles now)
{
    if (addr == msr::kAperf)
        return pmu_.aperf(now);
    if (addr == msr::kMperf)
        return pmu_.mperf(now);
    if (addr == msr::kPrefetchControl)
        return caches_.prefetcherControl();
    if (addr >= msr::kPmc0 && addr < msr::kPmc0 + pmu_.numProg())
        return pmu_.readProg(addr - msr::kPmc0, now);
    if (addr >= msr::kFixedCtr0 && addr < msr::kFixedCtr0 + 3 &&
        pmu_.hasFixed())
        return pmu_.readFixed(addr - msr::kFixedCtr0, now);
    if (uarch_.hasUncoreCounters) {
        unsigned n = caches_.numSlices();
        if (addr >= msr::kCboxLookupBase &&
            addr < msr::kCboxLookupBase + n)
            return caches_.cboxStats(addr - msr::kCboxLookupBase).lookups;
        if (addr >= msr::kCboxHitBase && addr < msr::kCboxHitBase + n)
            return caches_.cboxStats(addr - msr::kCboxHitBase).hits;
        if (addr >= msr::kCboxMissBase && addr < msr::kCboxMissBase + n)
            return caches_.cboxStats(addr - msr::kCboxMissBase).misses;
    }
    fatal("RDMSR: unimplemented MSR 0x", std::hex, addr);
}

void
Machine::writeMsr(std::uint32_t addr, std::uint64_t value)
{
    if (addr == msr::kPrefetchControl) {
        caches_.setPrefetcherControl(value);
        return;
    }
    if (addr >= msr::kPerfEvtSel0 &&
        addr < msr::kPerfEvtSel0 + pmu_.numProg()) {
        unsigned idx = addr - msr::kPerfEvtSel0;
        bool enable = (value >> 22) & 1;
        if (!enable) {
            pmu_.disableProg(idx);
            return;
        }
        EventCode code{static_cast<std::uint8_t>(value & 0xFF),
                       static_cast<std::uint8_t>((value >> 8) & 0xFF)};
        if (!pmu_.configureProg(idx, code)) {
            warn("WRMSR: unknown event code ", std::hex,
                 static_cast<int>(code.evsel), ".",
                 static_cast<int>(code.umask));
        }
        return;
    }
    fatal("WRMSR: unimplemented MSR 0x", std::hex, addr);
}

} // namespace nb::sim
