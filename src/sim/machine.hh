/**
 * @file
 * The simulated machine: one x86-64 core with an out-of-order back-end,
 * a PMU, a cache hierarchy, virtual memory, and an interrupt model.
 *
 * Timing model. Instructions are executed sequentially for semantics,
 * while timing is computed with a dataflow scheduler: each µop dispatches
 * to one of its allowed execution ports no earlier than (a) its issue
 * cycle (bounded by the issue width and the scheduler window), (b) the
 * cycle its register/memory inputs are ready, (c) the port's next free
 * cycle, and (d) any pending dispatch fence. Load µops take their latency
 * from the cache hierarchy. Retirement is in order.
 *
 * This reproduces the behaviours the paper's methodology depends on:
 *  - counter-reading instructions (RDPMC/RDMSR) are *not* serializing:
 *    without a fence they dispatch as soon as their inputs are ready and
 *    sample the counters at that early cycle (§IV-A1);
 *  - LFENCE dispatches only after all older instructions have completed
 *    locally and blocks younger ones until it completes (§IV-A1);
 *  - CPUID serializes too, but contributes a variable latency and µop
 *    count of its own (Paoloni's observation, §IV-A1);
 *  - timer interrupts perturb counts unless disabled (kernel mode,
 *    §III-D / §IV-A2);
 *  - privileged instructions fault outside kernel mode (§III-D).
 */

#ifndef NB_SIM_MACHINE_HH
#define NB_SIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/arch_state.hh"
#include "sim/memory.hh"
#include "sim/pmu.hh"
#include "sim/program.hh"
#include "sim/tlb.hh"
#include "uarch/uarch.hh"
#include "x86/instruction.hh"

namespace nb::sim
{

/** Current privilege level of the simulated core. */
enum class Privilege : std::uint8_t
{
    User,
    Kernel,
};

/** Model-specific register addresses implemented by the machine. */
namespace msr
{
inline constexpr std::uint32_t kMperf = 0xE7;
inline constexpr std::uint32_t kAperf = 0xE8;
inline constexpr std::uint32_t kPerfEvtSel0 = 0x186; ///< +i per counter
inline constexpr std::uint32_t kPmc0 = 0xC1;         ///< +i per counter
inline constexpr std::uint32_t kPrefetchControl = 0x1A4;
inline constexpr std::uint32_t kFixedCtr0 = 0x309;   ///< +i per counter
/** Uncore C-Box counters (lookups/hits/misses per slice). */
inline constexpr std::uint32_t kCboxLookupBase = 0x700; ///< +slice
inline constexpr std::uint32_t kCboxHitBase = 0x720;    ///< +slice
inline constexpr std::uint32_t kCboxMissBase = 0x740;   ///< +slice
} // namespace msr

/**
 * Opt-in observation sink for execution. When attached via
 * Machine::setExecObserver, the scheduler primitives accrue what the
 * core *actually did* -- per-port dispatched µops, issue/dispatch
 * totals, retire-stall cycles -- across execute() calls. Observation
 * is strictly read-only: attaching an observer must leave every
 * observable (ExecStats, arch state, PMU totals, time-resolved
 * samples) bit-identical, which the parity tests pin.
 * Counters accumulate until reset(); obs::observeSpec() wraps this
 * in the paper's differential pattern to cancel harness overhead.
 */
struct ExecObserver
{
    /** Upper bound on modeled execution ports; must cover every
     *  uarch::PortLayout (Zen models 10). The dispatch loop indexes
     *  this array unchecked on its hot path, so Machine asserts the
     *  bound when an observer is attached. */
    static constexpr unsigned kMaxPorts = 16;

    std::array<std::uint64_t, kMaxPorts> portUops{};
    std::uint64_t uopsIssued = 0;
    std::uint64_t uopsDispatched = 0;
    std::uint64_t retireStallCycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    void reset() { *this = ExecObserver{}; }
};

struct ExecContext;
struct InsnState;
class ProgramCursor;

/** Statistics of one execute() call. */
struct ExecStats
{
    std::uint64_t instructions = 0;
    std::uint64_t uops = 0;
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    std::uint64_t interrupts = 0;

    Cycles cycles() const { return endCycle - startCycle; }
};

/** One simulated x86-64 core plus its memory system. */
class Machine
{
  public:
    Machine(const uarch::MicroArch &ua, std::uint64_t seed = 42);

    const uarch::MicroArch &uarch() const { return uarch_; }
    ArchState &arch() { return arch_; }
    Memory &memory() { return memory_; }
    Pmu &pmu() { return pmu_; }
    cache::Hierarchy &caches() { return caches_; }
    Tlb &tlb() { return tlb_; }
    Rng &rng() { return rng_; }

    void setPrivilege(Privilege p) { privilege_ = p; }
    Privilege privilege() const { return privilege_; }

    /** Master toggle for the timer-interrupt model. */
    void setInterruptsEnabled(bool enabled);
    bool interruptsEnabled() const { return interruptsEnabled_; }

    /** CR4.PCE: whether RDPMC is allowed in user mode (§II). */
    void setRdpmcUserEnabled(bool enabled) { rdpmcUser_ = enabled; }

    /** Monotonic cycle clock (completion frontier of all issued work). */
    Cycles cycles() const { return sched_.maxCompletion; }

    /**
     * Execute a predecoded program until control falls off the end.
     * This is the primary execution path (sim/dispatch.cc): a threaded
     * computed-goto interpreter over the Program's struct-of-arrays
     * hot layout, with PMU accounting for non-time-resolved events
     * batched locally and committed in bulk when the call returns.
     *
     * @throws nb::FatalError on faults (privilege violation, page fault,
     *         divide error).
     * @throws nb::BudgetExceededError once an armed cycle budget runs
     *         out (see setCycleBudget()); nothing else bounds a call.
     */
    ExecStats execute(const Program &prog);

    /**
     * The parity reference: a plain loop that reads the array-of-
     * structs DecodedInsn, switches on the opcode's class into the same
     * semantics bodies as execute(), and counts every PMU event as it
     * happens. execute() must stay bit-identical to it in every
     * observable (ExecStats, registers, flags, counter totals and
     * time-resolved samples), which the parity suite pins; the
     * dispatch_vs_predecode bench gate measures execute() against it.
     */
    ExecStats executeReference(const Program &prog);

    /**
     * Arm (or, with 0, disarm) a cycle budget: once simulated time
     * advances @p budget cycles past the current cycle, execute()
     * throws nb::BudgetExceededError from an amortized checkpoint in
     * the dispatch loop (so a runaway microbenchmark costs at most
     * ~one epoch past its budget instead of hanging the caller). The
     * deadline is absolute, so one budget spans every execute() call
     * of a Runner::run. Callers must disarm before returning a pooled
     * machine (Runner::run does this via RAII).
     */
    void
    setCycleBudget(std::uint64_t budget)
    {
        cycleBudget_ = budget;
        cycleDeadline_ = budget ? sched_.maxCompletion + budget : 0;
    }

    /** The armed cycle budget (0 = disarmed). */
    std::uint64_t cycleBudget() const { return cycleBudget_; }

    /** MSR file (RDMSR/WRMSR reach this; also usable from C++). */
    std::uint64_t readMsr(std::uint32_t addr);
    void writeMsr(std::uint32_t addr, std::uint64_t value);

    /** MSR read sampled "as of" a specific cycle (counter MSRs only
     *  differ from readMsr by the sampling point). */
    std::uint64_t readMsrAt(std::uint32_t addr, Cycles cycle);

    /** Attach (or with nullptr detach) an execution observer; the
     *  machine does not own it. See ExecObserver. */
    void setExecObserver(ExecObserver *observer)
    {
        NB_ASSERT(!observer || uarch_.ports().numPorts <=
                                   ExecObserver::kMaxPorts,
                  "ExecObserver::kMaxPorts too small for ",
                  uarch_.name);
        execObserver_ = observer;
    }
    ExecObserver *execObserver() const { return execObserver_; }

    class Snapshot;

    /**
     * Record the machine's state so restore() can return to it.
     * Campaign workers take one right after setting a machine up and
     * restore it before every spec, so each spec runs as if on a newly
     * built machine. The caches must not have been used yet (see
     * cache::Hierarchy::snapshot).
     */
    Snapshot snapshot() const;

    /**
     * Return to @p s. The caches are emptied through their flush
     * generation rather than copied, the page table stays as it is (a
     * run never remaps), and the physical pages written since @p s
     * are dropped; everything else is copied back. The attached
     * ExecObserver stays attached.
     */
    void restore(const Snapshot &s);

  private:
    // ------------------------------------------------ timing machinery
    struct Scheduler
    {
        std::array<Cycles, static_cast<unsigned>(x86::Reg::NumRegs)>
            regReady{};
        Cycles flagsReady = 0;
        std::vector<Cycles> portFree;
        Cycles issueCycle = 0;
        unsigned issuedInCycle = 0;
        Cycles minDispatch = 0;   ///< dispatch fence (LFENCE/CPUID)
        Cycles maxCompletion = 0; ///< completion frontier
        Cycles lastRetire = 0;
        unsigned retiredInCycle = 0;
        std::deque<Cycles> window; ///< in-flight µop completions
        /** µops dispatched per port (tie-break: least-loaded port). */
        std::vector<std::uint64_t> portUse;
    };

    // --------------------------------------------------- execution core
    // Both executors (execute() and executeReference()) run the same
    // steps; their always-inline definitions are in sim/semantics.hh.

    /** Start a call: the context, with the front-end footprint rule
     *  applied to @p prog. */
    ExecContext beginExec(const Program &prog) const;
    /** Finish a call: close the stats and accrue the observer. */
    ExecStats endExec(ExecContext &ctx) const;

    /** Amortized resilience checkpoint, once per instruction. */
    inline void checkpoint(ExecContext &ctx);
    /** Reset the per-instruction values of @p s and check privilege. */
    inline void beginInsn(InsnState &s, const ExecContext &ctx);
    /** The whole path of a class that bypasses the prologue and
     *  epilogue (PFC markers, fences, CPUID; see isSerializing()). */
    inline void serialize(OpClass c, InsnState &s, ExecContext &ctx);
    /** Source/address readiness, issue, load µop and core µops. */
    inline void prologue(InsnState &s, ExecContext &ctx);
    /** The semantics body of class @p c. */
    inline void semantics(OpClass c, InsnState &s, ExecContext &ctx);
    /** Store µops, branch prediction and retirement. */
    inline void epilogue(InsnState &s, ExecContext &ctx);
    /** Count the instruction, follow a taken branch, poll interrupts. */
    inline void endInsn(ExecContext &ctx, ProgramCursor &cursor);

    /** Account one issue slot; returns the issue cycle. */
    inline Cycles issueSlot(ExecContext &ctx);

    /** Dispatch/completion cycles of one µop. */
    struct UopTiming
    {
        Cycles dispatch;
        Cycles done;
    };

    /**
     * Dispatch a µop. Picks the allowed port with the earliest dispatch
     * cycle (ties go to the least-used port), accounts port-dispatch
     * events, and returns the dispatch and completion cycles.
     */
    inline UopTiming dispatchUop(ExecContext &ctx, uarch::PortMask ports,
                                 Cycles ready, unsigned latency,
                                 unsigned block_cycles);

    inline void retireInstr(ExecContext &ctx, Cycles completion,
                            bool is_branch, bool mispredicted);

    /** Memory helpers (semantics + timing + events). */
    Addr effectiveAddress(const x86::MemRef &mem) const;
    /** Performs the cache access + phys read; returns (value, latency).*/
    std::pair<std::uint64_t, Cycles> loadValue(Addr vaddr, unsigned bytes);
    void storeValue(Addr vaddr, std::uint64_t value, unsigned bytes);
    VecReg loadVec(Addr vaddr, unsigned bytes, Cycles *latency);
    void storeVec(Addr vaddr, const VecReg &value, unsigned bytes);

    void requirePrivilege(const x86::Instruction &insn) const;

    /** Inject a timer interrupt if one is due. */
    void maybeInterrupt(ExecContext &ctx);
    void scheduleNextInterrupt();

    /** Cold path of checkpoint(): fault-injection arrival (execute
     *  site) and the cycle-budget deadline. Throws InjectedFault or
     *  BudgetExceededError. */
    void budgetCheckpoint(ExecContext &ctx);

    /**
     * Count a PMU event at a cycle. While the threaded executor runs
     * (batchEvents_), events that are not time-resolved (not selected
     * on a programmable counter, not InstrRetired) accrue in a local
     * pending array -- the pause gate is applied here, at accrual time
     * -- and are committed to the PMU totals in bulk when execute()
     * returns. Time-resolved events always reach the PMU immediately
     * so per-cycle sampling semantics are exact.
     */
    void count(EventId e, std::uint64_t n, Cycles at)
    {
        if (!batchEvents_) {
            pmu_.count(e, n, at);
            return;
        }
        if (n == 0 || pmu_.isPaused())
            return;
        auto idx = static_cast<unsigned>(e);
        if (pmu_.loggedMask() >> idx & 1)
            pmu_.count(e, n, at);
        else
            pendingCounts_[idx] += n;
    }

    /** Commit the batched event counts (see count()). */
    void flushPendingCounts();

    /** RAII scope that turns on batched counting and always flushes,
     *  including on the fatal()/exception paths out of execute(). */
    struct BatchCountScope
    {
        explicit BatchCountScope(Machine &m) : machine(m)
        {
            machine.batchEvents_ = true;
        }
        ~BatchCountScope()
        {
            machine.batchEvents_ = false;
            machine.flushPendingCounts();
        }
        BatchCountScope(const BatchCountScope &) = delete;
        BatchCountScope &operator=(const BatchCountScope &) = delete;
        Machine &machine;
    };

    /** Count load-hit-level events for a finished load. */
    void countLoadLevel(const cache::AccessResult &res, Cycles at);

    // ------------------------------------------------------ members
    const uarch::MicroArch &uarch_;
    uarch::PortLayout ports_;
    Rng rng_;
    ArchState arch_;
    Memory memory_;
    Pmu pmu_;
    cache::Hierarchy caches_;
    Tlb tlb_;
    Scheduler sched_;
    Privilege privilege_ = Privilege::User;
    bool interruptsEnabled_ = true;
    bool rdpmcUser_ = true;
    /** Batched-counting mode (threaded executor only; see count()). */
    bool batchEvents_ = false;
    /** Pause-gated pending counts of non-time-resolved events. */
    std::array<std::uint64_t, kNumEvents> pendingCounts_{};
    /** Armed cycle budget and its absolute deadline (0 = disarmed);
     *  see setCycleBudget(). */
    std::uint64_t cycleBudget_ = 0;
    Cycles cycleDeadline_ = 0;
    Cycles nextInterrupt_ = 0;
    /** Observation sink (see ExecObserver); not owned. */
    ExecObserver *execObserver_ = nullptr;

    /** Branch predictor: 2-bit saturating counters per virtual code
     *  index. */
    std::unordered_map<std::uint64_t, std::uint8_t> branchTable_;
};

/** What Machine::restore() puts back (see Machine::snapshot()). */
class Machine::Snapshot
{
  private:
    friend class Machine;
    explicit Snapshot(const Machine &m);

    Rng rng;
    ArchState arch;
    PhysMemory::Snapshot phys;
    Pmu pmu;
    cache::Hierarchy::Snapshot caches;
    Tlb tlb;
    Scheduler sched;
    Privilege privilege;
    bool interruptsEnabled;
    bool rdpmcUser;
    std::uint64_t cycleBudget;
    Cycles cycleDeadline;
    Cycles nextInterrupt;
    std::unordered_map<std::uint64_t, std::uint8_t> branchTable;
};

} // namespace nb::sim

#endif // NB_SIM_MACHINE_HH
