/**
 * @file
 * Performance monitoring unit of the simulated core (paper §II).
 *
 * Models:
 *  - three Intel fixed-function counters (instructions retired, core
 *    cycles, reference cycles), readable with RDPMC (§II-A1);
 *  - APERF/MPERF, readable only with RDMSR (kernel space, §II-A1);
 *  - N programmable counters with event selection (§II-A2);
 *  - time-resolved sampling: every increment is tagged with the cycle it
 *    occurred at, and reads sample "as of" the cycle the reading µop
 *    executes. This is what makes the serialization experiments
 *    (§IV-A1) meaningful: an unfenced RDPMC executes early and samples
 *    an earlier cycle.
 *  - global pause/resume gating used by the magic-byte feature (§III-I).
 */

#ifndef NB_SIM_PMU_HH
#define NB_SIM_PMU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/events.hh"

namespace nb::sim
{

/** Index base for fixed counters in RDPMC (as on real Intel CPUs). */
inline constexpr std::uint32_t kRdpmcFixedBase = 0x40000000;

/** The PMU of one simulated logical core. */
class Pmu
{
  public:
    /**
     * @param num_prog Number of programmable counters.
     * @param has_fixed Intel-style fixed counters present.
     * @param ref_ratio Reference-clock to core-clock frequency ratio.
     */
    Pmu(unsigned num_prog, bool has_fixed, double ref_ratio);

    unsigned numProg() const { return numProg_; }
    bool hasFixed() const { return hasFixed_; }

    /** Program counter @p idx to count the event with @p code.
     *  Returns false if the code is not in the catalog. */
    bool configureProg(unsigned idx, EventCode code);

    /** Disable counter @p idx. */
    void disableProg(unsigned idx);

    /** Event configured on a counter (NumEvents if disabled). */
    EventId progEvent(unsigned idx) const;

    /** Record @p n occurrences of @p event at @p cycle. */
    void count(EventId event, std::uint64_t n, Cycles cycle);

    /**
     * Record @p n occurrences of the logged event with index @p idx at
     * @p cycle: bump its total and append the increment to its
     * time-resolved log. The caller has applied the pause gate and
     * checked loggedMask(); this is count() without those tests, for
     * the threaded executor's hot path.
     */
    void
    log(unsigned idx, std::uint64_t n, Cycles cycle)
    {
        totals_[idx] += n;
        // Merge with the previous increment when it is at the same
        // cycle (sample() only sums them): a spec that runs until its
        // cycle budget then holds one entry per busy cycle, not one
        // per retired instruction.
        auto &entries = logs_[idx];
        if (!entries.empty() && entries.back().cycle == cycle)
            entries.back().n += static_cast<std::uint32_t>(n);
        else
            entries.push_back(
                Increment{cycle, static_cast<std::uint32_t>(n)});
    }

    /**
     * Bitmask over EventId of events whose increments are time-resolved
     * (selected on a programmable counter, plus InstrRetired which
     * backs fixed counter 0). Events outside the mask only ever
     * contribute to scalar totals, so callers on the hot path may
     * accumulate them locally and commit() the sums in bulk.
     */
    std::uint64_t loggedMask() const { return loggedMask_; }

    /**
     * Fold @p n pre-gated occurrences of @p event into the scalar
     * total. Used to flush batched counts for non-logged events: the
     * pause gate was already applied when the counts accrued, so no
     * pause check happens here, and nothing is logged.
     */
    void commit(EventId event, std::uint64_t n)
    {
        totals_[static_cast<unsigned>(event)] += n;
    }

    /** Pause/resume all counting (magic-byte feature, §III-I). */
    void setPaused(bool paused) { paused_ = paused; }
    bool isPaused() const { return paused_; }

    /**
     * Start a new sampling epoch: drops the time-resolved logs (their
     * totals are folded into the epoch base). Called before each
     * generated-code run.
     */
    void beginEpoch();

    /**
     * Fold every logged increment at or before @p cycle into the epoch
     * base, so the logs hold only increments after it. Exact as long
     * as every later read samples at @p cycle or after (the machine
     * passes its in-order issue cycle); @p cycle must not decrease
     * within an epoch. Bounds the logs of a long run to the
     * increments of the in-flight window.
     */
    void foldThrough(Cycles cycle);

    /** Logged increments currently held for @p event; for tests. */
    std::size_t loggedIncrements(EventId event) const
    {
        return logs_[static_cast<unsigned>(event)].size();
    }

    /** Value of programmable counter @p idx as of @p cycle. */
    std::uint64_t readProg(unsigned idx, Cycles cycle) const;

    /** Value of fixed counter @p idx (0 = instructions retired,
     *  1 = core cycles, 2 = reference cycles) as of @p cycle. */
    std::uint64_t readFixed(unsigned idx, Cycles cycle) const;

    /** APERF (core clock) / MPERF (reference clock) MSR values. */
    std::uint64_t aperf(Cycles cycle) const;
    std::uint64_t mperf(Cycles cycle) const;

    /** Total (end-of-time) value of a semantic event; for tests. */
    std::uint64_t total(EventId event) const;

  private:
    struct Increment
    {
        Cycles cycle;
        std::uint32_t n;
    };

    bool eventLogged(EventId event) const;
    std::uint64_t sample(EventId event, Cycles cycle) const;
    void rebuildLoggedMask();

    unsigned numProg_;
    bool hasFixed_;
    double refRatio_;
    bool paused_ = false;

    /** Event selection per programmable counter. */
    std::vector<EventId> progSel_;
    /** Cached bitmask form of eventLogged() (see loggedMask()). */
    std::uint64_t loggedMask_ = 0;

    /** Scalar totals per semantic event. */
    std::array<std::uint64_t, kNumEvents> totals_{};
    /** Epoch-base totals per semantic event. */
    std::array<std::uint64_t, kNumEvents> epochBase_{};
    /** Time-resolved increments since the epoch began (selected events
     *  and InstrRetired only), minus those folded into epochBase_. */
    std::array<std::vector<Increment>, kNumEvents> logs_{};
    /** Cycle of the last foldThrough() in this epoch. */
    Cycles foldedThrough_ = 0;
};

} // namespace nb::sim

#endif // NB_SIM_PMU_HH
