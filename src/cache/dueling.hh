/**
 * @file
 * Adaptive replacement via set dueling (paper §VI-B3).
 *
 * A number of leader sets are dedicated to each of two candidate
 * policies; the remaining (follower) sets use whichever policy is
 * currently performing better, tracked by a saturating PSEL counter that
 * counts misses in the leader sets. On Ivy Bridge the leaders are sets
 * 512-575 / 768-831 in all slices; on Haswell the same sets but only in
 * slice 0; on Broadwell the two leader groups are swapped between slices
 * 0 and 1 (§VI-D).
 *
 * A dueling Cache runs the two candidates as two QLRU Policy kernels over
 * the same per-set ages: a set's role picks the kernel, and a follower
 * asks the DuelState which one is winning. Flushes leave PSEL alone.
 */

#ifndef NB_CACHE_DUELING_HH
#define NB_CACHE_DUELING_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nb::cache
{

/** Role of a cache set in a set-dueling scheme. */
enum class DuelRole : std::uint8_t
{
    Follower,
    LeaderA,
    LeaderB,
};

/** A range of leader sets in one slice (or all slices). */
struct LeaderRange
{
    /** Slice the range applies to; -1 = all slices. */
    int slice = -1;
    unsigned setLo = 0;
    unsigned setHi = 0; ///< inclusive
    DuelRole role = DuelRole::LeaderA;
};

/** Set-dueling configuration for one cache. */
struct DuelingConfig
{
    std::vector<LeaderRange> leaders;
    std::string policyA; ///< policy name used by LeaderA sets
    std::string policyB; ///< policy name used by LeaderB sets

    /** Role of a given (slice, set). */
    DuelRole role(unsigned slice, unsigned set) const;

    bool empty() const { return leaders.empty(); }
};

/** Shared PSEL state; one instance per dueling cache. */
class DuelState
{
  public:
    explicit DuelState(unsigned bits = 10)
        : max_((1u << bits) - 1), psel_(1u << (bits - 1))
    {
    }

    /** Record a miss in a leader set. */
    void recordMiss(DuelRole role);

    /** Policy the follower sets should currently use. */
    DuelRole winner() const
    {
        return psel_ < (max_ + 1) / 2 ? DuelRole::LeaderA
                                      : DuelRole::LeaderB;
    }

    unsigned psel() const { return psel_; }

  private:
    unsigned max_;
    unsigned psel_;
};

} // namespace nb::cache

#endif // NB_CACHE_DUELING_HH
