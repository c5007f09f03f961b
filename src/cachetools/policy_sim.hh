/**
 * @file
 * Software simulation of a single cache set under a replacement policy.
 *
 * Used by the inference tools (§VI-C1): measured hit counts from the
 * hardware (here: the simulated machine, reached through nanoBench) are
 * compared against the predictions of these pure-software simulators for
 * every candidate policy.
 */

#ifndef NB_CACHETOOLS_POLICY_SIM_HH
#define NB_CACHETOOLS_POLICY_SIM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/policy.hh"

namespace nb::cachetools
{

/** One access in an abstract per-set sequence. */
struct SeqAccess
{
    /** Abstract block id; blocks with equal ids are the same block. */
    int block = 0;
    /** Include this access in the hit count (§VI-C: per-element
     *  selection via the pause/resume feature). */
    bool measured = true;
    /** Execute WBINVD before this access (flush marker). */
    bool wbinvd = false;
};

/** Parse a sequence string: "<wbinvd> B0 B1 B0? A" -- identifiers name
 *  blocks; a trailing '?' excludes the access from measurement;
 *  "<wbinvd>" flushes. @throws nb::FatalError on syntax errors. */
std::vector<SeqAccess> parseAccessSeq(const std::string &text);

/** Render a sequence back to its string form (for reports). */
std::string accessSeqToString(const std::vector<SeqAccess> &seq);

/**
 * A software-simulated cache set: one set's tags, valid mask, and
 * replacement state, driven by the same Policy kernel a Cache uses.
 * Copies are independent.
 */
class PolicySim
{
  public:
    explicit PolicySim(cache::Policy policy);

    /** Access a block; returns true on a hit. */
    bool access(int block);

    /** Flush the set. */
    void flush();

    /** Number of measured hits over a whole sequence (flushes first if
     *  the sequence starts with <wbinvd>). */
    unsigned runSequence(const std::vector<SeqAccess> &seq);

    /** Per-access hit/miss trace of a sequence. */
    std::vector<bool> trace(const std::vector<SeqAccess> &seq);

    const cache::Policy &policy() const { return policy_; }
    unsigned assoc() const { return policy_.assoc(); }

    /** Way holding @p block, or -1 if it is not cached. */
    int wayOf(int block) const;

    /** Replacement state rendered by the policy (for tests). */
    std::string debugState() const
    {
        return policy_.debugState(state_.data());
    }

  private:
    cache::Policy policy_;
    std::array<std::uint64_t, cache::kMaxStateWords> state_{};
    std::array<int, cache::kMaxAssoc> tags_{};
    cache::WayMask valid_ = 0;
};

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_POLICY_SIM_HH
