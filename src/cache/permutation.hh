/**
 * @file
 * Permutation policies (paper §VI-B1).
 *
 * A permutation policy maintains a total order of the elements in a cache
 * set; a hit updates the order based only on the accessed element's
 * position; a miss replaces the smallest element. Such a policy is fully
 * specified by A+1 permutations: one per hit position plus one for
 * misses. LRU, FIFO, and tree-based PLRU are permutation policies.
 *
 * Conventions used here:
 *  - position 0 is the smallest element (the victim on a miss);
 *  - a permutation pi maps old positions to new positions:
 *    new_order[pi[q]] = old_order[q];
 *  - on a miss, the new block first takes position 0 (replacing the
 *    victim), then the miss permutation is applied; fills into empty
 *    ways are treated the same way.
 *
 * Policy(PermutationSpec) (policy.hh) is the kernel that runs a spec.
 */

#ifndef NB_CACHE_PERMUTATION_HH
#define NB_CACHE_PERMUTATION_HH

#include <string>
#include <vector>

namespace nb::cache
{

/** The A+1 permutations that define a permutation policy. */
struct PermutationSpec
{
    /** hitPerms[p] is applied after a hit at position p. */
    std::vector<std::vector<unsigned>> hitPerms;
    /** Applied after a miss (with the new block at position 0). */
    std::vector<unsigned> missPerm;

    bool operator==(const PermutationSpec &) const = default;

    unsigned assoc() const
    {
        return static_cast<unsigned>(hitPerms.size());
    }

    /** Sanity-check that every entry is a permutation of 0..A-1. */
    bool isValid() const;

    /** Multi-line human-readable rendering. */
    std::string toString() const;

    /** The LRU policy as a permutation spec. */
    static PermutationSpec lru(unsigned assoc);

    /** The FIFO policy as a permutation spec. */
    static PermutationSpec fifo(unsigned assoc);
};

} // namespace nb::cache

#endif // NB_CACHE_PERMUTATION_HH
