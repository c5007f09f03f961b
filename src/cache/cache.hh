/**
 * @file
 * A single set-associative cache (one level, or one L3 slice).
 *
 * All per-set state lives in a few flat arrays sized at construction:
 * the tags, one valid word and one dirty word per set, and the sets'
 * replacement state (Policy::stateWords() words each). One Policy kernel
 * decides replacement for every set; under set dueling (§VI-B3) a second
 * kernel serves the LeaderB sets, and followers use the PSEL winner.
 *
 * flushAll() (WBINVD) is O(1): it bumps the cache's flush generation.
 * Each set carries the generation it was last reset in; a set whose
 * stamp is stale reads as empty, with freshly reset policy state, and is
 * reset for real by the first access, no-allocate access, or invalidate
 * that touches it.
 */

#ifndef NB_CACHE_CACHE_HH
#define NB_CACHE_CACHE_HH

#include <optional>
#include <string>
#include <vector>

#include "cache/dueling.hh"
#include "cache/policy.hh"
#include "common/types.hh"

namespace nb::cache
{

/** Set dueling between two QLRU kernels (§VI-B3). */
struct CacheDueling
{
    /** Kernel of the LeaderB sets; CacheConfig::policy is LeaderA's. */
    Policy policyB;
    /** Set s of this cache has role leaders.role(slice, s). */
    DuelingConfig leaders;
    unsigned slice = 0;
    /** Shared PSEL counter (not owned); flushes do not reset it. */
    DuelState *state = nullptr;
};

/** Geometry and policy of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    Addr sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    Addr lineSize = kCacheLineSize;
    /** Replacement policy of every set (LeaderA's when dueling). */
    Policy policy;
    /** Set dueling; empty for a fixed policy. */
    std::optional<CacheDueling> dueling;

    unsigned numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (lineSize * assoc));
    }
};

/** Hit/miss statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0;

    std::uint64_t accesses() const { return hits + misses; }
};

/** Result of an access to one cache. */
struct LineAccessResult
{
    bool hit = false;
    unsigned set = 0;
    unsigned way = 0;
    /** Address of a line evicted to make room (fills only). */
    std::optional<Addr> evicted;
    /** The evicted line was dirty (needs writeback). */
    bool evictedDirty = false;
};

/** One set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const std::string &name() const { return config_.name; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return config_.assoc; }
    Addr lineSize() const { return config_.lineSize; }

    /** Set index for an address. */
    unsigned setIndex(Addr addr) const;
    /** Tag for an address. */
    Addr tagOf(Addr addr) const;
    /** Reconstruct a line-aligned address from set and tag. */
    Addr addrOf(unsigned set, Addr tag) const;

    /** Hit check without touching any state. */
    bool probe(Addr addr) const;

    /**
     * Access a line: on a hit, updates the replacement state; on a miss,
     * fills the line (replacing a victim if the set is full).
     *
     * @param addr Byte address (any offset within the line).
     * @param write Marks the line dirty.
     */
    LineAccessResult access(Addr addr, bool write);

    /**
     * Access a line only if present: a hit behaves exactly like
     * access(); a miss changes nothing, not even the statistics.
     * Equivalent to probe() followed by access() on a hit.
     *
     * @return true on a hit.
     */
    bool accessIfPresent(Addr addr, bool write);

    /**
     * Access that does NOT allocate on a miss (used for probes that model
     * uncached traffic).
     */
    LineAccessResult accessNoAlloc(Addr addr, bool write);

    /** Invalidate one line if present; returns true if it was present. */
    bool invalidate(Addr addr);

    /** Invalidate everything (WBINVD) in O(1): starts a new flush
     *  generation. */
    void flushAll() { ++gen_; }

    /** True if the given set is completely valid. */
    bool setFull(unsigned set) const;

    /** Number of valid lines in a set. */
    unsigned setOccupancy(unsigned set) const;

    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    /** A set's replacement state rendered by its policy (for tests). */
    std::string debugState(unsigned set) const;

  private:
    /** Occupancy of one set; meaningful only while gen == gen_. */
    struct SetMeta
    {
        WayMask valid = 0;
        WayMask dirty = 0;
        std::uint64_t gen = 0;
    };

    /** The set's metadata, first reset if a flush made it stale. */
    SetMeta &liveSet(unsigned set);
    /** Valid ways of a set, reading a stale set as empty. */
    WayMask validOf(unsigned set) const
    {
        const SetMeta &m = meta_[set];
        return m.gen == gen_ ? m.valid : 0;
    }
    /** Kernel that serves the set right now. */
    const Policy &policyOf(unsigned set) const;
    std::uint64_t *stateOf(unsigned set)
    {
        return repl_.data() + static_cast<std::size_t>(set) * words_;
    }
    int findWay(unsigned set, Addr tag, WayMask valid) const;
    /** Hit bookkeeping on a live set: stats, dirty bit, policy. */
    void recordHit(unsigned set, SetMeta &m, unsigned way, bool write);

    CacheConfig config_;
    unsigned numSets_;
    unsigned offsetBits_;
    unsigned indexBits_;
    /** Replacement-state words per set. */
    unsigned words_;
    /** Current flush generation; SetMeta::gen starts at 0, so every set
     *  of a new cache is stale until first touched. */
    std::uint64_t gen_ = 1;
    /** tags_[set * assoc + way] */
    std::vector<Addr> tags_;
    std::vector<SetMeta> meta_;
    /** repl_[set * words_ + i] */
    std::vector<std::uint64_t> repl_;
    /** roles_[set]; dueling caches only. */
    std::vector<DuelRole> roles_;
    CacheStats stats_;
};

} // namespace nb::cache

#endif // NB_CACHE_CACHE_HH
