/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache.hh"

#include <bit>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::cache
{

Cache::Cache(const CacheConfig &config)
    : config_(config), numSets_(config.numSets()),
      offsetBits_(floorLog2(config.lineSize)),
      indexBits_(floorLog2(config.numSets())),
      words_(config.policy.stateWords())
{
    NB_ASSERT(isPowerOfTwo(config.lineSize), "line size must be 2^k");
    NB_ASSERT(numSets_ > 0 && isPowerOfTwo(numSets_),
              "set count must be a positive power of two, got ", numSets_,
              " for ", config.name);
    NB_ASSERT(config.policy.assoc() == config.assoc,
              "cache ", config.name, " needs a policy of assoc ",
              config.assoc, ", got ", config.policy.assoc());

    tags_.resize(static_cast<std::size_t>(numSets_) * config.assoc);
    meta_.resize(numSets_);
    repl_.resize(static_cast<std::size_t>(numSets_) * words_);

    if (config_.dueling) {
        const CacheDueling &d = *config_.dueling;
        NB_ASSERT(d.state != nullptr, "dueling cache ", config.name,
                  " needs a DuelState");
        NB_ASSERT(config.policy.kind() == PolicyKind::Qlru &&
                      d.policyB.kind() == PolicyKind::Qlru &&
                      d.policyB.assoc() == config.assoc,
                  "dueling cache ", config.name,
                  " needs two QLRU policies of its assoc");
        roles_.resize(numSets_);
        for (unsigned s = 0; s < numSets_; ++s)
            roles_[s] = d.leaders.role(d.slice, s);
    }
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(bits(addr, offsetBits_ + indexBits_ - 1,
                                      offsetBits_));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> (offsetBits_ + indexBits_);
}

Addr
Cache::addrOf(unsigned set, Addr tag) const
{
    return (tag << (offsetBits_ + indexBits_)) |
           (static_cast<Addr>(set) << offsetBits_);
}

Cache::SetMeta &
Cache::liveSet(unsigned set)
{
    SetMeta &m = meta_[set];
    if (m.gen != gen_) {
        m = SetMeta{0, 0, gen_};
        // Both dueling kernels are QLRU: they share the reset state.
        config_.policy.reset(stateOf(set));
    }
    return m;
}

const Policy &
Cache::policyOf(unsigned set) const
{
    if (!config_.dueling)
        return config_.policy;
    const CacheDueling &d = *config_.dueling;
    DuelRole role = roles_[set];
    if (role == DuelRole::Follower)
        role = d.state->winner();
    return role == DuelRole::LeaderA ? config_.policy : d.policyB;
}

int
Cache::findWay(unsigned set, Addr tag, WayMask valid)
{
    ++stats_.tagScans;
    const Addr *base = &tags_[static_cast<std::size_t>(set) *
                              config_.assoc];
    for (; valid; valid &= valid - 1) {
        int w = std::countr_zero(valid);
        if (base[w] == tag)
            return w;
    }
    return -1;
}

bool
Cache::probe(Addr addr)
{
    unsigned set = setIndex(addr);
    return findWay(set, tagOf(addr), validOf(set)) >= 0;
}

void
Cache::recordHit(unsigned set, SetMeta &m, unsigned way, bool write)
{
    ++stats_.hits;
    if (write)
        m.dirty |= WayMask{1} << way;
    policyOf(set).onHit(stateOf(set), way, m.valid);
}

bool
Cache::accessIfPresent(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    int way = findWay(set, tagOf(addr), validOf(set));
    if (way < 0)
        return false;
    // A hit implies the set is live: no reset needed.
    recordHit(set, meta_[set], static_cast<unsigned>(way), write);
    return true;
}

LineAccessResult
Cache::access(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    Addr tag = tagOf(addr);
    SetMeta &m = liveSet(set);
    int way = findWay(set, tag, m.valid);
    if (way < 0)
        return fill(set, m, tag, write);
    LineAccessResult result;
    result.set = set;
    result.hit = true;
    result.way = static_cast<unsigned>(way);
    recordHit(set, m, result.way, write);
    return result;
}

LineAccessResult
Cache::fillAbsent(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    return fill(set, liveSet(set), tagOf(addr), write);
}

LineAccessResult
Cache::fill(unsigned set, SetMeta &m, Addr tag, bool write)
{
    LineAccessResult result;
    result.set = set;
    ++stats_.misses;
    std::uint64_t *st = stateOf(set);
    const Policy &policy = policyOf(set);
    unsigned victim = policy.insertWay(st, m.valid);
    NB_ASSERT(victim < config_.assoc, "policy returned bad way ", victim);
    WayMask bit = WayMask{1} << victim;
    Addr &line_tag =
        tags_[static_cast<std::size_t>(set) * config_.assoc + victim];
    if (m.valid & bit) {
        ++stats_.evictions;
        result.evicted = addrOf(set, line_tag);
        result.evictedDirty = (m.dirty & bit) != 0;
        if (result.evictedDirty)
            ++stats_.writebacks;
    }
    line_tag = tag;
    m.valid |= bit;
    m.dirty = write ? m.dirty | bit : m.dirty & ~bit;
    result.way = victim;
    // A fill is the result of a miss: leader sets vote.
    if (config_.dueling)
        config_.dueling->state->recordMiss(roles_[set]);
    // Contract: the valid mask reflects the state *after* the insertion.
    policy.onInsert(st, victim, m.valid);
    return result;
}

LineAccessResult
Cache::accessNoAlloc(Addr addr, bool write)
{
    unsigned set = setIndex(addr);
    SetMeta &m = liveSet(set);
    LineAccessResult result;
    result.set = set;
    int way = findWay(set, tagOf(addr), m.valid);
    if (way >= 0) {
        result.hit = true;
        result.way = static_cast<unsigned>(way);
        recordHit(set, m, result.way, write);
    } else {
        ++stats_.misses;
    }
    return result;
}

bool
Cache::invalidate(Addr addr)
{
    unsigned set = setIndex(addr);
    SetMeta &m = liveSet(set);
    int way = findWay(set, tagOf(addr), m.valid);
    if (way < 0)
        return false;
    WayMask bit = WayMask{1} << way;
    m.valid &= ~bit;
    m.dirty &= ~bit;
    ++stats_.invalidations;
    return true;
}

bool
Cache::setFull(unsigned set) const
{
    return setOccupancy(set) == config_.assoc;
}

unsigned
Cache::setOccupancy(unsigned set) const
{
    return static_cast<unsigned>(std::popcount(validOf(set)));
}

std::string
Cache::debugState(unsigned set) const
{
    if (meta_[set].gen == gen_) {
        return config_.policy.debugState(
            repl_.data() + static_cast<std::size_t>(set) * words_);
    }
    std::uint64_t fresh[kMaxStateWords];
    config_.policy.reset(fresh);
    return config_.policy.debugState(fresh);
}

} // namespace nb::cache
