/**
 * @file
 * Cache-hierarchy implementation.
 */

#include "hierarchy.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace nb::cache
{

std::vector<Addr>
defaultSliceHashMasks(unsigned n_slices)
{
    NB_ASSERT(isPowerOfTwo(n_slices), "slice count must be a power of two");
    // XOR-parity masks modelled on the functions reverse-engineered by
    // Maurice et al. (RAID 2015) for 2-, 4-, and 8-slice parts.
    static const std::vector<Addr> masks = {
        0x1B5F575440ULL, // o0
        0x2EB5FAA880ULL, // o1
        0x3CCCC93100ULL, // o2
    };
    unsigned n_bits = floorLog2(n_slices);
    NB_ASSERT(n_bits <= masks.size(), "too many slices for default hash");
    return {masks.begin(), masks.begin() + n_bits};
}

Hierarchy::Hierarchy(const HierarchyConfig &config, Rng *rng)
    : config_(config), rng_(rng), cboxStats_(config.l3Slices),
      pfControl_(config.prefetcherControlInit)
{
    NB_ASSERT(rng != nullptr, "Hierarchy requires an RNG");
    NB_ASSERT(config.l3Slices > 0 && isPowerOfTwo(config.l3Slices),
              "slice count must be a positive power of two");

    if (config_.sliceHashMasks.empty() && config_.l3Slices > 1)
        config_.sliceHashMasks = defaultSliceHashMasks(config_.l3Slices);

    CacheConfig l1c;
    l1c.name = "L1D";
    l1c.sizeBytes = config.l1.sizeBytes;
    l1c.assoc = config.l1.assoc;
    l1c.policy = makePolicy(config.l1.policy, config.l1.assoc, rng_);
    l1_ = std::make_unique<Cache>(l1c);

    CacheConfig l2c;
    l2c.name = "L2";
    l2c.sizeBytes = config.l2.sizeBytes;
    l2c.assoc = config.l2.assoc;
    l2c.policy = makePolicy(config.l2.policy, config.l2.assoc, rng_);
    l2_ = std::make_unique<Cache>(l2c);

    NB_ASSERT(config.l3.sizeBytes % config.l3Slices == 0,
              "L3 size must divide evenly across slices");
    CacheConfig l3c;
    l3c.sizeBytes = config.l3.sizeBytes / config.l3Slices;
    l3c.assoc = config.l3.assoc;
    if (config_.l3Dueling.empty()) {
        l3c.policy = makePolicy(config.l3.policy, config.l3.assoc, rng_);
    } else {
        const DuelingConfig &dueling = config_.l3Dueling;
        auto spec_a = QlruSpec::parse(dueling.policyA);
        auto spec_b = QlruSpec::parse(dueling.policyB);
        NB_ASSERT(spec_a && spec_b,
                  "adaptive L3 requires QLRU policy names, got ",
                  dueling.policyA, " / ", dueling.policyB);
        l3c.policy = Policy(*spec_a, config.l3.assoc, rng_);
        l3c.dueling = CacheDueling{Policy(*spec_b, config.l3.assoc, rng_),
                                   dueling, 0, &duel_};
    }
    l3_.reserve(config.l3Slices);
    for (unsigned s = 0; s < config.l3Slices; ++s) {
        l3c.name = "L3#" + std::to_string(s);
        if (l3c.dueling)
            l3c.dueling->slice = s;
        l3_.push_back(std::make_unique<Cache>(l3c));
    }
}

unsigned
Hierarchy::sliceOf(Addr paddr) const
{
    unsigned slice = 0;
    for (unsigned i = 0; i < config_.sliceHashMasks.size(); ++i)
        slice |= parity(paddr & config_.sliceHashMasks[i]) << i;
    return slice;
}

void
Hierarchy::setPrefetcherControl(std::uint64_t value)
{
    if (!config_.prefetcherDisableSupported) {
        // Writes are accepted but ignored, like on the AMD parts the
        // paper could not control (§VI-D).
        return;
    }
    pfControl_ = value & pf::kDisableAll;
}

void
Hierarchy::fillL1(Addr paddr, bool write)
{
    // L1 evictions: dirty lines are written back into L2 (no replacement
    // update -- writebacks do not re-reference the line).
    auto result = l1_->access(paddr, write);
    (void)result;
}

void
Hierarchy::fillL2(Addr paddr, bool write)
{
    auto result = l2_->access(paddr, write);
    (void)result;
}

void
Hierarchy::fillL3(Addr paddr, bool write, unsigned slice)
{
    auto result = l3_[slice]->access(paddr, write);
    if (result.evicted) {
        // Inclusive L3: evicting a line invalidates it in the core
        // caches as well.
        backInvalidate(*result.evicted);
    }
}

void
Hierarchy::backInvalidate(Addr evicted_line)
{
    l1_->invalidate(evicted_line);
    l2_->invalidate(evicted_line);
}

AccessResult
Hierarchy::access(Addr paddr, AccessType type)
{
    AccessResult res;
    bool write = type == AccessType::Store;
    bool is_sw_prefetch = type == AccessType::PrefetchT0 ||
                          type == AccessType::PrefetchNTA;

    // L1 lookup.
    if (l1_->accessIfPresent(paddr, write)) {
        res.level = HitLevel::L1;
        res.latency = config_.l1Latency;
        if (!inPrefetch_)
            runL1Prefetchers(paddr, false);
        return res;
    }

    // L2 lookup.
    if (l2_->accessIfPresent(paddr, false)) {
        fillL1(paddr, write);
        res.level = HitLevel::L2;
        res.latency = config_.l2Latency;
        if (!inPrefetch_) {
            runL1Prefetchers(paddr, true);
            runL2Prefetchers(paddr);
        }
        return res;
    }

    // L3 lookup (one slice, selected by the hash).
    unsigned slice = sliceOf(paddr);
    res.slice = slice;
    res.reachedL3 = true;
    ++cboxStats_[slice].lookups;
    if (l3_[slice]->accessIfPresent(paddr, false)) {
        ++cboxStats_[slice].hits;
        fillL2(paddr, false);
        fillL1(paddr, write);
        res.level = HitLevel::L3;
        res.latency = config_.l3Latency;
        if (!inPrefetch_) {
            runL1Prefetchers(paddr, true);
            runL2Prefetchers(paddr);
        }
        return res;
    }

    // Memory access; NTA prefetches bypass the L3 fill.
    ++cboxStats_[slice].misses;
    res.level = HitLevel::Memory;
    res.latency = config_.memLatency;
    if (type != AccessType::PrefetchNTA)
        fillL3(paddr, false, slice);
    fillL2(paddr, false);
    fillL1(paddr, write || is_sw_prefetch ? write : false);
    if (!inPrefetch_) {
        runL1Prefetchers(paddr, true);
        runL2Prefetchers(paddr);
    }
    return res;
}

void
Hierarchy::prefetchIntoL2(Addr paddr)
{
    inPrefetch_ = true;
    if (!l2_->probe(paddr)) {
        unsigned slice = sliceOf(paddr);
        ++cboxStats_[slice].lookups;
        if (l3_[slice]->accessIfPresent(paddr, false)) {
            ++cboxStats_[slice].hits;
        } else {
            ++cboxStats_[slice].misses;
            fillL3(paddr, false, slice);
        }
        fillL2(paddr, false);
    }
    inPrefetch_ = false;
}

void
Hierarchy::prefetchIntoL1(Addr paddr)
{
    inPrefetch_ = true;
    if (!l1_->probe(paddr)) {
        if (!l2_->accessIfPresent(paddr, false)) {
            unsigned slice = sliceOf(paddr);
            ++cboxStats_[slice].lookups;
            if (l3_[slice]->accessIfPresent(paddr, false)) {
                ++cboxStats_[slice].hits;
            } else {
                ++cboxStats_[slice].misses;
                fillL3(paddr, false, slice);
            }
            fillL2(paddr, false);
        }
        fillL1(paddr, false);
    }
    inPrefetch_ = false;
}

void
Hierarchy::runL1Prefetchers(Addr paddr, bool l1_miss)
{
    // DCU next-line prefetcher: on an L1 miss, fetch the next sequential
    // line (if it stays within the page).
    if ((pfControl_ & pf::kDisableDcu) == 0 && l1_miss) {
        Addr line = alignDown(paddr, kCacheLineSize);
        Addr next = line + kCacheLineSize;
        if (next / kPageSize == line / kPageSize)
            prefetchIntoL1(next);
    }
}

void
Hierarchy::runL2Prefetchers(Addr paddr)
{
    Addr line = alignDown(paddr, kCacheLineSize);

    // Adjacent-line prefetcher: fetch the other line of the 128-byte
    // aligned pair.
    if ((pfControl_ & pf::kDisableL2Adjacent) == 0)
        prefetchIntoL2(line ^ kCacheLineSize);

    // Streamer: detect ascending/descending line streams within a page
    // and run ahead by one line.
    if ((pfControl_ & pf::kDisableL2Streamer) == 0) {
        Addr page = line / kPageSize;
        int line_in_page = static_cast<int>((line % kPageSize) /
                                            kCacheLineSize);
        auto &entry = streamTable_[page];
        if (entry.lastLine >= 0) {
            int delta = line_in_page - entry.lastLine;
            if (delta == entry.direction && delta != 0) {
                ++entry.confidence;
            } else {
                entry.direction = delta;
                entry.confidence = delta == 1 || delta == -1 ? 1 : 0;
            }
            if (entry.confidence >= 1 &&
                (entry.direction == 1 || entry.direction == -1)) {
                int next = line_in_page + entry.direction;
                if (next >= 0 &&
                    next < static_cast<int>(kPageSize / kCacheLineSize)) {
                    prefetchIntoL2(page * kPageSize +
                                   static_cast<Addr>(next) *
                                       kCacheLineSize);
                }
            }
        }
        entry.lastLine = line_in_page;
        // Bound the table size (simple generational clear).
        if (streamTable_.size() > 64)
            streamTable_.clear();
    }
}

void
Hierarchy::wbinvd()
{
    l1_->flushAll();
    l2_->flushAll();
    for (auto &slice : l3_)
        slice->flushAll();
    streamTable_.clear();
}

void
Hierarchy::clflush(Addr paddr)
{
    l1_->invalidate(paddr);
    l2_->invalidate(paddr);
    l3_[sliceOf(paddr)]->invalidate(paddr);
}

void
Hierarchy::clearStats()
{
    l1_->clearStats();
    l2_->clearStats();
    for (auto &slice : l3_)
        slice->clearStats();
    for (auto &cb : cboxStats_)
        cb = CboxStats{};
}

} // namespace nb::cache
