/**
 * @file
 * Tests for the cache structures: geometry, the hierarchy (inclusive L3
 * with back-invalidation), slice hashing, prefetchers, uncore counters,
 * lazy flush generations, permutation policies, and set dueling.
 */

#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/permutation.hh"
#include "cachetools/policy_sim.hh"
#include "common/rng.hh"
#include "uarch/uarch.hh"

namespace nb::cache
{
namespace
{

Rng &
testRng()
{
    static Rng rng(31337);
    return rng;
}

CacheConfig
smallCache(const std::string &policy = "LRU", Addr size = 4096,
           unsigned assoc = 4)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    cfg.policy = makePolicy(policy, assoc, &testRng());
    return cfg;
}

TEST(Cache, Geometry)
{
    Cache c(smallCache()); // 4 KB, 4-way, 64 B lines -> 16 sets
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.setIndex(0x0), 0u);
    EXPECT_EQ(c.setIndex(0x40), 1u);
    EXPECT_EQ(c.setIndex(0x400), 0u); // wraps at 16 sets
    EXPECT_EQ(c.tagOf(0x400), 1u);
    EXPECT_EQ(c.addrOf(c.setIndex(0x7C0), c.tagOf(0x7C0)), 0x7C0u);
}

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x1000));
    auto r = c.access(0x1000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentOffsets)
{
    Cache c(smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.probe(0x1040));
}

TEST(Cache, EvictionReportsVictim)
{
    Cache c(smallCache("LRU"));
    // Fill set 0 (stride = 16 sets * 64 B).
    for (Addr i = 0; i < 4; ++i)
        c.access(i * 0x400, false);
    auto r = c.access(4 * 0x400, false);
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(*r.evicted, 0u); // LRU victim is the first line
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionIsWriteback)
{
    Cache c(smallCache("LRU"));
    c.access(0x0, true); // dirty
    for (Addr i = 1; i <= 4; ++i)
        c.access(i * 0x400, false);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, InvalidateAndFlush)
{
    Cache c(smallCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x2000, false);
    c.flushAll();
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.setOccupancy(c.setIndex(0x2000)), 0u);
}

TEST(Cache, OccupancyTracking)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.setFull(0));
    for (Addr i = 0; i < 4; ++i)
        c.access(i * 0x400, false);
    EXPECT_TRUE(c.setFull(0));
    EXPECT_EQ(c.setOccupancy(0), 4u);
}

// ------------------------------------------------ flush generations --

/** Builds a cache config on a given RNG and PSEL counter, so that a
 *  flushed cache can be compared with a newly built twin whose RNG and
 *  PSEL are copies of its own. */
using CacheMaker = std::function<CacheConfig(Rng *, DuelState *)>;

/** What an operation reveals: hit, way, evicted line (or ~0), dirty. */
using Outcome = std::tuple<bool, unsigned, Addr, bool>;

/** Apply operation @p op (0-59 access, 60-79 no-allocate access, else
 *  invalidate) to @p c. */
Outcome
applyOp(Cache &c, unsigned op, Addr addr, bool write)
{
    if (op < 60) {
        auto r = c.access(addr, write);
        return {r.hit, r.way, r.evicted.value_or(~Addr{0}),
                r.evictedDirty};
    }
    if (op < 80) {
        auto r = c.accessNoAlloc(addr, write);
        return {r.hit, r.way, ~Addr{0}, false};
    }
    return {c.invalidate(addr), 0, ~Addr{0}, false};
}

/**
 * Seeded interleaving of access / accessNoAlloc / invalidate / flushAll.
 * After each flush, every set must read empty with freshly reset policy
 * state, and the following operations must give the same trace as a
 * newly built cache with an equal RNG (and PSEL) state.
 */
void
checkLazyFlush(const CacheMaker &make, const std::string &label,
               unsigned rounds = 8)
{
    Rng rng(7);
    DuelState duel(10);
    Cache live(make(&rng, &duel));
    const unsigned sets = live.numSets();
    const Addr blocks = static_cast<Addr>(sets) * (live.assoc() + 3);
    Rng ops(13);
    auto next_addr = [&] { return ops.nextBelow(blocks) * live.lineSize(); };

    for (unsigned round = 0; round < rounds; ++round) {
        for (int i = 0; i < 150; ++i) {
            auto op = static_cast<unsigned>(ops.nextBelow(100));
            Addr addr = next_addr();
            if (op >= 97)
                live.flushAll();
            else
                applyOp(live, op, addr, ops.oneIn(3));
        }
        live.flushAll();

        Rng twin_rng = rng;
        DuelState twin_duel = duel;
        Cache twin(make(&twin_rng, &twin_duel));
        for (unsigned s = 0; s < sets; ++s) {
            ASSERT_EQ(live.setOccupancy(s), 0u) << label << " set " << s;
            ASSERT_FALSE(live.setFull(s)) << label << " set " << s;
            ASSERT_EQ(live.debugState(s), twin.debugState(s))
                << label << " set " << s;
        }
        for (Addr b = 0; b < blocks; ++b)
            ASSERT_FALSE(live.probe(b * live.lineSize())) << label;

        for (int i = 0; i < 100; ++i) {
            auto op = static_cast<unsigned>(ops.nextBelow(100));
            Addr addr = next_addr();
            bool write = ops.oneIn(3);
            ASSERT_EQ(applyOp(live, op, addr, write),
                      applyOp(twin, op, addr, write))
                << label << " round " << round << " step " << i;
        }
        for (unsigned s = 0; s < sets; ++s) {
            ASSERT_EQ(live.setOccupancy(s), twin.setOccupancy(s)) << label;
            ASSERT_EQ(live.debugState(s), twin.debugState(s)) << label;
        }
        ASSERT_EQ(Rng(rng).next(), Rng(twin_rng).next()) << label;
        ASSERT_EQ(duel.psel(), twin_duel.psel()) << label;
    }
}

TEST(FlushGeneration, EveryPolicyReadsEmptyAndReplaysLikeANewCache)
{
    std::vector<std::string> names = {
        "LRU",  "FIFO", "PLRU", "MRU", "MRU_SBV", "MRU*", "RANDOM",
        "QLRU_H11_MR161_R1_U2", "QLRU_H11_MR161_R0_U0",
        "QLRU_H00_MR22_R0_U0_UMO"};
    for (const auto &spec : allQlruSpecs())
        names.push_back(spec.name());
    for (const auto &name : names) {
        for (unsigned assoc : {4u, 16u}) {
            checkLazyFlush(
                [&](Rng *rng, DuelState *) {
                    CacheConfig cfg;
                    cfg.sizeBytes = 8 * assoc * 64;
                    cfg.assoc = assoc;
                    cfg.policy = makePolicy(name, assoc, rng);
                    return cfg;
                },
                name + "/" + std::to_string(assoc), 3);
        }
    }
}

TEST(FlushGeneration, PermutationPolicyReplaysLikeANewCache)
{
    checkLazyFlush(
        [](Rng *, DuelState *) {
            CacheConfig cfg;
            cfg.sizeBytes = 8 * 4 * 64;
            cfg.assoc = 4;
            cfg.policy = Policy(PermutationSpec::fifo(4));
            return cfg;
        },
        "PERMUTATION");
}

TEST(FlushGeneration, AdaptiveDuelingL3ReplaysLikeANewCache)
{
    // The Ivy Bridge duel (M1 vs MR161), on a 16-set, 12-way slice with
    // two leader sets per policy. PSEL survives flushes; the twin gets a
    // copy of it.
    const auto &l3 = uarch::getMicroArch("IvyBridge").cacheConfig;
    auto spec_a = QlruSpec::parse(l3.l3Dueling.policyA).value();
    auto spec_b = QlruSpec::parse(l3.l3Dueling.policyB).value();
    checkLazyFlush(
        [&](Rng *rng, DuelState *duel) {
            CacheConfig cfg;
            cfg.sizeBytes = 16 * 12 * 64;
            cfg.assoc = 12;
            cfg.policy = Policy(spec_a, 12, rng);
            DuelingConfig leaders;
            leaders.leaders = {{-1, 2, 3, DuelRole::LeaderA},
                               {-1, 9, 10, DuelRole::LeaderB}};
            cfg.dueling = CacheDueling{Policy(spec_b, 12, rng), leaders,
                                       0, duel};
            return cfg;
        },
        "ADAPTIVE", 24);
}

TEST(FlushGeneration, HierarchyWbinvdEmptiesEveryLevel)
{
    Rng rng(1);
    Hierarchy h(uarch::getMicroArch("Skylake").cacheConfig, &rng);
    for (Addr a = 0; a < 64 * 1024; a += 64)
        h.access(a, AccessType::Store);
    h.wbinvd();
    for (unsigned s = 0; s < h.l1().numSets(); ++s)
        EXPECT_EQ(h.l1().setOccupancy(s), 0u);
    for (unsigned s = 0; s < h.l2().numSets(); ++s)
        EXPECT_EQ(h.l2().setOccupancy(s), 0u);
    for (unsigned i = 0; i < h.numSlices(); ++i) {
        for (unsigned s = 0; s < h.l3Slice(i).numSets(); ++s)
            EXPECT_EQ(h.l3Slice(i).setOccupancy(s), 0u);
    }
    EXPECT_EQ(h.access(0x40, AccessType::Load).level, HitLevel::Memory);
}

// --------------------------------------------------------- hierarchy --

HierarchyConfig
skylakeConfig()
{
    return uarch::getMicroArch("Skylake").cacheConfig;
}

TEST(Hierarchy, MissFillsAllLevels)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    auto r = h.access(0x100000, AccessType::Load);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_TRUE(h.l1().probe(0x100000));
    EXPECT_TRUE(h.l2().probe(0x100000));
    EXPECT_TRUE(h.l3Slice(h.sliceOf(0x100000)).probe(0x100000));
    EXPECT_EQ(h.access(0x100000, AccessType::Load).level, HitLevel::L1);
}

TEST(Hierarchy, LatenciesFollowLevels)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    Hierarchy h(cfg, &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.memLatency);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.l1Latency);
    h.l1().invalidate(0x40000);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.l2Latency);
    h.l1().invalidate(0x40000);
    h.l2().invalidate(0x40000);
    EXPECT_EQ(h.access(0x40000, AccessType::Load).latency,
              cfg.l3Latency);
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    Hierarchy h(cfg, &rng);
    h.setPrefetcherControl(pf::kDisableAll);

    // Fill one L3 set (slice of `base`) beyond its associativity and
    // check that L3 evictions remove lines from L1/L2 as well.
    Addr stride = static_cast<Addr>(h.l3Slice(0).numSets()) *
                  kCacheLineSize;
    unsigned slice0 = h.sliceOf(0);
    std::vector<Addr> lines;
    Addr a = 0;
    while (lines.size() < cfg.l3.assoc + 4) {
        if (h.sliceOf(a) == slice0)
            lines.push_back(a);
        a += stride;
    }
    for (Addr line : lines)
        h.access(line, AccessType::Load);
    // At least some early lines were evicted from the L3...
    unsigned in_l3 = 0;
    for (Addr line : lines)
        in_l3 += h.l3Slice(slice0).probe(line) ? 1 : 0;
    EXPECT_LE(in_l3, cfg.l3.assoc);
    // ...and none of the evicted ones may remain in L1 or L2.
    for (Addr line : lines) {
        if (!h.l3Slice(slice0).probe(line)) {
            EXPECT_FALSE(h.l1().probe(line));
            EXPECT_FALSE(h.l2().probe(line));
        }
    }
}

TEST(Hierarchy, WbinvdFlushesEverything)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.access(0x5000, AccessType::Store);
    h.wbinvd();
    EXPECT_FALSE(h.l1().probe(0x5000));
    EXPECT_FALSE(h.l2().probe(0x5000));
    EXPECT_EQ(h.access(0x5000, AccessType::Load).level,
              HitLevel::Memory);
}

TEST(Hierarchy, ClflushInvalidatesOneLine)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    h.access(0x6000, AccessType::Load);
    h.access(0x9000, AccessType::Load);
    h.clflush(0x6000);
    EXPECT_EQ(h.access(0x6000, AccessType::Load).level,
              HitLevel::Memory);
    EXPECT_EQ(h.access(0x9000, AccessType::Load).level, HitLevel::L1);
}

TEST(Hierarchy, SliceHashIsBalanced)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng); // 2 slices
    std::vector<unsigned> counts(h.numSlices(), 0);
    for (Addr a = 0; a < (1 << 22); a += kCacheLineSize)
        ++counts[h.sliceOf(a)];
    double total = (1 << 22) / kCacheLineSize;
    for (unsigned c : counts)
        EXPECT_NEAR(c, total / h.numSlices(), total * 0.02);
}

TEST(Hierarchy, SliceHashUsesHighBits)
{
    // §VI-D: the slice is NOT simply determined by low set-index bits.
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    bool high_bit_changes_slice = false;
    for (Addr a = 0; a < 64 && !high_bit_changes_slice; ++a) {
        Addr base = a * 0x20000;
        high_bit_changes_slice =
            h.sliceOf(base) != h.sliceOf(base ^ (1ULL << 30));
    }
    EXPECT_TRUE(high_bit_changes_slice);
}

TEST(Hierarchy, UncoreCountersPerSlice)
{
    Rng rng(1);
    Hierarchy h(skylakeConfig(), &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    Addr addr = 0x123440;
    unsigned slice = h.sliceOf(addr);
    auto lookups_before = h.cboxStats(slice).lookups;
    h.access(addr, AccessType::Load); // miss -> reaches L3
    EXPECT_EQ(h.cboxStats(slice).lookups, lookups_before + 1);
    EXPECT_EQ(h.cboxStats(slice).misses, 1u);
    // L1 hit: no uncore traffic.
    h.access(addr, AccessType::Load);
    EXPECT_EQ(h.cboxStats(slice).lookups, lookups_before + 1);
}

TEST(Hierarchy, StreamerPrefetchesNextLine)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    cfg.prefetcherControlInit = 0; // all prefetchers on
    Hierarchy h(cfg, &rng);
    // A 3-line ascending stream within one page triggers the streamer.
    h.access(0x10000, AccessType::Load);
    h.access(0x10040, AccessType::Load);
    h.access(0x10080, AccessType::Load);
    EXPECT_TRUE(h.l2().probe(0x100C0));
}

TEST(Hierarchy, PrefetcherMsrDisables)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    cfg.prefetcherControlInit = pf::kDisableAll;
    Hierarchy h(cfg, &rng);
    h.access(0x10000, AccessType::Load);
    h.access(0x10040, AccessType::Load);
    h.access(0x10080, AccessType::Load);
    EXPECT_FALSE(h.l2().probe(0x100C0));
    EXPECT_FALSE(h.l2().probe(0x10100));
}

TEST(Hierarchy, AdjacentLinePrefetcher)
{
    Rng rng(1);
    auto cfg = skylakeConfig();
    cfg.prefetcherControlInit =
        pf::kDisableL2Streamer | pf::kDisableDcu | pf::kDisableDcuIp;
    Hierarchy h(cfg, &rng);
    h.access(0x10040, AccessType::Load);
    // Buddy of 0x10040 within the 128-byte pair is 0x10000.
    EXPECT_TRUE(h.l2().probe(0x10000));
}

TEST(Hierarchy, AmdIgnoresPrefetcherWrites)
{
    // §VI-D: the paper could not disable prefetching on AMD.
    Rng rng(1);
    Hierarchy h(uarch::getMicroArch("Zen").cacheConfig, &rng);
    EXPECT_FALSE(h.prefetcherDisableSupported());
    h.setPrefetcherControl(pf::kDisableAll);
    EXPECT_EQ(h.prefetcherControl(), 0u);
}

// ------------------------------------------------------ permutation --

TEST(Permutation, LruSpecMatchesLruPolicy)
{
    Rng rng(1);
    auto spec = PermutationSpec::lru(4);
    ASSERT_TRUE(spec.isValid());
    cachetools::PolicySim as_perm{Policy(spec)};
    cachetools::PolicySim real(makePolicy("LRU", 4, &rng));
    Rng seq_rng(2);
    for (int i = 0; i < 2000; ++i) {
        int b = static_cast<int>(seq_rng.nextBelow(7));
        EXPECT_EQ(as_perm.access(b), real.access(b)) << "step " << i;
    }
}

TEST(Permutation, FifoSpecMatchesFifoPolicy)
{
    Rng rng(1);
    auto spec = PermutationSpec::fifo(4);
    cachetools::PolicySim as_perm{Policy(spec)};
    cachetools::PolicySim real(makePolicy("FIFO", 4, &rng));
    Rng seq_rng(3);
    for (int i = 0; i < 2000; ++i) {
        int b = static_cast<int>(seq_rng.nextBelow(7));
        EXPECT_EQ(as_perm.access(b), real.access(b)) << "step " << i;
    }
}

TEST(Permutation, InvalidSpecRejected)
{
    PermutationSpec spec;
    spec.hitPerms = {{0, 1}, {1, 1}}; // second entry not a permutation
    spec.missPerm = {0, 1};
    EXPECT_FALSE(spec.isValid());
}

// ---------------------------------------------------------- dueling --

TEST(Dueling, RoleLookup)
{
    DuelingConfig cfg;
    cfg.leaders = {
        {-1, 512, 575, DuelRole::LeaderA},
        {0, 768, 831, DuelRole::LeaderB},
    };
    EXPECT_EQ(cfg.role(3, 520), DuelRole::LeaderA);
    EXPECT_EQ(cfg.role(0, 800), DuelRole::LeaderB);
    EXPECT_EQ(cfg.role(1, 800), DuelRole::Follower);
    EXPECT_EQ(cfg.role(0, 100), DuelRole::Follower);
}

TEST(Dueling, PselSaturates)
{
    DuelState duel(10);
    EXPECT_EQ(duel.psel(), 512u);
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA);
    EXPECT_EQ(duel.psel(), 1023u);
    EXPECT_EQ(duel.winner(), DuelRole::LeaderB);
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderB);
    EXPECT_EQ(duel.psel(), 0u);
    EXPECT_EQ(duel.winner(), DuelRole::LeaderA);
}

/** A 4-set, 4-way cache dueling @p spec_a (leader set 0) against
 *  @p spec_b (leader set 1); sets 2 and 3 follow the PSEL winner. */
CacheConfig
duelingCache(const QlruSpec &spec_a, const QlruSpec &spec_b,
             DuelState *duel, Rng *rng)
{
    CacheConfig cfg;
    cfg.name = "duel";
    cfg.sizeBytes = 4 * 4 * 64;
    cfg.assoc = 4;
    cfg.policy = Policy(spec_a, 4, rng);
    DuelingConfig leaders;
    leaders.leaders = {{-1, 0, 0, DuelRole::LeaderA},
                       {-1, 1, 1, DuelRole::LeaderB}};
    cfg.dueling = CacheDueling{Policy(spec_b, 4, rng), leaders, 0, duel};
    return cfg;
}

/** Address of block @p k of set @p set in duelingCache(). */
Addr
duelLine(unsigned set, unsigned k)
{
    return (static_cast<Addr>(k) * 4 + set) * 64;
}

TEST(Dueling, FollowerSwitchesInsertionPolicy)
{
    Rng rng(1);
    DuelState duel(10);
    auto spec_a = QlruSpec::parse("QLRU_H11_M1_R1_U2").value();
    auto spec_b = QlruSpec::parse("QLRU_H11_M3_R1_U2").value();
    Cache c(duelingCache(spec_a, spec_b, &duel, &rng));

    // Fill follower set 2 while B wins: every line inserted at age 3.
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA); // B wins
    for (unsigned k = 0; k < 4; ++k)
        c.access(duelLine(2, k), false);
    EXPECT_EQ(c.debugState(2), "3333");

    // With A winning, insertions use age 1; with B winning, age 3.
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderB); // A wins
    EXPECT_EQ(c.access(duelLine(2, 4), false).way, 0u);
    EXPECT_EQ(c.debugState(2)[0], '1');
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA); // B wins
    EXPECT_EQ(c.access(duelLine(2, 5), false).way, 1u);
    EXPECT_EQ(c.debugState(2)[1], '3');
}

TEST(Dueling, LeaderIgnoresPsel)
{
    Rng rng(1);
    DuelState duel(10);
    auto spec_a = QlruSpec::parse("QLRU_H11_M1_R1_U2").value();
    auto spec_b = QlruSpec::parse("QLRU_H11_M3_R1_U2").value();
    Cache c(duelingCache(spec_a, spec_b, &duel, &rng));
    for (int i = 0; i < 2000; ++i)
        duel.recordMiss(DuelRole::LeaderA); // B wins the duel
    // Leader set 0 still follows spec A, block for block.
    cachetools::PolicySim as_a(Policy(spec_a, 4, &rng));
    cachetools::PolicySim as_b(Policy(spec_b, 4, &rng));
    for (unsigned k = 0; k < 5; ++k) {
        c.access(duelLine(0, k), false);
        as_a.access(static_cast<int>(k));
        as_b.access(static_cast<int>(k));
    }
    EXPECT_EQ(c.debugState(0), as_a.debugState());
    EXPECT_NE(c.debugState(0), as_b.debugState());
}

TEST(Dueling, LeaderMissesMoveCounter)
{
    Rng rng(1);
    DuelState duel(10);
    auto spec = QlruSpec::parse("QLRU_H11_M1_R1_U2").value();
    Cache c(duelingCache(spec, spec, &duel, &rng));
    unsigned before = duel.psel();
    c.access(duelLine(0, 0), false); // miss in a LeaderA set
    EXPECT_EQ(duel.psel(), before + 1);
    c.access(duelLine(0, 0), false); // hit: no vote
    c.access(duelLine(2, 0), false); // follower miss: no vote
    c.accessNoAlloc(duelLine(0, 1), false); // no fill: no vote
    EXPECT_EQ(duel.psel(), before + 1);
    c.access(duelLine(1, 0), false); // miss in a LeaderB set
    EXPECT_EQ(duel.psel(), before);
}

TEST(Dueling, FlushKeepsPsel)
{
    Rng rng(1);
    DuelState duel(10);
    auto spec = QlruSpec::parse("QLRU_H11_M1_R1_U2").value();
    Cache c(duelingCache(spec, spec, &duel, &rng));
    for (unsigned k = 0; k < 3; ++k)
        c.access(duelLine(0, k), false);
    unsigned psel = duel.psel();
    c.flushAll();
    EXPECT_EQ(duel.psel(), psel);
    EXPECT_EQ(c.setOccupancy(0), 0u);
}

// -------------------------------------------- Table I configurations --

class TableOneGeometry : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TableOneGeometry, ConstructsAndServesAccesses)
{
    const auto &ua = uarch::getMicroArch(GetParam());
    Rng rng(1);
    Hierarchy h(ua.cacheConfig, &rng);
    h.setPrefetcherControl(pf::kDisableAll);
    // 2048 sets per slice on every sliced part.
    if (ua.cacheConfig.l3Slices > 1) {
        EXPECT_EQ(h.l3Slice(0).numSets(), 2048u);
    }
    // L1 geometry per Table I.
    EXPECT_EQ(h.l1().numSets(), 64u);
    EXPECT_EQ(h.l1().assoc(), ua.cacheConfig.l1.assoc);
    // Basic access sanity.
    auto r = h.access(0x77777740, AccessType::Load);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_EQ(h.access(0x77777740, AccessType::Load).level,
              HitLevel::L1);
}

INSTANTIATE_TEST_SUITE_P(
    AllTableOneCpus, TableOneGeometry,
    ::testing::ValuesIn(uarch::tableOneMicroArchNames()));

} // namespace
} // namespace nb::cache
