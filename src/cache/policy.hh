/**
 * @file
 * Cache replacement policies (paper §VI-B) as flat-state kernels.
 *
 * A Policy is a small value: which kernel (an enum), the associativity,
 * and the kernel's parameters. It holds no per-set state. Each cache set
 * keeps its replacement state in stateWords() 64-bit words owned by the
 * caller, and its occupancy as one WayMask word. A Cache keeps the words
 * of all its sets in one flat array; PolicySim keeps one set's. The
 * Policy methods are the only statement of each policy's semantics. The
 * modelled policies are exactly those the paper discusses:
 *
 *  - LRU, FIFO, tree-based PLRU, Random (§VI-B1)
 *  - MRU (a.k.a. bit-PLRU / PLRUm / NRU), including the Sandy Bridge
 *    variant that sets all status bits when the cache is not yet full
 *    (§VI-B2, §VI-D)
 *  - the full QLRU family parameterized by hit-promotion function Hxy,
 *    insertion age Mx / MRpx, insertion/replacement location R0-R2, age
 *    update U0-U3, and the UMO ("update on miss only") flag (§VI-B2)
 *  - explicit permutation policies (§VI-B1; see permutation.hh)
 *
 * State layout per set, by kernel:
 *  - LRU, FIFO: one byte per way, its recency rank (0 = next victim);
 *  - PLRU: the assoc-1 tree bits in one word, heap order, bit 0 = root;
 *  - MRU, MRU_SBV: one status bit per way in one word;
 *  - QLRU: a 2-bit age per way, 32 ways per word;
 *  - permutation: one byte per position, the way at that position;
 *  - RANDOM: no state.
 */

#ifndef NB_CACHE_POLICY_HH
#define NB_CACHE_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace nb::cache
{

/** Occupancy of one set: bit w is set iff way w holds a valid line. */
using WayMask = std::uint64_t;

/** Largest associativity a WayMask can describe. */
inline constexpr unsigned kMaxAssoc = 64;

/** Largest stateWords() of any kernel (byte-per-way state at kMaxAssoc). */
inline constexpr unsigned kMaxStateWords = kMaxAssoc / 8;

struct PermutationSpec;

/** Parameters of a QLRU variant (§VI-B2). */
struct QlruSpec
{
    /** Hit promotion Hxy: age 3 -> hitX, age 2 -> hitY, else -> 0. */
    unsigned hitX = 1;      ///< x in {0, 1, 2}
    unsigned hitY = 1;      ///< y in {0, 1}
    /** Insertion age (Mx); with probDenom > 1, used with probability
     *  1/probDenom and age 3 otherwise (MRpx). */
    unsigned insertAge = 1; ///< x in {0, 1, 2, 3}
    unsigned probDenom = 1; ///< p; 1 means deterministic Mx
    /** Replacement/insertion location variant: 0, 1, or 2. */
    unsigned rVariant = 0;
    /** Age-update function: 0..3. */
    unsigned uVariant = 0;
    /** Update on miss only. */
    bool umo = false;

    bool operator==(const QlruSpec &) const = default;

    /** Paper-style name, e.g. "QLRU_H11_M1_R0_U0" or
     *  "QLRU_H11_MR161_R1_U2_UMO". */
    std::string name() const;

    /** Parse a paper-style name; nullopt if not a QLRU name. */
    static std::optional<QlruSpec> parse(const std::string &name);

    /** True if the parameter combination is meaningful (§VI-B2: e.g. R0
     *  cannot be combined with U2/U3). */
    bool isValid() const;
};

/** The replacement kernels. */
enum class PolicyKind : std::uint8_t
{
    Lru,
    Fifo,
    Plru,
    Random,
    Mru,
    MruSbv,
    Qlru,
    Permutation,
};

/**
 * One replacement policy, applied to per-set state the caller owns.
 *
 * Every operation takes the set's state words and its valid mask. A miss
 * calls insertWay() to choose the way (an empty one while the set is not
 * full, else the victim), then onInsert() with the mask as it is after
 * the fill. A hit calls onHit(). Invalidating a line only clears its
 * valid bit; no kernel reacts to it.
 */
class Policy
{
  public:
    /** An unset policy (assoc 0); a Cache rejects it. */
    Policy() = default;
    /** A kernel without parameters (not Qlru or Permutation). */
    Policy(PolicyKind kind, unsigned assoc, Rng *rng = nullptr);
    /** A QLRU variant; probabilistic insertion draws from @p rng. */
    Policy(const QlruSpec &spec, unsigned assoc, Rng *rng);
    /** A permutation policy. */
    explicit Policy(PermutationSpec spec);

    PolicyKind kind() const { return kind_; }
    unsigned assoc() const { return assoc_; }
    /** Number of 64-bit state words per set. */
    unsigned stateWords() const { return words_; }

    /** Policy name using the paper's naming scheme. */
    std::string name() const;

    /** Put a set's state in its after-WBINVD form. */
    void reset(std::uint64_t *st) const;

    /** Way a new block goes into on a miss; may draw from the RNG. */
    unsigned insertWay(std::uint64_t *st, WayMask valid) const;

    /** A new block was put into @p way; may draw from the RNG. */
    void onInsert(std::uint64_t *st, unsigned way, WayMask valid) const;

    /** The block in @p way was accessed and hit. */
    void onHit(std::uint64_t *st, unsigned way, WayMask valid) const;

    /** A set's state rendered for tests and debugging. */
    std::string debugState(const std::uint64_t *st) const;

  private:
    PolicyKind kind_ = PolicyKind::Lru;
    unsigned assoc_ = 0;
    unsigned words_ = 0;
    QlruSpec qlru_;
    Rng *rng_ = nullptr;
    std::shared_ptr<const PermutationSpec> perm_;
};

/**
 * Parse any policy name ("LRU", "FIFO", "PLRU", "MRU", "MRU_SBV",
 * "RANDOM", or a QLRU name) and build the policy.
 *
 * @throws nb::FatalError for unknown names.
 */
Policy makePolicy(const std::string &name, unsigned assoc, Rng *rng);

/**
 * All "meaningful" QLRU variants (§VI-C1 compares measurements against
 * them). Deterministic insertion only.
 */
std::vector<QlruSpec> allQlruSpecs();

} // namespace nb::cache

#endif // NB_CACHE_POLICY_HH
