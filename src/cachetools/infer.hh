/**
 * @file
 * Replacement-policy inference tools (paper §VI-C1, §VI-C2).
 *
 * Two tools, mirroring the paper:
 *
 * 1. Permutation-policy inference ([15], RTAS 2013): establish a known
 *    cache state, perform one access, and observe the resulting
 *    eviction order through fresh-miss probing. The observable
 *    behaviour forms a *fingerprint*; a policy is identified by
 *    comparing its fingerprint against the fingerprints of reference
 *    policies (LRU, FIFO, PLRU) obtained by running the *same*
 *    procedure on software simulations.
 *
 * 2. Random-sequence identification: generate random access sequences,
 *    compare measured hit counts against simulations of all candidate
 *    policies (LRU, FIFO, PLRU, MRU variants, and all meaningful QLRU
 *    variants, §VI-B2); report the candidates that agree with every
 *    measurement. Non-deterministic behaviour (e.g. probabilistic
 *    insertion, §VI-D) is detected and reported, to be analyzed with
 *    age graphs instead.
 *
 * Both tools run against a SetProbe, which is implemented by cacheSeq
 * (the simulated hardware) and by PolicySim (references/candidates).
 */

#ifndef NB_CACHETOOLS_INFER_HH
#define NB_CACHETOOLS_INFER_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/permutation.hh"
#include "cachetools/cacheseq.hh"
#include "cachetools/policy_sim.hh"
#include "common/rng.hh"
#include "core/engine.hh"

namespace nb::cachetools
{

/** Abstract "run a sequence in one cache set, count measured hits". */
class SetProbe
{
  public:
    virtual ~SetProbe() = default;
    virtual unsigned assoc() const = 0;
    /** Mean measured hits of the sequence (fresh state per run). */
    virtual double hits(const std::vector<SeqAccess> &seq) = 0;
};

/** Probe backed by a software policy simulation. */
class SimSetProbe : public SetProbe
{
  public:
    /** @param reps Averaging runs (for probabilistic policies). */
    SimSetProbe(const std::string &policy_name, unsigned assoc, Rng *rng,
                unsigned reps = 1);

    unsigned assoc() const override { return assoc_; }
    double hits(const std::vector<SeqAccess> &seq) override;

  private:
    std::string policyName_;
    unsigned assoc_;
    Rng *rng_;
    unsigned reps_;
};

/** Probe backed by cacheSeq on the simulated machine. */
class HardwareSetProbe : public SetProbe
{
  public:
    HardwareSetProbe(CacheSeq &seq, unsigned assoc)
        : seq_(seq), assoc_(assoc)
    {
    }

    unsigned assoc() const override { return assoc_; }
    double hits(const std::vector<SeqAccess> &seq) override
    {
        return seq_.run(seq);
    }

  private:
    CacheSeq &seq_;
    unsigned assoc_;
};

/**
 * Measure the associativity: the largest k such that k freshly filled
 * blocks can all be re-accessed without a miss.
 */
unsigned inferAssociativity(SetProbe &probe, unsigned max_assoc = 32);

/**
 * The observable fingerprint of the permutation-inference procedure:
 * for every context (bare fill, hit at each fill position, one extra
 * miss) and every number of fresh misses j, which of the originally
 * filled blocks still hit.
 */
struct PermutationFingerprint
{
    unsigned assoc = 0;
    /** table[context][j-1][i] = block Bi survives j fresh misses. */
    std::vector<std::vector<std::vector<bool>>> table;

    bool operator==(const PermutationFingerprint &) const = default;
};

/** Run the fingerprint procedure against a probe. */
PermutationFingerprint permutationFingerprint(SetProbe &probe);

/**
 * Identify a permutation policy by fingerprint comparison against
 * references (LRU, FIFO, PLRU). Returns the policy name, or nullopt if
 * none matches (not a permutation policy of the known references).
 */
std::optional<std::string> identifyPermutationPolicy(SetProbe &probe,
                                                     Rng *rng);

/** Result of the random-sequence identification (§VI-C1, tool 2). */
struct PolicyIdentification
{
    /** Candidate policies that agree with every measurement. */
    std::vector<std::string> matches;
    /** Measurements were reproducible (integral and stable). */
    bool deterministic = true;
    /** Number of sequences tested. */
    unsigned sequencesTested = 0;
    /** Sequences whose benchmark failed (plan/decode path only);
     *  they constrain nothing, the rest still identify. */
    unsigned sequencesSkipped = 0;
};

/** Candidate policy names: basic policies + all meaningful QLRU
 *  variants (PLRU only for power-of-two associativities). */
std::vector<std::string> candidatePolicyNames(unsigned assoc);

/**
 * Identify the policy by comparing measured hit counts of random
 * sequences against all candidate simulations (§VI-C1).
 */
PolicyIdentification identifyPolicy(SetProbe &probe, Rng &rng,
                                    unsigned n_sequences = 150,
                                    unsigned seq_length_factor = 3);

/** Age graph (paper §VI-C2 / Figure 1). */
struct AgeGraph
{
    unsigned nBlocks = 0;
    std::vector<unsigned> freshCounts;
    /** hitRate[block][point] in [0,1]. */
    std::vector<std::vector<double>> hitRate;

    /** Render as CSV: header + one row per fresh count. */
    std::string toCsv() const;
};

/**
 * Compute the age graph for the sequence <wbinvd> B0 ... B{n_blocks-1}:
 * for each block and each number of fresh blocks, the probability that
 * the block still hits (§VI-C2).
 */
AgeGraph computeAgeGraph(SetProbe &probe, unsigned n_blocks,
                         unsigned max_fresh, unsigned step = 4);

// ------------------------------------------------------- plan/decode --
//
// Campaign-ready variants of the inference procedures: plan*() emits
// plain BenchmarkSpecs against a CacheSeq target (run them through
// Session::run() or Engine::runCampaign()), decode*() folds the
// outcomes back, in plan order, tolerating per-spec failures.

/** Planned associativity measurement: spec k probes whether k freshly
 *  filled blocks all re-hit (k = 1 .. maxAssoc, in order). */
struct AssocPlan
{
    CacheLevel level = CacheLevel::L1;
    unsigned maxAssoc = 0;
    std::vector<core::BenchmarkSpec> specs;
};

AssocPlan planAssociativity(CacheSeq &seq, unsigned max_assoc = 32);

/** Decoded associativity; error is set if the measurement broke off
 *  early on a failed benchmark (assoc is the best lower bound then). */
struct AssocResult
{
    unsigned assoc = 0;
    std::string error;
};

AssocResult decodeAssociativity(const AssocPlan &plan,
                                const std::vector<RunOutcome> &outcomes);

/**
 * Planned random-sequence policy identification. Every sequence maps
 * to TWO specs (aggregate Min and Max over two measurement runs):
 * comparing the two aggregates of the same body is the plan-level
 * equivalent of the serial tool's run-twice determinism check, and the
 * differing aggregate keeps campaign dedup from collapsing the pair.
 */
struct PolicyIdPlan
{
    CacheLevel level = CacheLevel::L1;
    unsigned assoc = 0;
    std::vector<std::vector<SeqAccess>> sequences;
    /** specs[2*i] / specs[2*i+1]: Min/Max spec of sequences[i]. */
    std::vector<core::BenchmarkSpec> specs;
};

PolicyIdPlan planPolicyId(CacheSeq &seq, unsigned assoc, Rng &rng,
                          unsigned n_sequences = 150,
                          unsigned seq_length_factor = 3);

PolicyIdentification decodePolicyId(
    const PolicyIdPlan &plan, const std::vector<RunOutcome> &outcomes);

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_INFER_HH
