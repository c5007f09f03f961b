/**
 * @file
 * Replacement-policy kernels.
 */

#include "policy.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "cache/permutation.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::cache
{

namespace
{

WayMask
fullMask(unsigned assoc)
{
    return assoc >= kMaxAssoc ? ~WayMask{0} : (WayMask{1} << assoc) - 1;
}

bool
isValidWay(WayMask valid, unsigned way)
{
    return (valid >> way) & 1;
}

/** Leftmost empty way, or -1 if the set is full. */
int
leftmostEmpty(WayMask valid, unsigned assoc)
{
    WayMask empty = ~valid & fullMask(assoc);
    return empty ? std::countr_zero(empty) : -1;
}

/** Rightmost empty way, or -1 if the set is full. */
int
rightmostEmpty(WayMask valid, unsigned assoc)
{
    WayMask empty = ~valid & fullMask(assoc);
    return empty ? 63 - std::countl_zero(empty) : -1;
}

std::uint8_t *
bytesOf(std::uint64_t *st)
{
    return reinterpret_cast<std::uint8_t *>(st);
}

const std::uint8_t *
bytesOf(const std::uint64_t *st)
{
    return reinterpret_cast<const std::uint8_t *>(st);
}

unsigned
ageOf(const std::uint64_t *st, unsigned way)
{
    return static_cast<unsigned>(st[way / 32] >> (2 * (way % 32))) & 3;
}

void
setAge(std::uint64_t *st, unsigned way, unsigned age)
{
    unsigned shift = 2 * (way % 32);
    std::uint64_t &word = st[way / 32];
    word = (word & ~(std::uint64_t{3} << shift)) |
           (std::uint64_t{age} << shift);
}

// ------------------------------------------------------- LRU / FIFO --
//
// rank[w] orders the ways by their last touch (LRU) or insertion (FIFO):
// a touched way moves to rank assoc-1 and the ways above it move down
// one. Victims are chosen only in full sets, whose ways have all been
// touched since the last reset, so rank 0 is the least recent of them.

void
rankTouch(std::uint64_t *st, unsigned words, unsigned assoc, unsigned way)
{
    // Eight ranks per word at once: a byte b (< 64, like every rank)
    // gets its top bit set by b + 127 - old iff b > old, without
    // carrying into its neighbour. Padding bytes are 0 and stay 0.
    unsigned old = bytesOf(st)[way];
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    const std::uint64_t bias = kOnes * (127 - old);
    for (unsigned i = 0; i < words; ++i)
        st[i] -= ((st[i] + bias) >> 7) & kOnes;
    bytesOf(st)[way] = static_cast<std::uint8_t>(assoc - 1);
}

unsigned
rankVictim(const std::uint8_t *rank, unsigned assoc)
{
    for (unsigned w = 0; w < assoc; ++w) {
        if (rank[w] == 0)
            return w;
    }
    panic("LRU/FIFO ranks are not a permutation");
}

// ------------------------------------------------------------- PLRU --
//
// Tree-based pseudo-LRU (§VI-B1): a binary tree per set; the tree bits
// point to the victim (bit 0 -> left, 1 -> right); accesses point every
// node on the root-to-leaf path away from the accessed element.

unsigned
plruVictim(std::uint64_t bits, unsigned assoc)
{
    unsigned node = 0;
    for (unsigned l = std::countr_zero(assoc); l > 0; --l)
        node = 2 * node + 1 + static_cast<unsigned>((bits >> node) & 1);
    return node - (assoc - 1);
}

void
plruTouch(std::uint64_t &bits, unsigned assoc, unsigned way)
{
    unsigned node = way + (assoc - 1);
    while (node != 0) {
        unsigned parent = (node - 1) / 2;
        bool came_from_left = node == 2 * parent + 1;
        bits = (bits & ~(std::uint64_t{1} << parent)) |
               (std::uint64_t{came_from_left} << parent);
        node = parent;
    }
}

// -------------------------------------------------------------- MRU --
//
// MRU / bit-PLRU / PLRUm / NRU (§VI-B2): one status bit per line. An
// access clears the line's bit; if it was the last set bit, all other
// bits are set. A miss replaces the leftmost line whose bit is set.

void
mruAccess(std::uint64_t &bits, unsigned assoc, unsigned way)
{
    bits &= ~(std::uint64_t{1} << way);
    if (bits == 0)
        bits = fullMask(assoc) & ~(std::uint64_t{1} << way);
}

// ------------------------------------------------------------- QLRU --

unsigned
qlruPromote(const QlruSpec &spec, unsigned age)
{
    if (age == 3)
        return spec.hitX;
    if (age == 2)
        return spec.hitY;
    return 0;
}

/**
 * The age update (§VI-B2): if no valid block has age 3, update ages per
 * the U variant. @p accessed is the way excluded by U1/U3, or -1 (the
 * miss-time update of UMO variants).
 */
void
qlruNormalize(const QlruSpec &spec, std::uint64_t *st, int accessed,
              WayMask valid)
{
    if (valid == 0)
        return;
    unsigned max_age = 0;
    for (WayMask v = valid; v; v &= v - 1)
        max_age = std::max(max_age, ageOf(st, std::countr_zero(v)));
    if (max_age == 3)
        return;

    unsigned delta =
        (spec.uVariant == 0 || spec.uVariant == 1) ? 3 - max_age : 1;
    bool exclude_accessed = spec.uVariant == 1 || spec.uVariant == 3;
    for (WayMask v = valid; v; v &= v - 1) {
        unsigned w = static_cast<unsigned>(std::countr_zero(v));
        if (exclude_accessed && static_cast<int>(w) == accessed)
            continue;
        setAge(st, w, std::min(3u, ageOf(st, w) + delta));
    }
}

// ------------------------------------------------------ permutation --
//
// order[pos] = way at position pos; position 0 is the victim.

unsigned
permPositionOf(const std::uint8_t *order, unsigned assoc, unsigned way)
{
    for (unsigned pos = 0; pos < assoc; ++pos) {
        if (order[pos] == way)
            return pos;
    }
    panic("way ", way, " not in permutation order");
}

void
permApply(std::uint8_t *order, const std::vector<unsigned> &perm)
{
    std::uint8_t next[kMaxAssoc];
    for (unsigned q = 0; q < perm.size(); ++q)
        next[perm[q]] = order[q];
    std::copy(next, next + perm.size(), order);
}

} // namespace

// ---------------------------------------------------------- QlruSpec --

std::string
QlruSpec::name() const
{
    std::ostringstream os;
    os << "QLRU_H" << hitX << hitY << "_M";
    if (probDenom > 1)
        os << "R" << probDenom;
    os << insertAge << "_R" << rVariant << "_U" << uVariant;
    if (umo)
        os << "_UMO";
    return os.str();
}

std::optional<QlruSpec>
QlruSpec::parse(const std::string &name)
{
    auto parts = split(name, '_');
    if (parts.size() < 5 || parts[0] != "QLRU")
        return std::nullopt;
    QlruSpec spec;
    // H part: "Hxy"
    const std::string &h = parts[1];
    if (h.size() != 3 || h[0] != 'H' || h[1] < '0' || h[1] > '2' ||
        h[2] < '0' || h[2] > '1')
        return std::nullopt;
    spec.hitX = static_cast<unsigned>(h[1] - '0');
    spec.hitY = static_cast<unsigned>(h[2] - '0');
    // M part: "Mx" or "MRpx" (p may be multi-digit; x is one digit).
    const std::string &m = parts[2];
    if (m.size() < 2 || m[0] != 'M')
        return std::nullopt;
    if (m[1] == 'R') {
        if (m.size() < 4)
            return std::nullopt;
        auto p = parseInt(m.substr(2, m.size() - 3));
        char x = m.back();
        if (!p || *p < 2 || x < '0' || x > '3')
            return std::nullopt;
        spec.probDenom = static_cast<unsigned>(*p);
        spec.insertAge = static_cast<unsigned>(x - '0');
    } else {
        auto x = parseInt(m.substr(1));
        if (!x || *x < 0 || *x > 3)
            return std::nullopt;
        spec.probDenom = 1;
        spec.insertAge = static_cast<unsigned>(*x);
    }
    // R part: "Rx"
    const std::string &r = parts[3];
    if (r.size() != 2 || r[0] != 'R' || r[1] < '0' || r[1] > '2')
        return std::nullopt;
    spec.rVariant = static_cast<unsigned>(r[1] - '0');
    // U part: "Ux"
    const std::string &u = parts[4];
    if (u.size() != 2 || u[0] != 'U' || u[1] < '0' || u[1] > '3')
        return std::nullopt;
    spec.uVariant = static_cast<unsigned>(u[1] - '0');
    // Optional UMO suffix.
    if (parts.size() == 6) {
        if (parts[5] != "UMO")
            return std::nullopt;
        spec.umo = true;
    } else if (parts.size() > 6) {
        return std::nullopt;
    }
    return spec;
}

bool
QlruSpec::isValid() const
{
    if (hitX > 2 || hitY > 1 || insertAge > 3 || rVariant > 2 ||
        uVariant > 3)
        return false;
    // §VI-B2: R0 always requires at least one block with age 3, so it
    // cannot be combined with U2/U3 (which only increment by one).
    if (rVariant == 0 && (uVariant == 2 || uVariant == 3))
        return false;
    return true;
}

// ----------------------------------------------------------- Policy --

Policy::Policy(PolicyKind kind, unsigned assoc, Rng *rng)
    : kind_(kind), assoc_(assoc), rng_(rng)
{
    NB_ASSERT(assoc >= 1 && assoc <= kMaxAssoc, "unsupported assoc ",
              assoc);
    switch (kind) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
        words_ = (assoc + 7) / 8;
        break;
      case PolicyKind::Plru:
        NB_ASSERT(isPowerOfTwo(assoc),
                  "PLRU requires power-of-two assoc, got ", assoc);
        words_ = 1;
        break;
      case PolicyKind::Random:
        NB_ASSERT(rng != nullptr, "RANDOM requires an RNG");
        words_ = 0;
        break;
      case PolicyKind::Mru:
      case PolicyKind::MruSbv:
        words_ = 1;
        break;
      case PolicyKind::Qlru:
      case PolicyKind::Permutation:
        panic("policy kind needs parameters");
    }
}

Policy::Policy(const QlruSpec &spec, unsigned assoc, Rng *rng)
    : kind_(PolicyKind::Qlru), assoc_(assoc), words_((2 * assoc + 63) / 64),
      qlru_(spec), rng_(rng)
{
    NB_ASSERT(assoc >= 1 && assoc <= kMaxAssoc, "unsupported assoc ",
              assoc);
    NB_ASSERT(spec.isValid(), "invalid QLRU spec ", spec.name());
    NB_ASSERT(spec.probDenom == 1 || rng != nullptr,
              "probabilistic QLRU requires an RNG");
}

Policy::Policy(PermutationSpec spec)
    : kind_(PolicyKind::Permutation), assoc_(spec.assoc()),
      words_((spec.assoc() + 7) / 8)
{
    NB_ASSERT(assoc_ >= 1 && assoc_ <= kMaxAssoc, "unsupported assoc ",
              assoc_);
    NB_ASSERT(spec.isValid(), "invalid permutation spec");
    perm_ = std::make_shared<const PermutationSpec>(std::move(spec));
}

std::string
Policy::name() const
{
    switch (kind_) {
      case PolicyKind::Lru:
        return "LRU";
      case PolicyKind::Fifo:
        return "FIFO";
      case PolicyKind::Plru:
        return "PLRU";
      case PolicyKind::Random:
        return "RANDOM";
      case PolicyKind::Mru:
        return "MRU";
      case PolicyKind::MruSbv:
        return "MRU_SBV";
      case PolicyKind::Qlru:
        return qlru_.name();
      case PolicyKind::Permutation:
        return "PERMUTATION";
    }
    panic("unreachable policy kind");
}

void
Policy::reset(std::uint64_t *st) const
{
    switch (kind_) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
      case PolicyKind::Permutation:
        std::fill(st, st + words_, 0); // padding bytes stay 0
        for (unsigned w = 0; w < assoc_; ++w)
            bytesOf(st)[w] = static_cast<std::uint8_t>(w);
        break;
      case PolicyKind::Plru:
        st[0] = 0;
        break;
      case PolicyKind::Random:
        break;
      case PolicyKind::Mru:
      case PolicyKind::MruSbv:
        st[0] = fullMask(assoc_);
        break;
      case PolicyKind::Qlru:
        std::fill(st, st + words_, ~std::uint64_t{0}); // every age 3
        break;
    }
}

unsigned
Policy::insertWay(std::uint64_t *st, WayMask valid) const
{
    if (kind_ == PolicyKind::Permutation) {
        // The lowest-position empty way, so that fills consume the
        // victim order deterministically.
        const std::uint8_t *order = bytesOf(st);
        for (unsigned pos = 0; pos < assoc_; ++pos) {
            if (!isValidWay(valid, order[pos]))
                return order[pos];
        }
        return order[0];
    }
    // Not yet full: fill the leftmost empty way (QLRU R2: the rightmost).
    int empty = kind_ == PolicyKind::Qlru && qlru_.rVariant == 2
                    ? rightmostEmpty(valid, assoc_)
                    : leftmostEmpty(valid, assoc_);
    if (empty >= 0)
        return static_cast<unsigned>(empty);

    switch (kind_) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
        return rankVictim(bytesOf(st), assoc_);
      case PolicyKind::Plru:
        return plruVictim(st[0], assoc_);
      case PolicyKind::Random:
        return static_cast<unsigned>(rng_->nextBelow(assoc_));
      case PolicyKind::Mru:
      case PolicyKind::MruSbv:
        // The leftmost line whose bit is set (mruAccess keeps one set).
        return st[0] ? static_cast<unsigned>(std::countr_zero(st[0])) : 0;
      case PolicyKind::Qlru:
        // Full: UMO variants run the age update now, before victim
        // selection.
        if (qlru_.umo)
            qlruNormalize(qlru_, st, -1, valid);
        // Replace the leftmost block whose age is 3. With none, R1
        // replaces the leftmost block regardless; for R0 the behaviour
        // is undefined in the paper -- fall back to way 0.
        for (unsigned w = 0; w < assoc_; ++w) {
            if (ageOf(st, w) == 3)
                return w;
        }
        return 0;
      case PolicyKind::Permutation:
        break;
    }
    panic("unreachable policy kind");
}

void
Policy::onInsert(std::uint64_t *st, unsigned way, WayMask valid) const
{
    switch (kind_) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
        rankTouch(st, words_, assoc_, way);
        return;
      case PolicyKind::Plru:
        plruTouch(st[0], assoc_, way);
        return;
      case PolicyKind::Random:
        return;
      case PolicyKind::MruSbv:
        if (valid != fullMask(assoc_)) {
            // Sandy Bridge variant: while the cache is not yet full,
            // fills leave all status bits set (newly inserted blocks
            // are eviction candidates immediately).
            st[0] = fullMask(assoc_);
            return;
        }
        [[fallthrough]];
      case PolicyKind::Mru:
        mruAccess(st[0], assoc_, way);
        return;
      case PolicyKind::Qlru: {
        // MRpx: age x with probability 1/p, age 3 otherwise.
        unsigned age = qlru_.insertAge;
        if (qlru_.probDenom > 1 && !rng_->oneIn(qlru_.probDenom))
            age = 3;
        setAge(st, way, age);
        if (!qlru_.umo)
            qlruNormalize(qlru_, st, static_cast<int>(way), valid);
        return;
      }
      case PolicyKind::Permutation: {
        // The new block takes position 0 (the others keep their
        // relative order), then the miss permutation is applied.
        std::uint8_t *order = bytesOf(st);
        for (unsigned p = permPositionOf(order, assoc_, way); p > 0; --p)
            order[p] = order[p - 1];
        order[0] = static_cast<std::uint8_t>(way);
        permApply(order, perm_->missPerm);
        return;
      }
    }
}

void
Policy::onHit(std::uint64_t *st, unsigned way, WayMask valid) const
{
    switch (kind_) {
      case PolicyKind::Lru:
        rankTouch(st, words_, assoc_, way);
        return;
      case PolicyKind::Fifo:
      case PolicyKind::Random:
        return; // hits do not update the state
      case PolicyKind::Plru:
        plruTouch(st[0], assoc_, way);
        return;
      case PolicyKind::Mru:
      case PolicyKind::MruSbv:
        mruAccess(st[0], assoc_, way);
        return;
      case PolicyKind::Qlru:
        setAge(st, way, qlruPromote(qlru_, ageOf(st, way)));
        if (!qlru_.umo)
            qlruNormalize(qlru_, st, static_cast<int>(way), valid);
        return;
      case PolicyKind::Permutation: {
        std::uint8_t *order = bytesOf(st);
        permApply(order,
                  perm_->hitPerms[permPositionOf(order, assoc_, way)]);
        return;
      }
    }
}

std::string
Policy::debugState(const std::uint64_t *st) const
{
    std::ostringstream os;
    switch (kind_) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
      case PolicyKind::Permutation:
        for (unsigned w = 0; w < assoc_; ++w)
            os << (w ? " " : "") << unsigned{bytesOf(st)[w]};
        break;
      case PolicyKind::Plru:
        for (unsigned n = 0; n + 1 < assoc_; ++n)
            os << ((st[0] >> n) & 1);
        break;
      case PolicyKind::Random:
        break;
      case PolicyKind::Mru:
      case PolicyKind::MruSbv:
        for (unsigned w = 0; w < assoc_; ++w)
            os << ((st[0] >> w) & 1);
        break;
      case PolicyKind::Qlru:
        for (unsigned w = 0; w < assoc_; ++w)
            os << ageOf(st, w);
        break;
    }
    return os.str();
}

// -------------------------------------------------------------- factory --

Policy
makePolicy(const std::string &name, unsigned assoc, Rng *rng)
{
    if (name == "LRU")
        return {PolicyKind::Lru, assoc};
    if (name == "FIFO")
        return {PolicyKind::Fifo, assoc};
    if (name == "PLRU")
        return {PolicyKind::Plru, assoc};
    if (name == "RANDOM")
        return {PolicyKind::Random, assoc, rng};
    if (name == "MRU")
        return {PolicyKind::Mru, assoc};
    if (name == "MRU_SBV" || name == "MRU*")
        return {PolicyKind::MruSbv, assoc};
    if (auto spec = QlruSpec::parse(name))
        return {*spec, assoc, rng};
    fatal("unknown replacement policy '", name, "'");
}

std::vector<QlruSpec>
allQlruSpecs()
{
    std::vector<QlruSpec> specs;
    for (unsigned hx : {0u, 1u, 2u}) {
        for (unsigned hy : {0u, 1u}) {
            for (unsigned m : {0u, 1u, 2u, 3u}) {
                for (unsigned r : {0u, 1u, 2u}) {
                    for (unsigned u : {0u, 1u, 2u, 3u}) {
                        for (bool umo : {false, true}) {
                            QlruSpec s;
                            s.hitX = hx;
                            s.hitY = hy;
                            s.insertAge = m;
                            s.probDenom = 1;
                            s.rVariant = r;
                            s.uVariant = u;
                            s.umo = umo;
                            if (s.isValid())
                                specs.push_back(s);
                        }
                    }
                }
            }
        }
    }
    return specs;
}

} // namespace nb::cache
