/**
 * @file
 * Permutation-spec construction and validation.
 */

#include "permutation.hh"

#include <numeric>
#include <sstream>

namespace nb::cache
{

namespace
{

bool
isPermutationVector(const std::vector<unsigned> &perm)
{
    std::vector<bool> seen(perm.size(), false);
    for (unsigned v : perm) {
        if (v >= perm.size() || seen[v])
            return false;
        seen[v] = true;
    }
    return true;
}

} // namespace

bool
PermutationSpec::isValid() const
{
    unsigned a = assoc();
    if (a == 0 || missPerm.size() != a)
        return false;
    if (!isPermutationVector(missPerm))
        return false;
    for (const auto &p : hitPerms) {
        if (p.size() != a || !isPermutationVector(p))
            return false;
    }
    return true;
}

std::string
PermutationSpec::toString() const
{
    std::ostringstream os;
    for (unsigned p = 0; p < hitPerms.size(); ++p) {
        os << "hit@" << p << ": [";
        for (unsigned q = 0; q < hitPerms[p].size(); ++q)
            os << (q ? " " : "") << hitPerms[p][q];
        os << "]\n";
    }
    os << "miss:  [";
    for (unsigned q = 0; q < missPerm.size(); ++q)
        os << (q ? " " : "") << missPerm[q];
    os << "]";
    return os.str();
}

PermutationSpec
PermutationSpec::lru(unsigned assoc)
{
    PermutationSpec spec;
    spec.hitPerms.resize(assoc);
    for (unsigned p = 0; p < assoc; ++p) {
        spec.hitPerms[p].resize(assoc);
        for (unsigned q = 0; q < assoc; ++q) {
            if (q == p)
                spec.hitPerms[p][q] = assoc - 1;
            else if (q > p)
                spec.hitPerms[p][q] = q - 1;
            else
                spec.hitPerms[p][q] = q;
        }
    }
    // A miss inserts at position 0 and then promotes it to the MRU end,
    // i.e. the same reordering as a hit at position 0.
    spec.missPerm = spec.hitPerms[0];
    return spec;
}

PermutationSpec
PermutationSpec::fifo(unsigned assoc)
{
    PermutationSpec spec;
    spec.hitPerms.resize(assoc);
    for (unsigned p = 0; p < assoc; ++p) {
        spec.hitPerms[p].resize(assoc);
        std::iota(spec.hitPerms[p].begin(), spec.hitPerms[p].end(), 0u);
    }
    // New blocks age out strictly by insertion order.
    spec.missPerm.resize(assoc);
    spec.missPerm[0] = assoc - 1;
    for (unsigned q = 1; q < assoc; ++q)
        spec.missPerm[q] = q - 1;
    return spec;
}

} // namespace nb::cache
