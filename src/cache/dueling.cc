/**
 * @file
 * Set-dueling implementation.
 */

#include "dueling.hh"

namespace nb::cache
{

DuelRole
DuelingConfig::role(unsigned slice, unsigned set) const
{
    for (const auto &range : leaders) {
        if (range.slice >= 0 && static_cast<unsigned>(range.slice) != slice)
            continue;
        if (set >= range.setLo && set <= range.setHi)
            return range.role;
    }
    return DuelRole::Follower;
}

void
DuelState::recordMiss(DuelRole role)
{
    if (role == DuelRole::LeaderA) {
        if (psel_ < max_)
            ++psel_;
    } else if (role == DuelRole::LeaderB) {
        if (psel_ > 0)
            --psel_;
    }
}

} // namespace nb::cache
