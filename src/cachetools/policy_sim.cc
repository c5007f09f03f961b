/**
 * @file
 * Policy-simulator implementation.
 */

#include "policy_sim.hh"

#include <map>

#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::cachetools
{

std::vector<SeqAccess>
parseAccessSeq(const std::string &text)
{
    std::vector<SeqAccess> seq;
    std::map<std::string, int> ids;
    for (auto token : splitWhitespace(text)) {
        SeqAccess acc;
        if (iequals(token, "<wbinvd>")) {
            acc.wbinvd = true;
            acc.block = -1;
            acc.measured = false;
            seq.push_back(acc);
            continue;
        }
        if (!token.empty() && token.back() == '?') {
            acc.measured = false;
            token.pop_back();
        }
        if (token.empty())
            fatal("empty block name in access sequence");
        auto [it, inserted] =
            ids.try_emplace(token, static_cast<int>(ids.size()));
        acc.block = it->second;
        seq.push_back(acc);
    }
    return seq;
}

std::string
accessSeqToString(const std::vector<SeqAccess> &seq)
{
    std::string out;
    for (const auto &acc : seq) {
        if (!out.empty())
            out += " ";
        if (acc.wbinvd) {
            out += "<wbinvd>";
            continue;
        }
        // Two appends, not operator+: GCC 12's -Wrestrict sees a
        // false-positive overlap in the temporary at -O3.
        out += "B";
        out += std::to_string(acc.block);
        if (!acc.measured)
            out += "?";
    }
    return out;
}

PolicySim::PolicySim(cache::Policy policy) : policy_(std::move(policy))
{
    NB_ASSERT(policy_.assoc() > 0, "PolicySim requires a policy");
    policy_.reset(state_.data());
}

int
PolicySim::wayOf(int block) const
{
    for (unsigned w = 0; w < policy_.assoc(); ++w) {
        if (((valid_ >> w) & 1) && tags_[w] == block)
            return static_cast<int>(w);
    }
    return -1;
}

bool
PolicySim::access(int block)
{
    int hit = wayOf(block);
    if (hit >= 0) {
        policy_.onHit(state_.data(), static_cast<unsigned>(hit), valid_);
        return true;
    }
    unsigned way = policy_.insertWay(state_.data(), valid_);
    NB_ASSERT(way < policy_.assoc(), "policy returned bad way");
    tags_[way] = block;
    valid_ |= cache::WayMask{1} << way;
    policy_.onInsert(state_.data(), way, valid_);
    return false;
}

void
PolicySim::flush()
{
    valid_ = 0;
    policy_.reset(state_.data());
}

unsigned
PolicySim::runSequence(const std::vector<SeqAccess> &seq)
{
    unsigned hits = 0;
    for (const auto &acc : seq) {
        if (acc.wbinvd) {
            flush();
            continue;
        }
        bool hit = access(acc.block);
        if (acc.measured && hit)
            ++hits;
    }
    return hits;
}

std::vector<bool>
PolicySim::trace(const std::vector<SeqAccess> &seq)
{
    std::vector<bool> out;
    for (const auto &acc : seq) {
        if (acc.wbinvd) {
            flush();
            continue;
        }
        out.push_back(access(acc.block));
    }
    return out;
}

} // namespace nb::cachetools
