#include "checks.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "core/error.h"
#include "core/rng.h"
#include "workload/witness.h"

namespace perfbench {

namespace {

bool
reportLess(const ca::Report &a, const ca::Report &b)
{
    if (a < b)
        return true;
    if (b < a)
        return false;
    return a.score < b.score;
}

} // namespace

std::vector<uint64_t>
reportMismatches(std::vector<ca::Report> got, std::vector<ca::Report> want)
{
    std::sort(got.begin(), got.end(), reportLess);
    std::sort(want.begin(), want.end(), reportLess);
    std::vector<ca::Report> diff;
    std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                  want.end(), std::back_inserter(diff),
                                  reportLess);
    std::vector<uint64_t> offsets;
    for (const ca::Report &r : diff)
        offsets.push_back(r.offset);
    return offsets;
}

std::vector<PlantedWitness>
plantWitnesses(std::vector<uint8_t> &stream,
               const std::vector<std::string> &rules, uint64_t seed,
               size_t slot)
{
    ca::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<PlantedWitness> planted;
    for (size_t base = 0; base + slot <= stream.size(); base += slot) {
        uint32_t rule = static_cast<uint32_t>(rng.below(rules.size()));
        std::string w = ca::sampleWitness(rules[rule], rng);
        if (w.empty() || w.size() >= slot)
            continue;
        size_t at = base + rng.below(slot - w.size());
        std::copy(w.begin(), w.end(), stream.begin() + static_cast<long>(at));
        planted.push_back({at + w.size() - 1, rule});
    }
    return planted;
}

std::vector<uint64_t>
missingWitnesses(const std::vector<ca::Report> &reports,
                 const std::vector<PlantedWitness> &planted)
{
    std::set<std::pair<uint64_t, uint32_t>> seen;
    for (const ca::Report &r : reports)
        seen.emplace(r.offset, r.reportId);
    std::vector<uint64_t> missing;
    for (const PlantedWitness &w : planted)
        if (!seen.count({w.end, w.ruleId}))
            missing.push_back(w.end);
    return missing;
}

ScoreCheck
checkAlignmentScores(const std::vector<ca::Report> &reports,
                     const std::vector<std::string> &patterns,
                     const uint8_t *data, size_t size,
                     const ca::BioPatternOptions &opt)
{
    // Several reporting states of one pattern can fire at one offset
    // (one per edit count and trailing-deletion clone); the alignment
    // score is the semiring-best of them.
    std::vector<std::map<uint64_t, ca::Score>> best(patterns.size());
    ScoreCheck out;
    std::set<uint64_t> bad;
    for (const ca::Report &r : reports) {
        if (r.reportId >= patterns.size()) {
            bad.insert(r.offset);
            continue;
        }
        auto [it, fresh] = best[r.reportId].emplace(r.offset, r.score);
        if (!fresh)
            it->second = ca::scoreCombine(opt.semiring, it->second, r.score);
    }
    for (size_t p = 0; p < patterns.size(); ++p) {
        out.reportedHits += best[p].size();
        std::vector<ca::BioWitnessHit> want =
            ca::bioAlignWitness(patterns[p], data, size, opt);
        out.witnessHits += want.size();
        std::map<uint64_t, ca::Score> expect;
        for (const ca::BioWitnessHit &h : want)
            expect.emplace(h.offset, h.score);
        for (const auto &[off, score] : best[p]) {
            auto it = expect.find(off);
            if (it == expect.end() || it->second != score)
                bad.insert(off);
        }
        for (const auto &[off, score] : expect)
            if (!best[p].count(off))
                bad.insert(off);
    }
    out.badOffsets.assign(bad.begin(), bad.end());
    return out;
}

RepeatedStreamOracle::RepeatedStreamOracle(const ca::Nfa &nfa,
                                           const std::vector<uint8_t> &buffer)
    : size_(buffer.size())
{
    CA_FATAL_IF(buffer.empty(), "repeated stream needs bytes");
    ca::NfaEngine oracle(nfa);
    oracle.reset();
    std::vector<ca::StateId> last_active;
    for (size_t p = 0; p < kMaxPasses; ++p) {
        size_t before = oracle.reports().size();
        for (uint8_t b : buffer)
            oracle.step(b);
        passes_.emplace_back(oracle.reports().begin() +
                                 static_cast<long>(before),
                             oracle.reports().end());
        std::vector<ca::StateId> active = oracle.activeStates();
        std::sort(active.begin(), active.end());
        // Pass 0 starts with the offset-0 frontier, so only a repeat
        // between two later passes proves the stream periodic.
        if (p > 0 && active == last_active)
            return;
        last_active = std::move(active);
    }
    CA_THROW("oracle: stream state did not repeat within " << kMaxPasses
                                                           << " passes");
}

std::vector<ca::Report>
RepeatedStreamOracle::reports(uint64_t begin, uint64_t end) const
{
    std::vector<ca::Report> out;
    for (uint64_t pass = begin / size_; pass * size_ < end; ++pass) {
        uint64_t stored = std::min<uint64_t>(pass, passes_.size() - 1);
        uint64_t shift = (pass - stored) * size_;
        const std::vector<ca::Report> &src = passes_[stored];
        auto lo = std::lower_bound(
            src.begin(), src.end(), begin > shift ? begin - shift : 0,
            [](const ca::Report &r, uint64_t off) { return r.offset < off; });
        for (auto it = lo; it != src.end() && it->offset + shift < end;
             ++it) {
            ca::Report r = *it;
            r.offset += shift;
            out.push_back(r);
        }
    }
    return out;
}

} // namespace perfbench
