#include "nfa/nfa.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/error.h"

namespace ca {

StateId
Nfa::addState(const SymbolSet &label, StartType start, bool report,
              uint32_t report_id, std::string name)
{
    NfaState s;
    s.label = label;
    s.start = start;
    s.report = report;
    s.reportId = report_id;
    s.name = std::move(name);
    states_.push_back(std::move(s));
    reverse_valid_ = false;
    return static_cast<StateId>(states_.size() - 1);
}

void
Nfa::addTransition(StateId from, StateId to)
{
    CA_ASSERT_MSG(from < states_.size() && to < states_.size(),
                  "transition " << from << "->" << to << " out of range");
    states_[from].out.push_back(to);
    reverse_valid_ = false;
}

void
Nfa::addTransition(StateId from, StateId to, Weight w)
{
    CA_ASSERT_MSG(from < states_.size() && to < states_.size(),
                  "transition " << from << "->" << to << " out of range");
    auto &s = states_[from];
    s.out.push_back(to);
    // Weights stay unmaterialized (implied all-zero) until the first
    // nonzero arrives; then backfill zeros for the edges added so far.
    if (w != 0 && s.outWeight.empty())
        s.outWeight.assign(s.out.size() - 1, 0);
    if (w != 0 || !s.outWeight.empty())
        s.outWeight.push_back(w);
    reverse_valid_ = false;
}

void
Nfa::dedupeEdges()
{
    for (auto &s : states_) {
        if (s.outWeight.empty()) {
            std::sort(s.out.begin(), s.out.end());
            s.out.erase(std::unique(s.out.begin(), s.out.end()),
                        s.out.end());
            continue;
        }
        // Weighted: sort (target, weight) pairs, keep max weight per target.
        std::vector<std::pair<StateId, Weight>> edges;
        edges.reserve(s.out.size());
        for (size_t k = 0; k < s.out.size(); ++k)
            edges.emplace_back(s.out[k], s.outWeight[k]);
        std::sort(edges.begin(), edges.end());
        s.out.clear();
        s.outWeight.clear();
        for (size_t k = 0; k < edges.size(); ++k) {
            if (!s.out.empty() && s.out.back() == edges[k].first) {
                s.outWeight.back() =
                    std::max(s.outWeight.back(), edges[k].second);
            } else {
                s.out.push_back(edges[k].first);
                s.outWeight.push_back(edges[k].second);
            }
        }
    }
    reverse_valid_ = false;
}

bool
Nfa::hasWeights() const
{
    for (const auto &s : states_) {
        if (s.startWeight != 0)
            return true;
        for (Weight w : s.outWeight)
            if (w != 0)
                return true;
    }
    return false;
}

size_t
Nfa::numTransitions() const
{
    size_t n = 0;
    for (const auto &s : states_)
        n += s.out.size();
    return n;
}

std::vector<StateId>
Nfa::startStates() const
{
    std::vector<StateId> ids;
    for (StateId i = 0; i < states_.size(); ++i)
        if (states_[i].start != StartType::None)
            ids.push_back(i);
    return ids;
}

std::vector<StateId>
Nfa::reportStates() const
{
    std::vector<StateId> ids;
    for (StateId i = 0; i < states_.size(); ++i)
        if (states_[i].report)
            ids.push_back(i);
    return ids;
}

void
Nfa::buildReverse() const
{
    reverse_.assign(states_.size(), {});
    for (StateId i = 0; i < states_.size(); ++i)
        for (StateId t : states_[i].out)
            reverse_[t].push_back(i);
    reverse_valid_ = true;
}

const std::vector<StateId> &
Nfa::predecessors(StateId id) const
{
    CA_ASSERT(id < states_.size());
    if (!reverse_valid_)
        buildReverse();
    return reverse_[id];
}

void
Nfa::invalidateReverse()
{
    reverse_valid_ = false;
    reverse_.clear();
}

NfaStats
Nfa::stats() const
{
    NfaStats st;
    st.numStates = states_.size();
    std::vector<size_t> fan_in(states_.size(), 0);
    for (const auto &s : states_) {
        st.numTransitions += s.out.size();
        st.maxFanOut = std::max(st.maxFanOut, s.out.size());
        if (s.start != StartType::None)
            ++st.numStartStates;
        if (s.report)
            ++st.numReportStates;
        for (StateId t : s.out)
            ++fan_in[t];
    }
    for (size_t f : fan_in)
        st.maxFanIn = std::max(st.maxFanIn, f);
    st.avgFanOut = states_.empty()
        ? 0.0
        : static_cast<double>(st.numTransitions) /
            static_cast<double>(states_.size());
    return st;
}

void
Nfa::validate() const
{
    for (StateId i = 0; i < states_.size(); ++i) {
        const auto &s = states_[i];
        std::vector<StateId> sorted = s.out;
        std::sort(sorted.begin(), sorted.end());
        for (size_t k = 0; k < sorted.size(); ++k) {
            CA_FATAL_IF(sorted[k] >= states_.size(),
                        "state " << i << " has out-of-range edge to "
                                 << sorted[k]);
            CA_FATAL_IF(k > 0 && sorted[k] == sorted[k - 1],
                        "state " << i << " has duplicate edge to "
                                 << sorted[k]);
        }
        CA_FATAL_IF(s.label.empty() && !s.out.empty(),
                    "state " << i << " has an empty label but successors; "
                             << "it can never activate");
        CA_FATAL_IF(!s.outWeight.empty() &&
                        s.outWeight.size() != s.out.size(),
                    "state " << i << " has " << s.out.size()
                             << " edges but " << s.outWeight.size()
                             << " edge weights");
    }

    // Reachability from start states (forward BFS).
    std::vector<char> reach(states_.size(), 0);
    std::vector<StateId> stack = startStates();
    CA_FATAL_IF(!states_.empty() && stack.empty(),
                "automaton has no start states");
    for (StateId s : stack)
        reach[s] = 1;
    while (!stack.empty()) {
        StateId cur = stack.back();
        stack.pop_back();
        for (StateId t : states_[cur].out) {
            if (!reach[t]) {
                reach[t] = 1;
                stack.push_back(t);
            }
        }
    }
    for (StateId i = 0; i < states_.size(); ++i) {
        CA_FATAL_IF(states_[i].report && !reach[i],
                    "report state " << i << " is unreachable from any start");
    }
}

StateId
Nfa::merge(Nfa other)
{
    StateId offset = static_cast<StateId>(states_.size());
    for (auto &s : other.states_) {
        for (auto &t : s.out)
            t += offset;
        states_.push_back(std::move(s));
    }
    reverse_valid_ = false;
    return offset;
}

Nfa
Nfa::subAutomaton(const std::vector<StateId> &keep) const
{
    std::unordered_map<StateId, StateId> remap;
    remap.reserve(keep.size());
    Nfa out;
    for (StateId old_id : keep) {
        CA_ASSERT(old_id < states_.size());
        const auto &s = states_[old_id];
        StateId new_id =
            out.addState(s.label, s.start, s.report, s.reportId, s.name);
        out.state(new_id).startWeight = s.startWeight;
        remap[old_id] = new_id;
    }
    for (StateId old_id : keep) {
        const auto &s = states_[old_id];
        for (size_t k = 0; k < s.out.size(); ++k) {
            auto it = remap.find(s.out[k]);
            if (it != remap.end())
                out.addTransition(remap[old_id], it->second,
                                  edgeWeight(old_id, k));
        }
    }
    return out;
}

} // namespace ca
