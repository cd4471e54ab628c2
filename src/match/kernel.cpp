#include "match/kernel.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>

#include "core/error.h"
#include "core/logging.h"

namespace ca {

std::optional<SimKernel>
parseKernelName(std::string_view name)
{
    if (name == "sparse")
        return SimKernel::Sparse;
    if (name == "dense")
        return SimKernel::Dense;
    if (name == "auto")
        return SimKernel::Auto;
    return std::nullopt;
}

const char *
kernelName(SimKernel k)
{
    switch (k) {
    case SimKernel::Sparse:
        return "sparse";
    case SimKernel::Dense:
        return "dense";
    case SimKernel::Auto:
        return "auto";
    }
    return "auto";
}

std::optional<SimKernel>
simKernelEnvOverride()
{
    static const std::optional<SimKernel> parsed = [] {
        std::optional<SimKernel> out;
        const char *env = std::getenv("CA_SIM_KERNEL");
        if (!env || !*env)
            return out;
        out = parseKernelName(env);
        if (!out) {
            CA_WARN("CA_SIM_KERNEL=" << env
                                     << " is not sparse/dense/auto; "
                                        "falling back to auto");
            out = SimKernel::Auto;
        }
        return out;
    }();
    return parsed;
}

} // namespace ca

namespace ca::match {

namespace {

/** Null-checks before the delegating ctor dereferences. */
const MappedAutomaton &
requireAutomaton(const std::shared_ptr<const MappedAutomaton> &mapped)
{
    CA_FATAL_IF(!mapped, "MatchContext: null mapped automaton");
    return *mapped;
}

} // namespace

MatchOptions
withSimKernelOverride(MatchOptions opts)
{
    if (std::optional<SimKernel> k = simKernelEnvOverride())
        opts.kernel = *k;
    return opts;
}

MatchContext::MatchContext(std::shared_ptr<const MappedAutomaton> mapped)
    : MatchContext(requireAutomaton(mapped))
{
    owned_ = std::move(mapped);
}

MatchContext::MatchContext(const MappedAutomaton &mapped) : mapped_(mapped)
{
    num_states_ = mapped.nfa().numStates();
    buildSparseTables();
    buildDenseTables();
    buildFrontiers();
}

void
MatchContext::buildSparseTables()
{
    const Nfa &nfa = mapped_.nfa();
    labels_.resize(num_states_ * 4);
    report_info_.resize(num_states_);
    succ_xadj_.assign(num_states_ + 1, 0);
    for (StateId s = 0; s < num_states_; ++s) {
        const NfaState &st = nfa.state(s);
        if (st.start == StartType::AllInput)
            all_input_.push_back(s);
        const auto &words = st.label.raw();
        for (int w = 0; w < 4; ++w)
            labels_[s * 4 + w] = words[w];
        report_info_[s] =
            (static_cast<uint64_t>(st.reportId) << 1) | (st.report ? 1 : 0);
        succ_xadj_[s + 1] =
            succ_xadj_[s] + static_cast<uint32_t>(st.out.size());
    }
    succ_.resize(succ_xadj_.back());
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t base = succ_xadj_[s];
        const auto &out = nfa.state(s).out;
        for (size_t i = 0; i < out.size(); ++i)
            succ_[base + i] = out[i];
    }

    scored_ = nfa.hasWeights();
    if (scored_) {
        succ_w_.assign(succ_.size(), 0);
        start_w_.assign(num_states_, 0);
        for (StateId s = 0; s < num_states_; ++s) {
            uint32_t base = succ_xadj_[s];
            const NfaState &st = nfa.state(s);
            for (size_t i = 0; i < st.out.size(); ++i)
                succ_w_[base + i] = nfa.edgeWeight(s, i);
            start_w_[s] = st.startWeight;
        }
    }
}

void
MatchContext::buildDenseTables()
{
    const uint32_t P = static_cast<uint32_t>(mapped_.numPartitions());
    if (P == 0 || num_states_ == 0)
        return;
    for (StateId s = 0; s < num_states_; ++s) {
        if (mapped_.location(s).slot >= kSlotsPerPartition) {
            // Defensive: a non-standard design geometry falls back to
            // the sparse kernel rather than corrupting masks.
            CA_WARN("dense kernel unavailable: state "
                    << s << " at slot " << mapped_.location(s).slot
                    << " exceeds " << kSlotsPerPartition);
            return;
        }
    }
    dense_partitions_ = P;
    const size_t words = static_cast<size_t>(P) * kWordsPerPartition;

    dense_index_of_.assign(num_states_, 0);
    state_of_dense_.assign(static_cast<size_t>(P) * kSlotsPerPartition,
                           kInvalidState);
    for (StateId s = 0; s < num_states_; ++s) {
        const SteLocation &loc = mapped_.location(s);
        uint32_t di = loc.partition * kSlotsPerPartition + loc.slot;
        dense_index_of_[s] = di;
        state_of_dense_[di] = s;
    }

    // Row reads (§2.2), symbol-major so one symbol's step scans
    // contiguous memory across partitions.
    dense_rows_.assign(static_cast<size_t>(256) * words, 0);
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t di = dense_index_of_[s];
        uint32_t p = di / kSlotsPerPartition;
        uint32_t slot = di % kSlotsPerPartition;
        uint64_t slot_bit = uint64_t{1} << (slot & 63);
        size_t slot_word = slot >> 6;
        for (int w = 0; w < 4; ++w) {
            uint64_t label = labels_[s * 4 + w];
            while (label) {
                int b = std::countr_zero(label);
                uint32_t c = static_cast<uint32_t>(w * 64 + b);
                dense_rows_[(static_cast<size_t>(c) * P + p) *
                                kWordsPerPartition +
                            slot_word] |= slot_bit;
                label &= label - 1;
            }
        }
    }

    // L-switch crossbar rows and G-switch CSR.
    dense_lswitch_.assign(state_of_dense_.size() * kWordsPerPartition, 0);
    dense_cross_xadj_.assign(state_of_dense_.size() + 1, 0);
    std::vector<uint32_t> partition_of(num_states_);
    for (StateId s = 0; s < num_states_; ++s)
        partition_of[s] = mapped_.location(s).partition;
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t cross = 0;
        for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e)
            if (partition_of[succ_[e]] != partition_of[s])
                ++cross;
        dense_cross_xadj_[dense_index_of_[s] + 1] = cross;
    }
    for (size_t i = 1; i < dense_cross_xadj_.size(); ++i)
        dense_cross_xadj_[i] += dense_cross_xadj_[i - 1];
    dense_cross_.resize(dense_cross_xadj_.back());
    for (StateId s = 0; s < num_states_; ++s) {
        uint32_t di = dense_index_of_[s];
        uint32_t fill = dense_cross_xadj_[di];
        for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e) {
            StateId t = succ_[e];
            uint32_t ti = dense_index_of_[t];
            if (partition_of[t] == partition_of[s]) {
                uint32_t slot = ti % kSlotsPerPartition;
                dense_lswitch_[static_cast<size_t>(di) *
                                   kWordsPerPartition +
                               (slot >> 6)] |= uint64_t{1} << (slot & 63);
            } else {
                dense_cross_[fill++] = ti;
            }
        }
    }

    dense_report_.assign(words, 0);
    for (StateId s = 0; s < num_states_; ++s) {
        if (report_info_[s] & 1) {
            uint32_t di = dense_index_of_[s];
            dense_report_[di >> 6] |= uint64_t{1} << (di & 63);
        }
    }

    std::vector<uint64_t> allinput(words, 0);
    for (StateId s : all_input_) {
        uint32_t di = dense_index_of_[s];
        allinput[di >> 6] |= uint64_t{1} << (di & 63);
    }
    for (size_t w = 0; w < allinput.size(); ++w)
        if (allinput[w])
            dense_allinput_words_.emplace_back(static_cast<uint32_t>(w),
                                               allinput[w]);

    dense_available_ = true;
}

void
MatchContext::buildFrontiers()
{
    const Nfa &nfa = mapped_.nfa();
    for (StateId s = 0; s < num_states_; ++s)
        if (nfa.state(s).start != StartType::None)
            start_frontier_.push_back(s);

    // reachableFrontier: AllInput starts plus everything reachable via
    // >= 1 transition from any start state. For any offset t >= 1 the
    // exact frontier is succ(active at t-1) ∪ allInput, and active
    // states are reachable, so this set contains every frontier a
    // stream can ever be in past offset 0. One BFS at build time.
    BitVector in_set(num_states_ == 0 ? 1 : num_states_);
    std::deque<StateId> queue;
    auto add = [&](StateId s) {
        if (!in_set.test(s)) {
            in_set.set(s);
            reachable_frontier_.push_back(s);
            queue.push_back(s);
        }
    };
    // Seed the BFS worklist with the starts themselves; a start enters
    // the frontier set only via an in-edge (or by being AllInput).
    BitVector visited(num_states_ == 0 ? 1 : num_states_);
    for (StateId s : start_frontier_) {
        visited.set(s);
        queue.push_back(s);
    }
    for (StateId s : all_input_)
        add(s);
    while (!queue.empty()) {
        StateId s = queue.front();
        queue.pop_front();
        for (uint32_t e = succ_xadj_[s]; e < succ_xadj_[s + 1]; ++e) {
            StateId t = succ_[e];
            if (!in_set.test(t)) {
                in_set.set(t);
                reachable_frontier_.push_back(t);
            }
            if (!visited.test(t)) {
                visited.set(t);
                queue.push_back(t);
            }
        }
    }
    std::sort(reachable_frontier_.begin(), reachable_frontier_.end());
}

} // namespace ca::match
