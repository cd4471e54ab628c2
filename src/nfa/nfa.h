/**
 * @file
 * Homogeneous (ANML-style) NFA intermediate representation.
 *
 * Cache Automaton, like Micron's Automata Processor, operates on
 * *homogeneous* NFAs: every state (State Transition Element, STE) carries a
 * single symbol-set label, and all transitions into a state are implicitly
 * guarded by that state's own label. Execution semantics per input symbol:
 *
 *   enabled(0)   = states with start type StartOfData or AllInput
 *   active(t)    = { q in enabled(t) : label(q) contains input[t] }
 *   enabled(t+1) = successors(active(t)) ∪ { q : start(q) == AllInput }
 *
 * Reporting states emit a report (reportId, input offset) whenever they
 * activate. This is exactly the ANML/AP convention the paper assumes, so
 * the compiler, simulator, and baselines all consume this IR directly.
 */
#ifndef CA_NFA_NFA_H
#define CA_NFA_NFA_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/symbol_set.h"

namespace ca {

using StateId = uint32_t;

constexpr StateId kInvalidState = ~StateId{0};

/** When a state is self-enabled, independent of predecessor activity. */
enum class StartType : uint8_t {
    None,        ///< Enabled only by predecessor activation.
    StartOfData, ///< Enabled at offset 0 only (anchored pattern head).
    AllInput,    ///< Enabled at every offset (unanchored pattern head).
};

/** Per-transition weight (score delta), accumulated under a semiring. */
using Weight = int32_t;

/** One STE: a labelled state of a homogeneous NFA. */
struct NfaState
{
    SymbolSet label;
    StartType start = StartType::None;
    bool report = false;
    uint32_t reportId = 0;
    /** Optional symbolic name (preserved through ANML round trips). */
    std::string name;
    /** Successor state ids (activate-on-match targets). */
    std::vector<StateId> out;
    /**
     * Per-edge weights, parallel to @c out. Empty means every edge has
     * weight 0 (the common unscored case pays no storage); otherwise the
     * size must equal out.size() (validate() enforces this).
     */
    std::vector<Weight> outWeight;
    /**
     * Weight of the implicit start-enable "edge" (the cost of this state's
     * own first activation). Only meaningful for start states.
     */
    Weight startWeight = 0;
};

/** Aggregate shape statistics used by Table 1 and the mapping heuristics. */
struct NfaStats
{
    size_t numStates = 0;
    size_t numTransitions = 0;
    size_t numStartStates = 0;
    size_t numReportStates = 0;
    size_t maxFanOut = 0;
    size_t maxFanIn = 0;
    double avgFanOut = 0.0;
};

/**
 * A homogeneous NFA. States are dense ids [0, numStates).
 *
 * Construction is incremental (addState / addTransition); consumers that
 * need predecessor lists call buildReverse() once the shape is final.
 */
class Nfa
{
  public:
    /** Adds a state and returns its id. */
    StateId addState(const SymbolSet &label,
                     StartType start = StartType::None,
                     bool report = false, uint32_t report_id = 0,
                     std::string name = {});

    /**
     * Adds the edge from → to. Duplicates are tolerated transiently for
     * speed; call dedupeEdges() after bulk construction or mutation to
     * normalize (validate() rejects duplicates).
     */
    void addTransition(StateId from, StateId to);

    /** Adds the edge from → to carrying weight @p w (score delta). */
    void addTransition(StateId from, StateId to, Weight w);

    /**
     * Sorts every adjacency list and removes duplicate edges. When two
     * duplicate edges carry different weights, the surviving edge keeps the
     * maximum (duplicates arise only from construction shortcuts; max is
     * the lossless choice under the default max-plus semiring).
     */
    void dedupeEdges();

    /** True if any edge or start carries a nonzero weight. */
    bool hasWeights() const;

    /**
     * Weight of the k-th out-edge of @p id (0 when the automaton carries no
     * weights on that state).
     */
    Weight edgeWeight(StateId id, size_t k) const
    {
        const auto &w = states_[id].outWeight;
        return w.empty() ? 0 : w[k];
    }

    size_t numStates() const { return states_.size(); }

    const NfaState &state(StateId id) const { return states_[id]; }
    NfaState &state(StateId id) { return states_[id]; }

    const std::vector<NfaState> &states() const { return states_; }

    /** Total directed transition count. */
    size_t numTransitions() const;

    /** Ids of all states with a non-None start type. */
    std::vector<StateId> startStates() const;

    /** Ids of all reporting states. */
    std::vector<StateId> reportStates() const;

    /**
     * Predecessor lists; lazily built, invalidated by mutation.
     * @return in-edges of @p id.
     */
    const std::vector<StateId> &predecessors(StateId id) const;

    /** Drops any cached predecessor lists (call after mutating edges). */
    void invalidateReverse();

    NfaStats stats() const;

    /**
     * Structural sanity check: edge targets in range, no duplicate edges,
     * every report state reachable from some start state.
     * @throws CaError describing the first violation.
     */
    void validate() const;

    /**
     * Appends @p other as a disjoint component, remapping its state ids.
     *
     * A sink: @p other's states are moved in, so pass a temporary or
     * std::move() it (an lvalue argument is copied first and left intact).
     * States grow geometrically, so the call costs amortized O(|other|)
     * and building an automaton by n merges is linear in its total size.
     * @return the id offset added to @p other's states.
     */
    StateId merge(Nfa other);

    /**
     * Returns a copy containing only @p keep (order preserved), with edges
     * to dropped states removed and ids compacted.
     */
    Nfa subAutomaton(const std::vector<StateId> &keep) const;

  private:
    void buildReverse() const;

    std::vector<NfaState> states_;
    mutable std::vector<std::vector<StateId>> reverse_;
    mutable bool reverse_valid_ = false;
};

} // namespace ca

#endif // CA_NFA_NFA_H
