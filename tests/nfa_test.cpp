/**
 * @file
 * Unit tests for the NFA IR and structural analyses.
 */
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "nfa/analysis.h"
#include "nfa/nfa.h"

namespace ca {
namespace {

Nfa
chain(int n, bool report_last = true)
{
    Nfa nfa;
    for (int i = 0; i < n; ++i) {
        nfa.addState(SymbolSet::of(static_cast<uint8_t>('a' + i % 26)),
                     i == 0 ? StartType::AllInput : StartType::None,
                     report_last && i == n - 1);
    }
    for (int i = 0; i + 1 < n; ++i)
        nfa.addTransition(i, i + 1);
    return nfa;
}

/** Field-by-field equality of two automata's states. */
void
expectSameStates(const std::vector<NfaState> &x,
                 const std::vector<NfaState> &y)
{
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
        SCOPED_TRACE("state " + std::to_string(i));
        EXPECT_EQ(x[i].label, y[i].label);
        EXPECT_EQ(x[i].start, y[i].start);
        EXPECT_EQ(x[i].report, y[i].report);
        EXPECT_EQ(x[i].reportId, y[i].reportId);
        EXPECT_EQ(x[i].name, y[i].name);
        EXPECT_EQ(x[i].out, y[i].out);
        EXPECT_EQ(x[i].outWeight, y[i].outWeight);
        EXPECT_EQ(x[i].startWeight, y[i].startWeight);
    }
}

/**
 * Appends rule fragment @p k (1-4 states, ids relative to the current
 * end of @p into) with every per-state field set: start type, start
 * weight, name, report id, and edge weights, some of them zero.
 */
void
addFragment(Nfa &into, uint32_t k)
{
    const StateId base = static_cast<StateId>(into.numStates());
    const uint32_t n = 1 + k % 4;
    for (uint32_t j = 0; j < n; ++j) {
        StartType start = StartType::None;
        if (j == 0)
            start = k % 3 == 0 ? StartType::StartOfData : StartType::AllInput;
        into.addState(SymbolSet::of(static_cast<uint8_t>('a' + (k + j) % 26)),
                      start, j + 1 == n, j + 1 == n ? k : 0,
                      j == 0 ? "r" + std::to_string(k) : std::string{});
    }
    into.state(base).startWeight = static_cast<Weight>(k % 5);
    for (uint32_t j = 0; j + 1 < n; ++j)
        into.addTransition(base + j, base + j + 1,
                           static_cast<Weight>((k + j) % 3));
    if (k % 2)
        into.addTransition(base + n - 1, base + n - 1);
}

TEST(Nfa, AddStateAndTransition)
{
    Nfa nfa = chain(3);
    EXPECT_EQ(nfa.numStates(), 3u);
    EXPECT_EQ(nfa.numTransitions(), 2u);
    EXPECT_EQ(nfa.startStates().size(), 1u);
    EXPECT_EQ(nfa.reportStates().size(), 1u);
}

TEST(Nfa, DedupeEdges)
{
    Nfa nfa = chain(2);
    nfa.addTransition(0, 1);
    nfa.addTransition(0, 1);
    EXPECT_EQ(nfa.numTransitions(), 3u);
    nfa.dedupeEdges();
    EXPECT_EQ(nfa.numTransitions(), 1u);
}

// Regression: a state's *first* edge carrying a nonzero weight must
// materialize the weight vector — an earlier version backfilled zeros
// before the push and silently dropped the weight.
TEST(Nfa, FirstWeightedEdgeKeepsItsWeight)
{
    Nfa nfa = chain(3);
    Nfa fresh;
    StateId a = fresh.addState(nfa.state(0).label, StartType::AllInput);
    StateId b = fresh.addState(nfa.state(1).label);
    StateId c = fresh.addState(nfa.state(2).label);
    fresh.addTransition(a, b, 2);  // first edge of a: nonzero weight
    fresh.addTransition(a, c, -1);
    fresh.addTransition(b, c, 0);  // zero stays unmaterialized
    EXPECT_EQ(fresh.edgeWeight(a, 0), 2);
    EXPECT_EQ(fresh.edgeWeight(a, 1), -1);
    EXPECT_TRUE(fresh.state(b).outWeight.empty());
    EXPECT_TRUE(fresh.hasWeights());
    fresh.dedupeEdges();
    EXPECT_EQ(fresh.edgeWeight(a, 0), 2);
    EXPECT_EQ(fresh.edgeWeight(a, 1), -1);
}

TEST(Nfa, PredecessorsLazyAndCorrect)
{
    Nfa nfa = chain(4);
    nfa.addTransition(0, 2);
    nfa.dedupeEdges();
    EXPECT_EQ(nfa.predecessors(0).size(), 0u);
    EXPECT_EQ(nfa.predecessors(1).size(), 1u);
    ASSERT_EQ(nfa.predecessors(2).size(), 2u);
}

TEST(Nfa, PredecessorsInvalidatedByMutation)
{
    Nfa nfa = chain(3);
    EXPECT_EQ(nfa.predecessors(2).size(), 1u);
    nfa.addTransition(0, 2);
    EXPECT_EQ(nfa.predecessors(2).size(), 2u);
}

TEST(Nfa, StatsAggregates)
{
    Nfa nfa = chain(5);
    nfa.addTransition(0, 2);
    nfa.addTransition(0, 3);
    nfa.dedupeEdges();
    NfaStats st = nfa.stats();
    EXPECT_EQ(st.numStates, 5u);
    EXPECT_EQ(st.numTransitions, 6u);
    EXPECT_EQ(st.maxFanOut, 3u); // state 0 -> {1,2,3}
    EXPECT_EQ(st.maxFanIn, 2u);  // states 2 and 3 each have two in-edges
    EXPECT_DOUBLE_EQ(st.avgFanOut, 6.0 / 5.0);
}

TEST(Nfa, ValidatePassesOnWellFormed)
{
    EXPECT_NO_THROW(chain(10).validate());
}

TEST(Nfa, ValidateRejectsNoStart)
{
    Nfa nfa;
    nfa.addState(SymbolSet::of('a'));
    EXPECT_THROW(nfa.validate(), CaError);
}

TEST(Nfa, ValidateRejectsUnreachableReport)
{
    Nfa nfa = chain(2);
    nfa.addState(SymbolSet::of('z'), StartType::None, /*report=*/true);
    EXPECT_THROW(nfa.validate(), CaError);
}

TEST(Nfa, ValidateRejectsDuplicateEdges)
{
    Nfa nfa = chain(2);
    nfa.addTransition(0, 1); // duplicate, not deduped
    EXPECT_THROW(nfa.validate(), CaError);
}

TEST(Nfa, MergeRemapsIds)
{
    Nfa a = chain(3);
    // Build the reverse cache so the merge has to invalidate it.
    EXPECT_EQ(a.predecessors(2), std::vector<StateId>{1});
    Nfa b;
    b.addState(SymbolSet::of('x'), StartType::StartOfData, false, 0, "head");
    b.addState(SymbolSet::of('y'), StartType::None, true, 42, "tail");
    b.state(0).startWeight = 7;
    b.addTransition(0, 1, -3);
    StateId offset = a.merge(std::move(b));
    EXPECT_EQ(offset, 3u);
    EXPECT_EQ(a.numStates(), 5u);
    EXPECT_EQ(a.numTransitions(), 3u);
    // b's edge 0->1 became 3->4 and kept its weight.
    const NfaState &head = a.state(3);
    EXPECT_EQ(head.out, std::vector<StateId>{4});
    EXPECT_EQ(head.outWeight, std::vector<Weight>{-3});
    EXPECT_EQ(a.edgeWeight(3, 0), -3);
    EXPECT_EQ(head.start, StartType::StartOfData);
    EXPECT_EQ(head.startWeight, 7);
    EXPECT_EQ(head.name, "head");
    EXPECT_FALSE(head.report);
    const NfaState &tail = a.state(4);
    EXPECT_EQ(tail.label, SymbolSet::of('y'));
    EXPECT_EQ(tail.start, StartType::None);
    EXPECT_TRUE(tail.report);
    EXPECT_EQ(tail.reportId, 42u);
    EXPECT_EQ(tail.name, "tail");
    EXPECT_TRUE(tail.out.empty());
    EXPECT_TRUE(a.hasWeights());
    // The predecessor lists see the merged edge.
    EXPECT_EQ(a.predecessors(4), std::vector<StateId>{3});
    EXPECT_TRUE(a.predecessors(3).empty());
    EXPECT_EQ(a.predecessors(2), std::vector<StateId>{1});
    EXPECT_NO_THROW(a.validate());
}

TEST(Nfa, MergeOfLvalueLeavesArgumentIntact)
{
    Nfa a = chain(2);
    Nfa b = chain(3);
    b.state(0).name = "b0";
    b.addTransition(2, 2, 5);
    const std::vector<NfaState> before = b.states();
    EXPECT_EQ(a.merge(b), 2u);
    expectSameStates(b.states(), before);
    // The copy in a is remapped; b's own ids are not.
    EXPECT_EQ(a.numStates(), 5u);
    EXPECT_EQ(a.state(2).name, "b0");
    EXPECT_EQ(a.state(2).out, std::vector<StateId>{3});
    EXPECT_EQ(a.state(4).out, std::vector<StateId>{4});
    EXPECT_EQ(a.state(4).outWeight, std::vector<Weight>{5});
    EXPECT_EQ(b.state(0).out, std::vector<StateId>{1});
}

// Structural, not timed: n merges must reallocate the state vector only
// O(log n) times (geometric growth), so compiling a ruleset stays linear.
// An exact-size reserve per merge shows one distinct capacity per merge.
TEST(Nfa, MergeGrowsGeometrically)
{
    constexpr uint32_t kMerges = 2585; // Snort's rule count
    Nfa merged;
    Nfa direct;
    std::set<size_t> capacities;
    for (uint32_t k = 0; k < kMerges; ++k) {
        Nfa fragment;
        addFragment(fragment, k);
        merged.merge(std::move(fragment));
        capacities.insert(merged.states().capacity());
        addFragment(direct, k);
    }
    const size_t ceil_log2 = std::bit_width(kMerges - 1);
    EXPECT_LE(capacities.size(), 2 * ceil_log2 + 4);
    expectSameStates(merged.states(), direct.states());
    EXPECT_NO_THROW(merged.validate());
}

TEST(Nfa, SubAutomatonCompactsAndFilters)
{
    Nfa nfa = chain(4);
    Nfa sub = nfa.subAutomaton({0, 1, 3});
    EXPECT_EQ(sub.numStates(), 3u);
    // Edge 1->2 dropped (2 excluded); 2->3 dropped; only 0->1 remains.
    EXPECT_EQ(sub.numTransitions(), 1u);
}

// ---------------------------------------------------------------- analysis

TEST(Analysis, SingleComponentChain)
{
    Nfa nfa = chain(6);
    ComponentInfo cc = connectedComponents(nfa);
    EXPECT_EQ(cc.numComponents(), 1u);
    EXPECT_EQ(cc.largestSize(), 6u);
}

TEST(Analysis, DisjointComponents)
{
    Nfa a = chain(3);
    a.merge(chain(4));
    a.merge(chain(2));
    ComponentInfo cc = connectedComponents(a);
    EXPECT_EQ(cc.numComponents(), 3u);
    EXPECT_EQ(cc.largestSize(), 4u);
    // Membership covers every state exactly once.
    size_t total = 0;
    for (const auto &m : cc.members)
        total += m.size();
    EXPECT_EQ(total, a.numStates());
}

TEST(Analysis, ComponentsAreUndirected)
{
    // 0 -> 1 <- 2: all one component despite no directed path 0..2.
    Nfa nfa;
    nfa.addState(SymbolSet::of('a'), StartType::AllInput);
    nfa.addState(SymbolSet::of('b'));
    nfa.addState(SymbolSet::of('c'), StartType::AllInput);
    nfa.addTransition(0, 1);
    nfa.addTransition(2, 1);
    ComponentInfo cc = connectedComponents(nfa);
    EXPECT_EQ(cc.numComponents(), 1u);
}

TEST(Analysis, ComponentIndexConsistent)
{
    Nfa a = chain(3);
    a.merge(chain(3));
    ComponentInfo cc = connectedComponents(a);
    for (uint32_t c = 0; c < cc.numComponents(); ++c)
        for (StateId s : cc.members[c])
            EXPECT_EQ(cc.component[s], c);
}

TEST(Analysis, ReachableCount)
{
    Nfa nfa = chain(5);
    EXPECT_EQ(reachableCount(nfa, 0), 5u);
    EXPECT_EQ(reachableCount(nfa, 4), 1u);
}

TEST(Analysis, ReachableCountWithCycle)
{
    Nfa nfa = chain(3);
    nfa.addTransition(2, 0);
    nfa.dedupeEdges();
    EXPECT_EQ(reachableCount(nfa, 2), 3u);
}

TEST(Analysis, AverageReachableSet)
{
    Nfa nfa = chain(4);
    // Reachable sets: 4, 3, 2, 1 -> avg 2.5.
    EXPECT_DOUBLE_EQ(averageReachableSet(nfa), 2.5);
}

} // namespace
} // namespace ca
