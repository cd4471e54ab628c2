/**
 * @file
 * Functional match engine (docs/MATCH.md).
 *
 * The serving-path counterpart of the cycle-accurate simulator: the same
 * kernel (match/kernel.h) under the no-op accounting policy, so none of
 * the architecture model (no FIFO-refill accounting, no output-buffer
 * interrupts, no per-cycle activity counters feeding the energy model).
 * `CacheAutomatonSim` answers "what would the hardware do, cycle by
 * cycle"; `MatchEngine` answers "which reports fire, as fast as this CPU
 * can compute them". tests/match_test.cpp holds the two report-identical
 * on randomized automata under every kernel.
 *
 * The immutable per-automaton tables (flattened labels/successors plus
 * the dense §2.2 row-read tables) live in a shared `MatchContext`, so N
 * engines running chunks of one stream in parallel share one copy of
 * the tables and carry only their own frontier.
 */
#ifndef CA_MATCH_MATCH_ENGINE_H
#define CA_MATCH_MATCH_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "match/kernel.h"

namespace ca::match {

/** Instantiated once, in match_engine.cpp. */
extern template class FrontierKernel<NoAccounting>;

/**
 * One stream's worth of mutable match state over a shared MatchContext.
 * Cheap to construct (O(states) bitvectors, no table builds); a thread
 * pool keeps one per worker and reuses it across chunks via setState().
 *
 * Semantics contract (identical to CacheAutomatonSim and the CPU
 * oracle): a report fires at the offset of the symbol that activated
 * the reporting state, and within one symbol reports are emitted in
 * ascending state-id order.
 */
class MatchEngine
{
  public:
    explicit MatchEngine(std::shared_ptr<const MatchContext> ctx,
                         const MatchOptions &opts = {});

    /** Rewinds to offset 0 with the exact start frontier. */
    void reset() { kernel_.reset(); }

    /**
     * Loads an arbitrary frontier at an arbitrary offset (the chunk-
     * parallel join's primitive; also the checkpoint-restore path).
     * Clears pending reports. @p frontier need not be sorted; duplicate
     * entries are dropped and out-of-range ones rejected.
     */
    void
    setState(const std::vector<StateId> &frontier, uint64_t offset)
    {
        kernel_.setState(frontier, {}, offset);
    }

    /**
     * setState with per-state accumulated scores, parallel to
     * @p frontier (the scored checkpoint-restore path). An empty
     * @p scores means all-zero; otherwise sizes must match.
     */
    void
    setState(const std::vector<StateId> &frontier,
             const std::vector<Score> &scores, uint64_t offset)
    {
        kernel_.setState(frontier, scores, offset);
    }

    /** Consumes one chunk of the stream; callable repeatedly. */
    void feed(const uint8_t *data, size_t size) { kernel_.feed(data, size); }

    /** Moves out the reports accumulated since the last setState/take. */
    std::vector<Report> takeReports() { return kernel_.takeReports(); }

    /**
     * Report collection toggle: speculative warm-up runs with
     * collection off (those symbols' reports belong to the previous
     * chunk's exact pass), then flips it on for the chunk body.
     */
    void setCollectReports(bool on) { kernel_.setCollectReports(on); }

    /** The live enabled frontier, sorted ascending. */
    std::vector<StateId> frontier() const { return kernel_.frontier(); }

    /**
     * Per-state scores parallel to frontier()'s order. Empty for
     * unweighted automata.
     */
    std::vector<Score>
    frontierScores() const
    {
        return kernel_.frontierScores();
    }

    /** Absolute stream position: the offset the next symbol gets. */
    uint64_t streamOffset() const { return kernel_.offset(); }

    /** Kernel accounting (tests + bench introspection). */
    uint64_t sparseSymbols() const { return kernel_.sparseSymbols(); }
    uint64_t denseSymbols() const { return kernel_.denseSymbols(); }

    const MatchContext &context() const { return *ctx_; }

  private:
    std::shared_ptr<const MatchContext> ctx_;
    FrontierKernel<NoAccounting> kernel_;
};

} // namespace ca::match

#endif // CA_MATCH_MATCH_ENGINE_H
