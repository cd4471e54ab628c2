/**
 * @file
 * The per-symbol matching kernel (DESIGN.md §7, docs/MATCH.md).
 *
 * One step of the mapped automaton, written once: the §2.2 row read
 * (state match) followed by the L-/G-switch transition, in a sparse
 * frontier-walking form and a dense bit-parallel form, each in a scored
 * and an unscored instantiation. The immutable per-automaton tables
 * live in a shared `MatchContext`; the mutable frontier lives in a
 * `FrontierKernel`.
 *
 * The kernel is templated on an *accounting policy* that observes each
 * block and each cycle. `MatchEngine` runs it under `NoAccounting`,
 * whose hooks are empty, so the steppers compile to the bare matching
 * loops. `CacheAutomatonSim` (src/sim) runs it under a hardware policy
 * that counts the per-cycle activity behind the energy model (enabled
 * and active states, active partitions, G1/G4 crossings, fired reports,
 * the optional cycle trace) and the per-block FIFO refills and
 * output-buffer interrupts. Both therefore produce the same reports by
 * construction; ca_sim links ca_match, not the other way round.
 */
#ifndef CA_MATCH_KERNEL_H
#define CA_MATCH_KERNEL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/nfa_engine.h"
#include "compiler/mapping.h"
#include "core/bitvector.h"
#include "score/semiring.h"

namespace ca {

/**
 * Execution kernel for the per-symbol step (DESIGN.md §7).
 *
 *  - Sparse: iterate the enabled-state frontier; O(active states) per
 *    symbol. Wins when few states are active (DFA-like automata).
 *  - Dense: bit-parallel §2.2 row-read model — per-partition 256-entry
 *    symbol→match-mask tables and per-state successor masks, stepped
 *    with whole 64-bit words. Cost is O(partitions) per symbol
 *    regardless of activity; wins on high-activity automata (Fermi,
 *    SPM, Protomata-class).
 *  - Auto: per-block selection on an EWMA of enabled-frontier density
 *    (enabled states ÷ total states) — the sparse kernel's actual cost
 *    driver, which includes always-enabled all-input start states.
 *
 * All kernels are bit-identical: same report stream, same activity
 * counters (enforced against the CPU oracle by tests/kernel_test.cpp).
 * The CA_SIM_KERNEL environment variable ("sparse"/"dense"/"auto"),
 * when set, overrides the option for the simulator and the serving
 * path (withSimKernelOverride) — CI uses it to run the whole sim suite
 * under every kernel.
 */
enum class SimKernel : uint8_t
{
    Sparse,
    Dense,
    Auto,
};

/** Parses "sparse"/"dense"/"auto"; nullopt on anything else. */
std::optional<SimKernel> parseKernelName(std::string_view name);

/** The kernel's canonical spelling ("sparse"/"dense"/"auto"). */
const char *kernelName(SimKernel k);

/**
 * The $CA_SIM_KERNEL override, parsed once per process (CI uses it to
 * run the whole sim suite under every kernel). Unrecognized values warn
 * once and fall back to Auto — a typo in a CI matrix must be loud, but
 * pinning the run to a kernel that doesn't exist would be worse.
 * Returns nullopt only when the variable is unset/empty.
 */
std::optional<SimKernel> simKernelEnvOverride();

/**
 * Live Auto-kernel decision introspection (docs/OBSERVABILITY.md).
 *
 * Cumulative since engine construction: unlike SimResult's counters,
 * these survive reset()/restore(), because they describe the *engine as
 * a resource* (a runtime worker restores a different session's
 * checkpoint into the same engine many times per second, and the
 * interesting question — "is the Auto kernel flapping on this worker?" —
 * spans those restores).
 */
struct KernelDecisionStats
{
    uint64_t sparseBlocks = 0;   ///< Blocks dispatched to the sparse kernel.
    uint64_t denseBlocks = 0;    ///< Blocks dispatched to the dense kernel.
    uint64_t sparseSymbols = 0;
    uint64_t denseSymbols = 0;
    uint64_t kernelFlips = 0;    ///< Consecutive blocks on different kernels.
    double densityEwma = 0.0;    ///< Current frontier-density EWMA.
    int lastKernel = -1;         ///< -1 none yet, 0 sparse, 1 dense.
};

} // namespace ca

namespace ca::match {

/** Dense-kernel partition geometry (§2.2: 256 STEs per 8 KB array). */
constexpr uint32_t kSlotsPerPartition = 256;
constexpr uint32_t kWordsPerPartition = kSlotsPerPartition / 64;

/** Kernel controls shared by MatchEngine and CacheAutomatonSim. */
struct MatchOptions
{
    /** Per-symbol stepper; Auto re-decides per block on frontier density. */
    SimKernel kernel = SimKernel::Auto;
    /**
     * Auto: run the dense kernel while the EWMA of enabled-frontier
     * density (enabled states ÷ total states) exceeds this. The default
     * sits in the measured crossover band (bench_kernel_comparison:
     * sparse still wins at ~0.011, dense from ~0.025 — about 3-6
     * enabled states per 256-slot partition, since one sparse state
     * visit costs several of the dense scan's sequential word ops).
     */
    double autoDensityThreshold = 0.02;
    /** Auto: EWMA smoothing factor for per-block density samples. */
    double autoEwmaAlpha = 0.25;
    /** Auto: symbols per block between kernel re-evaluations. */
    uint32_t autoBlockSymbols = 4096;
    /**
     * ⊕ for weighted automata (docs/SCORING.md): how alternative path
     * scores into one state combine. Ignored (zero-cost) when the bound
     * automaton carries no weights — unweighted rulesets run the exact
     * unscored kernels.
     */
    ScoreSemiring semiring = ScoreSemiring::MaxPlus;
};

/** @p opts with the $CA_SIM_KERNEL override, when set, applied. */
MatchOptions withSimKernelOverride(MatchOptions opts);

/**
 * Immutable per-automaton tables shared by every kernel bound to the
 * same mapped automaton: flattened labels, successor CSR, weights and
 * report attributes for the sparse kernel, and the dense §2.2 geometry
 * (256-entry symbol→match-mask rows, L-switch masks, G-switch CSR,
 * report and all-input masks). It also precomputes the two frontier
 * sets the speculative chunk-parallel matcher needs:
 *
 *  - startFrontier(): the exact offset-0 frontier (StartOfData and
 *    AllInput start states).
 *  - reachableFrontier(): AllInput starts plus every state reachable
 *    through at least one transition from any start state — a superset
 *    of the true enabled frontier at *every* offset >= 1. Speculative
 *    chunks seed from this overapproximation (the SFA construction's
 *    "all candidate states" set, restricted to what is reachable at
 *    all) and converge toward the exact frontier over a warm-up window.
 *
 * Thread-safe by immutability: after the constructor returns, the
 * context is never written again.
 */
class MatchContext
{
  public:
    explicit MatchContext(const MappedAutomaton &mapped);

    /**
     * Co-owning variant for automata loaded from disk.
     * @throws CaError when @p mapped is null.
     */
    explicit MatchContext(std::shared_ptr<const MappedAutomaton> mapped);

    size_t numStates() const { return num_states_; }
    uint32_t numPartitions() const { return dense_partitions_; }

    /** False when the mapping's geometry rules out the dense kernel. */
    bool denseAvailable() const { return dense_available_; }

    /** True when the bound automaton carries transition weights. */
    bool scored() const { return scored_; }

    const std::vector<StateId> &startFrontier() const
    {
        return start_frontier_;
    }
    const std::vector<StateId> &reachableFrontier() const
    {
        return reachable_frontier_;
    }

    const MappedAutomaton &mapped() const { return mapped_; }

  private:
    template <class Accounting>
    friend class FrontierKernel;

    void buildSparseTables();
    void buildDenseTables();
    void buildFrontiers();

    /** Keeps a loaded automaton alive; null when bound by reference. */
    std::shared_ptr<const MappedAutomaton> owned_;
    const MappedAutomaton &mapped_;
    size_t num_states_ = 0;

    // Sparse tables.
    std::vector<StateId> all_input_;
    /** Flat 4-word label images: labels_[s*4 + w]. */
    std::vector<uint64_t> labels_;
    /** CSR successor lists. */
    std::vector<uint32_t> succ_xadj_;
    std::vector<StateId> succ_;
    /** Report flag + id packed: (id << 1) | report. */
    std::vector<uint64_t> report_info_;

    // Scoring tables (built only for weighted automata).
    bool scored_ = false;
    /** Per-edge weights, CSR-parallel to succ_. */
    std::vector<Weight> succ_w_;
    /** Per-state start weights. */
    std::vector<Weight> start_w_;

    // Dense tables (§2.2 geometry: 4 words = 256 bits per partition; a
    // state's dense index is partition*256 + slot).
    bool dense_available_ = false;
    uint32_t dense_partitions_ = 0;
    std::vector<uint32_t> dense_index_of_;
    /** dense index → state (kInvalidState for unused slots). */
    std::vector<StateId> state_of_dense_;
    /** Symbol-major row reads: rows_[((c*P)+p)*4 + w]. */
    std::vector<uint64_t> dense_rows_;
    /** L-switch: per-state intra-partition successor masks. */
    std::vector<uint64_t> dense_lswitch_;
    /** G-switch: CSR of cross-partition successor dense indices. */
    std::vector<uint32_t> dense_cross_xadj_;
    std::vector<uint32_t> dense_cross_;
    /** Per-partition reporting mask (p*4+w). */
    std::vector<uint64_t> dense_report_;
    /** Non-zero words of the all-input start mask, OR-ed in each cycle. */
    std::vector<std::pair<uint32_t, uint64_t>> dense_allinput_words_;

    // Precomputed frontier sets (sorted, deduplicated).
    std::vector<StateId> start_frontier_;
    std::vector<StateId> reachable_frontier_;
};

/**
 * The accounting policy of a pure matcher: every hook is empty, so the
 * kernel compiles to the bare matching loops. A policy also says, with
 * kHardware, whether it models every hardware cycle: such a policy sees
 * every report (the output buffer counts them even when they are not
 * collected) and every symbol of a stream whose frontier has died.
 *
 * Hook order: beginBlock, then per symbol either sparseEnabled and one
 * sparseMatched per matched state, or one densePartition per partition
 * with an enabled state and one denseMatched per non-zero matched word;
 * then endCycle with the reports fired; endBlock closes the block.
 */
struct NoAccounting
{
    static constexpr bool kHardware = false;
    /** Per-cycle scratch the hooks fill (kept in registers). */
    struct Cycle
    {
    };
    void beginBlock(bool /*dense*/, uint64_t /*offset*/, size_t /*n*/) {}
    void sparseEnabled(Cycle &, const std::vector<StateId> &) {}
    void sparseMatched(Cycle &, StateId) {}
    void densePartition(Cycle &, uint64_t, uint64_t, uint64_t, uint64_t) {}
    void denseMatched(Cycle &, size_t /*word*/, uint64_t /*mask*/) {}
    void endCycle(Cycle &, uint32_t /*fired*/) {}
    void endBlock(double /*densityEwma*/) {}
};

/**
 * One stream's mutable frontier over a shared MatchContext, stepped by
 * the sparse or dense kernel under the Auto selector. Report semantics
 * (shared with the CPU oracle): a report fires at the offset of the
 * symbol that activated the reporting state, and within one symbol
 * reports are emitted in ascending state-id order.
 *
 * Instantiated in the translation unit of each owner (match_engine.cpp
 * for NoAccounting, sim/engine.cpp for the hardware policy) from
 * match/kernel_impl.h.
 */
template <class Accounting>
class FrontierKernel
{
  public:
    template <class... Args>
    FrontierKernel(const MatchContext &ctx, const MatchOptions &opts,
                   Args &&...accounting_args)
        : ctx_(&ctx), opts_(opts),
          acct_(std::forward<Args>(accounting_args)...)
    {
        init();
    }

    void setOptions(const MatchOptions &opts) { opts_ = opts; }
    void setCollectReports(bool on) { collect_ = on; }

    /** Rewinds to offset 0 with the start frontier and start weights. */
    void reset();

    /**
     * Loads @p frontier (scores parallel to it, or empty for all-zero)
     * at @p offset and clears pending reports. Duplicates are dropped;
     * out-of-range states and a score count that differs from the state
     * count throw CaError.
     */
    void setState(const std::vector<StateId> &frontier,
                  const std::vector<Score> &scores, uint64_t offset);

    /** Consumes one chunk of the stream; callable repeatedly. */
    void feed(const uint8_t *data, size_t size);

    const std::vector<Report> &reports() const { return reports_; }
    std::vector<Report> takeReports();

    /** The live enabled frontier, sorted ascending. */
    std::vector<StateId> frontier() const;
    /** Scores parallel to frontier(); empty for unweighted automata. */
    std::vector<Score> frontierScores() const;

    uint64_t offset() const { return offset_; }
    uint64_t sparseSymbols() const { return sparse_symbols_; }
    uint64_t denseSymbols() const { return dense_symbols_; }

    Accounting &accounting() { return acct_; }
    const Accounting &accounting() const { return acct_; }

  private:
    void init();
    size_t frontierSize() const;
    bool chooseDense();
    void syncDenseFromSparse();
    void syncSparseFromDense();

    /** Steppers, instantiated scored/unscored at compile time (the
        Scored=false bodies are the exact unweighted kernels). */
    template <bool Scored>
    void feedSparse(const uint8_t *data, size_t size);
    template <bool Scored>
    void feedDense(const uint8_t *data, size_t size);

    /**
     * Emits the cycle's reports in canonical (ascending state id) order
     * when collecting, and returns how many fired. The common no-report
     * cycle stays inline; flushCycleReports() does the work.
     */
    template <bool Scored>
    uint32_t emitCycleReports();
    template <bool Scored>
    void flushCycleReports();

    const MatchContext *ctx_;
    MatchOptions opts_;
    bool collect_ = true;
    Accounting acct_;

    // Sparse frontier representation.
    std::vector<StateId> enabled_;
    BitVector enabled_mask_;
    std::vector<StateId> active_scratch_;
    /** States that fired a report this cycle (sorted before emission). */
    std::vector<StateId> cycle_report_scratch_;
    /** Scored twin: (state, score) pairs, sorted by state. */
    std::vector<std::pair<StateId, Score>> cycle_report_scored_;

    // Dense frontier representation (current / next, P*256 bits each).
    BitVector dense_cur_;
    BitVector dense_nxt_;
    /** Which representation holds the live frontier. */
    bool dense_active_ = false;

    // Scored-frontier state (allocated only for weighted automata).
    // Sparse scores are state-indexed, valid where enabled_mask_ is set;
    // dense scores are dense-indexed, valid where dense_cur_ is set.
    std::vector<Score> score_cur_;
    std::vector<Score> score_nxt_;
    std::vector<Score> dense_score_cur_;
    std::vector<Score> dense_score_nxt_;
    /** First-write-vs-combine discriminator for dense score targets. */
    std::vector<uint64_t> dense_score_epoch_;
    uint64_t dense_epoch_counter_ = 0;

    // Auto-kernel state.
    double density_ewma_ = 0.0;
    bool density_seeded_ = false;

    uint64_t offset_ = 0;
    uint64_t sparse_symbols_ = 0;
    uint64_t dense_symbols_ = 0;
    std::vector<Report> reports_;
};

} // namespace ca::match

#endif // CA_MATCH_KERNEL_H
