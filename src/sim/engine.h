/**
 * @file
 * Cycle-level Cache Automaton simulator.
 *
 * Executes a *mapped* automaton the way the hardware does (§2.2-2.5):
 * every cycle, partitions with a non-zero active-state vector perform an
 * array read (state match), matched states traverse the L-switch, and
 * cross-partition transitions traverse the G-switches. The simulator's
 * per-cycle activity statistics (active partitions, active states, G1/G4
 * crossings) are exactly what the energy model consumes — the same
 * methodology the paper uses (VASim activity feeding derived constants).
 *
 * The engine is incremental: feed() consumes stream chunks, and the §2.9
 * suspend/resume model is supported by checkpoint()/restore() (the
 * hardware records the active-state vector and input symbol counter).
 *
 * The step itself is not written here. The simulator runs the one
 * kernel of src/match (match/kernel.h; ca_sim links ca_match) — the
 * sparse frontier-iterating stepper, the dense bit-parallel §2.2
 * row-read stepper and the Auto selector between them, over the tables
 * of a `MatchContext` — the same kernel `MatchEngine` runs. `MatchEngine`
 * runs it under a no-op accounting policy; the simulator runs it under a
 * hardware policy (CacheAutomatonSim::Accounting) that turns each cycle
 * into the activity counters above, and each block into FIFO refills
 * and output-buffer interrupts.
 *
 * Functional behaviour (the report stream) is bit-identical to the CPU
 * oracle engine under every kernel; within a cycle, reports are emitted
 * in ascending state id order (the canonical order all engines share).
 * The test suite enforces this, and checks the activity counters against
 * an oracle-derived reference, on randomized automata.
 */
#ifndef CA_SIM_ENGINE_H
#define CA_SIM_ENGINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/energy.h"
#include "match/kernel.h"

namespace ca {

/**
 * Simulation controls: the kernel controls (kernel choice, Auto
 * selector, semiring; $CA_SIM_KERNEL overrides the kernel) plus the
 * hardware model's.
 */
struct SimOptions : match::MatchOptions
{
    bool collectReports = true;
    /** Record a per-cycle activity trace (costly; for tests/ablations). */
    bool recordTrace = false;
    /** Symbols refilled per cache-block fetch into the FIFO. */
    int fifoRefillSymbols = 64;
    /** Output buffer entries before an interrupt fires (§2.8). */
    int outputBufferDepth = 64;
};

/** One cycle of recorded activity (when SimOptions::recordTrace). */
struct CycleTrace
{
    uint32_t activePartitions = 0;
    uint32_t activeStates = 0;
    uint32_t g1Crossings = 0;
    uint32_t g4Crossings = 0;
    uint32_t reportsFired = 0;

    bool operator==(const CycleTrace &) const = default;
};

/** Results of a simulated stream (cumulative since reset). */
struct SimResult
{
    uint64_t symbols = 0;
    /** Pipeline cycles = symbols + fill (3-stage pipeline, §2.5). */
    uint64_t cycles = 0;

    std::vector<Report> reports;

    // Totals over all symbols.
    uint64_t totalActivePartitionCycles = 0;
    uint64_t totalActiveStates = 0;
    /**
     * Sum over symbols of the enabled-frontier size (states holding an
     * enable bit when the symbol arrives, matched or not). This is the
     * sparse kernel's per-symbol workload and the quantity the Auto
     * selector's density EWMA tracks.
     */
    uint64_t totalEnabledStates = 0;
    uint64_t totalG1Crossings = 0;
    uint64_t totalG4Crossings = 0;

    // System-integration counters (§2.8).
    uint64_t fifoRefills = 0;
    uint64_t outputBufferInterrupts = 0;

    // Kernel accounting: which stepper executed each symbol, and how
    // often Auto flipped between them mid-stream.
    uint64_t sparseKernelSymbols = 0;
    uint64_t denseKernelSymbols = 0;
    uint64_t kernelSwitches = 0;

    std::vector<CycleTrace> trace;

    /** Mean activity factors for the energy model. */
    ActivityStats activity() const;

    /** Average active states per symbol (Table 1's rightmost columns). */
    double avgActiveStates() const;

    /** Wall-clock seconds at @p freq_hz (1 symbol per cycle). */
    double seconds(double freq_hz) const;
};

/**
 * Suspend/resume snapshot (§2.9): the active-state vector (here: the
 * enabled frontier) and the input symbol counter. Restoring into a fresh
 * simulator bound to the same mapped automaton continues the stream
 * exactly where it left off.
 */
struct SimCheckpoint
{
    uint64_t symbolOffset = 0;
    std::vector<StateId> enabledStates;
    /**
     * Per-state accumulated scores, parallel to enabledStates. Empty for
     * unweighted automata (and accepted as all-zero on restore into a
     * weighted one); otherwise the same length as enabledStates.
     */
    std::vector<Score> enabledScores;
};

/** Cycle-level simulator bound to one mapped automaton. */
class CacheAutomatonSim
{
  public:
    explicit CacheAutomatonSim(const MappedAutomaton &mapped,
                               const SimOptions &opts = {});

    /**
     * Co-owning variant for automata loaded from disk (the persist
     * layer returns shared ownership so the sim can outlive the
     * loader's scope). @throws CaError when @p mapped is null.
     */
    explicit CacheAutomatonSim(
        std::shared_ptr<const MappedAutomaton> mapped,
        const SimOptions &opts = {});

    /** Rewinds to offset 0 (start states enabled, counters cleared). */
    void reset();

    /** Consumes one chunk of the stream; callable repeatedly. */
    void feed(const uint8_t *data, size_t size);

    /**
     * Finishes accounting (pipeline drain) and returns the cumulative
     * result; the simulator remains usable (feed() continues the stream).
     */
    SimResult result() const;

    /** Convenience: reset, feed the whole buffer, return the result. */
    SimResult run(const uint8_t *data, size_t size);

    /**
     * run() with one-off options: @p opts applies to this run only; the
     * originally-bound options are restored before returning, so later
     * feed()/run() calls behave as if this call never happened.
     */
    SimResult run(const uint8_t *data, size_t size,
                  const SimOptions &opts);

    SimResult
    run(const std::vector<uint8_t> &input)
    {
        return run(input.data(), input.size());
    }

    /**
     * Moves out the reports accumulated since the last
     * reset()/restore()/takeReports(); activity counters are untouched.
     * Lets an incremental driver (the multi-stream runtime) drain the
     * §2.8 output buffer between feed() slices without copying or
     * re-reading earlier reports.
     */
    std::vector<Report> takeReports();

    /** Absolute stream position: the offset the next symbol gets. */
    uint64_t streamOffset() const { return kernel_.offset(); }

    /** Captures the §2.9 suspend state. */
    SimCheckpoint checkpoint() const;

    /**
     * Restores a checkpoint taken from a simulator of the same mapped
     * automaton. Counters and reports restart from zero (the OS keeps the
     * already-drained output buffer); the frontier and offset resume.
     */
    void restore(const SimCheckpoint &ckpt);

    const MappedAutomaton &mapped() const { return ctx_.mapped(); }

    /** True when the bound automaton carries transition weights. */
    bool scored() const { return ctx_.scored(); }

    /**
     * Point-in-time copy of the per-block kernel-decision counters.
     * Safe to call from another thread while feed() runs (the fields
     * are kept in relaxed atomics and read individually, so the copy is
     * approximately — not transactionally — consistent).
     */
    KernelDecisionStats kernelStats() const;

  private:
    /**
     * The hardware accounting policy the shared kernel runs under
     * (match/kernel.h). Per cycle it counts the enabled frontier, active
     * partitions, active states, G1/G4 crossings and fired reports, and
     * records the optional CycleTrace; per block it counts symbols, FIFO
     * refills, output-buffer interrupts and the kernel decisions.
     */
    class Accounting
    {
      public:
        static constexpr bool kHardware = true;

        /** One cycle's activity, summed by the hooks. */
        struct Cycle
        {
            uint32_t enabled = 0;
            uint32_t partitions = 0;
            uint32_t active = 0;
            uint32_t g1 = 0;
            uint32_t g4 = 0;
        };

        Accounting(const match::MatchContext &ctx, const SimOptions &opts);

        void beginBlock(bool dense, uint64_t offset, size_t n);
        void sparseEnabled(Cycle &c, const std::vector<StateId> &enabled);
        void sparseMatched(Cycle &c, StateId s);
        void densePartition(Cycle &c, uint64_t e0, uint64_t e1,
                            uint64_t e2, uint64_t e3);
        void denseMatched(Cycle &c, size_t word, uint64_t mask);
        void endCycle(Cycle &c, uint32_t fired);
        void endBlock(double density_ewma);

        /** Out of line: the trace is off on every hot path. */
        void recordTrace(const Cycle &c, uint32_t fired);

        /** Restarts the stream counters (reset()/restore()). */
        void clear();

        /** The stream counters (reports live in the kernel). */
        const SimResult &counters() const { return acc_; }

        KernelDecisionStats kernelStats() const;

      private:
        /** Bound by reference: run() with one-off options swaps them. */
        const SimOptions &opts_;

        // Per-state mapping attributes, flattened for the hot loop.
        std::vector<uint32_t> partition_of_;
        std::vector<uint8_t> cross_flags_; ///< bit0: G1 source, bit1: G4.
        /** Dense-index G1-source / G4-source masks (word = di / 64). */
        std::vector<uint64_t> g1_mask_;
        std::vector<uint64_t> g4_mask_;

        // Active-partition dedup for the sparse kernel.
        std::vector<uint64_t> partition_epoch_;
        uint64_t epoch_counter_ = 0;

        /** Reports fired in the current block / not yet interrupted. */
        uint64_t block_fired_ = 0;
        uint64_t pending_reports_ = 0;
        int last_kernel_ = -1; ///< -1 none, 0 sparse, 1 dense.
        SimResult acc_;

        // Engine-lifetime kernel-decision counters behind kernelStats().
        // Relaxed atomics: written once per block on the feeding thread,
        // read concurrently by StreamServer::inspect().
        std::atomic<uint64_t> ks_sparse_blocks_{0};
        std::atomic<uint64_t> ks_dense_blocks_{0};
        std::atomic<uint64_t> ks_sparse_symbols_{0};
        std::atomic<uint64_t> ks_dense_symbols_{0};
        std::atomic<uint64_t> ks_flips_{0};
        std::atomic<double> ks_density_{0.0};
        std::atomic<int> ks_last_{-1};
    };

    /** Hands opts_ to the kernel ($CA_SIM_KERNEL applied). */
    void bindOptions();

    SimOptions opts_;
    /** The kernel's tables; co-owns a loaded automaton. */
    match::MatchContext ctx_;
    match::FrontierKernel<Accounting> kernel_;
};

} // namespace ca

#endif // CA_SIM_ENGINE_H
