#include "sim/engine.h"

#include <algorithm>
#include <bit>

#include "core/error.h"
#include "match/kernel_impl.h"
#include "telemetry/telemetry.h"

namespace ca {

#if CA_TELEMETRY
namespace {

/**
 * Registry handles for the sim counters, resolved once per process. The
 * hot loop never touches these: feed() flushes chunk-level deltas on
 * exit, so the per-symbol path is identical with telemetry on or off and
 * the disabled path costs one branch per feed() call.
 */
struct SimCounters
{
    telemetry::Counter &symbols;
    telemetry::Counter &activeStates;
    telemetry::Counter &activePartitionCycles;
    telemetry::Counter &g1Crossings;
    telemetry::Counter &g4Crossings;
    telemetry::Counter &reports;
    telemetry::Counter &fifoRefills;
    telemetry::Counter &outputBufferInterrupts;
    telemetry::Counter &kernelSparseSymbols;
    telemetry::Counter &kernelDenseSymbols;
    telemetry::Counter &kernelSwitches;
    telemetry::Histogram &feedSymbols;

    static SimCounters &
    get()
    {
        auto &reg = telemetry::MetricsRegistry::global();
        static SimCounters c{
            reg.counter("ca.sim.symbols"),
            reg.counter("ca.sim.active_states"),
            reg.counter("ca.sim.active_partition_cycles"),
            reg.counter("ca.sim.g1_crossings"),
            reg.counter("ca.sim.g4_crossings"),
            reg.counter("ca.sim.reports"),
            reg.counter("ca.sim.fifo_refills"),
            reg.counter("ca.sim.output_buffer_interrupts"),
            reg.counter("ca.sim.kernel_sparse_symbols"),
            reg.counter("ca.sim.kernel_dense_symbols"),
            reg.counter("ca.sim.kernel_switches"),
            reg.histogram("ca.sim.feed_symbols"),
        };
        return c;
    }
};

} // namespace
#endif // CA_TELEMETRY

ActivityStats
SimResult::activity() const
{
    ActivityStats a;
    if (symbols == 0)
        return a;
    double n = static_cast<double>(symbols);
    a.avgActivePartitions =
        static_cast<double>(totalActivePartitionCycles) / n;
    a.avgActiveStates = static_cast<double>(totalActiveStates) / n;
    a.avgG1Crossings = static_cast<double>(totalG1Crossings) / n;
    a.avgG4Crossings = static_cast<double>(totalG4Crossings) / n;
    return a;
}

double
SimResult::avgActiveStates() const
{
    return symbols == 0
        ? 0.0
        : static_cast<double>(totalActiveStates) /
            static_cast<double>(symbols);
}

double
SimResult::seconds(double freq_hz) const
{
    return static_cast<double>(cycles) / freq_hz;
}

CacheAutomatonSim::Accounting::Accounting(const match::MatchContext &ctx,
                                          const SimOptions &opts)
    : opts_(opts)
{
    const MappedAutomaton &mapped = ctx.mapped();
    const size_t n = mapped.nfa().numStates();
    partition_of_.resize(n);
    cross_flags_.assign(n, 0);
    for (StateId s = 0; s < n; ++s)
        partition_of_[s] = mapped.location(s).partition;
    for (const CrossEdge &e : mapped.crossEdges())
        cross_flags_[e.from] |= e.viaG4 ? 2 : 1;
    partition_epoch_.assign(mapped.numPartitions(), ~0ull);

    // Word-parallel G1/G4 counting for the dense kernel, in its dense
    // index space (partition*256 + slot).
    if (ctx.denseAvailable()) {
        const size_t words = static_cast<size_t>(ctx.numPartitions()) *
            match::kWordsPerPartition;
        g1_mask_.assign(words, 0);
        g4_mask_.assign(words, 0);
        for (StateId s = 0; s < n; ++s) {
            const SteLocation &loc = mapped.location(s);
            const uint32_t di =
                loc.partition * match::kSlotsPerPartition + loc.slot;
            const uint64_t bit = uint64_t{1} << (di & 63);
            if (cross_flags_[s] & 1)
                g1_mask_[di >> 6] |= bit;
            if (cross_flags_[s] & 2)
                g4_mask_[di >> 6] |= bit;
        }
    }
}

void
CacheAutomatonSim::Accounting::clear()
{
    block_fired_ = 0;
    pending_reports_ = 0;
    last_kernel_ = -1;
    acc_ = SimResult{};
}

void
CacheAutomatonSim::Accounting::beginBlock(bool dense, uint64_t offset,
                                          size_t n)
{
    const int kernel_id = dense ? 1 : 0;
    if (last_kernel_ >= 0 && last_kernel_ != kernel_id)
        ++acc_.kernelSwitches;
    last_kernel_ = kernel_id;
    (dense ? acc_.denseKernelSymbols : acc_.sparseKernelSymbols) += n;
    acc_.symbols += n;

    // FIFO refills: one cache-block read per refill batch, aligned to
    // the absolute stream offset — the multiples of the batch size in
    // [offset, offset + n).
    const uint64_t refill = static_cast<uint64_t>(
        std::max(opts_.fifoRefillSymbols, 1));
    acc_.fifoRefills += (offset + n + refill - 1) / refill -
        (offset + refill - 1) / refill;

    // Engine-lifetime decision counters (kernelStats()). ks_last_ is
    // tracked separately from last_kernel_, which restore() clears: a
    // flip only counts when the *engine* really changed kernels between
    // consecutive blocks.
    (dense ? ks_dense_blocks_ : ks_sparse_blocks_)
        .fetch_add(1, std::memory_order_relaxed);
    (dense ? ks_dense_symbols_ : ks_sparse_symbols_)
        .fetch_add(n, std::memory_order_relaxed);
    const int ks_prev = ks_last_.load(std::memory_order_relaxed);
    if (ks_prev >= 0 && ks_prev != kernel_id)
        ks_flips_.fetch_add(1, std::memory_order_relaxed);
    ks_last_.store(kernel_id, std::memory_order_relaxed);
}

void
CacheAutomatonSim::Accounting::endBlock(double density_ewma)
{
    // §2.8 output buffer: an interrupt drains outputBufferDepth entries;
    // overshoot past the threshold (several states reporting in one
    // cycle) carries into the next buffer instead of being discarded,
    // so interrupt counts stay exact.
    const uint64_t depth =
        static_cast<uint64_t>(std::max(opts_.outputBufferDepth, 1));
    pending_reports_ += block_fired_;
    block_fired_ = 0;
    acc_.outputBufferInterrupts += pending_reports_ / depth;
    pending_reports_ %= depth;
    ks_density_.store(density_ewma, std::memory_order_relaxed);
}

inline void
CacheAutomatonSim::Accounting::sparseEnabled(
    Cycle &c, const std::vector<StateId> &enabled)
{
    // A partition is active (performs an array read + L-switch access)
    // when its active-state vector has any bit set (§5.3).
    c.enabled = static_cast<uint32_t>(enabled.size());
    const uint64_t epoch = ++epoch_counter_;
    for (StateId s : enabled) {
        const uint32_t p = partition_of_[s];
        if (partition_epoch_[p] != epoch) {
            partition_epoch_[p] = epoch;
            ++c.partitions;
        }
    }
}

inline void
CacheAutomatonSim::Accounting::sparseMatched(Cycle &c, StateId s)
{
    ++c.active;
    const uint8_t flags = cross_flags_[s];
    c.g1 += flags & 1;
    c.g4 += (flags >> 1) & 1;
}

inline void
CacheAutomatonSim::Accounting::densePartition(Cycle &c, uint64_t e0,
                                              uint64_t e1, uint64_t e2,
                                              uint64_t e3)
{
    ++c.partitions;
    c.enabled += static_cast<uint32_t>(std::popcount(e0) +
                                       std::popcount(e1) +
                                       std::popcount(e2) +
                                       std::popcount(e3));
}

inline void
CacheAutomatonSim::Accounting::denseMatched(Cycle &c, size_t word,
                                            uint64_t mask)
{
    c.active += static_cast<uint32_t>(std::popcount(mask));
    c.g1 += static_cast<uint32_t>(std::popcount(mask & g1_mask_[word]));
    c.g4 += static_cast<uint32_t>(std::popcount(mask & g4_mask_[word]));
}

inline void
CacheAutomatonSim::Accounting::endCycle(Cycle &c, uint32_t fired)
{
    acc_.totalEnabledStates += c.enabled;
    acc_.totalActivePartitionCycles += c.partitions;
    acc_.totalActiveStates += c.active;
    acc_.totalG1Crossings += c.g1;
    acc_.totalG4Crossings += c.g4;
    block_fired_ += fired;
    if (opts_.recordTrace)
        recordTrace(c, fired);
}

void
CacheAutomatonSim::Accounting::recordTrace(const Cycle &c, uint32_t fired)
{
    acc_.trace.push_back(
        CycleTrace{c.partitions, c.active, c.g1, c.g4, fired});
}

KernelDecisionStats
CacheAutomatonSim::Accounting::kernelStats() const
{
    KernelDecisionStats ks;
    ks.sparseBlocks = ks_sparse_blocks_.load(std::memory_order_relaxed);
    ks.denseBlocks = ks_dense_blocks_.load(std::memory_order_relaxed);
    ks.sparseSymbols =
        ks_sparse_symbols_.load(std::memory_order_relaxed);
    ks.denseSymbols = ks_dense_symbols_.load(std::memory_order_relaxed);
    ks.kernelFlips = ks_flips_.load(std::memory_order_relaxed);
    ks.densityEwma = ks_density_.load(std::memory_order_relaxed);
    ks.lastKernel = ks_last_.load(std::memory_order_relaxed);
    return ks;
}

} // namespace ca

namespace ca::match {
template class FrontierKernel<CacheAutomatonSim::Accounting>;
} // namespace ca::match

namespace ca {

CacheAutomatonSim::CacheAutomatonSim(
    std::shared_ptr<const MappedAutomaton> mapped, const SimOptions &opts)
    : opts_(opts), ctx_(std::move(mapped)), kernel_(ctx_, opts_, ctx_, opts_)
{
    bindOptions();
    reset();
}

CacheAutomatonSim::CacheAutomatonSim(const MappedAutomaton &mapped,
                                     const SimOptions &opts)
    : opts_(opts), ctx_(mapped), kernel_(ctx_, opts_, ctx_, opts_)
{
    bindOptions();
    reset();
}

void
CacheAutomatonSim::bindOptions()
{
    kernel_.setOptions(match::withSimKernelOverride(opts_));
    kernel_.setCollectReports(opts_.collectReports);
}

void
CacheAutomatonSim::reset()
{
    kernel_.reset();
    kernel_.accounting().clear();
}

KernelDecisionStats
CacheAutomatonSim::kernelStats() const
{
    return kernel_.accounting().kernelStats();
}

void
CacheAutomatonSim::feed(const uint8_t *data, size_t size)
{
#if CA_TELEMETRY
    const bool telemetry_on = telemetry::enabled();
    const SimResult &acc = kernel_.accounting().counters();
    struct
    {
        uint64_t symbols, activeStates, activePartitionCycles, g1, g4,
            reports, fifoRefills, obInterrupts, sparseSyms, denseSyms,
            kernelSwitches;
    } before = {};
    if (telemetry_on) {
        before = {acc.symbols, acc.totalActiveStates,
                  acc.totalActivePartitionCycles, acc.totalG1Crossings,
                  acc.totalG4Crossings, kernel_.reports().size(),
                  acc.fifoRefills, acc.outputBufferInterrupts,
                  acc.sparseKernelSymbols, acc.denseKernelSymbols,
                  acc.kernelSwitches};
    }
#endif
    kernel_.feed(data, size);
#if CA_TELEMETRY
    if (telemetry_on) {
        SimCounters &c = SimCounters::get();
        c.symbols.add(acc.symbols - before.symbols);
        c.activeStates.add(acc.totalActiveStates - before.activeStates);
        c.activePartitionCycles.add(acc.totalActivePartitionCycles -
                                    before.activePartitionCycles);
        c.g1Crossings.add(acc.totalG1Crossings - before.g1);
        c.g4Crossings.add(acc.totalG4Crossings - before.g4);
        c.reports.add(kernel_.reports().size() - before.reports);
        c.fifoRefills.add(acc.fifoRefills - before.fifoRefills);
        c.outputBufferInterrupts.add(acc.outputBufferInterrupts -
                                     before.obInterrupts);
        c.kernelSparseSymbols.add(acc.sparseKernelSymbols -
                                  before.sparseSyms);
        c.kernelDenseSymbols.add(acc.denseKernelSymbols -
                                 before.denseSyms);
        c.kernelSwitches.add(acc.kernelSwitches - before.kernelSwitches);
        c.feedSymbols.observe(size);
    }
#endif
}

SimResult
CacheAutomatonSim::result() const
{
    SimResult out = kernel_.accounting().counters();
    out.reports = kernel_.reports();
    // 3-stage pipeline: the last symbol completes 2 cycles after issue.
    out.cycles = out.symbols == 0 ? 0 : out.symbols + 2;
    return out;
}

SimResult
CacheAutomatonSim::run(const uint8_t *data, size_t size)
{
    CA_TRACE_SCOPE("ca.sim.run");
    reset();
    feed(data, size);
    return result();
}

SimResult
CacheAutomatonSim::run(const uint8_t *data, size_t size,
                       const SimOptions &opts)
{
    // One-off options: restore the bound ones when the run ends, so a
    // later feed()/run() still sees what the sim was constructed with.
    const SimOptions saved = opts_;
    opts_ = opts;
    bindOptions();
    SimResult out;
    try {
        out = run(data, size);
    } catch (...) {
        opts_ = saved;
        bindOptions();
        throw;
    }
    opts_ = saved;
    bindOptions();
    return out;
}

std::vector<Report>
CacheAutomatonSim::takeReports()
{
    return kernel_.takeReports();
}

SimCheckpoint
CacheAutomatonSim::checkpoint() const
{
    // Weighted automata checkpoint the per-state scores alongside the
    // frontier, parallel in its canonical ascending order.
    return SimCheckpoint{kernel_.offset(), kernel_.frontier(),
                         kernel_.frontierScores()};
}

void
CacheAutomatonSim::restore(const SimCheckpoint &ckpt)
{
    kernel_.setState(ckpt.enabledStates, ckpt.enabledScores,
                     ckpt.symbolOffset);
    kernel_.accounting().clear();
}

} // namespace ca
