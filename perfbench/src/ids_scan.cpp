/**
 * @file
 * ids_scan: intrusion detection on one long payload stream.
 *
 * The Snort-like ruleset at its published size (2585 rules) is compiled
 * from rule text and the stream is matched through ParallelMatcher at a
 * fixed degree of 2, one 64 KiB chunk call per request. The compiler
 * (regex/Glushkov/merge) dominates set-up and the dense kernel the scan;
 * the ruleset's `.*` rules keep long memory, so speculation replays.
 */
#include <memory>
#include <set>

#include "checks.h"
#include "compiler/mapping.h"
#include "match/parallel_matcher.h"
#include "nfa/glushkov.h"
#include "workload/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kStreamBytes = 512 << 10;
constexpr size_t kChunkBytes = 64 << 10;
/** One planted witness per slot of this many bytes. */
constexpr size_t kPlantSlot = 4 << 10;
/** The oracle re-matches this many leading chunk calls. */
constexpr size_t kOracleChunks = 3;
constexpr int kSetups = 3;
constexpr size_t kDegree = 2;
/**
 * Speculative sub-chunks of a 64 KiB call are 32 KiB, so the matcher's
 * floor is lowered from its 64 KiB default to let every call speculate.
 */
constexpr size_t kMinSubChunk = 16 << 10;

struct Stack
{
    std::shared_ptr<const ca::MappedAutomaton> mapped;
    std::shared_ptr<const ca::match::MatchContext> ctx;
    std::unique_ptr<ca::match::ParallelMatcher> matcher;
};

struct SetupTimes
{
    double totalS = 0, parseMs = 0, glushkovMs = 0, mergeMs = 0, mapMs = 0,
           contextMs = 0, states = 0;
};

/**
 * Rule text → matcher ready for its first byte. The traced run drives
 * the compile one layer call at a time.
 */
SetupTimes
setUp(const std::vector<std::string> &rules, bool layered, Stack &stack)
{
    SetupTimes t;
    Clock::time_point t0 = Clock::now();
    ca::Nfa nfa;
    if (layered) {
        LayeredCompile lc = compileLayered(rules);
        t.parseMs = lc.parseMs;
        t.glushkovMs = lc.glushkovMs;
        t.mergeMs = lc.mergeMs;
        nfa = std::move(lc.nfa);
    } else {
        nfa = ca::compileRuleset(rules);
    }
    Span map("compiler.map");
    stack.mapped =
        std::make_shared<ca::MappedAutomaton>(ca::mapPerformance(nfa));
    t.mapMs = map.stop();
    Span context("match.context");
    stack.ctx = std::make_shared<ca::match::MatchContext>(stack.mapped);
    t.contextMs = context.stop();
    ca::match::ParallelOptions popt;
    popt.degree = kDegree;
    popt.minChunkBytes = kMinSubChunk;
    stack.matcher =
        std::make_unique<ca::match::ParallelMatcher>(stack.ctx, popt);
    t.totalS = msSince(t0) / 1e3;
    t.states = static_cast<double>(nfa.numStates());
    return t;
}

} // namespace

void
runIdsScan(const Options &opts, RunResult &res)
{
    const ca::Benchmark &snort = ca::findBenchmark("Snort");
    const std::vector<std::string> rules =
        snort.rules(1.0, ca::kDefaultRuleSeed);

    ca::InputSpec spec;
    spec.kind = snort.stream;
    std::vector<uint8_t> stream =
        ca::buildInput(spec, kStreamBytes, opts.seed);
    const std::vector<PlantedWitness> planted =
        plantWitnesses(stream, rules, opts.seed, kPlantSlot);
    const size_t chunks = kStreamBytes / kChunkBytes;

    // Set-up: rule text → first matchable byte. All but the last run in
    // forked children, so each one starts from a cold allocator as a
    // freshly started process would.
    std::vector<SetupTimes> setups;
    for (int i = 0; i + 1 < kSetups; ++i)
        setups.push_back(inForkedChild<SetupTimes>([&] {
            Stack scratch;
            return setUp(rules, opts.trace, scratch);
        }));
    Stack stack;
    setups.push_back(setUp(rules, opts.trace, stack));
    const size_t states = stack.mapped->nfa().numStates();
    for (const SetupTimes &t : setups)
        if (t.states != static_cast<double>(states))
            res.problem("set-ups built automata of different sizes");
    ca::match::ParallelMatcher &pm = *stack.matcher;
    const std::vector<ca::StateId> start = stack.ctx->startFrontier();

    // Warm-up pass over the whole stream; its reports are checked
    // against the oracle and the planted witnesses, then serve as the
    // reference for every timed call.
    std::vector<std::vector<ca::Report>> ref(chunks);
    std::vector<ca::Report> all;
    {
        std::vector<ca::StateId> frontier = start;
        uint64_t offset = 0;
        for (size_t c = 0; c < chunks; ++c) {
            ca::match::MatchResult r = pm.match(
                frontier, offset, stream.data() + c * kChunkBytes,
                kChunkBytes);
            res.op();
            ref[c] = std::move(r.reports);
            all.insert(all.end(), ref[c].begin(), ref[c].end());
            frontier = std::move(r.frontier);
            offset = r.endOffset;
        }
    }
    std::set<size_t> bad_chunks;
    {
        ca::NfaEngine oracle(stack.mapped->nfa());
        std::vector<ca::Report> want =
            oracle.run(stream.data(), kOracleChunks * kChunkBytes);
        std::vector<ca::Report> got;
        for (size_t c = 0; c < kOracleChunks; ++c)
            got.insert(got.end(), ref[c].begin(), ref[c].end());
        std::vector<uint64_t> diff = reportMismatches(got, want);
        for (uint64_t off : diff)
            bad_chunks.insert(off / kChunkBytes);
        if (!diff.empty())
            res.problem("ids_scan: reports differ from the NfaEngine oracle "
                        "at offset " + std::to_string(diff.front()));
    }
    {
        std::vector<uint64_t> missing = missingWitnesses(all, planted);
        for (uint64_t off : missing)
            bad_chunks.insert(off / kChunkBytes);
        if (!missing.empty())
            res.problem("ids_scan: planted witness ending at offset " +
                        std::to_string(missing.front()) + " not reported (" +
                        std::to_string(missing.size()) + " of " +
                        std::to_string(planted.size()) + " missing)");
    }
    if (!bad_chunks.empty())
        res.fail(bad_chunks.size(), "ids_scan: warm-up chunk calls failed");

    // Timed phase: fixed-size chunk calls, the stream restarting from the
    // start frontier at its end.
    const ca::match::ParallelStats before = pm.stats();
    std::vector<double> latency_ms;
    uint64_t bytes = 0, mismatched = 0;
    std::vector<ca::StateId> frontier = start;
    uint64_t offset = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0;; ++i) {
        size_t c = i % chunks;
        if (c == 0) {
            frontier = start;
            offset = 0;
        }
        Span call("match.chunk");
        ca::match::MatchResult r = pm.match(
            frontier, offset, stream.data() + c * kChunkBytes, kChunkBytes);
        latency_ms.push_back(call.stop());
        bool ok = reportMismatches(r.reports, ref[c]).empty();
        res.op(ok);
        mismatched += !ok;
        bytes += kChunkBytes;
        frontier = std::move(r.frontier);
        offset = r.endOffset;
        if (msSince(t0) >= opts.seconds * 1e3)
            break;
    }
    double elapsed_s = msSince(t0) / 1e3;
    if (mismatched)
        res.problem("ids_scan: " + std::to_string(mismatched) +
                    " timed chunk calls returned other reports than the "
                    "checked warm-up pass");
    const ca::match::ParallelStats after = pm.stats();

    std::printf("# ids_scan: %zu rules, %zu states, %zu planted witnesses, "
                "%zu KiB stream, %zu KiB chunks, degree %zu\n",
                rules.size(), states, planted.size(), kStreamBytes >> 10,
                kChunkBytes >> 10, pm.degree());
    printLatency(latency_ms, "chunk calls");

    if (!opts.trace) {
        res.metric("setup_s", medianOf(setups, &SetupTimes::totalS), "s");
        res.metric("throughput_MBps", static_cast<double>(bytes) / 1e6 /
                                          elapsed_s,
                   "MB/s");
        res.metric("latency_ms", median(latency_ms), "ms");
        res.metric("rss_peak_MB", selfPeakRssMB(), "MB");
        return;
    }
    uint64_t hits = after.speculationHits - before.speculationHits;
    uint64_t replays = after.replays - before.replays;
    res.metric("nfa.parse_ms", medianOf(setups, &SetupTimes::parseMs), "ms");
    res.metric("nfa.glushkov_ms", medianOf(setups, &SetupTimes::glushkovMs),
               "ms");
    res.metric("nfa.merge_ms", medianOf(setups, &SetupTimes::mergeMs), "ms");
    res.metric("nfa.states", static_cast<double>(states), "count");
    res.metric("compiler.map_ms", medianOf(setups, &SetupTimes::mapMs), "ms");
    res.metric("compiler.partitions",
               static_cast<double>(stack.mapped->numPartitions()), "count");
    res.metric("match.context_ms", medianOf(setups, &SetupTimes::contextMs),
               "ms");
    res.metric("match.chunk_ms", median(latency_ms), "ms");
    res.metric("match.spec_hits", static_cast<double>(hits), "count");
    res.metric("match.replays", static_cast<double>(replays), "count");
    res.metric("match.replayed_MB",
               static_cast<double>(after.replayedBytes -
                                   before.replayedBytes) / 1e6,
               "MB");
    res.metric("match.spec_hit_ratio",
               hits + replays ? static_cast<double>(hits) /
                       static_cast<double>(hits + replays)
                              : 0.0,
               "ratio");
    res.metric("match.join_ms",
               static_cast<double>(after.joinMicros - before.joinMicros) /
                   1e3,
               "ms");
    res.metric("match.reports", static_cast<double>(all.size()), "count");
    std::printf("# set-up breakdown (median of %d): parse %.0f ms, glushkov "
                "%.0f ms, merge %.0f ms, map %.0f ms, context %.0f ms, "
                "total %.3f s\n",
                kSetups, medianOf(setups, &SetupTimes::parseMs),
                medianOf(setups, &SetupTimes::glushkovMs),
                medianOf(setups, &SetupTimes::mergeMs),
                medianOf(setups, &SetupTimes::mapMs),
                medianOf(setups, &SetupTimes::contextMs),
                medianOf(setups, &SetupTimes::totalS));
    if (!writeTrace(opts.traceFile, {}, 0))
        res.problem("cannot write trace file " + opts.traceFile);
}

} // namespace perfbench
