/**
 * @file
 * bio_align: scored approximate DNA matching.
 *
 * A multi-pattern makeBioWorkload automaton (affine-gap scores, edit
 * budget 2) runs on the serial MatchEngine over a bioSampleInput stream,
 * one 16 KiB feed per request. It runs the dense kernel ids_scan uses,
 * with scores, so a kernel change that helps one use and costs the other
 * shows between the two workloads.
 */
#include <memory>
#include <set>

#include "checks.h"
#include "compiler/mapping.h"
#include "match/match_engine.h"
#include "score/bioseq.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPatterns = 16;
constexpr int kPatternLen = 24;
constexpr uint64_t kPatternSeed = 0xB10A11;
/** Expected planted (mutated) pattern copies per stream symbol. */
constexpr double kPlantRate = 0.01;
constexpr size_t kStreamBytes = 256 << 10;
constexpr size_t kChunkBytes = 16 << 10;
constexpr int kSetups = 31;

ca::BioPatternOptions
patternOptions()
{
    ca::BioPatternOptions opt;
    opt.maxEdits = 2;
    opt.score = ca::BioScoreParams{2, -1, -2, -1};
    return opt;
}

struct Stack
{
    ca::BioWorkload work;
    std::shared_ptr<const ca::MappedAutomaton> mapped;
    std::unique_ptr<ca::match::MatchEngine> engine;
};

struct SetupTimes
{
    double totalS = 0, glushkovMs = 0, mergeMs = 0, mapMs = 0,
           contextMs = 0;
};

/**
 * Patterns → engine ready for its first byte. With @p layered patterns
 * the automaton is built one bioLevenshteinNfa / Nfa::merge call at a
 * time (the traced run); otherwise makeBioWorkload builds it.
 */
SetupTimes
setUp(const std::vector<std::string> &layered,
      const ca::BioPatternOptions &popt, Stack &stack)
{
    SetupTimes t;
    Clock::time_point t0 = Clock::now();
    if (!layered.empty()) {
        for (size_t r = 0; r < layered.size(); ++r) {
            Span build("nfa.glushkov");
            ca::Nfa fragment = ca::bioLevenshteinNfa(
                layered[r], popt, static_cast<uint32_t>(r));
            t.glushkovMs += build.stop();
            Span merge("nfa.merge");
            stack.work.nfa.merge(fragment);
            t.mergeMs += merge.stop();
        }
        stack.work.nfa.validate();
        stack.work.patterns = layered;
        stack.work.options = popt;
        stack.work.alphabet = ca::kDnaAlphabet;
    } else {
        stack.work = ca::makeBioWorkload(kPatterns, kPatternLen, popt,
                                         ca::kDnaAlphabet, kPatternSeed);
    }
    Span map("compiler.map");
    stack.mapped = std::make_shared<ca::MappedAutomaton>(
        ca::mapPerformance(stack.work.nfa));
    t.mapMs = map.stop();
    Span context("match.context");
    auto ctx = std::make_shared<ca::match::MatchContext>(stack.mapped);
    t.contextMs = context.stop();
    stack.engine = std::make_unique<ca::match::MatchEngine>(ctx);
    t.totalS = msSince(t0) / 1e3;
    return t;
}

} // namespace

void
runBioAlign(const Options &opts, RunResult &res)
{
    const ca::BioPatternOptions popt = patternOptions();

    // The pattern texts and the stream come first: the traced set-up
    // needs the texts, and the stream is made outside set-up time.
    const ca::BioWorkload reference = ca::makeBioWorkload(
        kPatterns, kPatternLen, popt, ca::kDnaAlphabet, kPatternSeed);
    const std::vector<uint8_t> stream =
        ca::bioSampleInput(reference, kStreamBytes, kPlantRate, opts.seed);
    const std::vector<std::string> layered =
        opts.trace ? reference.patterns : std::vector<std::string>{};

    // All set-ups but the last run in forked children (see ids_scan).
    std::vector<SetupTimes> setups;
    for (int i = 0; i + 1 < kSetups; ++i)
        setups.push_back(inForkedChild<SetupTimes>([&] {
            Stack scratch;
            return setUp(layered, popt, scratch);
        }));
    Stack stack;
    setups.push_back(setUp(layered, popt, stack));
    ca::match::MatchEngine *engine = stack.engine.get();
    const ca::BioWorkload &work = stack.work;
    const std::shared_ptr<const ca::MappedAutomaton> &mapped = stack.mapped;

    if (work.patterns != reference.patterns)
        res.problem("bio_align: set-up built other patterns");
    const size_t chunks = kStreamBytes / kChunkBytes;

    // Warm-up pass, checked against the alignment DP; it is the
    // reference for every timed feed.
    std::vector<std::vector<ca::Report>> ref(chunks);
    std::vector<ca::Report> all;
    engine->reset();
    const uint64_t dense0 = engine->denseSymbols();
    const uint64_t sparse0 = engine->sparseSymbols();
    for (size_t c = 0; c < chunks; ++c) {
        engine->feed(stream.data() + c * kChunkBytes, kChunkBytes);
        ref[c] = engine->takeReports();
        res.op();
        all.insert(all.end(), ref[c].begin(), ref[c].end());
    }
    const uint64_t dense_symbols = engine->denseSymbols() - dense0;
    const uint64_t sparse_symbols = engine->sparseSymbols() - sparse0;
    ScoreCheck scores = checkAlignmentScores(all, work.patterns,
                                             stream.data(), stream.size(),
                                             popt);
    if (!scores.badOffsets.empty()) {
        std::set<size_t> bad;
        for (uint64_t off : scores.badOffsets)
            bad.insert(off / kChunkBytes);
        res.fail(bad.size(),
                 "bio_align: best reported score differs from "
                 "bioAlignWitness at offset " +
                     std::to_string(scores.badOffsets.front()) + " (" +
                     std::to_string(scores.badOffsets.size()) +
                     " offsets)");
    }

    std::vector<double> latency_ms;
    uint64_t bytes = 0, mismatched = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0;; ++i) {
        size_t c = i % chunks;
        if (c == 0)
            engine->reset();
        Span call("match.chunk");
        engine->feed(stream.data() + c * kChunkBytes, kChunkBytes);
        std::vector<ca::Report> got = engine->takeReports();
        latency_ms.push_back(call.stop());
        bool ok = reportMismatches(std::move(got), ref[c]).empty();
        res.op(ok);
        mismatched += !ok;
        bytes += kChunkBytes;
        if (msSince(t0) >= opts.seconds * 1e3)
            break;
    }
    double elapsed_s = msSince(t0) / 1e3;
    if (mismatched)
        res.problem("bio_align: " + std::to_string(mismatched) +
                    " timed feeds returned other reports than the checked "
                    "warm-up pass");

    std::printf("# bio_align: %d patterns x %d bp, %zu states, %zu KiB "
                "stream, %zu KiB feeds, %zu reports, %llu scored hits\n",
                kPatterns, kPatternLen, mapped->nfa().numStates(),
                kStreamBytes >> 10, kChunkBytes >> 10, all.size(),
                static_cast<unsigned long long>(scores.reportedHits));
    printLatency(latency_ms, "feeds");

    if (!opts.trace) {
        res.metric("setup_s", medianOf(setups, &SetupTimes::totalS), "s");
        res.metric("throughput_MBps", static_cast<double>(bytes) / 1e6 /
                                          elapsed_s,
                   "MB/s");
        res.metric("latency_ms", median(latency_ms), "ms");
        res.metric("rss_peak_MB", selfPeakRssMB(), "MB");
        return;
    }
    res.metric("nfa.glushkov_ms", medianOf(setups, &SetupTimes::glushkovMs),
               "ms");
    res.metric("nfa.merge_ms", medianOf(setups, &SetupTimes::mergeMs), "ms");
    res.metric("nfa.states",
               static_cast<double>(mapped->nfa().numStates()), "count");
    res.metric("compiler.map_ms", medianOf(setups, &SetupTimes::mapMs), "ms");
    res.metric("compiler.partitions",
               static_cast<double>(mapped->numPartitions()), "count");
    res.metric("match.context_ms", medianOf(setups, &SetupTimes::contextMs),
               "ms");
    res.metric("match.chunk_ms", median(latency_ms), "ms");
    res.metric("match.dense_symbols",
               static_cast<double>(dense_symbols),
               "count");
    res.metric("match.sparse_symbols",
               static_cast<double>(sparse_symbols),
               "count");
    res.metric("match.reports", static_cast<double>(all.size()), "count");
    res.metric("score.reports", static_cast<double>(scores.reportedHits),
               "count");
    res.metric("score.witness_hits", static_cast<double>(scores.witnessHits),
               "count");
    if (!writeTrace(opts.traceFile, {}, 0))
        res.problem("cannot write trace file " + opts.traceFile);
}

} // namespace perfbench
