/**
 * @file
 * perfbench_runner: runs one benchmark workload in this process.
 *
 *   perfbench_runner --workload ids_scan|bio_align|av_serve --seed N
 *                    --seconds S --trace 0|1 --trace-file F
 *                    --work-dir D --server-bin PATH
 *   perfbench_runner --selftest
 *
 * perfbench/run.py builds the runner and passes these; see
 * perfbench/README.md. The last line of standard output is the run's
 * result as one JSON object. The exit code is 0 only when every output
 * check passed.
 */
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "telemetry/runtime.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in the order BENCHMARK.json lists them. */
constexpr LayerMetric kLayerMetrics[] = {
    {"nfa.parse_ms", "ms"},
    {"nfa.glushkov_ms", "ms"},
    {"nfa.merge_ms", "ms"},
    {"nfa.states", "count"},
    {"compiler.map_ms", "ms"},
    {"compiler.partitions", "count"},
    {"match.context_ms", "ms"},
    {"match.chunk_ms", "ms"},
    {"match.dense_symbols", "count"},
    {"match.sparse_symbols", "count"},
    {"match.spec_hits", "count"},
    {"match.replays", "count"},
    {"match.replayed_MB", "MB"},
    {"match.spec_hit_ratio", "ratio"},
    {"match.join_ms", "ms"},
    {"match.reports", "count"},
    {"score.reports", "count"},
    {"score.witness_hits", "count"},
    {"persist.load_ms", "ms"},
    {"persist.artifact_MB", "MB"},
    {"net.connect_ms", "ms"},
    {"net.open_stream_ms", "ms"},
    {"net.send_ms", "ms"},
    {"net.frames_out", "count"},
    {"net.bytes_out", "count"},
    {"net.reports_sent", "count"},
    {"runtime.slice_busy_ms", "ms"},
    {"runtime.slices", "count"},
    {"runtime.context_switches", "count"},
    {"sim.sparse_symbols", "count"},
    {"sim.dense_symbols", "count"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload ids_scan|bio_align|"
                 "av_serve --seed N --seconds S --trace 0|1\n"
                 "         [--trace-file F] [--work-dir D] "
                 "[--server-bin PATH]\n"
                 "       perfbench_runner --selftest\n");
    return 2;
}

/**
 * Adds every per-layer metric the workload did not produce, as 0: each
 * traced run prints the full per-layer list.
 */
void
fillLayerMetrics(RunResult &res)
{
    for (const LayerMetric &m : kLayerMetrics)
        if (!res.has(m.name))
            res.metric(m.name, 0.0, m.unit);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--selftest")
                return runSelfTest() == 0 ? 0 : 1;
            if (i + 1 >= argc)
                return usage();
            std::string v = argv[++i];
            if (a == "--workload")
                opts.workload = v;
            else if (a == "--seed")
                opts.seed = std::stoull(v);
            else if (a == "--seconds")
                opts.seconds = std::stod(v);
            else if (a == "--trace")
                opts.trace = v == "1";
            else if (a == "--trace-file")
                opts.traceFile = v;
            else if (a == "--work-dir")
                opts.workDir = v;
            else if (a == "--server-bin")
                opts.serverBin = v;
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (opts.seconds <= 0 || (opts.trace && opts.traceFile.empty()))
        return usage();

    // Program spans are collected only in traced runs; end-to-end
    // figures come from runs with telemetry off.
    ca::telemetry::setEnabled(opts.trace);
    RunResult res;
    try {
        if (opts.workload == "ids_scan")
            runIdsScan(opts, res);
        else if (opts.workload == "bio_align")
            runBioAlign(opts, res);
        else if (opts.workload == "av_serve")
            runAvServe(opts, res);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                     e.what());
        return 3;
    }
    if (opts.trace)
        fillLayerMetrics(res);
    res.print();
    return res.correct() ? 0 : 1;
}
