/**
 * @file
 * The benchmark's workloads. Each one sets the system up from its rule
 * source several times (setup_s is the median), makes one checked,
 * untimed warm-up pass, then times fixed-size requests for the run's
 * seconds. Untraced runs fill in the end-to-end metrics, traced runs the
 * per-layer ones (perfbench/README.md lists which metric moves which).
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace perfbench {

/** Snort at its published size through ParallelMatcher, degree 2. */
void runIdsScan(const Options &opts, RunResult &res);

/** Scored DNA alignment automaton on the serial MatchEngine. */
void runBioAlign(const Options &opts, RunResult &res);

/** ca_server with a ClamAV artifact under a closed request loop. */
void runAvServe(const Options &opts, RunResult &res);

/**
 * Corrupts one report or score at a time and confirms that each output
 * check rejects it. Returns the number of checks that did not.
 */
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
