/**
 * @file
 * Shared pieces of the benchmark runner: run options, the result line,
 * timing helpers, the benchmark's own trace spans, and the layered
 * ruleset compile that the traced runs drive.
 *
 * Every layer is measured from outside: the runner times calls into the
 * layer's public functions and reads counters through public APIs. The
 * program itself is not instrumented for the benchmark.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <string>
#include <vector>

#include "nfa/nfa.h"
#include "telemetry/trace.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where a traced run writes its Chrome trace. */
    std::string traceFile;
    /** Scratch directory for artifacts and server output. */
    std::string workDir;
    /** The ca_server binary (av_serve only). */
    std::string serverBin;
};

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Median of one field over a list of records. */
template <class T>
double
medianOf(const std::vector<T> &v, double T::*field)
{
    std::vector<double> x;
    for (const T &t : v)
        x.push_back(t.*field);
    return median(std::move(x));
}

/**
 * Prints the "# latency_ms" line: the median of @p ms, the sample count,
 * and the highest of p90/p99/p99.9 that has ten samples beyond it (none
 * below forty samples).
 */
void printLatency(const std::vector<double> &ms, const char *what);

/** Peak resident set of this process so far, in MB. */
double selfPeakRssMB();

/**
 * One run's outcome, printed as the last line of standard output:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */
class RunResult
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Counts one attempted operation; @p ok false counts it failed. */
    void op(bool ok = true);
    /** Counts @p n attempted operations, @p failed of them failed. */
    void ops(uint64_t n, uint64_t failed);
    /** Marks @p n already-counted operations as failed. */
    void fail(uint64_t n, const std::string &why);
    bool has(const std::string &name) const;
    bool correct() const { return failed_ == 0 && problems_.empty(); }
    /** Records a check failure that is not tied to an operation. */
    void problem(const std::string &why);
    /** Prints problems to stderr and the result line to stdout. */
    void print() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics_;
    std::vector<std::string> problems_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Times one call into a layer. When the run is traced it also records a
 * span "bench.<name>" in the process trace collector, beside the spans
 * the program itself emits.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    /** Ends the span (once) and returns its length in ms. */
    double stop();

  private:
    const char *name_;
    Clock::time_point start_;
    uint64_t trace_start_us_ = 0;
    double ms_ = -1.0;
};

/** Writes all of @p data to @p fd. @throws CaError on failure. */
void writeAll(int fd, const void *data, size_t size);

/**
 * Runs @p child in a forked copy of this process and copies back the
 * @p size bytes it writes to the given pipe into @p out.
 * @throws CaError when the child fails or writes less.
 */
void runForked(const std::function<void(int fd)> &child, void *out,
               size_t size);

/**
 * Runs @p fn in a forked child and returns its result. The child starts
 * from this process's memory state, so a set-up run this way before the
 * process's own set-up pays what the first set-up of a fresh process
 * pays: the allocator has not yet been warmed by an earlier one. Call it
 * only while the process has a single thread.
 */
template <class T>
T
inForkedChild(const std::function<T()> &fn)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T out{};
    runForked(
        [&](int fd) {
            T v = fn();
            writeAll(fd, &v, sizeof v);
        },
        &out, sizeof out);
    return out;
}

/** A ruleset compiled one layer call at a time. */
struct LayeredCompile
{
    ca::Nfa nfa;
    double parseMs = 0.0;
    double glushkovMs = 0.0;
    double mergeMs = 0.0;
};

/**
 * The parseRegex → buildGlushkov → Nfa::merge sequence compileRuleset
 * runs, with each call timed. Produces the same automaton.
 */
LayeredCompile compileLayered(const std::vector<std::string> &rules);

/** An event of another process's Chrome trace. */
struct ForeignEvent
{
    std::string name;
    std::string category;
    uint64_t ts = 0;
    uint64_t dur = 0;
    uint32_t tid = 0;
};

/**
 * Reads the "X" events of a Chrome trace written by the telemetry
 * exporter. Returns an empty list when the file is missing.
 */
std::vector<ForeignEvent> readChromeTrace(const std::string &path);

/**
 * Writes this process's trace events (pid 1) and @p foreign events
 * shifted by @p foreign_offset_us (pid 2) as one Chrome trace.
 */
bool writeTrace(const std::string &path,
                const std::vector<ForeignEvent> &foreign,
                uint64_t foreign_offset_us);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
