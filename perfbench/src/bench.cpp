#include "bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/error.h"
#include "nfa/glushkov.h"
#include "nfa/regex_parser.h"
#include "telemetry/runtime.h"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** Nearest-rank quantile @p q in [0, 1] of @p v (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

} // namespace

void
printLatency(const std::vector<double> &ms, const char *what)
{
    // The highest of p90/p99/p99.9 that leaves ten samples beyond it.
    double pct = 0.0;
    for (double p : {0.9, 0.99, 0.999})
        if (static_cast<double>(ms.size()) * (1.0 - p) >= 10.0)
            pct = p;
    if (pct == 0.0)
        std::printf("# latency_ms: median %.3f over %zu %s (too few for a "
                    "tail)\n",
                    median(ms), ms.size(), what);
    else
        std::printf("# latency_ms: median %.3f over %zu %s, p%g %.3f\n",
                    median(ms), ms.size(), what, pct * 100.0,
                    quantile(ms, pct));
}

double
selfPeakRssMB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
RunResult::metric(const std::string &name, double value,
                  const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
RunResult::op(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
RunResult::ops(uint64_t n, uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

bool
RunResult::has(const std::string &name) const
{
    for (const Entry &e : metrics_)
        if (e.name == name)
            return true;
    return false;
}

void
RunResult::fail(uint64_t n, const std::string &why)
{
    failed_ += n;
    problems_.push_back(why);
}

void
RunResult::problem(const std::string &why)
{
    problems_.push_back(why);
}

void
RunResult::print() const
{
    for (const std::string &p : problems_)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    std::ostringstream os;
    os.precision(12);
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Entry &e = metrics_[i];
        os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
           << (std::isfinite(e.value) ? e.value : 0.0) << ", \"unit\": \""
           << e.unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

Span::Span(const char *name) : name_(name), start_(Clock::now())
{
    if (ca::telemetry::enabled())
        trace_start_us_ = ca::telemetry::TraceCollector::global().nowMicros();
}

double
Span::stop()
{
    if (ms_ >= 0.0)
        return ms_;
    ms_ = msSince(start_);
    if (ca::telemetry::enabled()) {
        auto &tc = ca::telemetry::TraceCollector::global();
        tc.record(std::string("bench.") + name_, "bench", trace_start_us_,
                  tc.nowMicros() - trace_start_us_);
    }
    return ms_;
}

void
writeAll(int fd, const void *data, size_t size)
{
    const char *p = static_cast<const char *>(data);
    while (size > 0) {
        ssize_t n = write(fd, p, size);
        if (n < 0 && errno == EINTR)
            continue;
        CA_FATAL_IF(n <= 0, "write: " << std::strerror(errno));
        p += n;
        size -= static_cast<size_t>(n);
    }
}

void
runForked(const std::function<void(int fd)> &child, void *out, size_t size)
{
    int fds[2];
    CA_FATAL_IF(pipe(fds) != 0, "pipe: " << std::strerror(errno));
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        CA_THROW("fork: " << std::strerror(errno));
    }
    if (pid == 0) {
        close(fds[0]);
        int code = 0;
        try {
            child(fds[1]);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: forked set-up: %s\n", e.what());
            code = 1;
        }
        std::fflush(stderr);
        _exit(code);
    }
    close(fds[1]);
    size_t got = 0;
    char *dst = static_cast<char *>(out);
    while (got < size) {
        ssize_t n = read(fds[0], dst + got, size - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<size_t>(n);
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    CA_FATAL_IF(got != size || !WIFEXITED(status) ||
                    WEXITSTATUS(status) != 0,
                "forked set-up failed (status " << status << ")");
}

LayeredCompile
compileLayered(const std::vector<std::string> &rules)
{
    LayeredCompile out;
    for (size_t i = 0; i < rules.size(); ++i) {
        Span parse("nfa.parse");
        ca::RegexPattern pat = ca::parseRegex(rules[i]);
        out.parseMs += parse.stop();
        Span glushkov("nfa.glushkov");
        ca::GlushkovOptions opts;
        opts.reportId = static_cast<uint32_t>(i);
        ca::Nfa fragment = ca::buildGlushkov(pat, opts);
        out.glushkovMs += glushkov.stop();
        Span merge("nfa.merge");
        out.nfa.merge(fragment);
        out.mergeMs += merge.stop();
    }
    return out;
}

std::vector<ForeignEvent>
readChromeTrace(const std::string &path)
{
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    std::vector<ForeignEvent> out;
    // The exporter writes one flat object per event with fixed key order
    // (name, cat, ph, ts, dur, pid, tid) and no nesting.
    auto field = [&](size_t from, size_t end, const char *key,
                     std::string &value) {
        size_t k = text.find(key, from);
        if (k == std::string::npos || k >= end)
            return false;
        size_t v = k + std::char_traits<char>::length(key);
        size_t stop = text[v] == '"' ? text.find('"', v + 1)
                                     : text.find_first_of(",}", v);
        if (stop == std::string::npos || stop > end)
            return false;
        value = text[v] == '"' ? text.substr(v + 1, stop - v - 1)
                               : text.substr(v, stop - v);
        return true;
    };
    size_t pos = 0;
    while ((pos = text.find("{\"name\":", pos)) != std::string::npos) {
        size_t end = text.find('}', pos);
        if (end == std::string::npos)
            break;
        ForeignEvent ev;
        std::string ts, dur, tid;
        if (field(pos, end, "\"name\":", ev.name) &&
            field(pos, end, "\"cat\":", ev.category) &&
            field(pos, end, "\"ts\":", ts) &&
            field(pos, end, "\"dur\":", dur) &&
            field(pos, end, "\"tid\":", tid)) {
            ev.ts = std::stoull(ts);
            ev.dur = std::stoull(dur);
            ev.tid = static_cast<uint32_t>(std::stoul(tid));
            out.push_back(std::move(ev));
        }
        pos = end;
    }
    return out;
}

bool
writeTrace(const std::string &path, const std::vector<ForeignEvent> &foreign,
           uint64_t foreign_offset_us)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &name, const std::string &cat,
                    uint64_t ts, uint64_t dur, int pid, uint32_t tid) {
        os << (first ? "" : ",") << "{\"name\":\"" << name
           << "\",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"ts\":" << ts
           << ",\"dur\":" << dur << ",\"pid\":" << pid
           << ",\"tid\":" << tid << '}';
        first = false;
    };
    for (const auto &ev : ca::telemetry::TraceCollector::global().events())
        emit(ev.name, ev.category, ev.startMicros, ev.durationMicros, 1,
             ev.tid);
    for (const ForeignEvent &ev : foreign)
        emit(ev.name, ev.category, ev.ts + foreign_offset_us, ev.dur, 2,
             ev.tid);
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
          "\"ca.trace.v1\",\"processes\":{\"1\":\"perfbench_runner\","
          "\"2\":\"ca_server\"}}}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
