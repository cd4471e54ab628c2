/**
 * @file
 * av_serve: an antivirus-signature service.
 *
 * ca_server serves a packed ClamAV artifact (quarter scale) with two
 * workers. A closed loop of 2 connections x 2 long-lived streams sends
 * 4 KiB requests, each followed by a FLUSH; a request is one send+FLUSH
 * round trip. The work sits in persist (artifact load), net, runtime and
 * the cycle-level sim's sparse kernel; the dense kernel and the compiler
 * do almost none of it (the artifact is built before set-up starts).
 */
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "checks.h"
#include "compiler/mapping.h"
#include "core/error.h"
#include "net/client.h"
#include "nfa/glushkov.h"
#include "persist/artifact.h"
#include "workload/suite.h"
#include "workloads.h"

extern char **environ;

namespace perfbench {

namespace {

constexpr double kRuleScale = 0.25;
constexpr size_t kConnections = 2;
constexpr size_t kStreamsPerConnection = 2;
constexpr size_t kStreamBytes = 256 << 10;
constexpr size_t kRequestBytes = 4 << 10;
constexpr int kSetups = 5;
constexpr int kServerWorkers = 2;
constexpr int kStartTimeoutMs = 60'000;
constexpr int kStopTimeoutMs = 20'000;

/** A ca_server child process with its stdout on a pipe. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &bin,
                  const std::vector<std::string> &args)
    {
        int fds[2];
        CA_FATAL_IF(pipe(fds) != 0, "pipe: " << std::strerror(errno));
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(bin.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        close(fds[1]);
        out_ = fds[0];
        if (rc != 0) {
            close(out_);
            CA_THROW("cannot start " << bin << ": " << std::strerror(rc));
        }
    }

    ~ServerProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        if (out_ >= 0)
            close(out_);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Reads stdout until a line starting with @p prefix; its rest. */
    std::string
    awaitLine(const std::string &prefix, int timeout_ms)
    {
        Clock::time_point t0 = Clock::now();
        for (;;) {
            size_t nl;
            while ((nl = buf_.find('\n')) != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                if (line.rfind(prefix, 0) == 0)
                    return line.substr(prefix.size());
            }
            int left = timeout_ms - static_cast<int>(msSince(t0));
            CA_FATAL_IF(left <= 0 || !readSome(left),
                        "ca_server did not print '" << prefix << "'");
        }
    }

    /**
     * SIGTERM, then waits for a graceful exit (SIGKILL after the
     * timeout). Returns the child's peak resident set in MB.
     */
    double
    stop()
    {
        CA_FATAL_IF(pid_ <= 0, "ca_server already stopped");
        kill(pid_, SIGTERM);
        Clock::time_point t0 = Clock::now();
        rusage ru{};
        int status = 0;
        for (;;) {
            // Keep the pipe drained so the final stats print cannot block.
            readSome(10);
            pid_t r = wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_)
                break;
            if (msSince(t0) > kStopTimeoutMs) {
                kill(pid_, SIGKILL);
                wait4(pid_, &status, 0, &ru);
                pid_ = -1;
                CA_THROW("ca_server did not stop within "
                         << kStopTimeoutMs << " ms");
            }
        }
        pid_ = -1;
        CA_FATAL_IF(!WIFEXITED(status) || WEXITSTATUS(status) != 0,
                    "ca_server exited abnormally (status " << status << ")");
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

  private:
    bool
    readSome(int timeout_ms)
    {
        pollfd p{out_, POLLIN, 0};
        if (poll(&p, 1, timeout_ms) <= 0)
            return false;
        char tmp[4096];
        ssize_t n = read(out_, tmp, sizeof(tmp));
        if (n <= 0)
            return false;
        buf_.append(tmp, static_cast<size_t>(n));
        return true;
    }

    pid_t pid_ = -1;
    int out_ = -1;
    std::string buf_;
};

/** One long-lived stream of the load: its bytes and what it sent. */
struct StreamLoad
{
    uint32_t id = 0;
    const std::vector<uint8_t> *buffer = nullptr;
    const RepeatedStreamOracle *oracle = nullptr;
    uint64_t sent = 0;
    uint64_t reports = 0;
};

/** One connection of the closed loop and the streams it carries. */
struct Connection
{
    ca::net::MatchClient client;
    std::vector<StreamLoad> streams;
};

/** Result of one connection's closed loop. */
struct LoopTally
{
    std::vector<double> latencyMs;
    double sendMs = 0.0;
    uint64_t bytes = 0;
    uint64_t requests = 0;
    uint64_t failed = 0;
    std::string firstProblem;
};

/**
 * One request: the next kRequestBytes of the stream, then FLUSH. The
 * reports it returns must equal the oracle's over the same bytes.
 * Returns false when they differ.
 */
bool
request(ca::net::MatchClient &client, StreamLoad &s, LoopTally &tally,
        bool timed)
{
    size_t at = static_cast<size_t>(s.sent % s.buffer->size());
    Clock::time_point t0 = Clock::now();
    client.send(s.id, s.buffer->data() + at, kRequestBytes);
    double send_ms = msSince(t0);
    client.flush(s.id);
    double ms = msSince(t0);
    std::vector<ca::Report> got = client.takeReports(s.id);
    std::vector<ca::Report> want =
        s.oracle->reports(s.sent, s.sent + kRequestBytes);
    s.sent += kRequestBytes;
    s.reports += got.size();
    bool ok = reportMismatches(std::move(got), want).empty();
    if (timed) {
        tally.latencyMs.push_back(ms);
        tally.sendMs += send_ms;
        tally.bytes += kRequestBytes;
    }
    ++tally.requests;
    if (!ok) {
        ++tally.failed;
        if (tally.firstProblem.empty())
            tally.firstProblem = "av_serve: stream " + std::to_string(s.id) +
                " reports differ from the oracle in bytes [" +
                std::to_string(s.sent - kRequestBytes) + ", " +
                std::to_string(s.sent) + ")";
    }
    return ok;
}

} // namespace

void
runAvServe(const Options &opts, RunResult &res)
{
    namespace fs = std::filesystem;
    const ca::Benchmark &clam = ca::findBenchmark("ClamAV");
    const std::vector<std::string> rules =
        clam.rules(kRuleScale, ca::kDefaultRuleSeed);

    // The packed artifact is the service's deployable; building it is
    // not part of set-up.
    ca::Nfa nfa;
    double parse_ms = 0, glushkov_ms = 0, merge_ms = 0, map_ms = 0;
    if (opts.trace) {
        LayeredCompile lc = compileLayered(rules);
        parse_ms = lc.parseMs;
        glushkov_ms = lc.glushkovMs;
        merge_ms = lc.mergeMs;
        nfa = std::move(lc.nfa);
    } else {
        nfa = ca::compileRuleset(rules);
    }
    Span map("compiler.map");
    ca::MappedAutomaton mapped = ca::mapPerformance(nfa);
    map_ms = map.stop();
    fs::create_directories(opts.workDir);
    const std::string artifact = opts.workDir + "/clamav.caa";
    ca::persist::saveArtifact(artifact, mapped);
    const double artifact_mb =
        static_cast<double>(fs::file_size(artifact)) / 1e6;
    const uint64_t fingerprint = ca::persist::artifactFingerprint(mapped);

    std::vector<double> load_ms;
    if (opts.trace) {
        for (int i = 0; i < 3; ++i) {
            Span load("persist.load");
            ca::persist::LoadedArtifact a = ca::persist::loadArtifact(artifact);
            load_ms.push_back(load.stop());
        }
    }

    // Each stream gets its own bytes: random binary with ClamAV
    // signatures planted from the rule text.
    const size_t nstreams = kConnections * kStreamsPerConnection;
    std::vector<std::vector<uint8_t>> buffers;
    std::vector<std::unique_ptr<RepeatedStreamOracle>> oracles;
    for (size_t i = 0; i < nstreams; ++i) {
        buffers.push_back(ca::benchmarkInput(
            clam, kStreamBytes, opts.seed * 1000003 + i, kRuleScale));
        oracles.push_back(
            std::make_unique<RepeatedStreamOracle>(nfa, buffers.back()));
    }

    // The server's spans are merged into the run's trace; its metrics
    // file is kept beside it.
    const std::string server_trace = opts.workDir + "/server-trace.json";
    const std::string server_metrics =
        fs::path(opts.traceFile).replace_extension(".server-metrics.json");
    std::vector<std::string> args = {
        "--artifact", artifact, "--port", "0", "--workers",
        std::to_string(kServerWorkers)};
    if (opts.trace) {
        args.insert(args.end(), {"--trace-out", server_trace,
                                 "--metrics-out", server_metrics});
    }

    // Set-up: artifact → server listening → connected → streams open.
    ca::net::ClientOptions copt;
    copt.expectedFingerprint = fingerprint;
    std::vector<double> setup_s, connect_ms, open_ms;
    std::unique_ptr<ServerProcess> server;
    std::vector<std::unique_ptr<Connection>> conns;
    uint64_t server_spawn_us = 0;
    for (int i = 0; i < kSetups; ++i) {
        if (server) {
            for (auto &c : conns)
                c->client.close();
            conns.clear();
            server->stop();
            server.reset();
        }
        server_spawn_us = ca::telemetry::TraceCollector::global().nowMicros();
        Clock::time_point t0 = Clock::now();
        Span start("net.server_start");
        server = std::make_unique<ServerProcess>(opts.serverBin, args);
        std::string addr =
            server->awaitLine("listening on ", kStartTimeoutMs);
        start.stop();
        uint16_t port = static_cast<uint16_t>(
            std::stoul(addr.substr(addr.rfind(':') + 1)));
        for (size_t c = 0; c < kConnections; ++c) {
            auto conn = std::make_unique<Connection>();
            Span connect("net.connect");
            conn->client.connect("127.0.0.1", port, copt);
            connect_ms.push_back(connect.stop());
            for (size_t s = 0; s < kStreamsPerConnection; ++s) {
                Span open("net.open_stream");
                StreamLoad load;
                bool ok = true;
                try {
                    load.id = conn->client.openStream();
                } catch (const ca::CaError &e) {
                    ok = false;
                    res.problem(std::string("av_serve: open: ") + e.what());
                }
                open_ms.push_back(open.stop());
                res.op(ok);
                size_t k = c * kStreamsPerConnection + s;
                load.buffer = &buffers[k];
                load.oracle = oracles[k].get();
                conn->streams.push_back(load);
            }
            conns.push_back(std::move(conn));
        }
        setup_s.push_back(msSince(t0) / 1e3);
    }

    // Warm-up: one request per stream, checked like the timed ones.
    LoopTally warm;
    for (auto &c : conns)
        for (StreamLoad &s : c->streams)
            res.op(request(c->client, s, warm, false));

    // Timed phase: one thread per connection, alternating its streams.
    std::vector<LoopTally> tallies(kConnections);
    Clock::time_point t0 = Clock::now();
    const double budget_ms = opts.seconds * 1e3;
    {
        std::vector<std::thread> threads;
        for (size_t k = 0; k < kConnections; ++k) {
            threads.emplace_back([&, k] {
                Connection &c = *conns[k];
                LoopTally &t = tallies[k];
                try {
                    for (size_t i = 0; msSince(t0) < budget_ms; ++i)
                        request(c.client, c.streams[i % c.streams.size()], t,
                                true);
                } catch (const std::exception &e) {
                    ++t.requests;
                    ++t.failed;
                    if (t.firstProblem.empty())
                        t.firstProblem = std::string("av_serve: ") + e.what();
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
    }
    double elapsed_s = msSince(t0) / 1e3;

    std::vector<double> latency_ms;
    double send_ms = 0.0;
    uint64_t bytes = 0;
    for (const LoopTally &t : tallies) {
        latency_ms.insert(latency_ms.end(), t.latencyMs.begin(),
                          t.latencyMs.end());
        send_ms += t.sendMs;
        bytes += t.bytes;
        res.ops(t.requests, t.failed);
        if (!t.firstProblem.empty())
            res.problem(t.firstProblem);
    }
    if (warm.failed)
        res.problem(warm.firstProblem);

    // Server-side counters, then each stream's own accounting.
    ca::net::StatsReplyBody stats = conns[0]->client.requestStats();
    uint64_t sent_total = 0;
    for (auto &c : conns) {
        for (StreamLoad &s : c->streams) {
            sent_total += s.sent;
            bool ok = true;
            try {
                ca::net::StreamSummary sum = c->client.closeStream(s.id);
                ok = sum.symbols == s.sent && sum.reports == s.reports;
                if (!ok)
                    res.problem("av_serve: stream " + std::to_string(s.id) +
                                " server counted " +
                                std::to_string(sum.symbols) + " symbols / " +
                                std::to_string(sum.reports) +
                                " reports, client sent " +
                                std::to_string(s.sent) + " / received " +
                                std::to_string(s.reports));
            } catch (const ca::CaError &e) {
                ok = false;
                res.problem(std::string("av_serve: close: ") + e.what());
            }
            res.op(ok);
        }
        c->client.close();
    }
    if (stats.totals.streamSymbols != sent_total)
        res.problem("av_serve: server matched " +
                    std::to_string(stats.totals.streamSymbols) +
                    " symbols, clients sent " + std::to_string(sent_total));
    conns.clear();
    double server_rss_mb = server->stop();
    server.reset();

    std::printf("# av_serve: %zu rules, %zu states, %.2f MB artifact, %zu "
                "conns x %zu streams, %zu B requests, %d workers\n",
                rules.size(), nfa.numStates(), artifact_mb, kConnections,
                kStreamsPerConnection, kRequestBytes, kServerWorkers);
    printLatency(latency_ms, "requests");

    if (!opts.trace) {
        res.metric("setup_s", median(setup_s), "s");
        res.metric("throughput_MBps", static_cast<double>(bytes) / 1e6 /
                                          elapsed_s,
                   "MB/s");
        res.metric("latency_ms", median(latency_ms), "ms");
        res.metric("rss_peak_MB", server_rss_mb, "MB");
        return;
    }
    std::vector<ForeignEvent> server_events = readChromeTrace(server_trace);
    double slice_busy_ms = 0.0;
    for (const ForeignEvent &ev : server_events)
        if (ev.name == "ca.runtime.slice")
            slice_busy_ms += static_cast<double>(ev.dur) / 1e3;
    uint64_t sparse = 0, dense = 0;
    for (const ca::KernelDecisionStats &k : stats.kernels) {
        sparse += k.sparseSymbols;
        dense += k.denseSymbols;
    }
    const ca::net::WireServerTotals &t = stats.totals;
    res.metric("nfa.parse_ms", parse_ms, "ms");
    res.metric("nfa.glushkov_ms", glushkov_ms, "ms");
    res.metric("nfa.merge_ms", merge_ms, "ms");
    res.metric("nfa.states", static_cast<double>(nfa.numStates()), "count");
    res.metric("compiler.map_ms", map_ms, "ms");
    res.metric("compiler.partitions",
               static_cast<double>(mapped.numPartitions()), "count");
    res.metric("persist.load_ms", median(load_ms), "ms");
    res.metric("persist.artifact_MB", artifact_mb, "MB");
    res.metric("net.connect_ms", median(connect_ms), "ms");
    res.metric("net.open_stream_ms", median(open_ms), "ms");
    res.metric("net.send_ms", send_ms, "ms");
    res.metric("net.frames_out", static_cast<double>(t.framesOut), "count");
    res.metric("net.bytes_out", static_cast<double>(t.bytesOut), "count");
    res.metric("net.reports_sent", static_cast<double>(t.reportsSent),
               "count");
    res.metric("runtime.slice_busy_ms", slice_busy_ms, "ms");
    res.metric("runtime.slices", static_cast<double>(t.slices), "count");
    res.metric("runtime.context_switches",
               static_cast<double>(t.contextSwitches), "count");
    res.metric("sim.sparse_symbols", static_cast<double>(sparse), "count");
    res.metric("sim.dense_symbols", static_cast<double>(dense), "count");
    if (!writeTrace(opts.traceFile, server_events, server_spawn_us))
        res.problem("cannot write trace file " + opts.traceFile);
}

} // namespace perfbench
