/**
 * @file
 * The benchmark's own test: every output check accepts the matching
 * stack's real output on a small input and rejects it once a single
 * report or score is corrupted.
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "checks.h"
#include "compiler/mapping.h"
#include "match/match_engine.h"
#include "nfa/glushkov.h"
#include "workload/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Corruption = std::function<void(ca::Report &)>;

const std::vector<std::pair<const char *, Corruption>> &
corruptions()
{
    static const std::vector<std::pair<const char *, Corruption>> all = {
        {"offset+1", [](ca::Report &r) { ++r.offset; }},
        {"other rule", [](ca::Report &r) { r.reportId += 1; }},
        {"score+1", [](ca::Report &r) { ++r.score; }},
    };
    return all;
}

/** Runs the serial engine over @p data from offset 0. */
std::vector<ca::Report>
engineReports(const ca::Nfa &nfa, const uint8_t *data, size_t size)
{
    auto mapped =
        std::make_shared<const ca::MappedAutomaton>(ca::mapPerformance(nfa));
    ca::match::MatchEngine engine(
        std::make_shared<ca::match::MatchContext>(mapped));
    engine.feed(data, size);
    return engine.takeReports();
}

int failures = 0;

/**
 * Index of the report chosen by @p better among those that are the only
 * report of their rule at their offset, so no other report can cover up
 * its corruption.
 */
size_t
loneReport(const std::vector<ca::Report> &reports,
           const std::function<bool(const ca::Report &,
                                    const ca::Report &)> &better)
{
    size_t pick = reports.size();
    for (size_t i = 0; i < reports.size(); ++i) {
        size_t same = std::count_if(
            reports.begin(), reports.end(), [&](const ca::Report &r) {
                return r.offset == reports[i].offset &&
                    r.reportId == reports[i].reportId;
            });
        if (same == 1 && (pick == reports.size() ||
                          better(reports[i], reports[pick])))
            pick = i;
    }
    return pick;
}

void
expect(bool cond, const std::string &what)
{
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
    if (!cond)
        ++failures;
}

/**
 * Checks that @p accepts(reports) holds, and that it fails after each
 * corruption of the report at index @p victim (and after dropping it).
 */
void
expectRejects(const char *check, std::vector<ca::Report> reports,
              size_t victim,
              const std::function<bool(const std::vector<ca::Report> &)>
                  &accepts,
              bool scored)
{
    expect(victim < reports.size(),
           std::string(check) + ": has a report to corrupt");
    if (victim >= reports.size())
        return;
    expect(accepts(reports), std::string(check) + ": accepts real output");
    for (const auto &[name, corrupt] : corruptions()) {
        if (!scored && std::string(name) == "score+1")
            continue;
        std::vector<ca::Report> bad = reports;
        corrupt(bad[victim]);
        expect(!accepts(bad), std::string(check) + ": rejects " + name);
    }
    std::vector<ca::Report> dropped = reports;
    dropped.erase(dropped.begin() + static_cast<long>(victim));
    expect(!accepts(dropped), std::string(check) + ": rejects a dropped one");
}

void
testOracleAndWitnesses()
{
    const ca::Benchmark &snort = ca::findBenchmark("Snort");
    std::vector<std::string> rules = snort.rules(0.01, ca::kDefaultRuleSeed);
    ca::Nfa nfa = ca::compileRuleset(rules);
    ca::InputSpec spec;
    spec.kind = snort.stream;
    std::vector<uint8_t> stream = ca::buildInput(spec, 64 << 10, 7);
    std::vector<PlantedWitness> planted =
        plantWitnesses(stream, rules, 7, 4 << 10);
    std::vector<ca::Report> got =
        engineReports(nfa, stream.data(), stream.size());
    ca::NfaEngine oracle(nfa);
    std::vector<ca::Report> want = oracle.run(stream.data(), stream.size());

    expectRejects(
        "oracle", got, got.size() / 2,
        [&](const std::vector<ca::Report> &r) {
            return reportMismatches(r, want).empty();
        },
        false);

    // Corrupt the report of one planted witness.
    const PlantedWitness target = planted[planted.size() / 2];
    size_t victim = loneReport(got, [&](const ca::Report &a,
                                        const ca::Report &) {
        return a.offset == target.end && a.reportId == target.ruleId;
    });
    expect(victim < got.size() && got[victim].offset == target.end,
           "planted witnesses: the witness has its own report");
    expectRejects(
        "planted witnesses", got, victim,
        [&](const std::vector<ca::Report> &r) {
            return missingWitnesses(r, planted).empty();
        },
        false);
}

void
testAlignmentScores()
{
    ca::BioPatternOptions opt;
    opt.maxEdits = 2;
    opt.score = ca::BioScoreParams{2, -1, -2, -1};
    ca::BioWorkload w =
        ca::makeBioWorkload(2, 16, opt, ca::kDnaAlphabet, 0x5E1F);
    std::vector<uint8_t> stream = ca::bioSampleInput(w, 8 << 10, 0.02, 3);
    std::vector<ca::Report> got =
        engineReports(w.nfa, stream.data(), stream.size());
    size_t victim = loneReport(
        got, [](const ca::Report &a, const ca::Report &b) {
            return a.score > b.score;
        });
    expectRejects(
        "alignment scores", got, victim,
        [&](const std::vector<ca::Report> &r) {
            return checkAlignmentScores(r, w.patterns, stream.data(),
                                        stream.size(), opt)
                .badOffsets.empty();
        },
        true);
}

void
testRepeatedStreamOracle()
{
    const ca::Benchmark &clam = ca::findBenchmark("ClamAV");
    ca::Nfa nfa = ca::compileRuleset(clam.rules(0.05, ca::kDefaultRuleSeed));
    std::vector<uint8_t> buffer =
        ca::benchmarkInput(clam, 16 << 10, 11, 0.05);
    RepeatedStreamOracle oracle(nfa, buffer);

    // Four passes matched as one stream must equal the oracle's
    // extrapolation, request by request.
    std::vector<uint8_t> stream;
    for (int p = 0; p < 4; ++p)
        stream.insert(stream.end(), buffer.begin(), buffer.end());
    std::vector<ca::Report> got =
        engineReports(nfa, stream.data(), stream.size());
    std::vector<ca::Report> want = oracle.reports(0, stream.size());
    expect(reportMismatches(got, want).empty(),
           "repeated-stream oracle: equals a 4-pass engine run");
    expect(oracle.reports(buffer.size() * 3, buffer.size() * 3 + 4096)
                   .size() ==
               static_cast<size_t>(std::count_if(
                   got.begin(), got.end(),
                   [&](const ca::Report &r) {
                       return r.offset >= buffer.size() * 3 &&
                           r.offset < buffer.size() * 3 + 4096;
                   })),
           "repeated-stream oracle: request window in the last pass");
    expectRejects(
        "repeated-stream oracle", got, got.size() - 1,
        [&](const std::vector<ca::Report> &r) {
            return reportMismatches(r, want).empty();
        },
        false);
}

} // namespace

int
runSelfTest()
{
    failures = 0;
    testOracleAndWitnesses();
    testAlignmentScores();
    testRepeatedStreamOracle();
    std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
    return failures;
}

} // namespace perfbench
