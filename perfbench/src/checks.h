/**
 * @file
 * Output checks. Each one compares what the matching stack returned with
 * a computation made apart from the matching kernels: the CPU oracle
 * (NfaEngine), witnesses the benchmark planted at known offsets, or the
 * Gotoh DP of the alignment definition (bioAlignWitness). Each returns
 * the input offsets where the two disagree, so a run can charge the
 * disagreement to the operation that produced it.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/nfa_engine.h"
#include "score/bioseq.h"

namespace perfbench {

/**
 * Offsets of reports present in one list and not the other (as
 * multisets, compared on offset, rule id, state and score).
 */
std::vector<uint64_t> reportMismatches(std::vector<ca::Report> got,
                                       std::vector<ca::Report> want);

/** A rule witness the benchmark wrote into a stream. */
struct PlantedWitness
{
    uint64_t end = 0; ///< Offset of the witness's last byte.
    uint32_t ruleId = 0;
};

/**
 * Overwrites a random place in every @p slot bytes of @p stream with a
 * witness (sampleWitness) of a rule drawn from @p rules, and returns
 * where each witness ends. Rules must be unanchored.
 */
std::vector<PlantedWitness>
plantWitnesses(std::vector<uint8_t> &stream,
               const std::vector<std::string> &rules, uint64_t seed,
               size_t slot);

/**
 * End offsets of planted witnesses that have no report of their rule at
 * their end offset.
 */
std::vector<uint64_t>
missingWitnesses(const std::vector<ca::Report> &reports,
                 const std::vector<PlantedWitness> &planted);

/** Result of the alignment-score check. */
struct ScoreCheck
{
    /** Offsets where the best reported score and the witness differ. */
    std::vector<uint64_t> badOffsets;
    /** (pattern, end offset) pairs the reports score. */
    uint64_t reportedHits = 0;
    /** (pattern, end offset) pairs the witness DP finds. */
    uint64_t witnessHits = 0;
};

/**
 * Takes the best score per (pattern, end offset) from @p reports and
 * compares it with bioAlignWitness over @p data for every pattern.
 */
ScoreCheck checkAlignmentScores(const std::vector<ca::Report> &reports,
                                const std::vector<std::string> &patterns,
                                const uint8_t *data, size_t size,
                                const ca::BioPatternOptions &opt);

/**
 * The oracle's reports over a stream made of one buffer repeated without
 * end. The automaton's state after a pass depends only on the states
 * active at its last byte, so once two passes end in the same active set
 * every later pass repeats the last one shifted by the buffer length;
 * the oracle simulates passes only until that happens.
 */
class RepeatedStreamOracle
{
  public:
    /**
     * @throws CaError if the passes have not settled after
     * kMaxPasses.
     */
    RepeatedStreamOracle(const ca::Nfa &nfa,
                         const std::vector<uint8_t> &buffer);

    /** Reports with offsets in [begin, end), in offset order. */
    std::vector<ca::Report> reports(uint64_t begin, uint64_t end) const;

    static constexpr size_t kMaxPasses = 16;

  private:
    /** Reports of each pass up to the first one that repeats. */
    std::vector<std::vector<ca::Report>> passes_;
    uint64_t size_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
