/**
 * @file
 * FrontierKernel's member definitions (match/kernel.h). Included only by
 * the translation units that instantiate the kernel for an accounting
 * policy.
 */
#ifndef CA_MATCH_KERNEL_IMPL_H
#define CA_MATCH_KERNEL_IMPL_H

#include <algorithm>
#include <bit>

#include "core/error.h"
#include "match/kernel.h"

namespace ca::match {

template <class Accounting>
void
FrontierKernel<Accounting>::init()
{
    const size_t n = ctx_->numStates();
    enabled_mask_ = BitVector(n == 0 ? 1 : n);
    if (ctx_->denseAvailable()) {
        const size_t bits = static_cast<size_t>(ctx_->numPartitions()) *
            kSlotsPerPartition;
        dense_cur_ = BitVector(bits);
        dense_nxt_ = BitVector(bits);
        if (ctx_->scored()) {
            dense_score_cur_.assign(bits, 0);
            dense_score_nxt_.assign(bits, 0);
            dense_score_epoch_.assign(bits, 0);
        }
    }
    if (ctx_->scored()) {
        score_cur_.assign(n, 0);
        score_nxt_.assign(n, 0);
    }
    reset();
}

template <class Accounting>
void
FrontierKernel<Accounting>::reset()
{
    const std::vector<StateId> &starts = ctx_->startFrontier();
    std::vector<Score> scores;
    if (ctx_->scored()) {
        // Scored automata start each state at its start weight.
        scores.reserve(starts.size());
        for (StateId s : starts)
            scores.push_back(static_cast<Score>(ctx_->start_w_[s]));
    }
    setState(starts, scores, 0);
}

template <class Accounting>
void
FrontierKernel<Accounting>::setState(const std::vector<StateId> &frontier,
                                     const std::vector<Score> &scores,
                                     uint64_t offset)
{
    CA_FATAL_IF(!scores.empty() && scores.size() != frontier.size(),
                "frontier has " << frontier.size() << " states but "
                                << scores.size() << " scores");
    for (StateId s : frontier)
        CA_FATAL_IF(s >= ctx_->numStates(),
                    "frontier state " << s << " outside automaton");
    dense_active_ = false;
    const bool scored = ctx_->scored();
    for (StateId s : enabled_)
        enabled_mask_.resetUnchecked(s);
    enabled_.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
        StateId s = frontier[i];
        if (!enabled_mask_.testUnchecked(s)) {
            enabled_mask_.setUnchecked(s);
            enabled_.push_back(s);
            if (scored)
                score_cur_[s] = scores.empty() ? 0 : scores[i];
        }
    }
    density_seeded_ = false;
    offset_ = offset;
    reports_.clear();
    cycle_report_scratch_.clear();
    cycle_report_scored_.clear();
}

template <class Accounting>
std::vector<Report>
FrontierKernel<Accounting>::takeReports()
{
    std::vector<Report> out = std::move(reports_);
    reports_.clear();
    return out;
}

template <class Accounting>
std::vector<StateId>
FrontierKernel<Accounting>::frontier() const
{
    std::vector<StateId> out;
    if (dense_active_) {
        dense_cur_.forEachSet([&](size_t di) {
            out.push_back(ctx_->state_of_dense_[di]);
        });
    } else {
        out = enabled_;
    }
    std::sort(out.begin(), out.end());
    return out;
}

template <class Accounting>
std::vector<Score>
FrontierKernel<Accounting>::frontierScores() const
{
    std::vector<Score> out;
    if (!ctx_->scored())
        return out;
    std::vector<std::pair<StateId, Score>> pairs;
    if (dense_active_) {
        dense_cur_.forEachSet([&](size_t di) {
            pairs.emplace_back(ctx_->state_of_dense_[di],
                               dense_score_cur_[di]);
        });
    } else {
        for (StateId s : enabled_)
            pairs.emplace_back(s, score_cur_[s]);
    }
    std::sort(pairs.begin(), pairs.end());
    out.reserve(pairs.size());
    for (const auto &pair : pairs)
        out.push_back(pair.second);
    return out;
}

template <class Accounting>
size_t
FrontierKernel<Accounting>::frontierSize() const
{
    return dense_active_ ? dense_cur_.count() : enabled_.size();
}

template <class Accounting>
bool
FrontierKernel<Accounting>::chooseDense()
{
    SimKernel kernel = opts_.kernel;
    if (kernel == SimKernel::Sparse || !ctx_->denseAvailable())
        return false;
    if (kernel == SimKernel::Dense)
        return true;
    // Auto: seed the EWMA from the current frontier density so a kernel
    // loaded with a hot frontier starts on the right stepper.
    const size_t n = ctx_->numStates();
    if (n == 0)
        return false;
    if (!density_seeded_) {
        density_ewma_ = static_cast<double>(frontierSize()) /
            static_cast<double>(n);
        density_seeded_ = true;
    }
    return density_ewma_ > opts_.autoDensityThreshold;
}

template <class Accounting>
void
FrontierKernel<Accounting>::syncDenseFromSparse()
{
    const bool scored = ctx_->scored();
    dense_cur_.clearAll();
    for (StateId s : enabled_) {
        uint32_t di = ctx_->dense_index_of_[s];
        dense_cur_.setUnchecked(di);
        if (scored)
            dense_score_cur_[di] = score_cur_[s];
    }
    dense_active_ = true;
}

template <class Accounting>
void
FrontierKernel<Accounting>::syncSparseFromDense()
{
    const bool scored = ctx_->scored();
    for (StateId s : enabled_)
        enabled_mask_.resetUnchecked(s);
    enabled_.clear();
    dense_cur_.forEachSet([&](size_t di) {
        StateId s = ctx_->state_of_dense_[di];
        enabled_mask_.setUnchecked(s);
        enabled_.push_back(s);
        if (scored)
            score_cur_[s] = dense_score_cur_[di];
    });
    dense_active_ = false;
}

template <class Accounting>
template <bool Scored>
uint32_t
FrontierKernel<Accounting>::emitCycleReports()
{
    const uint32_t fired = static_cast<uint32_t>(
        Scored ? cycle_report_scored_.size() : cycle_report_scratch_.size());
    if (fired != 0)
        flushCycleReports<Scored>();
    return fired;
}

template <class Accounting>
template <bool Scored>
void
FrontierKernel<Accounting>::flushCycleReports()
{
    // Canonical within-cycle order: ascending state id (shared with the
    // CPU oracle); a score rides along as the payload.
    const std::vector<uint64_t> &report_info = ctx_->report_info_;
    if constexpr (Scored) {
        std::sort(cycle_report_scored_.begin(), cycle_report_scored_.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        if (collect_)
            for (const auto &[s, score] : cycle_report_scored_)
                reports_.push_back(Report{
                    offset_, static_cast<uint32_t>(report_info[s] >> 1), s,
                    score});
        cycle_report_scored_.clear();
    } else {
        std::sort(cycle_report_scratch_.begin(),
                  cycle_report_scratch_.end());
        if (collect_)
            for (StateId s : cycle_report_scratch_)
                reports_.push_back(Report{
                    offset_, static_cast<uint32_t>(report_info[s] >> 1),
                    s});
        cycle_report_scratch_.clear();
    }
}

template <class Accounting>
void
FrontierKernel<Accounting>::feed(const uint8_t *data, size_t size)
{
    const bool auto_kernel = opts_.kernel == SimKernel::Auto;
    const size_t n_states = ctx_->numStates();
    size_t pos = 0;
    while (pos < size) {
        // A dead stream stays dead: with no enabled states and no
        // always-on starts, no future symbol can fire anything. A pure
        // matcher jumps to the end — this is what makes replaying past
        // a died-out anchored ruleset nearly free. A hardware model
        // still steps every cycle.
        if constexpr (!Accounting::kHardware) {
            if (frontierSize() == 0 && ctx_->all_input_.empty()) {
                offset_ += size - pos;
                return;
            }
        }

        const bool use_dense = chooseDense();
        size_t block = size - pos;
        if (auto_kernel && opts_.autoBlockSymbols > 0)
            block = std::min(block,
                             static_cast<size_t>(opts_.autoBlockSymbols));

        if (use_dense && !dense_active_)
            syncDenseFromSparse();
        else if (!use_dense && dense_active_)
            syncSparseFromDense();

        acct_.beginBlock(use_dense, offset_, block);
        if (use_dense) {
            if (ctx_->scored())
                feedDense<true>(data + pos, block);
            else
                feedDense<false>(data + pos, block);
            dense_symbols_ += block;
        } else {
            if (ctx_->scored())
                feedSparse<true>(data + pos, block);
            else
                feedSparse<false>(data + pos, block);
            sparse_symbols_ += block;
        }
        pos += block;

        if (auto_kernel && n_states > 0 && block > 0) {
            // Sample the *enabled frontier*, not the matched count: the
            // sparse kernel's per-symbol cost is one label test per
            // enabled state (always-enabled all-input starts included),
            // so frontier size is the quantity the crossover tracks.
            double sample = static_cast<double>(frontierSize()) /
                static_cast<double>(n_states);
            density_ewma_ = opts_.autoEwmaAlpha * sample +
                (1.0 - opts_.autoEwmaAlpha) * density_ewma_;
        }
        acct_.endBlock(density_ewma_);
    }
}

template <class Accounting>
template <bool Scored>
void
FrontierKernel<Accounting>::feedSparse(const uint8_t *data, size_t size)
{
    const MatchContext &cx = *ctx_;
    const uint64_t *labels = cx.labels_.data();
    const uint64_t *report_info = cx.report_info_.data();
    const uint32_t *succ_xadj = cx.succ_xadj_.data();
    const StateId *succ = cx.succ_.data();
    const bool detect = Accounting::kHardware || collect_;

    for (size_t i = 0; i < size; ++i) {
        uint8_t c = data[i];
        const uint64_t label_bit = uint64_t{1} << (c & 63);
        const size_t label_word = c >> 6;

        typename Accounting::Cycle cycle{};
        acct_.sparseEnabled(cycle, enabled_);

        // State-match phase.
        active_scratch_.clear();
        for (StateId s : enabled_) {
            if (!(labels[s * 4 + label_word] & label_bit))
                continue;
            active_scratch_.push_back(s);
            acct_.sparseMatched(cycle, s);
            if (detect && (report_info[s] & 1)) {
                if constexpr (Scored)
                    cycle_report_scored_.emplace_back(s, score_cur_[s]);
                else
                    cycle_report_scratch_.push_back(s);
            }
        }
        acct_.endCycle(cycle, emitCycleReports<Scored>());

        // State-transition phase. Clear only the bits set last cycle (the
        // mask is as wide as the NFA; a full clear would dominate).
        for (StateId s : enabled_)
            enabled_mask_.resetUnchecked(s);
        enabled_.clear();
        for (StateId s : active_scratch_) {
            uint32_t end = succ_xadj[s + 1];
            for (uint32_t e = succ_xadj[s]; e < end; ++e) {
                StateId t = succ[e];
                if constexpr (Scored) {
                    // ⊗ along the edge, ⊕ across alternatives into t.
                    const Score cand = score_cur_[s] +
                        static_cast<Score>(cx.succ_w_[e]);
                    if (!enabled_mask_.testUnchecked(t)) {
                        enabled_mask_.setUnchecked(t);
                        enabled_.push_back(t);
                        score_nxt_[t] = cand;
                    } else {
                        score_nxt_[t] = scoreCombine(
                            opts_.semiring, score_nxt_[t], cand);
                    }
                } else {
                    if (!enabled_mask_.testUnchecked(t)) {
                        enabled_mask_.setUnchecked(t);
                        enabled_.push_back(t);
                    }
                }
            }
        }
        for (StateId s : cx.all_input_) {
            if constexpr (Scored) {
                // An always-on start competes with any incoming path at
                // its start weight (a fresh local alignment).
                const Score w = static_cast<Score>(cx.start_w_[s]);
                if (!enabled_mask_.testUnchecked(s)) {
                    enabled_mask_.setUnchecked(s);
                    enabled_.push_back(s);
                    score_nxt_[s] = w;
                } else {
                    score_nxt_[s] =
                        scoreCombine(opts_.semiring, score_nxt_[s], w);
                }
            } else {
                if (!enabled_mask_.testUnchecked(s)) {
                    enabled_mask_.setUnchecked(s);
                    enabled_.push_back(s);
                }
            }
        }
        if constexpr (Scored)
            score_cur_.swap(score_nxt_);
        ++offset_;
    }
}

template <class Accounting>
template <bool Scored>
void
FrontierKernel<Accounting>::feedDense(const uint8_t *data, size_t size)
{
    const MatchContext &cx = *ctx_;
    const uint32_t P = cx.dense_partitions_;
    const size_t words = static_cast<size_t>(P) * kWordsPerPartition;
    uint64_t *cur = dense_cur_.raw().data();
    uint64_t *nxt = dense_nxt_.raw().data();
    const uint64_t *rep_mask = cx.dense_report_.data();
    const uint64_t *lswitch = cx.dense_lswitch_.data();
    const bool detect = Accounting::kHardware || collect_;
    // Scored runs keep the word-parallel row read for matching but
    // propagate scores scalar per matched state via the successor CSR;
    // an epoch array discriminates first-write from ⊕-combine without
    // clearing the score vector each symbol.
    Score *scur = Scored ? dense_score_cur_.data() : nullptr;
    Score *snxt = Scored ? dense_score_nxt_.data() : nullptr;

    for (size_t i = 0; i < size; ++i) {
        uint8_t c = data[i];
        std::fill(nxt, nxt + words, 0);
        [[maybe_unused]] uint64_t score_epoch = 0;
        if constexpr (Scored)
            score_epoch = ++dense_epoch_counter_;

        typename Accounting::Cycle cycle{};
        const uint64_t *rows =
            &cx.dense_rows_[static_cast<size_t>(c) * words];
        for (uint32_t p = 0; p < P; ++p) {
            const size_t base = static_cast<size_t>(p) *
                kWordsPerPartition;
            const uint64_t e0 = cur[base + 0];
            const uint64_t e1 = cur[base + 1];
            const uint64_t e2 = cur[base + 2];
            const uint64_t e3 = cur[base + 3];
            if (!(e0 | e1 | e2 | e3))
                continue;
            acct_.densePartition(cycle, e0, e1, e2, e3);
            // The §2.2 row read: the SRAM row *is* the match vector.
            uint64_t m[4] = {e0 & rows[base + 0], e1 & rows[base + 1],
                             e2 & rows[base + 2], e3 & rows[base + 3]};
            if (!(m[0] | m[1] | m[2] | m[3]))
                continue;
            for (int w = 0; w < 4; ++w) {
                uint64_t mw = m[w];
                if (!mw)
                    continue;
                const size_t word = base + static_cast<size_t>(w);
                acct_.denseMatched(cycle, word, mw);
                if (detect) {
                    uint64_t rw = mw & rep_mask[word];
                    while (rw) {
                        uint32_t di = static_cast<uint32_t>(
                            word * 64 +
                            static_cast<size_t>(std::countr_zero(rw)));
                        if constexpr (Scored)
                            cycle_report_scored_.emplace_back(
                                cx.state_of_dense_[di], scur[di]);
                        else
                            cycle_report_scratch_.push_back(
                                cx.state_of_dense_[di]);
                        rw &= rw - 1;
                    }
                }
                // Transition: matched states drive their L-switch rows
                // (4-word OR) and their few G-switch wires.
                while (mw) {
                    uint32_t di = static_cast<uint32_t>(
                        word * 64 +
                        static_cast<size_t>(std::countr_zero(mw)));
                    const uint64_t *row = lswitch +
                        static_cast<size_t>(di) * kWordsPerPartition;
                    nxt[base + 0] |= row[0];
                    nxt[base + 1] |= row[1];
                    nxt[base + 2] |= row[2];
                    nxt[base + 3] |= row[3];
                    for (uint32_t e = cx.dense_cross_xadj_[di];
                         e < cx.dense_cross_xadj_[di + 1]; ++e) {
                        uint32_t ti = cx.dense_cross_[e];
                        nxt[ti >> 6] |= uint64_t{1} << (ti & 63);
                    }
                    if constexpr (Scored) {
                        const StateId s = cx.state_of_dense_[di];
                        const Score from = scur[di];
                        const uint32_t end = cx.succ_xadj_[s + 1];
                        for (uint32_t e = cx.succ_xadj_[s]; e < end;
                             ++e) {
                            const uint32_t ti =
                                cx.dense_index_of_[cx.succ_[e]];
                            const Score cand = from +
                                static_cast<Score>(cx.succ_w_[e]);
                            if (dense_score_epoch_[ti] != score_epoch) {
                                dense_score_epoch_[ti] = score_epoch;
                                snxt[ti] = cand;
                            } else {
                                snxt[ti] = scoreCombine(
                                    opts_.semiring, snxt[ti], cand);
                            }
                        }
                    }
                    mw &= mw - 1;
                }
            }
        }
        acct_.endCycle(cycle, emitCycleReports<Scored>());

        for (const auto &[w, mask] : cx.dense_allinput_words_)
            nxt[w] |= mask;
        if constexpr (Scored) {
            for (StateId s : cx.all_input_) {
                const uint32_t ti = cx.dense_index_of_[s];
                const Score w = static_cast<Score>(cx.start_w_[s]);
                if (dense_score_epoch_[ti] != score_epoch) {
                    dense_score_epoch_[ti] = score_epoch;
                    snxt[ti] = w;
                } else {
                    snxt[ti] = scoreCombine(opts_.semiring, snxt[ti], w);
                }
            }
        }

        std::swap(cur, nxt);
        if constexpr (Scored)
            std::swap(scur, snxt);
        ++offset_;
    }
    // An odd symbol count leaves the live frontier in dense_nxt_'s
    // storage; swap the vectors so dense_cur_ owns it again.
    if (cur != dense_cur_.raw().data())
        std::swap(dense_cur_, dense_nxt_);
    if constexpr (Scored) {
        if (scur != dense_score_cur_.data())
            dense_score_cur_.swap(dense_score_nxt_);
    }
}

} // namespace ca::match

#endif // CA_MATCH_KERNEL_IMPL_H
