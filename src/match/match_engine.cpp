#include "match/match_engine.h"

#include "core/error.h"
#include "match/kernel_impl.h"

namespace ca::match {

template class FrontierKernel<NoAccounting>;

namespace {

/** Null-checks before the kernel binds the context. */
const MatchContext &
requireContext(const std::shared_ptr<const MatchContext> &ctx)
{
    CA_FATAL_IF(!ctx, "MatchEngine: null context");
    return *ctx;
}

} // namespace

MatchEngine::MatchEngine(std::shared_ptr<const MatchContext> ctx,
                         const MatchOptions &opts)
    : ctx_(std::move(ctx)), kernel_(requireContext(ctx_), opts)
{
}

} // namespace ca::match
