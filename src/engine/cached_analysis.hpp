// Cache-pooled twins of lid::analyze / lid::size_queues.
//
// Same inputs, same Result bytes: both paths run the facade's shared
// detail:: assembly (lid_api_detail.hpp), so a response computed here is
// byte-identical to a direct facade call — the serve registry leans on this
// to keep registered-model payloads equal to inline-netlist payloads. The
// difference is purely where the expensive intermediates come from: the
// solved expansions (behind the degradation and rate-safety reports, MSTs and
// certificate) and the cycle enumeration are read from (and stored into)
// `cache`, which persists across calls on a registered model.
//
// Like AnalysisCache itself, these entry points are NOT thread-safe per
// cache; the caller serializes access to one cache (the registry holds a
// per-model mutex for exactly this).
#pragma once

#include "engine/analysis_cache.hpp"
#include "lid_api.hpp"

namespace lid::engine {

/// lid::analyze with the evidence behind its reports and certificate pooled
/// in `cache`. The pre-flight expands its own d[G], so a model it rejects is
/// never solved into the cache. `cache` must wrap instance.graph().
Result<Analysis> analyze_cached(AnalysisCache& cache, const Instance& instance,
                                const AnalyzeOptions& options = {});

/// lid::size_queues with the cycle enumeration (eager solvers) or the MSTs
/// (lazy solver) pooled in `cache`. Cancellable requests bypass the pooled
/// problem so a cancel token can never poison the cache with a partial
/// enumeration. `cache` must wrap instance.graph().
Result<Sizing> size_queues_cached(AnalysisCache& cache, const Instance& instance,
                                  const SizeQueuesOptions& options = {});

}  // namespace lid::engine
