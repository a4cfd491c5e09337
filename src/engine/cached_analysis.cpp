#include "engine/cached_analysis.hpp"

#include <optional>
#include <utility>

#include "core/certify.hpp"
#include "core/lazy_sizing.hpp"
#include "core/queue_sizing.hpp"
#include "lid_api_detail.hpp"

namespace lid::engine {

Result<Analysis> analyze_cached(AnalysisCache& cache, const Instance& instance,
                                const AnalyzeOptions& options) {
  if (!instance.valid()) return detail::invalid_handle("analyze");
  if (auto rejected = detail::lint_preflight("analyze", instance.graph())) return *rejected;
  return detail::guarded<Analysis>(ErrorCode::kInvalidArgument, [&] {
    const core::DegradationReport report = cache.degradation();
    std::optional<core::RateSafetyReport> rates;
    if (options.rate_safety) rates = cache.rate_safety();
    std::optional<verify::Certificate> certificate;
    if (options.certify) {
      certificate = core::certify_analysis(instance.graph(), cache.ideal().evidence,
                                           cache.doubled().evidence);
    }
    return detail::analysis_from_reports(instance.graph(), report, rates, std::move(certificate),
                                         options);
  });
}

Result<Sizing> size_queues_cached(AnalysisCache& cache, const Instance& instance,
                                  const SizeQueuesOptions& options) {
  if (!instance.valid()) return detail::invalid_handle("size_queues");
  if (auto rejected = detail::lint_preflight("size_queues", instance.graph())) return *rejected;
  return detail::guarded<Sizing>(ErrorCode::kInvalidArgument, [&]() -> Result<Sizing> {
    const lis::LisGraph& lis = instance.graph();
    const core::QsOptions qs = detail::qs_options_from(options);
    core::QsReport report;
    if (options.cancel.can_cancel()) {
      // A firing token would leave a partial (timing-dependent) enumeration
      // in the shared cache, so cancellable requests run the plain pipeline.
      report = core::size_queues(lis, qs);
    } else if (qs.method == core::QsMethod::kLazy) {
      // Cached evidence and thetas, but a solve-local Howard workspace: the
      // lazy payload reports iteration/cycle counts, and a pooled
      // warm-started workspace could pick a different (tie-equivalent)
      // critical cycle than the cold solve a direct execution runs — the
      // values must stay byte-identical.
      report = core::size_queues_lazy_with_mst(lis, cache.theta_ideal(),
                                               cache.theta_practical(), qs, nullptr);
      report.ideal_evidence = cache.ideal().evidence;
    } else {
      report = core::size_queues_on_problem(lis, cache.qs_problem(qs.build), qs);
    }
    return detail::sizing_from_report(lis, report, instance, options);
  });
}

}  // namespace lid::engine
