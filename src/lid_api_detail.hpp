// Internal assembly helpers shared by the lid:: facade (lid_api.cpp) and the
// engine's cache-pooled execution path (engine/cached_analysis.hpp). They
// exist so the two paths cannot drift: a registered-model `analyze` on the
// serve layer and a direct lid::analyze produce byte-identical results
// because both run the exact same report-to-struct conversion and
// exception-to-Error policy. Not a stable public API — include lid_api.hpp
// instead unless you are one of those two call sites.
#pragma once

#include <exception>
#include <optional>
#include <stdexcept>

#include "core/diagnostics.hpp"
#include "core/queue_sizing.hpp"
#include "core/rate_safety.hpp"
#include "lid_api.hpp"

namespace lid::detail {

/// Runs `body` and converts the library's exception conventions into the
/// facade's Error codes: std::invalid_argument marks bad input, everything
/// else an internal invariant failure.
template <typename T, typename Fn>
Result<T> guarded(ErrorCode bad_input_code, Fn&& body) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    return Error{bad_input_code, e.what()};
  } catch (const std::exception& e) {
    return Error{ErrorCode::kInternal, e.what()};
  }
}

/// The failure of any operation on an empty (invalid) Instance handle.
inline Error invalid_handle(const char* who) {
  return Error{ErrorCode::kInvalidArgument, std::string(who) + ": invalid (empty) instance handle"};
}

/// The analyze/size-queues pre-flight: error-tier lint. Returns the kLint
/// Error to fail with, or nothing when the model is analyzable.
std::optional<Error> lint_preflight(const char* who, const lis::LisGraph& lis);

/// The pre-flight on an already-built `doubled` = lis::expand_doubled(lis).
std::optional<Error> lint_preflight(const char* who, const lis::LisGraph& lis,
                                    const lis::Expansion& doubled);

/// Assembles the public Analysis from precomputed core reports; `rates` and
/// `certificate` are present exactly when options ask for them. May throw;
/// callers wrap with guarded.
Analysis analysis_from_reports(const lis::LisGraph& lis, const core::DegradationReport& report,
                               const std::optional<core::RateSafetyReport>& rates,
                               std::optional<verify::Certificate> certificate,
                               const AnalyzeOptions& options);

/// SizeQueuesOptions -> the core solver configuration, exactly as
/// lid::size_queues builds it (solver mapping, clamps, cancel threading).
core::QsOptions qs_options_from(const SizeQueuesOptions& options);

/// QsReport -> the public Sizing, including the cancelled-enumeration ->
/// kTimeout policy. `original` supplies the name of the sized instance;
/// `options` controls certificate emission (options.certify).
Result<Sizing> sizing_from_report(const lis::LisGraph& lis, const core::QsReport& report,
                                  const Instance& original, const SizeQueuesOptions& options);

}  // namespace lid::detail
