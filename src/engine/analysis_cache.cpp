#include "engine/analysis_cache.hpp"

#include <utility>

#include "mg/mcm.hpp"

namespace lid::engine {
namespace {

bool same_build_options(const core::QsBuildOptions& a, const core::QsBuildOptions& b) {
  return a.max_cycles == b.max_cycles && a.allow_scc_collapse == b.allow_scc_collapse &&
         a.target_mst == b.target_mst;
}

}  // namespace

AnalysisCache::AnalysisCache(const lis::LisGraph& lis, Metrics* metrics)
    : lis_(lis), metrics_(metrics) {}

bool AnalysisCache::note(bool hit) {
  (hit ? hits_ : misses_) += 1;
  if (metrics_ != nullptr) metrics_->count(hit ? "cache.hits" : "cache.misses");
  return hit;
}

const AnalysisCache::Solved& AnalysisCache::solve(std::optional<Solved>& slot,
                                                  lis::Expansion (*expand)(const lis::LisGraph&),
                                                  const char* expand_stage,
                                                  const char* solve_stage) {
  if (!note(slot.has_value())) {
    std::optional<Metrics::ScopedStage> stage;
    if (metrics_ != nullptr) stage.emplace(*metrics_, expand_stage);
    lis::Expansion expansion = expand(lis_);
    if (metrics_ != nullptr) stage.emplace(*metrics_, solve_stage);
    mg::McmEvidence evidence = mg::mcm_evidence(expansion.graph, workspace_);
    slot = Solved{std::move(expansion), std::move(evidence)};
  }
  return *slot;
}

const AnalysisCache::Solved& AnalysisCache::ideal() {
  return solve(ideal_, lis::expand_ideal, "expand_ideal", "mst_ideal");
}

const AnalysisCache::Solved& AnalysisCache::doubled() {
  return solve(doubled_, lis::expand_doubled, "expand_doubled", "mst_practical");
}

util::Rational AnalysisCache::theta_ideal() { return mg::mst(ideal().evidence); }

util::Rational AnalysisCache::theta_practical() { return mg::mst(doubled().evidence); }

const core::QsProblem& AnalysisCache::qs_problem(const core::QsBuildOptions& options) {
  if (!note(qs_.has_value() && same_build_options(qs_options_, options))) {
    const util::Rational ideal = theta_ideal();
    const util::Rational practical = theta_practical();
    std::optional<Metrics::ScopedStage> stage;
    if (metrics_ != nullptr) stage.emplace(*metrics_, "build_qs_problem");
    qs_ = core::build_qs_problem_with_mst(lis_, ideal, practical, options);
    qs_options_ = options;
  }
  return *qs_;
}

core::DegradationReport AnalysisCache::degradation() {
  const Solved& practical = doubled();
  core::DegradationReport report =
      core::explain_practical(lis_, practical.expansion, practical.evidence.critical);
  report.set_theta_ideal(theta_ideal());
  return report;
}

core::RateSafetyReport AnalysisCache::rate_safety() {
  const Solved& solved = ideal();
  return core::analyze_rate_safety(lis_, solved.expansion, solved.evidence);
}

}  // namespace lid::engine
