// Certificates (src/verify): every certificate the emission side produces —
// analyze and sizing, over the paper examples, the COFDM SoC, the 20-netlist
// corpus and 50 generated systems — must pass the standalone checker, the
// JSON codec must round-trip byte-identically, and a corpus of tampered
// witnesses (perturbed cycle edge, off-by-one potential, stale fingerprint,
// truncated constraint set, ...) must each be rejected with the structured
// reason the tampering deserves.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/certify.hpp"
#include "core/queue_sizing.hpp"
#include "gen/generator.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "soc/cofdm.hpp"
#include "util/rng.hpp"
#include "verify/certificate.hpp"

#ifndef LID_DATA_DIR
#define LID_DATA_DIR "data"
#endif

namespace lid::verify {
namespace {

using util::Rational;

/// Emits both certificate kinds for `lis`, checks them, and round-trips the
/// JSON codec: serialize -> parse -> serialize must be byte-identical.
void expect_certifiable(const lis::LisGraph& lis) {
  const Certificate analyze = core::certify_analysis(lis);
  const CheckResult ar = check(lis, analyze);
  EXPECT_TRUE(ar.ok) << to_string(ar.reason) << ": " << ar.detail;

  core::QsOptions options;
  options.method = core::QsMethod::kLazy;
  const core::QsReport report = core::size_queues(lis, options);
  if (report.problem.cancelled) return;
  const Certificate sizing = core::certify_sizing(lis, report);
  const CheckResult sr = check(lis, sizing);
  EXPECT_TRUE(sr.ok) << to_string(sr.reason) << ": " << sr.detail;

  for (const Certificate* cert : {&analyze, &sizing}) {
    const std::string json = to_json(*cert);
    const CertificateParse parsed = parse_certificate_text(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(to_json(parsed.certificate), json);
    const CheckResult rr = check(lis, parsed.certificate);
    EXPECT_TRUE(rr.ok) << to_string(rr.reason) << ": " << rr.detail;
  }
}

TEST(Certificates, PaperExamplesCertify) {
  expect_certifiable(lis::make_two_core_example());
  expect_certifiable(lis::make_two_core_example_sized());
  expect_certifiable(lis::make_fig15_counterexample());
}

TEST(Certificates, CofdmSocCertifies) { expect_certifiable(soc::build_cofdm()); }

TEST(Certificates, EveryCorpusNetlistCertifies) {
  std::ifstream manifest(std::string(LID_DATA_DIR) + "/corpus/manifest.txt");
  ASSERT_TRUE(manifest.good()) << "missing corpus manifest";
  std::size_t count = 0;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string file = line.substr(0, line.find(' '));
    SCOPED_TRACE(file);
    expect_certifiable(lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + file));
    ++count;
  }
  EXPECT_EQ(count, 20u);
}

/// 10 seeds x 5 trials = 50 generated systems.
class CertifyGenerated : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertifyGenerated, GeneratedSystemsCertify) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE(trial);
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(8, 20);
    params.sccs = rng.uniform_int(1, 4);
    params.min_cycles = rng.uniform_int(1, 3);
    params.relay_stations = rng.uniform_int(1, 5);
    params.reconvergent = true;
    params.policy =
        trial % 2 == 0 && params.sccs > 1 ? gen::RsPolicy::kScc : gen::RsPolicy::kAny;
    expect_certifiable(gen::generate(params, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifyGenerated,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

/// A pipelined core keeps the SCC collapse off, so the lazy sizer works on
/// d[G] itself and the certificate carries its constraint section; the
/// critical cycles then pass through pipeline-stage places, which belong to
/// no channel. Such a place must neither be taken for a queue nor index the
/// channel tables.
TEST(Certificates, PipelinedCoresCertifyWithConstraintSections) {
  util::Rng rng(21);
  std::size_t stage_places_on_constraints = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(6, 30);
    params.sccs = rng.uniform_int(1, 4);
    params.min_cycles = rng.uniform_int(0, 4);
    params.relay_stations = rng.uniform_int(1, 15);
    params.policy = gen::RsPolicy::kAny;
    lis::LisGraph lis = gen::generate(params, rng);
    lis.set_core_latency(0, rng.uniform_int(2, 3));
    expect_certifiable(lis);

    core::QsOptions options;
    options.method = core::QsMethod::kLazy;
    const Certificate sizing = core::certify_sizing(lis, core::size_queues(lis, options));
    const lis::Expansion doubled = lis::expand_doubled(lis);
    for (const DeficitConstraint& dc : sizing.constraints) {
      for (const std::int64_t p : dc.cycle) {
        if (doubled.place_channel[static_cast<std::size_t>(p)] == graph::kInvalidEdge) {
          ++stage_places_on_constraints;
        }
      }
    }
  }
  EXPECT_GT(stage_places_on_constraints, 0u) << "no constraint crossed a pipeline stage";
}

TEST(Certificates, AcyclicIdealExpansionCertifies) {
  lis::LisGraph chain;
  chain.add_core("a");
  chain.add_core("b");
  chain.add_channel(0, 1, /*relay_stations=*/2, /*queue_capacity=*/1);
  const Certificate cert = core::certify_analysis(chain);
  EXPECT_TRUE(cert.ideal.acyclic);
  EXPECT_FALSE(cert.practical.acyclic);  // d[G] always cycles through backedges
  const CheckResult r = check(chain, cert);
  EXPECT_TRUE(r.ok) << to_string(r.reason) << ": " << r.detail;
}

TEST(Certificates, FingerprintMatchesAcrossReload) {
  const lis::LisGraph g = lis::make_fig15_counterexample();
  const lis::LisGraph reloaded = lis::from_text(lis::to_text(g));
  EXPECT_EQ(fingerprint(g), fingerprint(reloaded));
}

TEST(Certificates, MalformedJsonIsRejected) {
  EXPECT_FALSE(parse_certificate_text("{").ok);
  EXPECT_FALSE(parse_certificate_text("[]").ok);
  EXPECT_FALSE(parse_certificate_text(R"({"kind":"analyze"})").ok);
  const CertificateParse bad = parse_certificate_text(R"({"kind":"audit","fingerprint":"x"})");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
}

// ---------------------------------------------------------------------------
// The tampered-witness corpus: each perturbation must be caught with a
// structured reason, never accepted and never a crash.

class TamperedAnalyze : public ::testing::Test {
 protected:
  void SetUp() override {
    lis_ = lis::make_fig15_counterexample();
    cert_ = core::certify_analysis(lis_);
    ASSERT_TRUE(check(lis_, cert_).ok);
    ASSERT_FALSE(cert_.practical.acyclic);
    ASSERT_FALSE(cert_.practical.critical.places.empty());
  }

  lis::LisGraph lis_;
  Certificate cert_;
};

TEST_F(TamperedAnalyze, StaleFingerprintIsRejected) {
  cert_.fingerprint = "lis-0000000000000000";
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kFingerprintMismatch);
}

TEST_F(TamperedAnalyze, PerturbedCycleEdgeIsRejected) {
  // Swap one witness place for its successor place id: the walk either breaks
  // (kBadCycle) or, if it happens to re-close, its mean no longer equals
  // theta (kCycleMeanMismatch). Either way the certificate must die.
  std::vector<std::int64_t>& places = cert_.practical.critical.places;
  const std::size_t n = lis::expand_doubled(lis_).graph.num_places();
  places[0] = (places[0] + 1) % static_cast<std::int64_t>(n);
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == Reject::kBadCycle || r.reason == Reject::kCycleMeanMismatch)
      << to_string(r.reason);
}

TEST_F(TamperedAnalyze, OffByOnePotentialIsRejected) {
  // Lower the potential at the head of a critical place: that place's
  // inequality was tight, so it goes strictly negative.
  const lis::Expansion doubled = lis::expand_doubled(lis_);
  const auto p = static_cast<mg::PlaceId>(cert_.practical.critical.places[0]);
  const graph::NodeId head = doubled.graph.structure().edge(p).dst;
  cert_.practical.potential[static_cast<std::size_t>(head)] -= 1;
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kPotentialViolation);
}

TEST_F(TamperedAnalyze, InflatedThetaIsRejected) {
  // Claiming a better (higher) practical MST than the true one: the witness
  // cycle's real mean no longer matches, or some class bound undercuts it.
  cert_.practical.theta = cert_.practical.theta + Rational(1);
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == Reject::kCycleMeanMismatch || r.reason == Reject::kLambdaBelowTheta)
      << to_string(r.reason);
}

TEST(TamperedComponents, AscendingComponentLabelIsRejected) {
  // A netlist whose ideal expansion has several label classes (a chain is a
  // DAG of transitions): inverting the labels turns every descending
  // cross-class place into an ascending one.
  lis::LisGraph chain;
  chain.add_core("a");
  chain.add_core("b");
  chain.add_channel(0, 1, /*relay_stations=*/1, /*queue_capacity=*/1);
  Certificate cert = core::certify_analysis(chain);
  ASSERT_TRUE(check(chain, cert).ok);
  const int classes = static_cast<int>(cert.ideal.lambda.size());
  ASSERT_GE(classes, 2);
  for (int& c : cert.ideal.component) c = classes - 1 - c;
  const CheckResult r = check(chain, cert);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kComponentOrderViolation);
}

class TamperedSizing : public ::testing::Test {
 protected:
  void SetUp() override {
    lis_ = lis::make_fig15_counterexample();
    core::QsOptions options;
    options.method = core::QsMethod::kLazy;
    report_ = core::size_queues(lis_, options);
    ASSERT_TRUE(report_.lazy.has_value());
    cert_ = core::certify_sizing(lis_, report_);
    ASSERT_TRUE(check(lis_, cert_).ok);
    ASSERT_GE(cert_.constraint_count, 1) << "fig15 sizing should generate constraints";
    ASSERT_FALSE(cert_.weights.empty());
  }

  lis::LisGraph lis_;
  core::QsReport report_;
  Certificate cert_;
};

TEST_F(TamperedSizing, TruncatedConstraintSetIsRejected) {
  cert_.constraints.pop_back();
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kTruncatedConstraints);
}

TEST_F(TamperedSizing, InflatedDeficitIsRejected) {
  cert_.constraints[0].deficit += 1;
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kConstraintUnsound);
}

TEST_F(TamperedSizing, DroppedConstraintChannelIsRejected) {
  ASSERT_FALSE(cert_.constraints[0].channels.empty());
  cert_.constraints[0].channels.pop_back();
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kConstraintUnsound);
}

TEST_F(TamperedSizing, WrongTotalIsRejected) {
  cert_.total += 1;
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kTotalMismatch);
}

TEST_F(TamperedSizing, NegativeWeightIsRejected) {
  cert_.weights[0].extra = -1;
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kWeightsInvalid);
}

TEST_F(TamperedSizing, DuplicateWeightChannelIsRejected) {
  cert_.weights.push_back(cert_.weights[0]);
  const CheckResult r = check(lis_, cert_);
  ASSERT_FALSE(r.ok);
  EXPECT_TRUE(r.reason == Reject::kWeightsInvalid || r.reason == Reject::kTotalMismatch)
      << to_string(r.reason);
}

TEST(TamperedTarget, RaisedTargetIsRejected) {
  // A sizing that legitimately stopped below the ideal (explicit lower
  // target): claiming a higher target afterwards must trip kTargetMissed —
  // the untouched achieved witness still verifies, but no longer reaches.
  const lis::LisGraph lis = lis::make_two_core_example();
  core::QsOptions options;
  options.method = core::QsMethod::kLazy;
  options.build.target_mst = lis::practical_mst(lis);  // already met: no-op sizing
  const core::QsReport report = core::size_queues(lis, options);
  Certificate cert = core::certify_sizing(lis, report);
  ASSERT_TRUE(check(lis, cert).ok);
  cert.target = Rational(1);
  const CheckResult r = check(lis, cert);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.reason, Reject::kTargetMissed);
}

}  // namespace
}  // namespace lid::verify
