// Edge cases and less-traveled paths across modules: non-recurrent
// simulations, schedule pattern wrap-around, slack/storage on the SoC,
// degenerate inputs, and parser fuzzing.
#include <gtest/gtest.h>

#include <string>

#include "core/diagnostics.hpp"
#include "core/scheduling.hpp"
#include "core/slack.hpp"
#include "core/storage.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "lis/protocol_sim.hpp"
#include "mcm_oracle.hpp"
#include "mg/mcm.hpp"
#include "mg/simulate.hpp"
#include "soc/cofdm.hpp"
#include "util/rng.hpp"

namespace lid {
namespace {

using util::Rational;

TEST(EdgeCases, IdealGraphWithRateMismatchNeverRecurs) {
  // A full-rate source feeding a half-rate ring accumulates tokens forever;
  // the simulator must hit its budget and report the empirical rate.
  lis::LisGraph lis;
  const lis::CoreId src = lis.add_core();
  const lis::CoreId a = lis.add_core();
  const lis::CoreId b = lis.add_core();
  lis.add_channel(src, a);
  lis.add_channel(a, b, 1);
  lis.add_channel(b, a, 1);
  const lis::Expansion ideal = lis::expand_ideal(lis);
  const mg::SimulationResult sim = mg::simulate(ideal.graph, 300, ideal.core_transition[src]);
  EXPECT_FALSE(sim.periodic_found);
  EXPECT_EQ(sim.steps_run, 300u);
  EXPECT_EQ(sim.throughput, Rational(1));  // the source itself never stalls
}

TEST(EdgeCases, SchedulePatternWrapsCorrectly) {
  lis::LisGraph ring;
  for (int i = 0; i < 3; ++i) ring.add_core();
  for (int i = 0; i < 3; ++i) ring.add_channel(i, (i + 1) % 3, i == 0 ? 1 : 0);
  const core::StaticSchedule schedule = core::compute_static_schedule(ring);
  ASSERT_TRUE(schedule.found);
  // fires() far beyond the recorded horizon must follow the periodic window.
  for (lis::CoreId v = 0; v < 3; ++v) {
    for (std::size_t t = schedule.transient; t < schedule.transient + schedule.period; ++t) {
      EXPECT_EQ(schedule.fires(v, t), schedule.fires(v, t + 7 * schedule.period));
    }
  }
}

TEST(EdgeCases, SlackAndStorageOnTheCofdmSoc) {
  const lis::LisGraph soc = soc::build_cofdm();
  const auto slacks = core::channel_slacks(soc);
  ASSERT_EQ(slacks.size(), 30u);
  // Channels into the clipper/filter tail lie on no forward cycle.
  int unbounded = 0;
  for (const auto& s : slacks) {
    if (s.slack == core::ChannelSlack::kUnbounded) ++unbounded;
  }
  EXPECT_GT(unbounded, 0);
  EXPECT_LT(unbounded, 30);
  // Storage bounds exist for every channel and respect the capacity cap.
  for (const auto& s : core::storage_bounds(soc)) {
    EXPECT_GE(s.occupancy_bound, 1);
    EXPECT_LE(s.occupancy_bound, s.configured_capacity + 2 * s.relay_stations + 1);
  }
}

TEST(EdgeCases, SingleCoreNoChannels) {
  lis::LisGraph lis;
  lis.add_core("lonely");
  EXPECT_EQ(lis::ideal_mst(lis), Rational(1));
  EXPECT_EQ(lis::practical_mst(lis), Rational(1));
  const core::DegradationReport report = core::explain_degradation(lis);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.critical_cycle.empty());
  lis::ProtocolOptions options;
  options.periods = 10;
  const lis::ProtocolResult sim = simulate_protocol(lis, options);
  EXPECT_EQ(sim.throughput, Rational(1));  // fires unconditionally
}

TEST(EdgeCases, SelfLoopWithBigQueue) {
  lis::LisGraph lis;
  const lis::CoreId a = lis.add_core();
  lis.add_channel(a, a, 2, 3);  // pipelined self-loop, deep queue
  // Forward loop: 3 places, 1 token -> ideal 1/3; the queue backedge cycle
  // has 1 + (3 + 4) tokens over 4 places: benign. Practical == ideal.
  EXPECT_EQ(lis::ideal_mst(lis), Rational(1, 3));
  EXPECT_EQ(lis::practical_mst(lis), Rational(1, 3));
  lis::ProtocolOptions options;
  options.periods = 200;
  const lis::ProtocolResult sim = simulate_protocol(lis, options);
  ASSERT_TRUE(sim.periodic_found);
  EXPECT_EQ(sim.throughput, Rational(1, 3));
}

TEST(EdgeCases, ParserSurvivesGarbage) {
  util::Rng rng(99);
  const std::string alphabet = "core channl ->=qrs0123456789 #\nab\t";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int len = rng.uniform_int(0, 60);
    for (int i = 0; i < len; ++i) {
      text += alphabet[rng.uniform_index(alphabet.size())];
    }
    try {
      const lis::LisGraph parsed = lis::from_text(text);
      // If it parsed, it must re-serialize and re-parse identically.
      EXPECT_EQ(lis::to_text(lis::from_text(lis::to_text(parsed))), lis::to_text(parsed));
    } catch (const std::invalid_argument&) {
      // rejection with a clean error is the expected common case
    }
  }
}

TEST(EdgeCases, HowardOnDenseTiedGraphs) {
  // Dense graphs with many equal-weight edges exercise policy-iteration tie
  // handling; Howard must agree with Karp (tests/mcm_oracle) and its cycle
  // must attain the mean.
  util::Rng rng(123);
  for (int trial = 0; trial < 40; ++trial) {
    mg::MarkedGraph g;
    const int n = rng.uniform_int(2, 6);
    for (int i = 0; i < n; ++i) g.add_transition(mg::TransitionKind::kShell);
    for (int i = 0; i < n; ++i) {
      g.add_place(i, (i + 1) % n, 1);  // base ring
    }
    const int extra = rng.uniform_int(0, 2 * n);
    for (int e = 0; e < extra; ++e) {
      g.add_place(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
                  rng.uniform_int(0, 1));
    }
    const auto karp = mg::oracle::min_cycle_mean_karp(g);
    const auto howard = mg::min_cycle_mean_howard(g);
    ASSERT_TRUE(karp.has_value());
    ASSERT_TRUE(howard.has_value());
    EXPECT_EQ(*karp, howard->mean);
    EXPECT_EQ(Rational(g.cycle_tokens(howard->cycle),
                       static_cast<std::int64_t>(howard->cycle.size())),
              *karp);
  }
}

TEST(EdgeCases, TraceRecordingSurvivesLongRuns) {
  lis::LisGraph lis = lis::make_two_core_example();
  lis::ProtocolOptions options;
  options.periods = 999;
  options.record_traces = true;
  const lis::ProtocolResult r = simulate_protocol(lis, options);
  EXPECT_EQ(r.periods, 999u);
  for (const auto& per_stage : r.traces) {
    for (const auto& trace : per_stage) {
      EXPECT_EQ(trace.size(), 999u);
    }
  }
}

}  // namespace
}  // namespace lid
