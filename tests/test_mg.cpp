#include <gtest/gtest.h>

#include "graph/cycles.hpp"
#include "mcm_oracle.hpp"
#include "mg/marked_graph.hpp"
#include "mg/mcm.hpp"
#include "mg/simulate.hpp"
#include "util/rng.hpp"

namespace lid::mg {
namespace {

using util::Rational;

/// A strongly connected marked graph: ring of `n` shells with one token per
/// place except `voids` places with zero tokens (as if relay stations).
MarkedGraph token_ring(int n, int voids) {
  MarkedGraph g;
  std::vector<TransitionId> t;
  for (int i = 0; i < n; ++i) {
    t.push_back(g.add_transition(i < voids ? TransitionKind::kRelayStation
                                           : TransitionKind::kShell));
  }
  for (int i = 0; i < n; ++i) {
    // Place from t[i] to t[i+1]; zero tokens when the producer is a relay
    // station (it outputs τ first).
    const bool rs = g.transition_kind(t[static_cast<std::size_t>(i)]) ==
                    TransitionKind::kRelayStation;
    g.add_place(t[static_cast<std::size_t>(i)],
                t[static_cast<std::size_t>((i + 1) % n)], rs ? 0 : 1);
  }
  return g;
}

TEST(MarkedGraph, BasicAccessors) {
  MarkedGraph g;
  const TransitionId a = g.add_transition(TransitionKind::kShell, "A");
  const TransitionId b = g.add_transition(TransitionKind::kRelayStation);
  const PlaceId p = g.add_place(a, b, 1);
  EXPECT_EQ(g.num_transitions(), 2u);
  EXPECT_EQ(g.num_places(), 1u);
  EXPECT_EQ(g.transition_name(a), "A");
  EXPECT_EQ(g.transition_kind(b), TransitionKind::kRelayStation);
  EXPECT_EQ(g.producer(p), a);
  EXPECT_EQ(g.consumer(p), b);
  EXPECT_EQ(g.tokens(p), 1);
  g.set_tokens(p, 3);
  EXPECT_EQ(g.tokens(p), 3);
  g.add_tokens(p, -2);
  EXPECT_EQ(g.tokens(p), 1);
  EXPECT_THROW(g.add_tokens(p, -5), std::invalid_argument);
  EXPECT_THROW(g.add_place(a, b, -1), std::invalid_argument);
}

TEST(MarkedGraph, CycleTokens) {
  const MarkedGraph g = token_ring(4, 1);
  const auto cycles = graph::enumerate_cycles(g.structure()).cycles;
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(g.cycle_tokens(cycles.front()), 3);
}

TEST(MarkedGraph, ValidateLisStructureAcceptsRing) {
  EXPECT_NO_THROW(token_ring(5, 1).validate_lis_structure());
}

TEST(MarkedGraph, ValidateRejectsTokenFreeCycle) {
  MarkedGraph g = token_ring(3, 3);  // all void: deadlocked ring
  EXPECT_THROW(g.validate_lis_structure(), std::invalid_argument);
}

TEST(MarkedGraph, ValidateRejectsShellWithZeroTokenInput) {
  MarkedGraph g;
  const TransitionId a = g.add_transition(TransitionKind::kShell);
  const TransitionId b = g.add_transition(TransitionKind::kShell);
  g.add_place(a, b, 0);  // a shell's incoming forward place must hold 1
  g.add_place(b, a, 1);
  EXPECT_THROW(g.validate_lis_structure(), std::invalid_argument);
}

TEST(MarkedGraph, ValidateRejectsBranchingRelayStation) {
  MarkedGraph g;
  const TransitionId a = g.add_transition(TransitionKind::kShell);
  const TransitionId rs = g.add_transition(TransitionKind::kRelayStation);
  const TransitionId b = g.add_transition(TransitionKind::kShell);
  g.add_place(a, rs, 1);
  g.add_place(rs, b, 0);
  g.add_place(rs, a, 0);  // second forward output: not a relay station
  EXPECT_THROW(g.validate_lis_structure(), std::invalid_argument);
}

TEST(Mcm, RingMeans) {
  EXPECT_EQ(*oracle::min_cycle_mean_karp(token_ring(6, 1)), Rational(5, 6));
  EXPECT_EQ(*oracle::min_cycle_mean_karp(token_ring(6, 0)), Rational(1));
  EXPECT_EQ(*oracle::min_cycle_mean_karp(token_ring(2, 1)), Rational(1, 2));
}

TEST(Mcm, AcyclicReturnsNothing) {
  MarkedGraph g;
  const TransitionId a = g.add_transition(TransitionKind::kShell);
  const TransitionId b = g.add_transition(TransitionKind::kShell);
  g.add_place(a, b, 1);
  EXPECT_FALSE(oracle::min_cycle_mean_karp(g).has_value());
  EXPECT_FALSE(min_cycle_mean_howard(g).has_value());
  EXPECT_EQ(mst(g), Rational(1));
}

TEST(Mcm, HowardReturnsCriticalCycle) {
  MarkedGraph g = token_ring(6, 1);
  const auto mc = min_cycle_mean_howard(g);
  ASSERT_TRUE(mc.has_value());
  EXPECT_EQ(mc->mean, Rational(5, 6));
  EXPECT_EQ(mc->cycle.size(), 6u);
  EXPECT_EQ(g.cycle_tokens(mc->cycle), 5);
}

TEST(Mcm, MstTakesSlowestScc) {
  // Ring with mean 2/3 feeding a ring with mean 3/4: MST is 2/3.
  MarkedGraph g;
  std::vector<TransitionId> t;
  for (int i = 0; i < 7; ++i) t.push_back(g.add_transition(TransitionKind::kShell));
  g.add_place(t[0], t[1], 1);
  g.add_place(t[1], t[2], 1);
  g.add_place(t[2], t[0], 0);
  g.add_place(t[3], t[4], 1);
  g.add_place(t[4], t[5], 1);
  g.add_place(t[5], t[6], 1);
  g.add_place(t[6], t[3], 0);
  g.add_place(t[2], t[3], 1);  // uplink -> downlink
  EXPECT_EQ(mst(g), Rational(2, 3));
}

TEST(Mcm, DeadlockedGraphThrowsAndHasAZeroMeanCycle) {
  MarkedGraph g = token_ring(3, 3);
  EXPECT_THROW(mst(g), std::invalid_argument);
  EXPECT_THROW(mst(mcm_evidence(g)), std::invalid_argument);
  EXPECT_EQ(min_cycle_mean_howard(g)->mean, Rational(0));
}

/// Random strongly connected LIS-like marked graph: a Hamiltonian ring plus
/// chords; some transitions act as relay stations (zero-token outputs).
MarkedGraph random_strong_graph(util::Rng& rng) {
  const int n = rng.uniform_int(3, 9);
  MarkedGraph g;
  std::vector<TransitionId> t;
  for (int i = 0; i < n; ++i) {
    t.push_back(g.add_transition(rng.flip(0.25) ? TransitionKind::kRelayStation
                                                : TransitionKind::kShell));
  }
  const auto producer_tokens = [&](int i) {
    return g.transition_kind(t[static_cast<std::size_t>(i)]) == TransitionKind::kShell ? 1 : 0;
  };
  for (int i = 0; i < n; ++i) {
    g.add_place(t[static_cast<std::size_t>(i)], t[static_cast<std::size_t>((i + 1) % n)],
                producer_tokens(i));
  }
  const int chords = rng.uniform_int(0, n);
  for (int c = 0; c < chords; ++c) {
    const int u = rng.uniform_int(0, n - 1);
    const int v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    g.add_place(t[static_cast<std::size_t>(u)], t[static_cast<std::size_t>(v)],
                producer_tokens(u));
  }
  return g;
}

/// Exact minimum cycle mean by enumerating all elementary cycles.
Rational brute_force_mcm(const MarkedGraph& g) {
  Rational best(1000000);
  for (const auto& c : graph::enumerate_cycles(g.structure()).cycles) {
    best = Rational::min(best, Rational(g.cycle_tokens(c), static_cast<std::int64_t>(c.size())));
  }
  return best;
}

class McmCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McmCrossCheck, KarpHowardAndEnumerationAgree) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const MarkedGraph g = random_strong_graph(rng);
    const auto karp = oracle::min_cycle_mean_karp(g);
    ASSERT_TRUE(karp.has_value());
    const auto howard = min_cycle_mean_howard(g);
    ASSERT_TRUE(howard.has_value());
    const Rational brute = brute_force_mcm(g);
    EXPECT_EQ(*karp, brute);
    EXPECT_EQ(howard->mean, brute);
    // Howard's reported cycle must actually achieve the mean.
    EXPECT_EQ(Rational(g.cycle_tokens(howard->cycle),
                       static_cast<std::int64_t>(howard->cycle.size())),
              brute);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McmCrossCheck,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(Simulate, RingThroughputMatchesMst) {
  const MarkedGraph g = token_ring(6, 1);
  const SimulationResult r = simulate(g, 1000);
  ASSERT_TRUE(r.periodic_found);
  EXPECT_EQ(r.throughput, Rational(5, 6));
}

TEST(Simulate, SourceTransitionRunsAtFullRate) {
  MarkedGraph g;
  const TransitionId src = g.add_transition(TransitionKind::kShell);
  const TransitionId dst = g.add_transition(TransitionKind::kShell);
  g.add_place(src, dst, 1);
  // Both transitions fire every step, so the marking recurs immediately and
  // the simulator reports the exact rate from one period.
  const SimulationResult r = simulate(g, 50, src);
  ASSERT_TRUE(r.periodic_found);
  EXPECT_EQ(r.throughput, Rational(1));
  EXPECT_EQ(r.firings[static_cast<std::size_t>(src)],
            r.firings[static_cast<std::size_t>(dst)]);
}

TEST(Simulate, DeadlockedGraphNeverFires) {
  const SimulationResult r = simulate(token_ring(3, 3), 100);
  EXPECT_TRUE(r.periodic_found);
  EXPECT_EQ(r.throughput, Rational(0));
}

TEST(Simulate, ObserverSeesFiringsAndCanStop) {
  const MarkedGraph g = token_ring(4, 1);
  std::size_t calls = 0;
  std::int64_t observed_firings = 0;
  const SimulationResult r =
      simulate(g, 100, 0, [&](std::size_t, const std::vector<char>& fired) {
        for (const char f : fired) observed_firings += f;
        return ++calls < 2;
      });
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(r.steps_run, 2u);
  // The observer saw exactly the firings the result reports.
  std::int64_t total = 0;
  for (const std::int64_t f : r.firings) total += f;
  EXPECT_EQ(observed_firings, total);
}

TEST(Simulate, PreCancelledTokenStopsAtStepZero) {
  const MarkedGraph g = token_ring(6, 1);
  const SimulationResult r =
      simulate(g, 1000, 0, nullptr, util::CancelToken::after_ms(0.0));
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.steps_run, 0u);
  EXPECT_FALSE(r.periodic_found);
}

TEST(Simulate, DefaultTokenNeverCancels) {
  const MarkedGraph g = token_ring(6, 1);
  const SimulationResult r = simulate(g, 1000);
  EXPECT_FALSE(r.cancelled);
  ASSERT_TRUE(r.periodic_found);
}

TEST(Simulate, TokenCountOnCycleIsInvariant) {
  MarkedGraph g = token_ring(5, 2);
  const auto cycle = graph::enumerate_cycles(g.structure()).cycles.front();
  const std::int64_t before = g.cycle_tokens(cycle);
  // Run and capture the marking after some steps through the observer by
  // re-simulating and summing place tokens manually: simulate() does not
  // expose markings, so instead verify via throughput consistency — the
  // invariant implies sustained rate tokens/places.
  const SimulationResult r = simulate(g, 500);
  ASSERT_TRUE(r.periodic_found);
  EXPECT_EQ(r.throughput, Rational(before, static_cast<std::int64_t>(cycle.size())));
}

class SimulationVsAnalysis : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationVsAnalysis, ThroughputEqualsMstOnStrongGraphs) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const MarkedGraph g = random_strong_graph(rng);
    if (min_cycle_mean_howard(g)->mean == Rational(0)) continue;  // deadlocked
    const Rational theta = mst(g);
    const SimulationResult r = simulate(g, 20000);
    ASSERT_TRUE(r.periodic_found) << "no recurrence within budget";
    EXPECT_EQ(r.throughput, Rational::min(Rational(1), theta));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationVsAnalysis, ::testing::Values(7, 17, 27, 37));

}  // namespace
}  // namespace lid::mg
