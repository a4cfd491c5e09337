// Facade tests: Result<T> semantics, error codes, netlist round trips,
// deterministic generation, and the analyze / size_queues /
// insert_relay_stations workflows over opaque Instance handles.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lid_api.hpp"
#include "lis/paper_systems.hpp"
#include "util/rational.hpp"

namespace lid {
namespace {

using util::Rational;

TEST(ResultT, HoldsValueOrError) {
  const Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  const Result<int> bad = Error{ErrorCode::kParse, "line 3: nope"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kParse);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_NE(bad.error().to_string().find("line 3"), std::string::npos);
  EXPECT_THROW((void)bad.value(), std::invalid_argument);

  const Result<int> coded(ErrorCode::kTimeout, "budget");
  EXPECT_EQ(coded.error().code, ErrorCode::kTimeout);
}

TEST(ResultT, ErrorCodeNames) {
  EXPECT_STREQ(to_string(ErrorCode::kIo), "io");
  EXPECT_STREQ(to_string(ErrorCode::kParse), "parse");
  EXPECT_STREQ(to_string(ErrorCode::kInvalidArgument), "invalid-argument");
  EXPECT_STREQ(to_string(ErrorCode::kTimeout), "timeout");
  EXPECT_STREQ(to_string(ErrorCode::kInternal), "internal");
}

TEST(InstanceHandle, DefaultIsInvalidAndFailsCleanly) {
  const Instance invalid;
  EXPECT_FALSE(invalid.valid());
  const Result<Analysis> a = analyze(invalid);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.error().code, ErrorCode::kInvalidArgument);
  EXPECT_FALSE(size_queues(invalid).ok());
  EXPECT_FALSE(insert_relay_stations(invalid).ok());
  EXPECT_FALSE(netlist_text(invalid).ok());
}

TEST(InstanceHandle, WrapExposesTheGraph) {
  const Instance two = Instance::wrap(lis::make_two_core_example(), "fig1");
  EXPECT_TRUE(two.valid());
  EXPECT_EQ(two.name(), "fig1");
  EXPECT_EQ(two.num_cores(), 2u);
  EXPECT_EQ(two.num_channels(), 2u);
  EXPECT_EQ(two.total_relay_stations(), 1);
  EXPECT_EQ(two.graph().num_cores(), 2u);
}

TEST(Netlist, LoadMissingFileIsIoError) {
  const Result<Instance> missing = load_netlist("/nonexistent/void.lis");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kIo);
}

TEST(Netlist, LoadDirectoryIsReadError) {
  // A directory opens but cannot be read: an I/O error, not an empty netlist.
  const Result<Instance> directory = load_netlist(::testing::TempDir());
  ASSERT_FALSE(directory.ok());
  EXPECT_EQ(directory.error().code, ErrorCode::kIo);
  EXPECT_EQ(directory.error().message, "read error on '" + ::testing::TempDir() + "'");
}

TEST(Netlist, ParseErrorsCarryParseCode) {
  const Result<Instance> bad = parse_netlist("core A\nchannel A -> Missing\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kParse);
}

TEST(Netlist, TextRoundTrip) {
  const Instance original = Instance::wrap(lis::make_two_core_example(), "fig1");
  const Result<std::string> text = netlist_text(original);
  ASSERT_TRUE(text.ok());
  const Result<Instance> reparsed = parse_netlist(*text, "fig1-bis");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*netlist_text(*reparsed), *text);
  EXPECT_EQ(reparsed->num_cores(), original.num_cores());
  EXPECT_EQ(reparsed->total_relay_stations(), original.total_relay_stations());
}

TEST(Netlist, SaveAndLoadRoundTrip) {
  const std::string path = "/tmp/lid_api_roundtrip.lis";
  const Instance original = Instance::wrap(lis::make_two_core_example());
  ASSERT_TRUE(save_netlist(original, path).ok());
  const Result<Instance> loaded = load_netlist(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*netlist_text(*loaded), *netlist_text(original));
  std::remove(path.c_str());
  EXPECT_FALSE(save_netlist(original, "/nonexistent/dir/x.lis").ok());
}

TEST(Generate, DeterministicPerSeed) {
  GenerateOptions options;
  options.cores = 15;
  options.sccs = 3;
  options.seed = 99;
  const Result<Instance> a = generate(options);
  const Result<Instance> b = generate(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*netlist_text(*a), *netlist_text(*b));

  options.seed = 100;
  const Result<Instance> c = generate(options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*netlist_text(*a), *netlist_text(*c));
}

TEST(Generate, BadParametersAreInvalidArgument) {
  GenerateOptions options;
  options.cores = 2;
  options.sccs = 10;  // more SCCs than cores
  const Result<Instance> r = generate(options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

TEST(Analyze, TwoCoreExampleMatchesThePaper) {
  const Instance two = Instance::wrap(lis::make_two_core_example());
  const Result<Analysis> a = analyze(two);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->theta_ideal, Rational(1));
  EXPECT_EQ(a->theta_practical, Rational(2, 3));
  EXPECT_TRUE(a->degraded);
  EXPECT_FALSE(a->critical_cycle.empty());
  EXPECT_TRUE(a->rate_safe);

  AnalyzeOptions no_cycle;
  no_cycle.critical_cycle = false;
  const Result<Analysis> lean = analyze(two, no_cycle);
  ASSERT_TRUE(lean.ok());
  EXPECT_TRUE(lean->critical_cycle.empty());
}

TEST(Analyze, CofdmSocIsTheCaseStudy) {
  const Instance soc = cofdm_soc();
  ASSERT_TRUE(soc.valid());
  EXPECT_EQ(soc.num_cores(), 12u);
  const Result<Analysis> a = analyze(soc);
  ASSERT_TRUE(a.ok());
  EXPECT_LE(a->theta_practical, a->theta_ideal);
}

TEST(Analyze, CertifiedMatchesUncertified) {
  // A certified analysis takes its witnesses from the same evidence passes
  // as its verdict; every field but the certificate must match a plain run.
  std::vector<Instance> instances = {Instance::wrap(lis::make_two_core_example()),
                                     Instance::wrap(lis::make_two_core_example_sized()),
                                     Instance::wrap(lis::make_fig15_counterexample()),
                                     cofdm_soc()};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GenerateOptions gen;
    gen.cores = 30;
    gen.sccs = 3;
    gen.relay_stations = 8;
    gen.rs_anywhere = seed % 2 == 0;
    gen.seed = seed;
    instances.push_back(generate(gen).value());
  }
  for (const Instance& instance : instances) {
    SCOPED_TRACE(instance.name());
    const Result<Analysis> plain = analyze(instance);
    AnalyzeOptions options;
    options.certify = true;
    const Result<Analysis> certified = analyze(instance, options);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(certified.ok());
    EXPECT_FALSE(plain->certificate.has_value());
    ASSERT_TRUE(certified->certificate.has_value());
    EXPECT_EQ(certified->cores, plain->cores);
    EXPECT_EQ(certified->channels, plain->channels);
    EXPECT_EQ(certified->relay_stations, plain->relay_stations);
    EXPECT_EQ(certified->topology, plain->topology);
    EXPECT_EQ(certified->theta_ideal, plain->theta_ideal);
    EXPECT_EQ(certified->theta_practical, plain->theta_practical);
    EXPECT_EQ(certified->degraded, plain->degraded);
    EXPECT_EQ(certified->critical_cycle, plain->critical_cycle);
    EXPECT_EQ(certified->rate_hazards, plain->rate_hazards);
    EXPECT_EQ(certified->rate_safe, plain->rate_safe);
    const Result<verify::CheckResult> checked =
        verify_certificate(instance, *certified->certificate);
    ASSERT_TRUE(checked.ok());
    EXPECT_TRUE(checked->ok) << checked->detail;
  }
}

TEST(SizeQueues, RestoresTheIdealMst) {
  const Instance two = Instance::wrap(lis::make_two_core_example());
  const Result<Sizing> s = size_queues(two);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->degraded);
  EXPECT_EQ(s->achieved, s->theta_ideal);
  // The default solver is lazy constraint generation: an exact optimum
  // without the eager enumeration pipeline (so no heuristic pass runs).
  EXPECT_TRUE(s->solver_lazy);
  EXPECT_GE(s->exact_total, 1);
  ASSERT_FALSE(s->changes.empty());
  EXPECT_GT(s->changes.front().after, s->changes.front().before);
  // The sized instance really runs at the ideal rate.
  const Result<Analysis> sized = analyze(s->sized);
  ASSERT_TRUE(sized.ok());
  EXPECT_FALSE(sized->degraded);
}

// An eager optimum over a truncated enumeration covers only the cycles
// found: it is applied as it is, but not reported proven. Fig. 15 has 20
// cycles; the first three need one slot on A -> C, which reaches 4/5 of
// the 5/6 target.
TEST(SizeQueues, TruncatedEnumerationIsNotProven) {
  const Instance fig15 = Instance::wrap(lis::make_fig15_counterexample());
  for (const Solver solver : {Solver::kExact, Solver::kBoth}) {
    SizeQueuesOptions options;
    options.solver = solver;
    options.max_cycles = 3;
    const Result<Sizing> sized = size_queues(fig15, options);
    ASSERT_TRUE(sized.ok()) << sized.error().to_string();
    EXPECT_TRUE(sized->truncated);
    EXPECT_FALSE(sized->exact_proved);
    EXPECT_EQ(sized->exact_total, 1);
    EXPECT_EQ(sized->achieved, util::Rational(4, 5));
    ASSERT_EQ(sized->changes.size(), 1u);
    EXPECT_EQ(sized->changes[0].src, "A");
    EXPECT_EQ(sized->changes[0].dst, "C");
    EXPECT_EQ(sized->changes[0].after, 2);
  }
}

// A lazy sizing whose token fires fails with kTimeout and names its rounds,
// not a cycle enumeration it never runs.
TEST(SizeQueues, CancelledLazySizingNamesItsRounds) {
  SizeQueuesOptions options;
  options.cancel = util::CancelToken::after_ms(0.0);
  const Result<Sizing> sized =
      size_queues(Instance::wrap(lis::make_fig15_counterexample()), options);
  ASSERT_FALSE(sized.ok());
  EXPECT_EQ(sized.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(sized.error().message, "size_queues: cancelled during lazy sizing rounds");
}

TEST(SizeQueues, UndegradedInstanceIsANoOp) {
  const Instance sized = Instance::wrap(lis::make_two_core_example_sized());
  const Result<Sizing> s = size_queues(sized);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s->degraded);
  EXPECT_TRUE(s->changes.empty());
  EXPECT_EQ(s->achieved, s->theta_ideal);
}

TEST(SizeQueues, HeuristicOnlySkipsTheExactSolver) {
  const Instance two = Instance::wrap(lis::make_two_core_example());
  SizeQueuesOptions options;
  options.solver = Solver::kHeuristic;
  const Result<Sizing> s = size_queues(two, options);
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s->heuristic_total, 1);
  EXPECT_EQ(s->exact_total, -1);
}

TEST(SizeQueues, CertifiedMatchesUncertified) {
  // A certified sizing reads its achieved MST off the certificate's
  // post-sizing witness instead of re-solving; both must agree everywhere.
  std::vector<Instance> instances = {Instance::wrap(lis::make_two_core_example()),
                                     Instance::wrap(lis::make_two_core_example_sized()),
                                     Instance::wrap(lis::make_fig15_counterexample()),
                                     cofdm_soc()};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GenerateOptions gen;
    gen.cores = 30;
    gen.sccs = 3;
    gen.relay_stations = 8;
    gen.rs_anywhere = true;
    gen.seed = seed;
    instances.push_back(generate(gen).value());
  }
  for (const Solver solver : {Solver::kLazy, Solver::kBoth, Solver::kHeuristic}) {
    for (const util::Rational& target : {util::Rational(0), util::Rational(3, 4)}) {
      for (const Instance& instance : instances) {
        SCOPED_TRACE(instance.name() + " target " + target.to_string());
        SizeQueuesOptions options;
        options.solver = solver;
        options.target = target;
        const Result<Sizing> plain = size_queues(instance, options);
        options.certify = true;
        const Result<Sizing> certified = size_queues(instance, options);
        ASSERT_TRUE(plain.ok());
        ASSERT_TRUE(certified.ok());
        ASSERT_TRUE(certified->certificate.has_value());
        EXPECT_EQ(certified->achieved, plain->achieved);
        EXPECT_EQ(certified->exact_total, plain->exact_total);
        EXPECT_EQ(certified->heuristic_total, plain->heuristic_total);
        EXPECT_EQ(certified->changes.size(), plain->changes.size());
        const Result<verify::CheckResult> checked =
            verify_certificate(instance, *certified->certificate);
        ASSERT_TRUE(checked.ok());
        EXPECT_TRUE(checked->ok) << checked->detail;
      }
    }
  }
}

TEST(InsertRelayStations, RepairsTheTwoCoreExample) {
  // Start from the un-pipelined variant: drop the relay station so the
  // channel is repairable by insertion.
  const Instance two = Instance::wrap(lis::make_two_core_example());
  InsertRelayStationsOptions options;
  options.budget = 2;
  const Result<RelayInsertion> r = insert_relay_stations(two, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->original_ideal, Rational(1));
  EXPECT_GE(r->added, 0);
  ASSERT_TRUE(r->repaired.valid());
  EXPECT_LE(r->best_practical, r->original_ideal);
}

// ---------------------------------------------------------------------------
// Error paths through the facade: every failure must come back as a
// Result carrying a code and a human-readable message — never an abort,
// never an escaping exception (the serve wire protocol depends on this).

TEST(ErrorPaths, MalformedNetlistsAllCarryParseCodeAndMessage) {
  const char* bad_texts[] = {
      "core A\nchannel A -> Missing\n",   // unknown endpoint
      "core A\ncore A\n",                 // duplicate core
      "chanel A -> B\n",                  // misspelled keyword
      "core A\nchannel A ->\n",           // truncated channel
      "core A\nchannel A -> A rs=-2\n",   // negative relay-station count
      "core A\nchannel A -> A q=-1\n",    // negative queue capacity
  };
  for (const char* text : bad_texts) {
    const Result<Instance> r = parse_netlist(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.error().code, ErrorCode::kParse) << text;
    EXPECT_FALSE(r.error().message.empty()) << text;
  }
}

TEST(ErrorPaths, InvalidGeneratorParametersAreInvalidArgument) {
  const auto expect_invalid = [](GenerateOptions options) {
    const Result<Instance> r = generate(options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
    EXPECT_FALSE(r.error().message.empty());
  };
  GenerateOptions options;
  options.cores = 0;  // no cores at all
  expect_invalid(options);
  options = {};
  options.cores = -5;
  expect_invalid(options);
  options = {};
  options.sccs = 0;
  expect_invalid(options);
  options = {};
  options.relay_stations = -1;
  expect_invalid(options);
  options = {};
  options.queue_capacity = 0;
  expect_invalid(options);
}

TEST(ErrorPaths, NegativeRelayBudgetIsInvalidArgument) {
  const Instance two = Instance::wrap(lis::make_two_core_example());
  InsertRelayStationsOptions options;
  options.budget = -1;
  const Result<RelayInsertion> r = insert_relay_stations(two, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  EXPECT_FALSE(r.error().message.empty());
}

TEST(ErrorPaths, InvalidHandlesFailEveryOperationWithAMessage) {
  const Instance invalid;
  EXPECT_FALSE(analyze(invalid).ok());
  EXPECT_FALSE(analyze(invalid).error().message.empty());
  EXPECT_FALSE(size_queues(invalid).ok());
  EXPECT_FALSE(insert_relay_stations(invalid).ok());
  EXPECT_FALSE(netlist_text(invalid).ok());
  EXPECT_FALSE(save_netlist(invalid, "/tmp/should_not_exist.lis").ok());
}

}  // namespace
}  // namespace lid
