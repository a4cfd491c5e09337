// Netlist text I/O, DOT export, and throughput diagnostics.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/diagnostics.hpp"
#include "gen/generator.hpp"
#include "lis/dot_export.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "mg/mcm.hpp"
#include "util/rng.hpp"

namespace lid::lis {
namespace {

TEST(NetlistIo, RoundTripsTheTwoCoreExample) {
  const LisGraph original = make_two_core_example_sized();
  const LisGraph parsed = from_text(to_text(original));
  ASSERT_EQ(parsed.num_cores(), original.num_cores());
  ASSERT_EQ(parsed.num_channels(), original.num_channels());
  for (ChannelId c = 0; c < static_cast<ChannelId>(original.num_channels()); ++c) {
    EXPECT_EQ(parsed.channel(c).src, original.channel(c).src);
    EXPECT_EQ(parsed.channel(c).dst, original.channel(c).dst);
    EXPECT_EQ(parsed.channel(c).relay_stations, original.channel(c).relay_stations);
    EXPECT_EQ(parsed.channel(c).queue_capacity, original.channel(c).queue_capacity);
  }
  EXPECT_EQ(parsed.core_name(0), "A");
}

TEST(NetlistIo, ParsesCommentsDefaultsAndWhitespace) {
  const LisGraph parsed = from_text(
      "# a system\n"
      "core A\n"
      "\n"
      "core B   # trailing comment\n"
      "channel A -> B\n"
      "channel A -> B rs=2 q=3\n");
  ASSERT_EQ(parsed.num_channels(), 2u);
  EXPECT_EQ(parsed.channel(0).relay_stations, 0);
  EXPECT_EQ(parsed.channel(0).queue_capacity, 1);
  EXPECT_EQ(parsed.channel(1).relay_stations, 2);
  EXPECT_EQ(parsed.channel(1).queue_capacity, 3);
}

TEST(NetlistIo, RejectsMalformedInput) {
  EXPECT_THROW(from_text("core A\ncore A\n"), std::invalid_argument);           // duplicate
  EXPECT_THROW(from_text("channel A -> B\n"), std::invalid_argument);           // unknown core
  EXPECT_THROW(from_text("core A\ncore B\nchannel A => B\n"), std::invalid_argument);
  EXPECT_THROW(from_text("core A\ncore B\nchannel A -> B rs=x\n"), std::invalid_argument);
  EXPECT_THROW(from_text("core A\ncore B\nchannel A -> B q=-1\n"), std::invalid_argument);
  EXPECT_THROW(from_text("wires A B\n"), std::invalid_argument);                // bad directive
  EXPECT_THROW(from_text("core A extra\n"), std::invalid_argument);
  EXPECT_THROW(from_text("core A\ncore B\nchannel A -> B color=red\n"),
               std::invalid_argument);
}

// q = 0 is a *semantic* defect (the lint layer reports it as L002/L001),
// not a syntax error: it must parse, round-trip, and carry provenance so
// diagnostics can point at the offending line.
TEST(NetlistIo, ZeroQueueCapacityParsesWithProvenance) {
  const auto parsed = from_text_with_provenance("core A\ncore B\nchannel A -> B q=0\n", "z.lis");
  EXPECT_EQ(parsed.graph.channel(0).queue_capacity, 0);
  EXPECT_EQ(parsed.provenance.file, "z.lis");
  EXPECT_EQ(parsed.provenance.line_of_core(0), 1);
  EXPECT_EQ(parsed.provenance.line_of_core(1), 2);
  EXPECT_EQ(parsed.provenance.line_of_channel(0), 3);
  // Round-trips: to_text emits q= whenever it differs from the default 1.
  const LisGraph again = from_text(to_text(parsed.graph));
  EXPECT_EQ(again.channel(0).queue_capacity, 0);
}

TEST(NetlistIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/lid_netlist_test.lis";
  const LisGraph original = make_fig15_counterexample();
  save_netlist(original, path);
  const LisGraph loaded = load_netlist(path);
  EXPECT_EQ(loaded.num_cores(), original.num_cores());
  EXPECT_EQ(loaded.num_channels(), original.num_channels());
  EXPECT_EQ(ideal_mst(loaded), ideal_mst(original));
  EXPECT_EQ(practical_mst(loaded), practical_mst(original));
  std::remove(path.c_str());
  EXPECT_THROW(load_netlist("/nonexistent/path.lis"), std::runtime_error);
  EXPECT_THROW(load_netlist(::testing::TempDir()), std::runtime_error);  // a directory
}

class NetlistRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistRoundTripProperty, GeneratedSystemsSurviveRoundTrip) {
  util::Rng rng(GetParam());
  for (int t = 0; t < 10; ++t) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(3, 25);
    params.sccs = rng.uniform_int(1, 4);
    params.min_cycles = rng.uniform_int(0, 3);
    params.relay_stations = rng.uniform_int(0, 5);
    params.queue_capacity = rng.uniform_int(1, 3);
    params.policy = gen::RsPolicy::kAny;
    const LisGraph original = gen::generate(params, rng);
    const LisGraph parsed = from_text(to_text(original));
    EXPECT_EQ(ideal_mst(parsed), ideal_mst(original));
    EXPECT_EQ(practical_mst(parsed), practical_mst(original));
    // Serialization is canonical: a second round trip is byte-identical.
    EXPECT_EQ(to_text(parsed), to_text(original));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistRoundTripProperty, ::testing::Values(6, 16, 26));

TEST(DotExport, RendersNetlistWithAnnotations) {
  const std::string dot = to_dot(make_two_core_example_sized());
  EXPECT_NE(dot.find("digraph lis"), std::string::npos);
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
  EXPECT_NE(dot.find("rs=1"), std::string::npos);
  EXPECT_NE(dot.find("q=2"), std::string::npos);
}

TEST(DotExport, HighlightsRequestedChannels) {
  DotOptions options;
  options.highlight = {0};
  const std::string dot = to_dot(make_two_core_example(), options);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(DotExport, EscapesQuotesInNames) {
  LisGraph lis;
  lis.add_core("a\"b");
  const std::string dot = to_dot(lis);
  EXPECT_NE(dot.find("\"a\\\"b\""), std::string::npos);
}

TEST(DotExport, MarkedGraphShowsTokensAndBackedges) {
  const Expansion ex = expand_doubled(make_two_core_example());
  const std::string dot = marked_graph_to_dot(ex.graph);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // backpressure places
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);   // the q+2r backedge
}

}  // namespace
}  // namespace lid::lis

namespace lid::core {
namespace {

TEST(Diagnostics, ReportsNoDegradationWhenHealthy) {
  const DegradationReport report = explain_degradation(lis::make_two_core_example_sized());
  EXPECT_FALSE(report.degraded);
  EXPECT_NE(report.to_string().find("no backpressure degradation"), std::string::npos);
}

TEST(Diagnostics, ExplainsTheFig5Cycle) {
  const DegradationReport report = explain_degradation(lis::make_two_core_example());
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.theta_ideal, util::Rational(1));
  EXPECT_EQ(report.theta_practical, util::Rational(2, 3));
  // The critical cycle has 3 places and 2 tokens: A -> rs -> B plus the
  // lower channel's queue backedge.
  EXPECT_EQ(report.cycle_places, 3);
  EXPECT_EQ(report.cycle_tokens, 2);
  int backward = 0;
  for (const CriticalHop& hop : report.critical_cycle) backward += hop.backward ? 1 : 0;
  EXPECT_EQ(backward, 1);
  EXPECT_NE(report.to_string().find("DEGRADED"), std::string::npos);
}

TEST(Diagnostics, CriticalCycleMeanMatchesPracticalMst) {
  const DegradationReport report = explain_degradation(lis::make_fig15_counterexample());
  EXPECT_EQ(util::Rational(report.cycle_tokens, report.cycle_places), report.theta_practical);
}

TEST(Diagnostics, RefusesADeadlockedDoubledGraph) {
  // The facade's lint pre-flight rejects this netlist first; below it, the
  // diagnosis refuses a token-free cycle itself, from a one-shot Howard
  // solve and from an evidence pass alike.
  const lis::LisGraph dead =
      lis::from_text("core A\ncore B\nchannel A -> B q=0\nchannel B -> A q=0\n");
  const lis::Expansion doubled = lis::expand_doubled(dead);
  const auto refusal = [](const auto& explain) -> std::string {
    try {
      explain();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no refusal";
  };
  const auto from_evidence = [&] {
    explain_practical(dead, doubled, mg::mcm_evidence(doubled.graph).critical);
  };
  for (const std::string& message :
       {refusal([&] { explain_degradation(dead); }), refusal(from_evidence)}) {
    EXPECT_EQ(message.rfind("precondition failed: (critical->mean.num() != 0) at ", 0), 0u)
        << message;
    const std::string tail =
        " — explain_degradation: token-free cycle (deadlocked doubled graph)";
    ASSERT_GE(message.size(), tail.size());
    EXPECT_EQ(message.substr(message.size() - tail.size()), tail) << message;
  }
}

}  // namespace
}  // namespace lid::core
