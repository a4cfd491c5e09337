// Rate-safety analysis (Sec. III-C): detecting faster-feeds-slower hazards.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "core/rate_safety.hpp"
#include "gen/generator.hpp"
#include "graph/scc.hpp"
#include "lid_api.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "mg/simulate.hpp"
#include "soc/cofdm.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

#ifndef LID_DATA_DIR
#define LID_DATA_DIR "data"
#endif

namespace lid::core {
namespace {

using util::Rational;

/// The reference implementation: each SCC's rate is the ideal MST of its
/// member-induced sub-netlist, rebuilt, expanded and solved on its own, and
/// effective rates fold every predecessor in SCC by SCC.
RateSafetyReport reference_rate_safety(const lis::LisGraph& lis) {
  RateSafetyReport report;
  const graph::SccPartition part = graph::scc(lis.structure());
  report.scc_of = part.comp_of;
  report.sccs.resize(static_cast<std::size_t>(part.count));
  for (int c = 0; c < part.count; ++c) {
    SccRate& scc = report.sccs[static_cast<std::size_t>(c)];
    scc.cores = part.members[static_cast<std::size_t>(c)];
    lis::LisGraph sub;
    std::vector<lis::CoreId> remap(lis.num_cores(), graph::kInvalidNode);
    for (const lis::CoreId v : scc.cores) {
      remap[static_cast<std::size_t>(v)] = sub.add_core(lis.core_name(v));
      sub.set_core_latency(remap[static_cast<std::size_t>(v)], lis.core_latency(v));
    }
    for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(lis.num_channels()); ++ch) {
      const lis::Channel& channel = lis.channel(ch);
      if (part.comp_of[static_cast<std::size_t>(channel.src)] != c ||
          part.comp_of[static_cast<std::size_t>(channel.dst)] != c) {
        continue;
      }
      sub.add_channel(remap[static_cast<std::size_t>(channel.src)],
                      remap[static_cast<std::size_t>(channel.dst)], channel.relay_stations,
                      channel.queue_capacity);
    }
    scc.rate = lis::ideal_mst(sub);
    scc.effective_rate = scc.rate;
  }
  for (int c = part.count - 1; c >= 0; --c) {
    for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(lis.num_channels()); ++ch) {
      const lis::Channel& channel = lis.channel(ch);
      const int from = part.comp_of[static_cast<std::size_t>(channel.src)];
      const int to = part.comp_of[static_cast<std::size_t>(channel.dst)];
      if (to != c || from == to) continue;
      auto& scc = report.sccs[static_cast<std::size_t>(c)];
      scc.effective_rate = Rational::min(
          scc.effective_rate, report.sccs[static_cast<std::size_t>(from)].effective_rate);
    }
  }
  for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(lis.num_channels()); ++ch) {
    const lis::Channel& channel = lis.channel(ch);
    const int from = part.comp_of[static_cast<std::size_t>(channel.src)];
    const int to = part.comp_of[static_cast<std::size_t>(channel.dst)];
    if (from == to) continue;
    const Rational producer = report.sccs[static_cast<std::size_t>(from)].effective_rate;
    const Rational consumer = report.sccs[static_cast<std::size_t>(to)].effective_rate;
    if (producer > consumer) report.hazards.push_back({ch, producer, consumer});
  }
  return report;
}

/// The whole report must equal the reference's, field by field and in
/// order. Returns the reference's hazard count.
std::size_t expect_matches_reference(const lis::LisGraph& lis) {
  const RateSafetyReport got = analyze_rate_safety(lis);
  const RateSafetyReport want = reference_rate_safety(lis);
  EXPECT_EQ(got.scc_of, want.scc_of);
  EXPECT_EQ(got.sccs.size(), want.sccs.size());
  for (std::size_t c = 0; c < std::min(got.sccs.size(), want.sccs.size()); ++c) {
    SCOPED_TRACE("scc " + std::to_string(c));
    EXPECT_EQ(got.sccs[c].cores, want.sccs[c].cores);
    EXPECT_EQ(got.sccs[c].rate, want.sccs[c].rate);
    EXPECT_EQ(got.sccs[c].effective_rate, want.sccs[c].effective_rate);
  }
  EXPECT_EQ(got.hazards.size(), want.hazards.size());
  for (std::size_t h = 0; h < std::min(got.hazards.size(), want.hazards.size()); ++h) {
    EXPECT_EQ(got.hazards[h].channel, want.hazards[h].channel);
    EXPECT_EQ(got.hazards[h].producer_rate, want.hazards[h].producer_rate);
    EXPECT_EQ(got.hazards[h].consumer_rate, want.hazards[h].consumer_rate);
  }
  return want.hazards.size();
}

lis::LisGraph ring_feeding_ring(int rs_up, int rs_down) {
  // Ring A (3 cores) feeds ring B (3 cores); rs counts set the rates.
  lis::LisGraph lis;
  for (int i = 0; i < 6; ++i) lis.add_core();
  lis.add_channel(0, 1);
  lis.add_channel(1, 2);
  lis.add_channel(2, 0, rs_up);
  lis.add_channel(3, 4);
  lis.add_channel(4, 5);
  lis.add_channel(5, 3, rs_down);
  lis.add_channel(0, 3);  // A -> B
  return lis;
}

TEST(RateSafety, FasterUplinkIsFlagged) {
  // Sec. III-C's example shape: uplink 3/4, downlink 2/3 -> unsafe.
  const lis::LisGraph lis = ring_feeding_ring(1, 2);
  const RateSafetyReport report = analyze_rate_safety(lis);
  ASSERT_EQ(report.sccs.size(), 2u);
  EXPECT_FALSE(report.safe());
  ASSERT_EQ(report.hazards.size(), 1u);
  EXPECT_EQ(report.hazards[0].producer_rate, Rational(3, 4));
  EXPECT_EQ(report.hazards[0].consumer_rate, Rational(3, 5));
  EXPECT_NE(report.to_string(lis).find("rate hazard"), std::string::npos);
}

TEST(RateSafety, SlowerUplinkIsSafe) {
  const lis::LisGraph lis = ring_feeding_ring(2, 1);
  const RateSafetyReport report = analyze_rate_safety(lis);
  EXPECT_TRUE(report.safe());
  EXPECT_NE(report.to_string(lis).find("rate-safe"), std::string::npos);
}

TEST(RateSafety, HazardMeansUnboundedAccumulationInTheIdealRun) {
  // Cross-check with the simulator: the ideal expansion of a hazardous
  // system never recurs (tokens pile up), a safe one does.
  const lis::LisGraph unsafe = ring_feeding_ring(1, 2);
  const lis::Expansion unsafe_ideal = lis::expand_ideal(unsafe);
  EXPECT_FALSE(mg::simulate(unsafe_ideal.graph, 3000).periodic_found);

  const lis::LisGraph safe = ring_feeding_ring(2, 1);
  const lis::Expansion safe_ideal = lis::expand_ideal(safe);
  EXPECT_TRUE(mg::simulate(safe_ideal.graph, 3000).periodic_found);
}

TEST(RateSafety, ThrottlingPropagatesDownstream) {
  // Chain of three rings with rates 1/2, 1, 2/3: the middle full-rate ring
  // is throttled to 1/2 by its ancestor, so it does NOT hazard the third
  // (1/2 < 2/3), even though its own rate (1) would.
  lis::LisGraph lis;
  for (int i = 0; i < 6; ++i) lis.add_core();
  lis.add_channel(0, 1);
  lis.add_channel(1, 0, 2);  // ring A: 2 places + 2 rs -> mean 2/4 = 1/2
  lis.add_channel(2, 3);
  lis.add_channel(3, 2);  // ring B: rate 1
  lis.add_channel(4, 5);
  lis.add_channel(5, 4, 1);  // ring C: 2 tokens / 3 places
  lis.add_channel(0, 2);     // A -> B
  lis.add_channel(2, 4);     // B -> C
  const RateSafetyReport report = analyze_rate_safety(lis);
  EXPECT_TRUE(report.safe());
  // B's effective rate must reflect A's throttle.
  const int b_scc = report.scc_of[2];
  EXPECT_EQ(report.sccs[static_cast<std::size_t>(b_scc)].rate, Rational(1));
  EXPECT_EQ(report.sccs[static_cast<std::size_t>(b_scc)].effective_rate, Rational(1, 2));
}

TEST(RateSafety, TwoCoreExampleIsSafe) {
  const RateSafetyReport report = analyze_rate_safety(lis::make_two_core_example());
  EXPECT_TRUE(report.safe());
  EXPECT_EQ(report.sccs.size(), 2u);  // A and B are their own components
}

TEST(RateSafety, MatchesPerSccReferenceOnShippedSystems) {
  std::ifstream manifest(std::string(LID_DATA_DIR) + "/corpus/manifest.txt");
  ASSERT_TRUE(manifest.good()) << "missing corpus manifest";
  std::vector<std::string> files;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    files.push_back("corpus/" + line.substr(0, line.find(' ')));
  }
  EXPECT_EQ(files.size(), 20u);
  for (const char* extra : {"fig1.lis", "fig15.lis", "cofdm.lis"}) files.push_back(extra);
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    expect_matches_reference(lis::load_netlist(std::string(LID_DATA_DIR) + "/" + file));
  }
  expect_matches_reference(soc::build_cofdm());
}

TEST(RateSafety, MatchesPerSccReferenceOnPipelinedCores) {
  // The systems the pipelined-core suite builds: pipeline stages join the
  // component of G their core's SCC maps to.
  std::vector<lis::LisGraph> systems;
  for (int latency = 1; latency <= 4; ++latency) {
    lis::LisGraph loop;
    const lis::CoreId a = loop.add_core("A");
    const lis::CoreId b = loop.add_core("B");
    loop.set_core_latency(b, latency);
    loop.add_channel(a, b);
    loop.add_channel(b, a);
    systems.push_back(loop);
  }
  lis::LisGraph sized = lis::make_two_core_example_sized();
  sized.set_core_latency(1, 4);
  systems.push_back(sized);
  lis::LisGraph degraded = lis::make_two_core_example();
  degraded.set_core_latency(0, 2);
  systems.push_back(degraded);
  lis::LisGraph split;
  split.add_core("A");
  split.set_core_latency(split.add_core("B"), 3);
  split.add_channel(0, 1);
  systems.push_back(split);
  lis::LisGraph pipe;
  pipe.add_core("src");
  pipe.set_core_latency(pipe.add_core("dbl"), 2);
  pipe.add_core("sink");
  pipe.add_channel(0, 1, 0, 2);
  pipe.add_channel(1, 2, 0, 2);
  systems.push_back(pipe);
  for (const std::uint64_t seed : {81, 82, 83, 84}) {
    util::Rng rng(seed);
    for (int trial = 0; trial < 6; ++trial) {
      gen::GeneratorParams params;
      params.vertices = rng.uniform_int(3, 8);
      params.sccs = rng.uniform_int(1, 2);
      params.min_cycles = rng.uniform_int(0, 2);
      params.relay_stations = rng.uniform_int(0, 3);
      params.policy = gen::RsPolicy::kAny;
      lis::LisGraph system = gen::generate(params, rng);
      for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(system.num_cores()); ++v) {
        if (rng.flip(0.4)) system.set_core_latency(v, rng.uniform_int(2, 4));
      }
      systems.push_back(system);
    }
  }
  for (std::size_t i = 0; i < systems.size(); ++i) {
    SCOPED_TRACE("system " + std::to_string(i));
    expect_matches_reference(systems[i]);
  }
}

TEST(RateSafety, MatchesPerSccReferenceOnGeneratedSystems) {
  // 2,200 seeded systems, relay stations between SCCs only and anywhere;
  // every fourth one also gets pipelined cores.
  int compared = 0;
  int hazardous = 0;
  for (std::uint64_t seed = 1; seed <= 1100; ++seed) {
    for (const bool anywhere : {false, true}) {
      GenerateOptions options;
      options.cores = 3 + static_cast<int>(seed % 18);
      options.sccs = 1 + static_cast<int>(seed % 5) % options.cores;
      options.extra_cycles = static_cast<int>(seed % 4);
      // Between-SCC placement needs a channel between two SCCs to take them.
      options.relay_stations = anywhere || options.sccs > 1 ? static_cast<int>(seed % 9) : 0;
      options.reconvergent = seed % 3 != 0;
      options.rs_anywhere = anywhere;
      options.seed = seed;
      const Result<Instance> generated = generate(options);
      ASSERT_TRUE(generated.ok()) << generated.error().to_string();
      lis::LisGraph system = generated->graph();
      if (seed % 4 == 0) {
        util::Rng rng(seed);
        for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(system.num_cores()); ++v) {
          if (rng.flip(0.3)) system.set_core_latency(v, rng.uniform_int(2, 4));
        }
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + (anywhere ? " rs anywhere" : " rs between"));
      if (expect_matches_reference(system) > 0) ++hazardous;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 2200);
  EXPECT_GE(hazardous, 100);  // the sweep reaches unsafe systems, not only safe ones
}

}  // namespace
}  // namespace lid::core
