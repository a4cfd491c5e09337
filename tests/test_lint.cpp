// The lid_lint static-diagnostics subsystem: every check fires on a minimal
// crafted instance, stays silent on the shipped corpus and the paper's own
// examples, renders to pretty/JSON/SARIF shapes that round-trip through the
// strict util::json parser, and gates analyze/size_queues via the facade
// pre-flight instead of letting broken models die mid-solve.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/storage.hpp"
#include "gen/generator.hpp"
#include "lid_api.hpp"
#include "lint/checks.hpp"
#include "lint/diagnostic.hpp"
#include "lint/render.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "util/json.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"

namespace lid::linter {
namespace {

namespace fs = std::filesystem;
using util::Rational;

const char* kDeadlockText =
    "core A\n"
    "core B\n"
    "channel A -> B q=0\n"
    "channel B -> A q=0\n";

Report lint_text(const std::string& text, const LintOptions& options = {}) {
  return run_checks(lis::from_text(text), options);
}

std::vector<std::string> codes_of(const Report& report) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : report.diagnostics) codes.push_back(d.code);
  return codes;
}

// --- Catalog ---------------------------------------------------------------

TEST(Catalog, HasTwelveChecksWithUniqueOrderedCodes) {
  const auto catalog = check_catalog();
  ASSERT_GE(catalog.size(), 12u);
  std::set<std::string> codes;
  std::string prev;
  for (const CheckInfo& info : catalog) {
    EXPECT_TRUE(codes.insert(info.code).second) << info.code;
    EXPECT_LT(prev, info.code);  // catalog is in code order
    prev = info.code;
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.summary, nullptr);
    EXPECT_GT(std::string(info.summary).size(), 10u);
  }
  // The three tiers are all populated.
  EXPECT_EQ(find_check("L001")->severity, Severity::kError);
  EXPECT_EQ(find_check("L101")->severity, Severity::kWarning);
  EXPECT_EQ(find_check("L302")->severity, Severity::kInfo);
  EXPECT_TRUE(find_check("L201")->needs_target);
  EXPECT_FALSE(find_check("L001")->needs_target);
  EXPECT_EQ(find_check("L999"), nullptr);
}

TEST(Catalog, SeverityNames) {
  EXPECT_STREQ(to_string(Severity::kError), "error");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kInfo), "info");
  EXPECT_STREQ(sarif_level(Severity::kError), "error");
  EXPECT_STREQ(sarif_level(Severity::kWarning), "warning");
  EXPECT_STREQ(sarif_level(Severity::kInfo), "note");
}

// --- Each check fires on a minimal crafted instance ------------------------

TEST(Checks, L001DeadlockOnZeroTokenCycle) {
  const Report report = lint_text(kDeadlockText);
  EXPECT_TRUE(report.has_code("L001"));
  EXPECT_TRUE(report.has_code("L002"));
  EXPECT_EQ(report.errors(), 3u);  // L001 + one L002 per channel
  const Diagnostic& d = report.diagnostics.front();
  EXPECT_EQ(d.code, "L001");
  EXPECT_NE(d.message.find("zero-token cycle"), std::string::npos);
  EXPECT_NE(d.message.find("A -> B"), std::string::npos);
  // Both q=0 channels get a token-restoring fix-it.
  ASSERT_EQ(d.fixits.size(), 2u);
  EXPECT_EQ(d.fixits[0].set_queue_capacity, 1);
}

TEST(Checks, L002ZeroQueueWithoutDeadlockOnFeedForward) {
  const Report report = lint_text("core A\ncore B\nchannel A -> B q=0\n");
  EXPECT_FALSE(report.has_code("L001"));  // no cycle, no deadlock
  ASSERT_TRUE(report.has_code("L002"));
  const Diagnostic& d = report.diagnostics.front();
  EXPECT_EQ(d.severity, Severity::kError);
  ASSERT_EQ(d.fixits.size(), 1u);
  EXPECT_EQ(d.fixits[0].channel, 0);
  EXPECT_EQ(d.fixits[0].set_queue_capacity, 1);
}

TEST(Checks, L003EmptyNetlist) {
  const Report report = run_checks(lis::LisGraph{});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "L003");
  EXPECT_EQ(report.errors(), 1u);
}

TEST(Checks, L101IsolatedCore) {
  const Report report =
      lint_text("core A\ncore B\ncore Orphan\nchannel A -> B\nchannel B -> A\n");
  ASSERT_TRUE(report.has_code("L101"));
  EXPECT_TRUE(report.has_code("L103"));  // the orphan is also its own component
  EXPECT_EQ(report.errors(), 0u);
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code != "L101") continue;
    EXPECT_EQ(d.location.core, 2);
    EXPECT_NE(d.message.find("Orphan"), std::string::npos);
  }
}

TEST(Checks, L102ExactDuplicateChannel) {
  const Report dup =
      lint_text("core A\ncore B\nchannel A -> B\nchannel A -> B\nchannel B -> A\n");
  ASSERT_TRUE(dup.has_code("L102"));
  EXPECT_EQ(dup.infos(), 1u);
  // Parallel channels that differ in rs are NOT duplicates (Fig. 1/2 shape).
  const Report fig1 = run_checks(lis::make_two_core_example());
  EXPECT_FALSE(fig1.has_code("L102"));
}

/// The channels L102 flags, by its definition: each channel with the
/// endpoints, rs and q of an earlier channel, in id order.
std::vector<std::int64_t> duplicates_by_definition(const lis::LisGraph& lis) {
  std::set<std::tuple<lis::CoreId, lis::CoreId, int, int>> seen;
  std::vector<std::int64_t> flagged;
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
    const lis::Channel& ch = lis.channel(c);
    if (!seen.emplace(ch.src, ch.dst, ch.relay_stations, ch.queue_capacity).second) {
      flagged.push_back(c);
    }
  }
  return flagged;
}

std::vector<std::int64_t> flagged_l102(const Report& report) {
  std::vector<std::int64_t> flagged;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "L102") flagged.push_back(d.location.channel);
  }
  return flagged;
}

TEST(Checks, L102FlagsEveryLaterCopyInIdOrder) {
  std::vector<std::pair<std::string, lis::LisGraph>> systems;
  systems.emplace_back("cofdm", lis::load_netlist(std::string(LID_DATA_DIR) + "/cofdm.lis"));
  for (int i = 0; i < 20; ++i) {
    const std::string file = "sys" + std::to_string(i) + ".lis";
    systems.emplace_back(file, lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + file));
  }
  for (const auto& entry : fs::directory_iterator(LID_MALFORMED_DIR "/lint")) {
    systems.emplace_back(entry.path().filename().string(),
                         lis::load_netlist(entry.path().string()));
  }
  // Three copies of one channel interleaved with copies that differ in one
  // field each: only the second and third exact copies are flagged.
  systems.emplace_back("interleaved", lis::from_text("core A\ncore B\nchannel A -> B q=2\n"
                                                     "channel A -> B q=3\nchannel A -> B q=2\n"
                                                     "channel B -> A q=2\nchannel A -> B rs=1 q=2\n"
                                                     "channel A -> B q=2\n"));
  bool cofdm_fires = false;
  for (const auto& [name, lis] : systems) {
    const std::vector<std::int64_t> flagged = flagged_l102(run_checks(lis));
    EXPECT_EQ(flagged, duplicates_by_definition(lis)) << name;
    if (name == "cofdm") cofdm_fires = !flagged.empty();
    if (name == "interleaved") {
      EXPECT_EQ(flagged, (std::vector<std::int64_t>{2, 5})) << name;
    }
  }
  EXPECT_TRUE(cofdm_fires) << "COFDM's replicated channels must fire L102";
}

TEST(Checks, L103DisconnectedComponents) {
  const Report report = lint_text(
      "core A\ncore B\ncore C\ncore D\n"
      "channel A -> B\nchannel B -> A\nchannel C -> D rs=1\nchannel D -> C\n");
  ASSERT_TRUE(report.has_code("L103"));
  EXPECT_FALSE(report.has_code("L101"));
  const Diagnostic& d = report.diagnostics.front();
  EXPECT_NE(d.message.find("2 disconnected components"), std::string::npos);
}

TEST(Checks, L201L202L204FireOnFig1AgainstTargetOne) {
  LintOptions options;
  options.target = Rational(1);
  const Report report = run_checks(lis::make_two_core_example(), options);
  ASSERT_TRUE(report.has_code("L201"));
  ASSERT_TRUE(report.has_code("L202"));
  ASSERT_TRUE(report.has_code("L204"));
  EXPECT_FALSE(report.has_code("L203"));  // target 1 == ideal, not above it
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "L201") {
      EXPECT_NE(d.message.find("2/3"), std::string::npos);
      EXPECT_NE(d.message.find("critical cycle"), std::string::npos);
    }
    if (d.code == "L202") {
      // Fig. 6's repair: grow the lower queue from 1 to 2.
      ASSERT_EQ(d.fixits.size(), 1u);
      EXPECT_EQ(d.fixits[0].set_queue_capacity, 2);
    }
    if (d.code == "L204") {
      // Fig. 2 (right)'s repair: one more relay station on the lighter path.
      ASSERT_EQ(d.fixits.size(), 1u);
      EXPECT_EQ(d.fixits[0].add_relay_stations, 1);
    }
  }
}

TEST(Checks, L203TargetAboveIdeal) {
  LintOptions options;
  options.target = Rational(2);
  const Report report = run_checks(lis::make_two_core_example(), options);
  ASSERT_TRUE(report.has_code("L203"));
  EXPECT_TRUE(report.has_code("L201"));  // still also misses the target
}

TEST(Checks, L2xxStaySilentWithoutATarget) {
  // Degradation alone is not a lint finding: Fig. 1 is the paper's own
  // example and must lint clean when no target is stated.
  const Report report = run_checks(lis::make_two_core_example());
  for (const std::string& code : codes_of(report)) {
    EXPECT_NE(code[1], '2') << code;
  }
  EXPECT_TRUE(report.empty());
}

TEST(Checks, L2xxSilentWhenTargetAlreadyMet) {
  LintOptions options;
  options.target = Rational(1);
  const Report report = run_checks(lis::make_two_core_example_sized(), options);
  EXPECT_FALSE(report.has_code("L201"));
  EXPECT_FALSE(report.has_code("L202"));
  EXPECT_FALSE(report.has_code("L203"));
}

TEST(Checks, L301FiresOnDenseScc) {
  // K9 with all 72 ordered-pair channels: one SCC of d[G] with 9 transitions
  // and 144 places, cyclomatic number 136 >= the default threshold 60.
  lis::LisGraph dense;
  for (int v = 0; v < 9; ++v) dense.add_core(std::string{'C', static_cast<char>('0' + v)});
  for (lis::CoreId a = 0; a < 9; ++a) {
    for (lis::CoreId b = 0; b < 9; ++b) {
      if (a != b) dense.add_channel(a, b);
    }
  }
  const Report report = run_checks(dense);
  ASSERT_TRUE(report.has_code("L301"));
  const Diagnostic& d = report.diagnostics.front();
  // Informational since the default analyze/size-queues/lint paths stopped
  // enumerating cycles: the blowup only concerns the opt-in eager solvers.
  EXPECT_EQ(d.severity, Severity::kInfo);
  EXPECT_NE(d.message.find("2^136"), std::string::npos);
}

TEST(Checks, L301ThresholdIsTunable) {
  // COFDM sits at mu = 49: silent at the shipped default, loud at 30.
  const lis::LisGraph cofdm = lis::load_netlist(std::string(LID_DATA_DIR) + "/cofdm.lis");
  EXPECT_FALSE(run_checks(cofdm).has_code("L301"));
  LintOptions strict;
  strict.blowup_exponent = 30;
  EXPECT_TRUE(run_checks(cofdm, strict).has_code("L301"));
}

TEST(Checks, L302OversizedQueue) {
  const Report report =
      lint_text("core A\ncore B\nchannel A -> B q=5\nchannel B -> A\n");
  ASSERT_TRUE(report.has_code("L302"));
  const Diagnostic& d = report.diagnostics.front();
  EXPECT_EQ(d.severity, Severity::kInfo);
  ASSERT_EQ(d.fixits.size(), 1u);
  EXPECT_GE(d.fixits[0].set_queue_capacity, 1);
  EXPECT_LT(d.fixits[0].set_queue_capacity, 5);
  // All-q=1 systems can never be oversized, so the scan short-circuits.
  EXPECT_FALSE(run_checks(lis::make_two_core_example()).has_code("L302"));
}

/// L302's findings equal the full storage_bounds filter: one finding per
/// channel with q > 1 whose occupancy bound is below q, in channel order,
/// carrying that bound in its message and fix-it.
::testing::AssertionResult l302_matches_storage_bounds(const lis::LisGraph& lis) {
  const Report report = run_checks(lis);
  if (report.has_errors()) return ::testing::AssertionSuccess();  // L302 does not run
  std::vector<core::ChannelStorage> expected;
  for (const core::ChannelStorage& s : core::storage_bounds(lis)) {
    if (s.configured_capacity > 1 && s.occupancy_bound < s.configured_capacity) {
      expected.push_back(s);
    }
  }
  std::vector<const Diagnostic*> found;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "L302") found.push_back(&d);
  }
  if (found.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << found.size() << " L302 findings, expected " << expected.size();
  }
  for (std::size_t i = 0; i < found.size(); ++i) {
    const Diagnostic& d = *found[i];
    const core::ChannelStorage& s = expected[i];
    const std::string bound = std::to_string(s.occupancy_bound);
    if (d.location.channel != s.channel || d.fixits.size() != 1 ||
        d.fixits[0].channel != s.channel ||
        d.fixits[0].set_queue_capacity != std::max<std::int64_t>(1, s.occupancy_bound) ||
        d.message.find("configures q = " + std::to_string(s.configured_capacity) +
                       " but its structural occupancy bound is " + bound + ";") ==
            std::string::npos) {
      return ::testing::AssertionFailure() << "finding " << i << " differs: " << d.message;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Checks, L302MatchesTheFullStorageBoundsFilter) {
  for (const char* dir : {LID_DATA_DIR, LID_DATA_DIR "/corpus", LID_MALFORMED_DIR "/lint"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ".lis") continue;
      EXPECT_TRUE(l302_matches_storage_bounds(lis::load_netlist(entry.path().string())))
          << entry.path();
    }
  }
  // Generated systems with random queues, most of them above one.
  util::Rng rng(302);
  int with_findings = 0;
  for (int k = 0; k < 300; ++k) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(2, 30);
    params.sccs = rng.uniform_int(1, std::max(1, params.vertices / 3));
    params.min_cycles = rng.uniform_int(0, 4);
    params.policy = gen::RsPolicy::kAny;
    params.relay_stations = rng.uniform_int(0, 12);
    lis::LisGraph lis = gen::generate(params, rng);
    for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis.num_channels()); ++c) {
      lis.set_queue_capacity(c, rng.uniform_int(1, 6));
    }
    EXPECT_TRUE(l302_matches_storage_bounds(lis)) << "generated #" << k;
    with_findings += run_checks(lis).has_code("L302") ? 1 : 0;
  }
  EXPECT_GT(with_findings, 30);
}

// --- Tiering ---------------------------------------------------------------

TEST(Tiering, ErrorsOnlySkipsEverythingElse) {
  const std::string text =
      "core A\ncore B\ncore Orphan\nchannel A -> B q=0\nchannel B -> A q=0\n";
  LintOptions options;
  options.errors_only = true;
  const Report report = lint_text(text, options);
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(report.has_code("L101"));
  // run_error_checks is the same tier by definition.
  const Report preflight = run_error_checks(lis::from_text(text));
  EXPECT_EQ(codes_of(preflight), codes_of(report));
}

TEST(Tiering, ErrorsGateTheDeepChecksButNotStructuralWarnings) {
  // Deadlocked AND oversized AND isolated: the structural L101 still
  // reports, but L302 (which runs marked-graph occupancy analysis) must not.
  const Report report = lint_text(
      "core A\ncore B\ncore Orphan\n"
      "channel A -> B q=0\nchannel B -> A q=0\nchannel A -> B q=5\n");
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("L101"));
  EXPECT_FALSE(report.has_code("L302"));
}

// --- Report helpers --------------------------------------------------------

TEST(Report, CountsAndSummary) {
  const Report report = lint_text(kDeadlockText);
  EXPECT_EQ(report.errors(), 3u);
  EXPECT_EQ(report.warnings(), 0u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(report.empty());
  EXPECT_FALSE(report.has_code("L103"));
  const std::string summary = report.error_summary();
  EXPECT_EQ(summary.find("L001"), 0u);
  EXPECT_NE(summary.find("; L002"), std::string::npos);
  EXPECT_NE(summary.find("(+1 more)"), std::string::npos);
  EXPECT_TRUE(Report{}.error_summary().empty());
}

// --- Corpus silence --------------------------------------------------------

TEST(Corpus, PaperExamplesLintCleanWithoutATarget) {
  for (const lis::LisGraph& g :
       {lis::make_two_core_example(), lis::make_two_core_example_sized(),
        lis::make_two_core_example_balanced(), lis::make_fig15_counterexample()}) {
    const Report report = run_checks(g);
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.warnings(), 0u);
  }
}

TEST(Corpus, ShippedNetlistsLintWarningClean) {
  // Every .lis under data/ (top level and corpus/): no errors, no warnings.
  // Infos are allowed — cofdm.lis legitimately replicates two channels.
  int seen = 0;
  for (const char* dir : {LID_DATA_DIR, LID_DATA_DIR "/corpus"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ".lis") continue;
      const Report report = run_checks(lis::load_netlist(entry.path().string()));
      EXPECT_EQ(report.errors(), 0u) << entry.path();
      EXPECT_EQ(report.warnings(), 0u) << entry.path();
      ++seen;
    }
  }
  EXPECT_GE(seen, 20);
}

// --- The malformed/lint fixture corpus -------------------------------------

TEST(Fixtures, EveryLintFixtureTriggersItsDocumentedCodes) {
  const std::map<std::string, std::vector<std::string>> expected = {
      {"deadlock_cycle.lis", {"L001", "L002"}},
      {"zero_queue_feedforward.lis", {"L002"}},
      {"isolated_core.lis", {"L101", "L103"}},
      {"split_components.lis", {"L103"}},
      {"duplicate_channel.lis", {"L102"}},
      {"oversized_queue.lis", {"L302"}},
  };
  int seen = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(LID_MALFORMED_DIR "/lint")) {
    const std::string file = entry.path().filename().string();
    const auto it = expected.find(file);
    ASSERT_NE(it, expected.end())
        << file << " is not registered in this test's expectation table";
    // Must parse — these are semantic defects, not syntax errors.
    const lis::LisGraph g = lis::load_netlist(entry.path().string());
    const Report report = run_checks(g);
    for (const std::string& code : it->second) {
      EXPECT_TRUE(report.has_code(code)) << file << " should trigger " << code;
    }
    ++seen;
  }
  EXPECT_EQ(static_cast<std::size_t>(seen), expected.size());
}

TEST(Fixtures, FeedForwardFixtureHasNoDeadlock) {
  const lis::LisGraph g =
      lis::load_netlist(LID_MALFORMED_DIR "/lint/zero_queue_feedforward.lis");
  EXPECT_FALSE(run_checks(g).has_code("L001"));
}

// --- Renderers -------------------------------------------------------------

std::vector<RenderItem> one_item(const lis::ParsedNetlist& parsed, const Report& report) {
  std::vector<RenderItem> items;
  RenderItem item;
  item.lis = &parsed.graph;
  item.report = &report;
  item.provenance = &parsed.provenance;
  items.push_back(item);
  return items;
}

TEST(Render, PrettyShowsFileLineSeverityCodeAndFixits) {
  const lis::ParsedNetlist parsed =
      lis::from_text_with_provenance("core A\ncore B\nchannel A -> B q=0\n", "dead.lis");
  const Report report = run_checks(parsed.graph);
  const std::string text = render_pretty(one_item(parsed, report));
  // The q=0 channel is declared on line 3 of the text.
  EXPECT_NE(text.find("dead.lis:3: error: L002 [zero-capacity-queue]"), std::string::npos);
  EXPECT_NE(text.find("fix: raise the queue on channel A -> B to 1"), std::string::npos);
  EXPECT_NE(text.find("1 error"), std::string::npos);
}

TEST(Render, PrettyOnACleanNetlistSaysSo) {
  const lis::ParsedNetlist parsed =
      lis::from_text_with_provenance("core A\ncore B\nchannel A -> B\nchannel B -> A\n");
  const Report report = run_checks(parsed.graph);
  ASSERT_TRUE(report.empty());
  const std::string text = render_pretty(one_item(parsed, report));
  EXPECT_NE(text.find("0 errors"), std::string::npos);
}

TEST(Render, JsonRoundTripsThroughTheStrictParser) {
  const lis::ParsedNetlist parsed =
      lis::from_text_with_provenance(kDeadlockText, "dead.lis");
  const Report report = run_checks(parsed.graph);
  const util::JsonParse doc = util::json_parse(render_json(one_item(parsed, report)));
  ASSERT_TRUE(doc.ok) << doc.error;

  const util::Json* netlists = doc.value.find("netlists");
  ASSERT_NE(netlists, nullptr);
  ASSERT_EQ(netlists->size(), 1u);
  const util::Json& item = netlists->at(0);
  EXPECT_EQ(item.find("name")->as_string(), "dead.lis");
  EXPECT_EQ(item.find("errors")->as_int(), 3);
  EXPECT_FALSE(item.find("clean")->as_bool(true));

  const util::Json* diags = item.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->size(), 3u);
  const util::Json& first = diags->at(0);
  EXPECT_EQ(first.find("code")->as_string(), "L001");
  EXPECT_EQ(first.find("severity")->as_string(), "error");
  EXPECT_EQ(first.find("check")->as_string(), "zero-token-cycle");
  EXPECT_FALSE(first.find("message")->as_string().empty());
  ASSERT_NE(first.find("fixits"), nullptr);
  EXPECT_EQ(first.find("fixits")->size(), 2u);

  const util::Json* summary = doc.value.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("errors")->as_int(), 3);

  // Wire-protocol discipline: the whole document is float-free.
  std::vector<const util::Json*> stack = {&doc.value};
  while (!stack.empty()) {
    const util::Json* v = stack.back();
    stack.pop_back();
    EXPECT_NE(v->type(), util::Json::Type::kDouble);
    for (const util::Json& child : v->items()) stack.push_back(&child);
    for (const auto& [key, child] : v->members()) stack.push_back(&child);
  }
}

TEST(Render, SarifMatchesTheCodeScanningShape) {
  const lis::ParsedNetlist parsed =
      lis::from_text_with_provenance(kDeadlockText, "dead.lis");
  const Report report = run_checks(parsed.graph);
  const util::JsonParse doc = util::json_parse(render_sarif(one_item(parsed, report)));
  ASSERT_TRUE(doc.ok) << doc.error;

  EXPECT_EQ(doc.value.find("version")->as_string(), "2.1.0");
  EXPECT_NE(doc.value.find("$schema")->as_string().find("sarif"), std::string::npos);

  const util::Json* runs = doc.value.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const util::Json& run = runs->at(0);

  const util::Json* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->find("name")->as_string(), "lid_lint");
  const util::Json* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->size(), check_catalog().size());
  EXPECT_EQ(rules->at(0).find("id")->as_string(), "L001");
  EXPECT_EQ(rules->at(0).find("defaultConfiguration")->find("level")->as_string(), "error");
  for (const util::Json& rule : rules->items()) {
    EXPECT_FALSE(rule.find("shortDescription")->find("text")->as_string().empty());
  }

  const util::Json* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), 3u);
  for (const util::Json& result : results->items()) {
    const std::string rule_id = result.find("ruleId")->as_string();
    const std::int64_t index = result.find("ruleIndex")->as_int(-1);
    ASSERT_GE(index, 0);
    ASSERT_LT(static_cast<std::size_t>(index), rules->size());
    EXPECT_EQ(rules->at(static_cast<std::size_t>(index)).find("id")->as_string(), rule_id);
    EXPECT_FALSE(result.find("message")->find("text")->as_string().empty());
    const util::Json* locations = result.find("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_EQ(locations->size(), 1u);
    const util::Json& physical = *locations->at(0).find("physicalLocation");
    EXPECT_EQ(physical.find("artifactLocation")->find("uri")->as_string(), "dead.lis");
    EXPECT_GE(physical.find("region")->find("startLine")->as_int(), 1);
  }
}

TEST(Render, SarifMapsInfoToNoteLevel) {
  const lis::ParsedNetlist parsed = lis::from_text_with_provenance(
      "core A\ncore B\nchannel A -> B\nchannel A -> B\nchannel B -> A\n", "dup.lis");
  const Report report = run_checks(parsed.graph);
  ASSERT_TRUE(report.has_code("L102"));
  const util::JsonParse doc = util::json_parse(render_sarif(one_item(parsed, report)));
  ASSERT_TRUE(doc.ok) << doc.error;
  const util::Json& result = doc.value.find("runs")->at(0).find("results")->at(0);
  EXPECT_EQ(result.find("level")->as_string(), "note");
}

TEST(Render, ItemDisplayNamePrecedence) {
  RenderItem item;
  EXPECT_EQ(item_display_name(item), "<netlist>");
  item.name = "from-api";
  EXPECT_EQ(item_display_name(item), "from-api");
  lis::Provenance prov;
  prov.file = "from-disk.lis";
  item.provenance = &prov;
  EXPECT_EQ(item_display_name(item), "from-disk.lis");
}

}  // namespace
}  // namespace lid::linter

// --- The facade pre-flight --------------------------------------------------

namespace lid {
namespace {

TEST(Facade, AnalyzeRejectsDeadlockedNetlistWithLintCode) {
  // The deadlocked model *parses* — the rejection must come from the lint
  // pre-flight as a structured error, not from a LID_CHECK mid-solve.
  const Result<Instance> parsed = parse_netlist(linter::kDeadlockText, "dead");
  ASSERT_TRUE(parsed.ok());
  const Result<Analysis> a = analyze(*parsed);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.error().code, ErrorCode::kLint);
  EXPECT_NE(a.error().message.find("L001"), std::string::npos);
  EXPECT_STREQ(to_string(ErrorCode::kLint), "lint");
}

TEST(Facade, SizeQueuesRejectsDeadlockedNetlistWithLintCode) {
  const Result<Instance> parsed = parse_netlist(linter::kDeadlockText, "dead");
  ASSERT_TRUE(parsed.ok());
  const Result<Sizing> s = size_queues(*parsed);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kLint);
}

TEST(Facade, LintReturnsTheFullReport) {
  const Instance two = Instance::wrap(lis::make_two_core_example(), "fig1");
  const Result<linter::Report> clean = lint(two);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->empty());

  linter::LintOptions options;
  options.target = util::Rational(1);
  const Result<linter::Report> targeted = lint(two, options);
  ASSERT_TRUE(targeted.ok());
  EXPECT_TRUE(targeted->has_code("L201"));
  EXPECT_TRUE(targeted->has_code("L202"));

  EXPECT_FALSE(lint(Instance{}).ok());
  EXPECT_EQ(lint(Instance{}).error().code, ErrorCode::kInvalidArgument);
}

TEST(Facade, ParsedInstancesCarryProvenanceWrappedOnesDoNot) {
  const Result<Instance> parsed = parse_netlist("core A\n", "solo.lis");
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->provenance(), nullptr);
  EXPECT_EQ(parsed->provenance()->file, "solo.lis");
  EXPECT_EQ(parsed->provenance()->line_of_core(0), 1);

  const Instance wrapped = Instance::wrap(lis::make_two_core_example());
  EXPECT_EQ(wrapped.provenance(), nullptr);
}

}  // namespace
}  // namespace lid
