// Regression corpus: twenty checked-in netlists spanning the generator's
// regimes (scc/any insertion, tori, pipelined cores) with their expected
// ideal/practical MSTs, exact queue-sizing totals and the FNV-1a 64 hash of
// their certified `analyze` payload recorded in a manifest. Any analysis
// change that shifts a number, or a single byte of a served certified
// verdict, shows up here immediately.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/queue_sizing.hpp"
#include "lis/netlist_io.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rational.hpp"

#ifndef LID_DATA_DIR
#define LID_DATA_DIR "data"
#endif

namespace lid {
namespace {

struct Expectation {
  std::string file;
  util::Rational ideal;
  util::Rational practical;
  std::int64_t exact_tokens = 0;
  std::string payload_hash;  ///< FNV-1a 64 of the certified analyze payload
};

util::Rational parse_rational(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return util::Rational(std::stoll(text));
  return util::Rational(std::stoll(text.substr(0, slash)), std::stoll(text.substr(slash + 1)));
}

std::vector<Expectation> load_manifest() {
  std::ifstream in(std::string(LID_DATA_DIR) + "/corpus/manifest.txt");
  EXPECT_TRUE(in.good()) << "missing corpus manifest";
  std::vector<Expectation> expectations;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Expectation e;
    std::string ideal;
    std::string practical;
    row >> e.file >> ideal >> practical >> e.exact_tokens >> e.payload_hash;
    e.ideal = parse_rational(ideal);
    e.practical = parse_rational(practical);
    expectations.push_back(std::move(e));
  }
  EXPECT_EQ(expectations.size(), 20u);
  return expectations;
}

/// FNV-1a 64 of `bytes` as 16 hex digits.
std::string fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// The certified `analyze` payload for `netlist`, as the service renders it.
std::string certified_analyze_payload(const std::string& netlist) {
  util::JsonWriter w;
  w.begin_object().key("verb").value("analyze").key("netlist").value(netlist);
  w.key("certify").value(true).end_object();
  const Result<serve::Request> request = serve::parse_request(w.str());
  EXPECT_TRUE(request.ok());
  const serve::Outcome outcome = serve::execute(*request);
  EXPECT_TRUE(outcome.ok) << outcome.error_message;
  return outcome.payload;
}

TEST(Corpus, EveryRecordedValueStillHolds) {
  for (const Expectation& e : load_manifest()) {
    SCOPED_TRACE(e.file);
    const std::string path = std::string(LID_DATA_DIR) + "/corpus/" + e.file;
    const lis::LisGraph system = lis::load_netlist(path);
    EXPECT_EQ(lis::ideal_mst(system), e.ideal);
    EXPECT_EQ(lis::practical_mst(system), e.practical);
    std::ifstream text(path);
    std::stringstream netlist;
    netlist << text.rdbuf();
    EXPECT_EQ(fnv1a64(certified_analyze_payload(netlist.str())), e.payload_hash);
    if (e.exact_tokens < 0) continue;  // recorded as timed out at capture time
    core::QsOptions options;
    options.method = core::QsMethod::kExact;
    options.exact.timeout_ms = 30000;
    const core::QsReport report = core::size_queues(system, options);
    ASSERT_TRUE(report.exact->finished);
    EXPECT_EQ(report.exact->total_extra_tokens, e.exact_tokens);
    EXPECT_EQ(report.achieved_mst, e.ideal);
  }
}

TEST(Corpus, HeuristicStaysWithinTenPercentOnTheCorpus) {
  // The paper's headline: heuristic solutions close to exact. Lock that in
  // as an aggregate regression over the corpus.
  std::int64_t exact_total = 0;
  std::int64_t heuristic_total = 0;
  for (const Expectation& e : load_manifest()) {
    if (e.exact_tokens <= 0) continue;
    const lis::LisGraph system =
        lis::load_netlist(std::string(LID_DATA_DIR) + "/corpus/" + e.file);
    core::QsOptions options;
    options.method = core::QsMethod::kHeuristic;
    const core::QsReport report = core::size_queues(system, options);
    exact_total += e.exact_tokens;
    heuristic_total += report.heuristic->total_extra_tokens;
    EXPECT_EQ(report.achieved_mst, e.ideal);
  }
  ASSERT_GT(exact_total, 0);
  EXPECT_LE(heuristic_total, exact_total + (exact_total + 9) / 10);
}

}  // namespace
}  // namespace lid
