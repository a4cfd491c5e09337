// Differential fuzzing of the netlist reader (lis::from_text_with_provenance)
// and the `#!` annotation reader (des::parse_profile) against the readers they
// replaced, kept verbatim in netlist_oracle.*. Every corpus file and every
// seeded, structure-aware mutant of one must read to the same cores, names,
// latencies, channels, rs, q, provenance lines and profile, or fail with the
// same exception type and message. The canonical writer (lis::to_text) is
// compared with the stream-based writer it replaced on every seed, on
// pipelined cores, at the largest integers the reader accepts and on the
// mutants that read cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "des/annotations.hpp"
#include "gen/generator.hpp"
#include "lis/netlist_io.hpp"
#include "lis/paper_systems.hpp"
#include "netlist_oracle.hpp"
#include "soc/cofdm.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/split.hpp"

#ifndef LID_DATA_DIR
#define LID_DATA_DIR "data"
#endif
#ifndef LID_MALFORMED_DIR
#define LID_MALFORMED_DIR "tests/data/malformed"
#endif

namespace lid {
namespace {

/// Mutants per run: the suite takes 0.5 s in a RelWithDebInfo build and 12 s
/// in a Debug ASan/UBSan build (one Xeon vCPU), inside CI's 30 s budget. The
/// seed fixes every mutant, so a failure replays.
constexpr int kMutants = 6000;
constexpr std::uint64_t kFuzzSeed = 20;

// ---------------------------------------------------------------------------
// Comparing the two readers.

/// A reader's answer as one string: "ok" and a dump of what it read, or the
/// type and message of the exception it threw.
template <typename Read>
std::string outcome(Read&& read) {
  try {
    return "ok\n" + read();
  } catch (const std::exception& e) {
    return std::string("threw ") + typeid(e).name() + ": " + e.what();
  }
}

std::string dump(const lis::ParsedNetlist& parsed) {
  const lis::LisGraph& g = parsed.graph;
  const lis::Provenance& from = parsed.provenance;
  std::ostringstream os;
  os << "file " << from.file << "\n"
     << g.num_cores() << " cores, " << g.num_channels() << " channels, " << from.core_line.size()
     << " core lines, " << from.channel_line.size() << " channel lines\n";
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(g.num_cores()); ++v) {
    const std::string& name = g.core_name(v);
    os << "core " << name.size() << ":" << name << " latency=" << g.core_latency(v)
       << " line=" << from.line_of_core(v) << "\n";
  }
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(g.num_channels()); ++c) {
    const lis::Channel& ch = g.channel(c);
    os << "channel " << ch.src << " -> " << ch.dst << " rs=" << ch.relay_stations
       << " q=" << ch.queue_capacity << " line=" << from.line_of_channel(c) << "\n";
  }
  return os.str();
}

/// Every error each reader raises, by a fragment of its message.
const std::vector<std::string> kNetlistErrors = {
    "core needs a name", "latency must be at least 1", "unknown core attribute '",
    "bad integer in '", "duplicate core '", "expected: channel <src> -> <dst>", "unknown core '",
    "unknown channel attribute '", "unknown directive '"};
const std::vector<std::string> kAnnotationErrors = {
    "empty directive", "expected '#! channel", "channel index is not a number",
    "channel index out of range", "expected latency=<spec>", "unparseable latency spec",
    "duplicate channel assignment", "expected '#! source", "unknown core '",
    "expected arrival=<spec>", "unparseable arrival spec", "duplicate source assignment",
    "unknown directive '"};

/// What a run of inputs reached: how many read cleanly, how many of those
/// carried a profile, and which errors were raised.
struct Reach {
  int parsed = 0;
  int annotated = 0;
  std::set<std::string> errors;

  void note_errors(const std::string& outcome, const std::vector<std::string>& errors_of,
                   const std::string& reader) {
    for (const std::string& fragment : errors_of) {
      if (outcome.find(fragment) != std::string::npos) errors.insert(reader + fragment);
    }
  }
};

/// Reads `text` with the production readers and with the oracle; true when
/// both answer byte for byte the same (a failure is recorded otherwise).
bool readers_agree(const std::string& text, Reach* reach = nullptr) {
  lis::ParsedNetlist parsed;
  const std::string actual = outcome([&] {
    parsed = lis::from_text_with_provenance(text, "fuzz.lis");
    return dump(parsed);
  });
  const std::string expected =
      outcome([&] { return dump(lis::oracle::from_text_with_provenance(text, "fuzz.lis")); });
  EXPECT_EQ(actual, expected) << "netlist reader differs on " << testing::PrintToString(text);
  if (actual != expected) return false;
  if (!actual.starts_with("ok")) {
    if (reach != nullptr) reach->note_errors(actual, kNetlistErrors, "netlist: ");
    return true;
  }
  const lis::LisGraph& g = parsed.graph;
  const std::string profile =
      outcome([&] { return des::profile_text(des::parse_profile(text, g), g); });
  const std::string expected_profile =
      outcome([&] { return des::profile_text(des::oracle::parse_profile(text, g), g); });
  EXPECT_EQ(profile, expected_profile)
      << "annotation reader differs on " << testing::PrintToString(text);
  if (reach != nullptr) {
    ++reach->parsed;
    if (profile.starts_with("ok") && profile != "ok\n") ++reach->annotated;
    if (!profile.starts_with("ok")) reach->note_errors(profile, kAnnotationErrors, "annotation: ");
  }
  return profile == expected_profile;
}

// ---------------------------------------------------------------------------
// Seeds.

std::vector<std::string> lis_files_in(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".lis") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    EXPECT_EQ(util::read_file(path, texts.emplace_back()), util::ReadStatus::kOk) << path;
  }
  return texts;
}

/// The corpus files, the malformed corpus, small generated systems carrying
/// `#!` profiles, and one hand-written netlist that uses every attribute.
std::vector<std::string> seed_texts() {
  std::vector<std::string> seeds;
  const std::string data = LID_DATA_DIR;
  const std::string malformed = LID_MALFORMED_DIR;
  for (const std::string& dir : {data, data + "/corpus", malformed, malformed + "/lint"}) {
    for (std::string& text : lis_files_in(dir)) seeds.push_back(std::move(text));
  }
  util::Rng rng(kFuzzSeed);
  for (int k = 0; k < 8; ++k) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(2, 14);
    params.sccs = rng.uniform_int(1, std::min(3, params.vertices));
    params.min_cycles = rng.uniform_int(0, 3);
    params.relay_stations = rng.uniform_int(0, 6);
    params.queue_capacity = rng.uniform_int(1, 3);
    params.policy = k % 2 == 0 && params.sccs > 1 ? gen::RsPolicy::kScc : gen::RsPolicy::kAny;
    const lis::LisGraph lis = gen::generate(params, rng);
    seeds.push_back(lis::to_text(lis) + des::profile_text(des::random_profile(lis, {}, rng), lis));
  }
  seeds.push_back(
      "# every attribute\n"
      "core in latency=3\n"
      "core mid\t# tab before the comment\n"
      "core out latency=1\n"
      "channel in -> mid rs=2 q=3\n"
      "channel mid -> out q=0\n"
      "  channel out -> in rs=1\n"
      "#! channel 0 latency=uniform:1:4\n"
      "\t#! source in arrival=poisson:1/4\n");
  return seeds;
}

// ---------------------------------------------------------------------------
// Structure-aware mutations.

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines(1);
  for (const char c : text) {
    if (c == '\n') {
      lines.emplace_back();
    } else {
      lines.back() += c;
    }
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

/// [begin, end) of each whitespace-separated token of `line`.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < line.size();) {
    if (util::is_space(line[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < line.size() && !util::is_space(line[end])) ++end;
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  for (const auto& [begin, end] : token_spans(line)) {
    tokens.push_back(line.substr(begin, end - begin));
  }
  return tokens;
}

/// Integers that probe std::stoi's edges: signs, leading zeros, INT_MAX±1,
/// 64-bit overflow, empty and sign-only values, trailing garbage, and
/// digits that are not ASCII.
const std::vector<std::string>& number_probes() {
  static const std::vector<std::string> probes = {
      "0", "1", "2", "7", "-0", "+0", "+3", "-3", "0007", "00", "-00", "+007",
      "000000000000000000001", "2147483646", "2147483647", "+2147483647", "2147483648",
      "-2147483648", "-2147483649", "4294967296", "9223372036854775808",
      "99999999999999999999", "", "+", "-", "+-1", "-+1", "--0", "1x", "x1", "0x10", "1e3",
      "1.5", std::string("1\0", 2), "\xd9\xa3", "\xef\xbc\x91"};
  return probes;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// Applies one to four mutations to `text`.
  std::string mutate(std::string text) {
    const int rounds = rng_.uniform_int(1, 4);
    for (int r = 0; r < rounds; ++r) text = mutate_once(std::move(text));
    return text;
  }

 private:
  enum Op {
    kSwapTokens, kDeleteToken, kDuplicateToken, kSwapLines, kDeleteLine, kDuplicateLine,
    kNumber, kDigit, kWhitespace, kHash, kNul, kCrlf, kNoFinalNewline, kTruncate,
    kLongName, kDuplicateName, kUnknownName, kByte, kAnnotation, kOpCount
  };

  std::string mutate_once(std::string text) {
    std::vector<std::string> lines = split_lines(text);
    std::string& line = lines[rng_.uniform_index(lines.size())];
    const auto spans = token_spans(line);
    switch (static_cast<Op>(rng_.uniform_int(0, kOpCount - 1))) {
      case kSwapTokens: {
        // Two tokens, of one line or of two.
        std::string& other = lines[rng_.uniform_index(lines.size())];
        const auto other_spans = token_spans(other);
        if (spans.empty() || other_spans.empty()) break;
        auto a = spans[rng_.uniform_index(spans.size())];
        auto b = other_spans[rng_.uniform_index(other_spans.size())];
        if (&other == &line && b.first < a.first) std::swap(a, b);  // the later one goes first
        const std::string ta = line.substr(a.first, a.second - a.first);
        const std::string tb = other.substr(b.first, b.second - b.first);
        other.replace(b.first, b.second - b.first, ta);
        line.replace(a.first, a.second - a.first, tb);
        break;
      }
      case kDeleteToken:
        if (!spans.empty()) {
          const auto t = spans[rng_.uniform_index(spans.size())];
          line.erase(t.first, t.second - t.first);
        }
        break;
      case kDuplicateToken:
        if (!spans.empty()) {
          const auto t = spans[rng_.uniform_index(spans.size())];
          line.insert(t.second, " " + line.substr(t.first, t.second - t.first));
        }
        break;
      case kSwapLines:
        std::swap(line, lines[rng_.uniform_index(lines.size())]);
        break;
      case kDeleteLine:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(&line - lines.data()));
        break;
      case kDuplicateLine:
        insert_line(lines, std::string(line));
        break;
      case kNumber: {
        // Replace a key=value value, or append a key=value attribute.
        const std::string value = rng_.pick(number_probes());
        std::size_t eq = std::string::npos;
        if (!spans.empty()) {
          const auto t = spans[rng_.uniform_index(spans.size())];
          const std::size_t at = line.find('=', t.first);
          if (at < t.second) eq = at;
          if (eq != std::string::npos) line.replace(eq + 1, t.second - eq - 1, value);
        }
        if (eq == std::string::npos) {
          static const std::vector<std::string> keys = {"latency=", "rs=", "q=",
                                                        "lat=",     "q==", "="};
          line += " " + rng_.pick(keys) + value;
        }
        break;
      }
      case kDigit: {
        std::vector<std::size_t> digits;
        for (std::size_t i = 0; i < text.size(); ++i) {
          if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
        }
        if (digits.empty()) break;
        const std::size_t at = rng_.pick(digits);
        static const std::string edits = "0123456789+-0";
        if (rng_.flip(0.5)) {
          text[at] = edits[rng_.uniform_index(edits.size())];
        } else {
          text.insert(at, 1, edits[rng_.uniform_index(edits.size())]);
        }
        return text;
      }
      case kWhitespace: {
        // Every byte `istream >>` skips, and look-alikes it does not.
        static const std::string bytes = std::string(" \t\n\v\f\r\x1c\x1f", 8) + "\xa0\x85";
        const char c = bytes[rng_.uniform_index(bytes.size())];
        std::vector<std::size_t> blanks;
        for (std::size_t i = 0; i < text.size(); ++i) {
          if (util::is_space(text[i])) blanks.push_back(i);
        }
        if (!blanks.empty() && rng_.flip(0.5)) {
          text[rng_.pick(blanks)] = c;
        } else {
          text.insert(rng_.uniform_index(text.size() + 1), rng_.uniform_int(1, 3), c);
        }
        return text;
      }
      case kHash:
        text.insert(rng_.uniform_index(text.size() + 1), rng_.flip(0.3) ? "#!" : "#");
        return text;
      case kNul:
        text.insert(rng_.uniform_index(text.size() + 1), 1, '\0');
        return text;
      case kCrlf: {
        std::string out;
        for (const char c : text) {
          if (c == '\n') out += '\r';
          out += c;
        }
        return out;
      }
      case kNoFinalNewline:
        while (!text.empty() && text.back() == '\n') text.pop_back();
        return text;
      case kTruncate:
        text.resize(rng_.uniform_index(text.size() + 1));
        return text;
      case kLongName: {
        // Rename one core everywhere to a long name, keeping the netlist valid.
        const std::string from = some_core(lines);
        if (from.empty()) break;
        std::string to(static_cast<std::size_t>(rng_.uniform_int(64, 4096)), 'x');
        for (char& c : to) c = static_cast<char>('a' + rng_.uniform_int(0, 25));
        rename(lines, from, to);
        break;
      }
      case kDuplicateName: {
        // Declare a core twice, or rename one core to another's name.
        const std::string a = some_core(lines);
        const std::string b = some_core(lines);
        if (a.empty()) break;
        if (a == b || rng_.flip(0.5)) {
          insert_line(lines, "core " + a);
        } else {
          rename(lines, a, b);
        }
        break;
      }
      case kUnknownName:
        if (!spans.empty()) {
          const auto t = spans[rng_.uniform_index(spans.size())];
          const std::string ghost = "ghost" + std::to_string(rng_.uniform_int(0, 9));
          line.replace(t.first, t.second - t.first, ghost);
        }
        break;
      case kByte: {
        const char byte = static_cast<char>(rng_.uniform_int(0, 255));
        const int how = rng_.uniform_int(0, 2);
        if (how == 0 || text.empty()) {
          text.insert(rng_.uniform_index(text.size() + 1), 1, byte);
        } else if (how == 1) {
          text[rng_.uniform_index(text.size())] = byte;
        } else {
          text.erase(rng_.uniform_index(text.size()), 1);
        }
        return text;
      }
      case kAnnotation:
        insert_line(lines, annotation(lines));
        break;
      case kOpCount:
        break;
    }
    return join_lines(lines);
  }

  /// Inserts `line` before a random line, or at the end.
  void insert_line(std::vector<std::string>& lines, std::string line) {
    const auto at = static_cast<std::ptrdiff_t>(rng_.uniform_index(lines.size() + 1));
    lines.insert(lines.begin() + at, std::move(line));
  }

  /// The name of a random declared core ("" when none is declared).
  std::string some_core(const std::vector<std::string>& lines) {
    std::vector<std::string> names;
    for (const std::string& line : lines) {
      const std::vector<std::string> tokens = tokens_of(line);
      if (tokens.size() >= 2 && tokens[0] == "core") names.push_back(tokens[1]);
    }
    return names.empty() ? "" : rng_.pick(names);
  }

  /// Replaces every whole token equal to `from` by `to`.
  static void rename(std::vector<std::string>& lines, const std::string& from,
                     const std::string& to) {
    for (std::string& line : lines) {
      const auto spans = token_spans(line);
      for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
        if (line.compare(it->first, it->second - it->first, from) == 0) {
          line.replace(it->first, it->second - it->first, to);
        }
      }
    }
  }

  /// A `#!` line, well formed or not: leading blanks the annotation reader
  /// skips (or does not), a directive, an index or a core name, a spec.
  std::string annotation(const std::vector<std::string>& lines) {
    static const std::vector<std::string> leads = {"", " ", "\t", " \t ", "\v", "\r", "\f", "x"};
    static const std::vector<std::string> seps = {" ", "\t", "  ", "\t \r"};
    static const std::vector<std::string> latencies = {
        "latency=fixed:2", "latency=uniform:1:4", "latency=geometric:1/2", "latency=3",
        "latency=fixed:0", "latency=", "latency=bogus", "arrival=rate:4", "latency"};
    static const std::vector<std::string> arrivals = {
        "arrival=rate:4", "arrival=poisson:1/4", "arrival=bursty:8:8", "arrival=saturated",
        "arrival=poisson:0/1", "arrival=x", "latency=fixed:2"};
    static const std::vector<std::string> indices = {"0", "1", "2", "3", "-1", "+1", "1x", "x",
                                                     "99999999999999999999999", "007"};
    const std::string sep = rng_.pick(seps);
    std::string out = rng_.pick(leads) + "#!" + (rng_.flip(0.8) ? sep : "");
    switch (rng_.uniform_int(0, 4)) {
      case 0:
      case 1:
        out += "channel" + sep + rng_.pick(indices) + sep + rng_.pick(latencies);
        break;
      case 2: {
        const std::string core = some_core(lines);
        out += "source" + sep + (core.empty() || rng_.flip(0.2) ? "ghost" : core) + sep +
               rng_.pick(arrivals);
        break;
      }
      case 3:
        out += "bogus" + sep + "1";
        break;
      default:
        break;  // an empty directive
    }
    if (rng_.flip(0.1)) out += sep + "extra";
    return out;
  }

  util::Rng rng_;
};

// ---------------------------------------------------------------------------

TEST(NetlistFuzz, CorpusFilesMatchOracle) {
  const std::vector<std::string> seeds = seed_texts();
  ASSERT_GT(seeds.size(), 30u);
  for (const std::string& text : seeds) ASSERT_TRUE(readers_agree(text));
}

TEST(NetlistFuzz, IntegerEdgesMatchOracle) {
  for (const std::string key : {"latency=", "rs=", "q="}) {
    for (const std::string& value : number_probes()) {
      const std::string attribute = key + value;
      const bool core_attribute = key == std::string("latency=");
      const std::string text = "core a" + std::string(core_attribute ? " " + attribute : "") +
                               "\ncore b\nchannel a -> b" +
                               (core_attribute ? "" : " " + attribute) + "\n";
      ASSERT_TRUE(readers_agree(text)) << attribute;
    }
  }
}

TEST(NetlistFuzz, WhitespaceAndCommentsMatchOracle) {
  // Every byte `istream >>` skips, as separators, line ends and padding.
  for (const char blank : std::string(" \t\v\f\r")) {
    const std::string b(1, blank);
    const std::string text = b + "core" + b + "a" + b + "latency=2" + b + "#" + b + "x\r\n" +
                             "core b#c" + b + "\n" + b + b + "\n" + "channel" + b + "a" + b + "->" +
                             b + "b" + b + "rs=1" + b + "q=2" + b + "\r\n#" + b + "channel a -> c";
    ASSERT_TRUE(readers_agree(text)) << static_cast<int>(blank);
  }
}

TEST(NetlistFuzz, LargeGeneratedNetlistMatchesOracle) {
  // Big enough for the name index to grow many times; CRLF, tabs and
  // comments added.
  util::Rng rng(kFuzzSeed);
  gen::GeneratorParams params;
  params.vertices = 3000;
  params.sccs = 20;
  params.relay_stations = 200;
  const std::string plain = lis::to_text(gen::generate(params, rng));
  ASSERT_TRUE(readers_agree(plain));
  std::string noisy;
  for (const char c : plain) {
    if (c == ' ') {
      noisy += " \t";
    } else if (c == '\n') {
      noisy += " # comment\r\n";
    } else {
      noisy += c;
    }
  }
  ASSERT_TRUE(readers_agree(noisy));
}

/// The canonical text of `lis` equals the stream-based writer's, byte for
/// byte.
::testing::AssertionResult writers_agree(const lis::LisGraph& lis) {
  const std::string text = lis::to_text(lis);
  const std::string expected = lis::oracle::to_text(lis);
  if (text == expected) return ::testing::AssertionSuccess();
  const auto at = std::mismatch(text.begin(), text.end(), expected.begin(), expected.end());
  return ::testing::AssertionFailure()
         << "canonical text differs at byte " << (at.first - text.begin()) << "\n"
         << text.substr(0, 200) << "\nvs\n"
         << expected.substr(0, 200);
}

TEST(NetlistFuzz, CanonicalTextMatchesOracle) {
  // Every seed that reads (the corpus, fig1, fig15, COFDM, generated systems
  // with profiles, the all-attributes netlist), then the paper's builders.
  int written = 0;
  for (const std::string& text : seed_texts()) {
    lis::LisGraph lis;
    try {
      lis = lis::from_text(text);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ASSERT_TRUE(writers_agree(lis)) << text.substr(0, 200);
    ++written;
  }
  EXPECT_GT(written, 25);
  for (const lis::LisGraph& paper :
       {lis::make_two_core_example(), lis::make_two_core_example_sized(),
        lis::make_two_core_example_balanced(), lis::make_fig15_counterexample(),
        soc::build_cofdm()}) {
    ASSERT_TRUE(writers_agree(paper));
  }
  // Pipelined cores, and the largest latency, rs and q the reader accepts.
  util::Rng rng(kFuzzSeed);
  for (int k = 0; k < 50; ++k) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(2, 30);
    params.sccs = rng.uniform_int(1, std::min(3, params.vertices));
    params.min_cycles = rng.uniform_int(0, 3);
    params.relay_stations = rng.uniform_int(0, 12);
    params.queue_capacity = rng.uniform_int(1, 3);
    lis::LisGraph lis;
    try {
      lis = gen::generate(params, rng);
    } catch (const std::invalid_argument&) {
      continue;  // no channel to carry the relay stations
    }
    for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis.num_cores()); ++v) {
      if (rng.flip(0.3)) lis.set_core_latency(v, rng.uniform_int(2, 6));
    }
    ASSERT_TRUE(writers_agree(lis)) << "generated #" << k;
  }
  const std::string extremes =
      "core a latency=2147483647\ncore b latency=+1000000000\n"
      "channel a -> b rs=2147483647 q=2147483647\nchannel b -> a rs=-0 q=0\n"
      "channel a -> a rs=999999999 q=1\n";
  const lis::LisGraph big = lis::from_text(extremes);
  ASSERT_TRUE(writers_agree(big));
  EXPECT_NE(lis::to_text(big).find("latency=2147483647"), std::string::npos);
  EXPECT_NE(lis::to_text(big).find("rs=2147483647 q=2147483647"), std::string::npos);
  // And a large netlist, whose buffer is reserved once.
  gen::GeneratorParams params;
  params.vertices = 3000;
  params.sccs = 20;
  params.relay_stations = 200;
  ASSERT_TRUE(writers_agree(gen::generate(params, rng)));
}

/// Mutants that read cleanly write the oracle's canonical text too.
TEST(NetlistFuzz, MutantCanonicalTextMatchesOracle) {
  const std::vector<std::string> seeds = seed_texts();
  Mutator mutator(kFuzzSeed + 2);
  util::Rng pick(kFuzzSeed + 3);
  int written = 0;
  for (int i = 0; i < kMutants / 3; ++i) {
    const std::string mutant = mutator.mutate(seeds[pick.uniform_index(seeds.size())]);
    lis::LisGraph lis;
    try {
      lis = lis::from_text(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ASSERT_TRUE(writers_agree(lis)) << "mutant " << i;
    ++written;
  }
  EXPECT_GT(written, kMutants / 30);
}

TEST(NetlistFuzz, MutantsMatchOracle) {
  const std::vector<std::string> seeds = seed_texts();
  Mutator mutator(kFuzzSeed);
  util::Rng pick(kFuzzSeed + 1);
  Reach reach;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutator.mutate(seeds[pick.uniform_index(seeds.size())]);
    ASSERT_TRUE(readers_agree(mutant, &reach)) << "mutant " << i;
  }
  // A fuzzer whose mutants all fail the same way compares nothing: the
  // mutants must read cleanly often, carry profiles, and raise every error.
  EXPECT_GT(reach.parsed, kMutants / 8);
  EXPECT_GT(reach.annotated, kMutants / 50);
  for (const std::string& fragment : kNetlistErrors) {
    EXPECT_EQ(reach.errors.count("netlist: " + fragment), 1u) << "never raised: " << fragment;
  }
  for (const std::string& fragment : kAnnotationErrors) {
    EXPECT_EQ(reach.errors.count("annotation: " + fragment), 1u) << "never raised: " << fragment;
  }
  std::cout << "mutants: " << kMutants << ", read cleanly: " << reach.parsed
            << ", with a profile: " << reach.annotated << ", error kinds: " << reach.errors.size()
            << "\n";
}

}  // namespace
}  // namespace lid
