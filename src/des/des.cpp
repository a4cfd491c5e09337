#include "des/des.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/sim_loop.hpp"

namespace lid::des {

namespace {

constexpr std::int64_t kMaxParam = 1'000'000;

// --- spec-string helpers ----------------------------------------------------

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::optional<std::int64_t> parse_int(const std::string& token) {
  if (token.empty() || token.size() > 18) return std::nullopt;
  std::int64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// Parses "N/D" with 1 <= N <= D <= kMaxParam (a probability in (0, 1]).
std::optional<std::pair<std::int64_t, std::int64_t>> parse_prob(const std::string& token) {
  const std::vector<std::string> parts = split(token, '/');
  if (parts.size() != 2) return std::nullopt;
  const auto num = parse_int(parts[0]);
  const auto den = parse_int(parts[1]);
  if (!num || !den) return std::nullopt;
  if (*num < 1 || *den < 1 || *num > *den || *den > kMaxParam) return std::nullopt;
  return std::make_pair(*num, *den);
}

bool in_param_range(std::int64_t v) { return v >= 1 && v <= kMaxParam; }

// --- integer draws from raw mt19937_64 output -------------------------------
//
// The std::mt19937_64 output sequence is specified exactly by the standard,
// but std::uniform_int_distribution and friends are implementation-defined.
// Hand-rolling the transforms keeps reports byte-identical across platforms
// and standard libraries. Modulo bias is acceptable here: ranges are tiny
// (<= kMaxParam) against a 64-bit draw, and determinism matters more than a
// 2^-44 skew.

std::int64_t draw_uniform(std::mt19937_64& eng, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(eng() % span);
}

bool draw_bernoulli(std::mt19937_64& eng, std::int64_t num, std::int64_t den) {
  return eng() % static_cast<std::uint64_t>(den) < static_cast<std::uint64_t>(num);
}

/// Trials up to and including the first success of Bernoulli(num/den): >= 1.
std::int64_t draw_geometric(std::mt19937_64& eng, std::int64_t num, std::int64_t den) {
  std::int64_t trials = 1;
  while (!draw_bernoulli(eng, num, den)) ++trials;
  return trials;
}

std::int64_t draw_latency(std::mt19937_64& eng, const LatencyDist& dist) {
  switch (dist.kind) {
    case DistKind::kFixed:
      return dist.lo;
    case DistKind::kUniform:
      return draw_uniform(eng, dist.lo, dist.hi);
    case DistKind::kGeometric:
      return draw_geometric(eng, dist.prob_num, dist.prob_den);
  }
  return 1;
}

// --- the simulator ----------------------------------------------------------

enum class EventKind : std::uint8_t { kArrival, kWake, kSourceArrival };

struct Event {
  std::int64_t time = 0;
  EventKind kind = EventKind::kArrival;
  std::int32_t id = 0;  // place / transition / source index, per kind
};

struct LaterFirst {
  bool operator()(const Event& a, const Event& b) const { return a.time > b.time; }
};

/// State of one open-system source (a gated in-degree-0 core).
struct Source {
  lis::CoreId core = 0;
  mg::TransitionId transition = 0;
  ArrivalSpec spec;
  std::deque<std::int64_t> backlog;  // arrival times of items not yet consumed
  std::int64_t next_arrival = 0;     // time of the pending arrival event
};

class Simulator {
 public:
  Simulator(const lis::LisGraph& lis, const SimOptions& opt)
      : lis_(lis), opt_(opt), x_(lis::expand_doubled(lis)), rng_(opt.seed) {}

  SimReport run();

 private:
  const mg::MarkedGraph& g() const { return x_.graph; }

  void init_config();
  void init_state();
  std::int64_t first_arrival_time(const ArrivalSpec& spec);
  std::int64_t next_arrival_time(const ArrivalSpec& spec, std::int64_t current);
  void schedule_token(mg::PlaceId p, std::int64_t now);
  bool enabled(mg::TransitionId t, std::int64_t now) const;
  void fire(mg::TransitionId t, std::int64_t now);
  void note_occupancy(lis::ChannelId ch, std::int64_t now);
  void flush_occupancy(std::int64_t end);
  std::vector<std::int64_t> state_key(std::int64_t now) const;
  void finalize(SimReport& report) const;

  const lis::LisGraph& lis_;
  const SimOptions& opt_;
  lis::Expansion x_;
  util::Rng rng_;

  // Per-place configuration and token state. tokens_[p] holds the arrival
  // timestamps of every scheduled-but-unconsumed token in ascending order
  // (FIFO in-order delivery is enforced at scheduling time); the first
  // avail_[p] entries have already arrived.
  std::vector<LatencyDist> place_dist_;
  std::vector<std::deque<std::int64_t>> tokens_;
  std::vector<std::int64_t> avail_;
  std::vector<std::int64_t> last_scheduled_;
  /// Channel whose input-queue occupancy this place represents (the last
  /// forward hop — the destination shell's input queue), or kInvalidEdge.
  std::vector<lis::ChannelId> queue_of_place_;

  std::vector<std::int64_t> next_fire_;
  std::vector<std::int64_t> firings_;
  /// Index into sources_ for a gated source core's input transition, or -1.
  std::vector<std::int32_t> gate_of_transition_;

  std::vector<Source> sources_;
  std::priority_queue<Event, std::vector<Event>, LaterFirst> calendar_;

  // Per-channel statistics.
  std::vector<std::int64_t> produced_;  // tokens into the queue place
  std::vector<std::int64_t> consumed_;  // tokens out of the queue place
  std::vector<std::int64_t> stall_events_;
  std::vector<std::int64_t> stall_cycles_;
  std::vector<std::vector<std::int64_t>> histogram_;
  std::vector<std::int64_t> occ_value_;  // occupancy since occ_since_
  std::vector<std::int64_t> occ_since_;
  std::vector<std::int64_t> occ_max_;

  mg::TransitionId reference_transition_ = 0;
  bool deterministic_ = false;

  // Run accumulators.
  std::int64_t events_ = 0;
  std::int64_t total_firings_ = 0;
  std::int64_t reference_measured_ = 0;
  std::int64_t reference_total_ = 0;
  std::int64_t arrivals_generated_ = 0;
  std::int64_t arrivals_consumed_ = 0;
  std::int64_t max_backlog_ = 0;
  std::int64_t total_stall_events_ = 0;
  std::int64_t total_stall_cycles_ = 0;

  // Batch scratch.
  std::vector<mg::TransitionId> candidates_;
  std::vector<lis::ChannelId> touched_;
  std::vector<std::int32_t> arrived_sources_;
};

void Simulator::init_config() {
  const std::size_t nc = lis_.num_channels();
  const std::size_t np = g().num_places();
  const std::size_t nt = g().num_transitions();

  // Effective per-place latency model: forward hops of channel ch draw from
  // the channel's distribution; backpressure (credit-return) places and the
  // internal places of pipelined cores are fixed single-cycle wires.
  place_dist_.assign(np, LatencyDist::fixed(1));
  queue_of_place_.assign(np, graph::kInvalidEdge);
  deterministic_ = true;
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(nc); ++c) {
    LatencyDist dist = opt_.channel_latency;
    if (static_cast<std::size_t>(c) < opt_.profile.channel_latency.size() &&
        opt_.profile.channel_latency[static_cast<std::size_t>(c)]) {
      dist = *opt_.profile.channel_latency[static_cast<std::size_t>(c)];
    }
    if (!dist.is_deterministic()) deterministic_ = false;
    for (const mg::PlaceId p : x_.forward_places(c)) {
      place_dist_[static_cast<std::size_t>(p)] = dist;
    }
    queue_of_place_[static_cast<std::size_t>(x_.forward_places(c).back())] = c;
  }

  // Open-system sources: in-degree-0 cores with a non-saturated arrival spec.
  gate_of_transition_.assign(nt, -1);
  for (lis::CoreId v = 0; v < static_cast<lis::CoreId>(lis_.num_cores()); ++v) {
    if (lis_.structure().in_degree(v) != 0) continue;
    ArrivalSpec spec = opt_.arrival;
    if (static_cast<std::size_t>(v) < opt_.profile.core_arrival.size() &&
        opt_.profile.core_arrival[static_cast<std::size_t>(v)]) {
      spec = *opt_.profile.core_arrival[static_cast<std::size_t>(v)];
    }
    if (spec.kind == ArrivalKind::kSaturated) continue;
    if (!spec.is_deterministic()) deterministic_ = false;
    const mg::TransitionId t = x_.core_transition[static_cast<std::size_t>(v)];
    gate_of_transition_[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(sources_.size());
    sources_.push_back(Source{v, t, spec, {}});
  }

  reference_transition_ = x_.core_transition[static_cast<std::size_t>(opt_.reference)];
}

void Simulator::init_state() {
  const std::size_t nc = lis_.num_channels();
  const std::size_t np = g().num_places();
  const std::size_t nt = g().num_transitions();

  tokens_.assign(np, {});
  avail_.assign(np, 0);
  last_scheduled_.assign(np, -1);
  next_fire_.assign(nt, 0);
  firings_.assign(nt, 0);

  produced_.assign(nc, 0);
  consumed_.assign(nc, 0);
  stall_events_.assign(nc, 0);
  stall_cycles_.assign(nc, 0);
  histogram_.assign(nc, {});
  occ_value_.assign(nc, 0);
  occ_since_.assign(nc, 0);
  occ_max_.assign(nc, 0);

  // Initial marking: every initial token arrived at time 0.
  for (mg::PlaceId p = 0; p < static_cast<mg::PlaceId>(np); ++p) {
    const std::int64_t m = g().tokens(p);
    for (std::int64_t i = 0; i < m; ++i) tokens_[static_cast<std::size_t>(p)].push_back(0);
    avail_[static_cast<std::size_t>(p)] = m;
    if (m > 0) last_scheduled_[static_cast<std::size_t>(p)] = 0;
    const lis::ChannelId ch = queue_of_place_[static_cast<std::size_t>(p)];
    if (ch != graph::kInvalidEdge) {
      produced_[static_cast<std::size_t>(ch)] += m;
      occ_value_[static_cast<std::size_t>(ch)] = m;
      occ_max_[static_cast<std::size_t>(ch)] = 0;  // measured window only
    }
  }

  // Every transition is a firing candidate at time 0, and every gated source
  // gets its first arrival scheduled.
  for (mg::TransitionId t = 0; t < static_cast<mg::TransitionId>(nt); ++t) {
    calendar_.push(Event{0, EventKind::kWake, t});
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i].next_arrival = first_arrival_time(sources_[i].spec);
    calendar_.push(
        Event{sources_[i].next_arrival, EventKind::kSourceArrival, static_cast<std::int32_t>(i)});
  }
}

std::int64_t Simulator::first_arrival_time(const ArrivalSpec& spec) {
  switch (spec.kind) {
    case ArrivalKind::kSaturated:
    case ArrivalKind::kPeriodic:
    case ArrivalKind::kBursty:
      return 0;
    case ArrivalKind::kPoisson:
      // Bernoulli(num/den) per cycle starting at cycle 0: the first success
      // lands after the leading failures.
      return draw_geometric(rng_.engine(), spec.num, spec.den) - 1;
  }
  return 0;
}

std::int64_t Simulator::next_arrival_time(const ArrivalSpec& spec, std::int64_t current) {
  switch (spec.kind) {
    case ArrivalKind::kSaturated:
    case ArrivalKind::kPeriodic:
      return current + spec.period;
    case ArrivalKind::kPoisson:
      return current + draw_geometric(rng_.engine(), spec.num, spec.den);
    case ArrivalKind::kBursty: {
      const std::int64_t cycle = spec.on + spec.off;
      const std::int64_t next = current + 1;
      if (next % cycle < spec.on) return next;
      return (next / cycle + 1) * cycle;  // start of the next burst
    }
  }
  return current + 1;
}

void Simulator::schedule_token(mg::PlaceId p, std::int64_t now) {
  const std::size_t pi = static_cast<std::size_t>(p);
  const std::int64_t latency = draw_latency(rng_.engine(), place_dist_[pi]);
  // FIFO in-order delivery: a hop never reorders tokens, so a short draw
  // behind a long one queues behind it (the latency-queue idiom). The +1
  // floor is inactive in the deterministic limit, preserving exactness.
  const std::int64_t arrival = std::max(now + latency, last_scheduled_[pi] + 1);
  last_scheduled_[pi] = arrival;
  tokens_[pi].push_back(arrival);
  calendar_.push(Event{arrival, EventKind::kArrival, p});
  const lis::ChannelId ch = queue_of_place_[pi];
  if (ch != graph::kInvalidEdge) produced_[static_cast<std::size_t>(ch)] += 1;
}

bool Simulator::enabled(mg::TransitionId t, std::int64_t now) const {
  if (next_fire_[static_cast<std::size_t>(t)] > now) return false;
  const std::int32_t gate = gate_of_transition_[static_cast<std::size_t>(t)];
  if (gate >= 0 && sources_[static_cast<std::size_t>(gate)].backlog.empty()) return false;
  for (const mg::PlaceId p : g().structure().in_edges(t)) {
    if (avail_[static_cast<std::size_t>(p)] == 0) return false;
  }
  return true;
}

void Simulator::fire(mg::TransitionId t, std::int64_t now) {
  const std::size_t ti = static_cast<std::size_t>(t);
  // data_ready: the earliest cycle the firing could have happened if
  // backpressure were free — bounded by the unit firing delay (once per
  // cycle) and by the forward-data arrivals it consumes. A firing later than
  // data_ready was delayed by a credit (backward place): a stall.
  std::int64_t data_ready = next_fire_[ti];
  std::int64_t credit_ready = -1;
  mg::PlaceId binding_credit = graph::kInvalidEdge;
  for (const mg::PlaceId p : g().structure().in_edges(t)) {
    const std::size_t pi = static_cast<std::size_t>(p);
    const std::int64_t arrived = tokens_[pi].front();
    tokens_[pi].pop_front();
    avail_[pi] -= 1;
    if (g().place_kind(p) == mg::PlaceKind::kForward) {
      data_ready = std::max(data_ready, arrived);
    } else if (arrived > credit_ready) {
      credit_ready = arrived;
      binding_credit = p;
    }
    const lis::ChannelId ch = queue_of_place_[pi];
    if (ch != graph::kInvalidEdge) {
      consumed_[static_cast<std::size_t>(ch)] += 1;
      touched_.push_back(ch);
    }
  }
  const std::int32_t gate = gate_of_transition_[ti];
  if (gate >= 0) {
    Source& src = sources_[static_cast<std::size_t>(gate)];
    data_ready = std::max(data_ready, src.backlog.front());
    src.backlog.pop_front();
    arrivals_consumed_ += 1;
  }
  if (credit_ready > data_ready && now >= opt_.warmup) {
    // The firing waited on backpressure strictly past data readiness. Like
    // occupancy and throughput, stalls are measured-window statistics: the
    // warmup skips the transient, where even well-sized systems fire behind
    // their credits while the pipeline fills.
    total_stall_events_ += 1;
    total_stall_cycles_ += credit_ready - data_ready;
    const lis::ChannelId ch = x_.place_channel[static_cast<std::size_t>(binding_credit)];
    if (ch != graph::kInvalidEdge) {
      stall_events_[static_cast<std::size_t>(ch)] += 1;
      stall_cycles_[static_cast<std::size_t>(ch)] += credit_ready - data_ready;
    }
  }

  firings_[ti] += 1;
  total_firings_ += 1;
  if (t == reference_transition_) {
    reference_total_ += 1;
    if (now >= opt_.warmup) reference_measured_ += 1;
  }
  next_fire_[ti] = now + 1;
  for (const mg::PlaceId p : g().structure().out_edges(t)) schedule_token(p, now);
  calendar_.push(Event{now + 1, EventKind::kWake, t});
}

void Simulator::note_occupancy(lis::ChannelId ch, std::int64_t now) {
  const std::size_t ci = static_cast<std::size_t>(ch);
  const mg::PlaceId qp = x_.forward_places(ch).back();
  const std::int64_t value = avail_[static_cast<std::size_t>(qp)];
  if (value == occ_value_[ci]) return;
  const std::int64_t begin = std::max(occ_since_[ci], opt_.warmup);
  if (now > begin) {
    auto& hist = histogram_[ci];
    if (static_cast<std::size_t>(occ_value_[ci]) >= hist.size()) {
      hist.resize(static_cast<std::size_t>(occ_value_[ci]) + 1, 0);
    }
    hist[static_cast<std::size_t>(occ_value_[ci])] += now - begin;
    occ_max_[ci] = std::max(occ_max_[ci], occ_value_[ci]);
  }
  occ_value_[ci] = value;
  occ_since_[ci] = now;
}

void Simulator::flush_occupancy(std::int64_t end) {
  for (lis::ChannelId ch = 0; ch < static_cast<lis::ChannelId>(lis_.num_channels()); ++ch) {
    const std::size_t ci = static_cast<std::size_t>(ch);
    const std::int64_t begin = std::max(occ_since_[ci], opt_.warmup);
    if (end > begin) {
      auto& hist = histogram_[ci];
      if (static_cast<std::size_t>(occ_value_[ci]) >= hist.size()) {
        hist.resize(static_cast<std::size_t>(occ_value_[ci]) + 1, 0);
      }
      hist[static_cast<std::size_t>(occ_value_[ci])] += end - begin;
      occ_max_[ci] = std::max(occ_max_[ci], occ_value_[ci]);
    }
    occ_since_[ci] = end;
  }
}

/// Canonical state at the end of an event batch, relative to `now`: for each
/// place the arrived count plus the pending arrival offsets, for each
/// transition its firing-floor offset, for each source its backlog depth,
/// next-arrival offset and (for bursty processes, whose pattern depends on
/// absolute time) the phase. Two equal keys at different times imply the
/// dynamics repeat with their time difference as period.
std::vector<std::int64_t> Simulator::state_key(std::int64_t now) const {
  std::vector<std::int64_t> key;
  key.reserve(3 * g().num_places() + g().num_transitions() + 3 * sources_.size());
  for (std::size_t p = 0; p < g().num_places(); ++p) {
    key.push_back(avail_[p]);
    key.push_back(static_cast<std::int64_t>(tokens_[p].size()) - avail_[p]);
    for (std::size_t i = static_cast<std::size_t>(avail_[p]); i < tokens_[p].size(); ++i) {
      key.push_back(tokens_[p][i] - now);
    }
  }
  for (std::size_t t = 0; t < g().num_transitions(); ++t) {
    key.push_back(std::max<std::int64_t>(next_fire_[t] - (now + 1), 0));
  }
  for (const Source& src : sources_) {
    key.push_back(static_cast<std::int64_t>(src.backlog.size()));
    key.push_back(src.next_arrival - now);
    // A bursty pattern depends on absolute time, so equal offsets at unequal
    // phases are not equivalent states.
    if (src.spec.kind == ArrivalKind::kBursty) {
      key.push_back(src.next_arrival % (src.spec.on + src.spec.off));
    } else {
      key.push_back(0);
    }
  }
  return key;
}

SimReport Simulator::run() {
  init_config();
  init_state();

  SimReport report;
  report.horizon = opt_.horizon;
  report.warmup = opt_.warmup;
  report.seed = opt_.seed;
  report.deterministic = deterministic_;

  const std::int64_t end = opt_.warmup + opt_.horizon;
  const bool detect = deterministic_ && opt_.detect_period;
  // Visited states -> (batch time, reference firings). Only populated in the
  // fully deterministic regime, where a revisit proves periodicity.
  std::map<std::vector<std::int64_t>, std::pair<std::int64_t, std::int64_t>> seen;

  // One poller across every phase of the run (warmup and measurement), so
  // the cancel token is observed at a uniform stride end to end.
  util::StridedPoller poller(opt_.cancel);

  std::int64_t stop = end;
  while (!calendar_.empty()) {
    const std::int64_t now = calendar_.top().time;
    if (now >= end) break;
    if (poller.poll()) {
      report.cancelled = true;
      stop = now;
      break;
    }
    candidates_.clear();
    touched_.clear();
    arrived_sources_.clear();
    while (!calendar_.empty() && calendar_.top().time == now) {
      const Event ev = calendar_.top();
      calendar_.pop();
      switch (ev.kind) {
        case EventKind::kArrival: {
          const std::size_t pi = static_cast<std::size_t>(ev.id);
          avail_[pi] += 1;
          events_ += 1;
          candidates_.push_back(g().consumer(ev.id));
          const lis::ChannelId ch = queue_of_place_[pi];
          if (ch != graph::kInvalidEdge) touched_.push_back(ch);
          break;
        }
        case EventKind::kWake:
          candidates_.push_back(ev.id);
          break;
        case EventKind::kSourceArrival:
          // Deferred below: RNG draws must happen in source order, not heap
          // pop order (which the standard leaves unspecified among ties).
          arrived_sources_.push_back(ev.id);
          break;
      }
    }
    std::sort(arrived_sources_.begin(), arrived_sources_.end());
    for (const std::int32_t si : arrived_sources_) {
      Source& src = sources_[static_cast<std::size_t>(si)];
      src.backlog.push_back(now);
      arrivals_generated_ += 1;
      max_backlog_ = std::max(max_backlog_, static_cast<std::int64_t>(src.backlog.size()));
      src.next_arrival = next_arrival_time(src.spec, now);
      calendar_.push(Event{src.next_arrival, EventKind::kSourceArrival, si});
      candidates_.push_back(src.transition);
    }
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()), candidates_.end());
    for (const mg::TransitionId t : candidates_) {
      if (enabled(t, now)) fire(t, now);
    }
    if (opt_.trace_occupancy) {
      std::sort(touched_.begin(), touched_.end());
      touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
      for (const lis::ChannelId ch : touched_) note_occupancy(ch, now);
    }
    if (detect) {
      const auto [it, inserted] = seen.emplace(
          state_key(now), std::make_pair(now, reference_total_));
      if (!inserted) {
        report.periodic_found = true;
        report.transient_cycles = it->second.first;
        report.period_cycles = now - it->second.first;
        report.throughput =
            util::Rational(reference_total_ - it->second.second, report.period_cycles);
        stop = now + 1;
        break;
      }
    }
  }
  if (!report.cancelled && !report.periodic_found) stop = end;

  report.cycles_run = stop;
  if (opt_.trace_occupancy) flush_occupancy(stop);
  finalize(report);
  if (!report.periodic_found) {
    const std::int64_t measured = std::max<std::int64_t>(stop - opt_.warmup, 1);
    report.throughput = util::Rational(reference_measured_, measured);
  }
  return report;
}

void Simulator::finalize(SimReport& report) const {
  report.events = events_;
  report.firings = total_firings_;
  report.reference_firings = reference_measured_;
  report.arrivals_generated = arrivals_generated_;
  report.arrivals_consumed = arrivals_consumed_;
  report.max_backlog = max_backlog_;
  report.total_stall_events = total_stall_events_;
  report.total_stall_cycles = total_stall_cycles_;

  report.channels.resize(lis_.num_channels());
  for (lis::ChannelId c = 0; c < static_cast<lis::ChannelId>(lis_.num_channels()); ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    const lis::Channel& chan = lis_.channel(c);
    ChannelStats& stats = report.channels[ci];
    stats.channel = c;
    stats.src = chan.src;
    stats.dst = chan.dst;
    stats.capacity = chan.queue_capacity;
    stats.relay_stations = chan.relay_stations;
    stats.tokens_in = produced_[ci];
    stats.tokens_out = consumed_[ci];
    const mg::PlaceId delivery = x_.forward_places(c).back();
    stats.in_flight = static_cast<std::int64_t>(tokens_[static_cast<std::size_t>(delivery)].size());
    stats.stall_events = stall_events_[ci];
    stats.stall_cycles = stall_cycles_[ci];
    stats.histogram = histogram_[ci];
    stats.max_occupancy = occ_max_[ci];

    std::int64_t total = 0;
    for (const std::int64_t cycles : stats.histogram) total += cycles;
    if (total > 0) {
      std::int64_t weighted = 0;
      for (std::size_t v = 0; v < stats.histogram.size(); ++v) {
        weighted += static_cast<std::int64_t>(v) * stats.histogram[v];
      }
      stats.mean_occupancy = util::Rational(weighted, total);
      const auto percentile = [&](std::int64_t num, std::int64_t den) {
        // Smallest occupancy v with cum(v)/total >= num/den, exactly.
        std::int64_t cum = 0;
        for (std::size_t v = 0; v < stats.histogram.size(); ++v) {
          cum += stats.histogram[v];
          if (cum * den >= total * num) return static_cast<std::int64_t>(v);
        }
        return static_cast<std::int64_t>(stats.histogram.size()) - 1;
      };
      stats.p50 = percentile(50, 100);
      stats.p95 = percentile(95, 100);
      stats.p99 = percentile(99, 100);
    }
  }
}

}  // namespace

// --- LatencyDist / ArrivalSpec ---------------------------------------------

LatencyDist LatencyDist::fixed(std::int64_t cycles) {
  LID_ENSURE(in_param_range(cycles), "LatencyDist::fixed: latency out of range");
  LatencyDist d;
  d.kind = DistKind::kFixed;
  d.lo = d.hi = cycles;
  return d;
}

LatencyDist LatencyDist::uniform(std::int64_t lo, std::int64_t hi) {
  LID_ENSURE(in_param_range(lo) && in_param_range(hi) && lo <= hi,
             "LatencyDist::uniform: bad range");
  LatencyDist d;
  d.kind = DistKind::kUniform;
  d.lo = lo;
  d.hi = hi;
  return d;
}

LatencyDist LatencyDist::geometric(std::int64_t num, std::int64_t den) {
  LID_ENSURE(num >= 1 && num <= den && den <= kMaxParam,
             "LatencyDist::geometric: probability must be in (0, 1]");
  LatencyDist d;
  d.kind = DistKind::kGeometric;
  d.lo = d.hi = 1;
  d.prob_num = num;
  d.prob_den = den;
  return d;
}

std::string LatencyDist::to_string() const {
  switch (kind) {
    case DistKind::kFixed:
      return "fixed:" + std::to_string(lo);
    case DistKind::kUniform:
      return "uniform:" + std::to_string(lo) + ":" + std::to_string(hi);
    case DistKind::kGeometric:
      return "geometric:" + std::to_string(prob_num) + "/" + std::to_string(prob_den);
  }
  return "fixed:1";
}

std::optional<LatencyDist> parse_latency_dist(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() == 1) {
    // Bare integer shorthand for fixed:N.
    const auto n = parse_int(parts[0]);
    if (!n || !in_param_range(*n)) return std::nullopt;
    return LatencyDist::fixed(*n);
  }
  if (parts[0] == "fixed" && parts.size() == 2) {
    const auto n = parse_int(parts[1]);
    if (!n || !in_param_range(*n)) return std::nullopt;
    return LatencyDist::fixed(*n);
  }
  if (parts[0] == "uniform" && parts.size() == 3) {
    const auto lo = parse_int(parts[1]);
    const auto hi = parse_int(parts[2]);
    if (!lo || !hi || !in_param_range(*lo) || !in_param_range(*hi) || *lo > *hi) {
      return std::nullopt;
    }
    return LatencyDist::uniform(*lo, *hi);
  }
  if (parts[0] == "geometric" && parts.size() == 2) {
    const auto prob = parse_prob(parts[1]);
    if (!prob) return std::nullopt;
    return LatencyDist::geometric(prob->first, prob->second);
  }
  return std::nullopt;
}

ArrivalSpec ArrivalSpec::saturated() { return ArrivalSpec{}; }

ArrivalSpec ArrivalSpec::periodic(std::int64_t period) {
  LID_ENSURE(in_param_range(period), "ArrivalSpec::periodic: period out of range");
  ArrivalSpec a;
  a.kind = ArrivalKind::kPeriodic;
  a.period = period;
  return a;
}

ArrivalSpec ArrivalSpec::poisson(std::int64_t num, std::int64_t den) {
  LID_ENSURE(num >= 1 && num <= den && den <= kMaxParam,
             "ArrivalSpec::poisson: probability must be in (0, 1]");
  ArrivalSpec a;
  a.kind = ArrivalKind::kPoisson;
  a.num = num;
  a.den = den;
  return a;
}

ArrivalSpec ArrivalSpec::bursty(std::int64_t on, std::int64_t off) {
  LID_ENSURE(in_param_range(on) && in_param_range(off), "ArrivalSpec::bursty: bad phase length");
  ArrivalSpec a;
  a.kind = ArrivalKind::kBursty;
  a.on = on;
  a.off = off;
  return a;
}

std::string ArrivalSpec::to_string() const {
  switch (kind) {
    case ArrivalKind::kSaturated:
      return "saturated";
    case ArrivalKind::kPeriodic:
      return "rate:" + std::to_string(period);
    case ArrivalKind::kPoisson:
      return "poisson:" + std::to_string(num) + "/" + std::to_string(den);
    case ArrivalKind::kBursty:
      return "bursty:" + std::to_string(on) + ":" + std::to_string(off);
  }
  return "saturated";
}

std::optional<ArrivalSpec> parse_arrival_spec(const std::string& spec) {
  if (spec == "saturated") return ArrivalSpec::saturated();
  const std::vector<std::string> parts = split(spec, ':');
  if (parts[0] == "rate" && parts.size() == 2) {
    const auto p = parse_int(parts[1]);
    if (!p || !in_param_range(*p)) return std::nullopt;
    return ArrivalSpec::periodic(*p);
  }
  if (parts[0] == "poisson" && parts.size() == 2) {
    const auto prob = parse_prob(parts[1]);
    if (!prob) return std::nullopt;
    return ArrivalSpec::poisson(prob->first, prob->second);
  }
  if (parts[0] == "bursty" && parts.size() == 3) {
    const auto on = parse_int(parts[1]);
    const auto off = parse_int(parts[2]);
    if (!on || !off || !in_param_range(*on) || !in_param_range(*off)) return std::nullopt;
    return ArrivalSpec::bursty(*on, *off);
  }
  return std::nullopt;
}

bool Profile::empty() const {
  for (const auto& d : channel_latency) {
    if (d) return false;
  }
  for (const auto& a : core_arrival) {
    if (a) return false;
  }
  return true;
}

// --- report serialization ---------------------------------------------------

std::string SimReport::serialize() const {
  std::ostringstream os;
  os << "horizon=" << horizon << "\nwarmup=" << warmup << "\nseed=" << seed
     << "\ndeterministic=" << (deterministic ? 1 : 0) << "\ncycles_run=" << cycles_run
     << "\nevents=" << events << "\nfirings=" << firings
     << "\nreference_firings=" << reference_firings
     << "\nthroughput=" << throughput.to_string()
     << "\nperiodic=" << (periodic_found ? 1 : 0) << "\ntransient=" << transient_cycles
     << "\nperiod=" << period_cycles << "\narrivals_generated=" << arrivals_generated
     << "\narrivals_consumed=" << arrivals_consumed << "\nmax_backlog=" << max_backlog
     << "\nstall_events=" << total_stall_events << "\nstall_cycles=" << total_stall_cycles
     << "\ncancelled=" << (cancelled ? 1 : 0) << "\n";
  for (const ChannelStats& ch : channels) {
    os << "channel " << ch.channel << " src=" << ch.src << " dst=" << ch.dst
       << " q=" << ch.capacity << " rs=" << ch.relay_stations << " in=" << ch.tokens_in
       << " out=" << ch.tokens_out << " in_flight=" << ch.in_flight
       << " stalls=" << ch.stall_events << " stall_cycles=" << ch.stall_cycles
       << " occ_max=" << ch.max_occupancy << " p50=" << ch.p50 << " p95=" << ch.p95
       << " p99=" << ch.p99 << " mean=" << ch.mean_occupancy.to_string() << "\n";
  }
  return os.str();
}

// --- entry point ------------------------------------------------------------

SimReport simulate(const lis::LisGraph& lis, const SimOptions& options) {
  LID_ENSURE(lis.num_cores() > 0, "simulate_des: empty netlist");
  LID_ENSURE(options.horizon >= 1 && options.horizon <= 1'000'000'000,
             "simulate_des: horizon must be in [1, 1e9]");
  LID_ENSURE(options.warmup >= 0 && options.warmup <= 1'000'000'000,
             "simulate_des: warmup must be in [0, 1e9]");
  LID_ENSURE(options.reference >= 0 &&
                 static_cast<std::size_t>(options.reference) < lis.num_cores(),
             "simulate_des: reference core out of range");
  LID_ENSURE(options.profile.channel_latency.empty() ||
                 options.profile.channel_latency.size() == lis.num_channels(),
             "simulate_des: profile channel count does not match the netlist");
  LID_ENSURE(options.profile.core_arrival.empty() ||
                 options.profile.core_arrival.size() == lis.num_cores(),
             "simulate_des: profile core count does not match the netlist");
  Simulator sim(lis, options);
  return sim.run();
}

}  // namespace lid::des
