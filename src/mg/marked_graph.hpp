// Timed marked graphs (decision-free Petri nets) — the paper's modeling
// framework for latency-insensitive systems (Sec. III).
//
// In a marked graph every place has exactly one producer and one consumer
// transition, so a place is simply an edge between two transitions carrying a
// token count. We therefore represent a marked graph as a directed multigraph
// over transitions whose edges are the places. All transitions have unit
// delay (LISs are synchronous — Sec. III-B), so a cycle's mean is its token
// count divided by its place count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace lid::mg {

using TransitionId = graph::NodeId;
using PlaceId = graph::EdgeId;

/// What a transition models in a LIS-derived marked graph. Generic marked
/// graphs not derived from a LIS use kShell for everything.
enum class TransitionKind : std::uint8_t {
  kShell,          ///< a core's output stage (latched valid output at reset)
  kRelayStation,   ///< a clocked buffer with twofold capacity on a channel
  kPipelineStage,  ///< an internal stage of a pipelined core (void at reset;
                   ///< footnote 3 of the paper — cores with latency > 1)
};

/// Whether a place models a forward data channel hop or a backpressure
/// (queue-space) hop. Ideal (undoubled) graphs only have forward places.
enum class PlaceKind : std::uint8_t {
  kForward,
  kBackward,
};

/// A timed marked graph with unit transition delays.
class MarkedGraph {
 public:
  MarkedGraph() = default;

  /// Builds the graph in one pass from flat arrays: transition t has kind
  /// kinds[t] and name names[t] (an empty name becomes "t<id>", as in
  /// add_transition), and place p runs places[p].src -> places[p].dst with
  /// tokens[p] tokens and kind place_kinds[p] — the graph the add_* calls
  /// would build in the same order.
  MarkedGraph(std::vector<TransitionKind> kinds, std::vector<std::string> names,
              std::vector<graph::Edge> places, std::vector<std::int64_t> tokens,
              std::vector<PlaceKind> place_kinds);

  /// Adds a transition; `name` is used in traces and error messages.
  TransitionId add_transition(TransitionKind kind, std::string name = {});

  /// Adds a place from `src` to `dst` holding `tokens` initial tokens.
  PlaceId add_place(TransitionId src, TransitionId dst, std::int64_t tokens,
                    PlaceKind kind = PlaceKind::kForward);

  [[nodiscard]] std::size_t num_transitions() const { return structure_.num_nodes(); }
  [[nodiscard]] std::size_t num_places() const { return structure_.num_edges(); }

  [[nodiscard]] const graph::Digraph& structure() const { return structure_; }

  [[nodiscard]] TransitionKind transition_kind(TransitionId t) const;
  [[nodiscard]] const std::string& transition_name(TransitionId t) const;
  [[nodiscard]] PlaceKind place_kind(PlaceId p) const;
  [[nodiscard]] std::int64_t tokens(PlaceId p) const;
  [[nodiscard]] const std::vector<std::int64_t>& marking() const { return tokens_; }

  /// Producer / consumer transitions of a place.
  [[nodiscard]] TransitionId producer(PlaceId p) const { return structure_.edge(p).src; }
  [[nodiscard]] TransitionId consumer(PlaceId p) const { return structure_.edge(p).dst; }

  /// Overwrites the initial token count of a place.
  void set_tokens(PlaceId p, std::int64_t tokens);

  /// Adds `delta` tokens to a place (delta may not drive the count negative).
  void add_tokens(PlaceId p, std::int64_t delta);

  /// Total tokens currently on the given cycle (list of place ids).
  [[nodiscard]] std::int64_t cycle_tokens(const std::vector<PlaceId>& cycle) const;

  /// Validates the structural restrictions of LIS-derived marked graphs
  /// (Sec. III-B): a shell's outgoing forward places hold one token (its
  /// initial latched output), a relay station's outgoing forward place holds
  /// zero tokens (it is initialized void) and a relay station has exactly
  /// one incoming and one outgoing forward place; every cycle carries at
  /// least one token. Throws std::invalid_argument on the first violation.
  void validate_lis_structure() const;

 private:
  void check_place(PlaceId p) const {
    LID_ENSURE(p >= 0 && static_cast<std::size_t>(p) < tokens_.size(), "place id out of range");
  }
  void check_transition(TransitionId t) const {
    LID_ENSURE(t >= 0 && static_cast<std::size_t>(t) < kinds_.size(), "transition id out of range");
  }

  graph::Digraph structure_;
  std::vector<std::int64_t> tokens_;
  std::vector<PlaceKind> place_kinds_;
  std::vector<TransitionKind> kinds_;
  std::vector<std::string> names_;
};

}  // namespace lid::mg
