#include "graph/digraph.hpp"

#include <algorithm>
#include <limits>

namespace lid::graph {

namespace {

// Node and edge ids are int32; pool offsets are uint32.
constexpr std::size_t kMaxIds = std::numeric_limits<std::int32_t>::max();
constexpr std::size_t kMaxPool = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void Digraph::Adjacency::append(NodeId v, EdgeId e) {
  Run& run = runs[static_cast<std::size_t>(v)];
  if (run.size == run.capacity) {
    // Full: the last run of the pool grows in place, any other moves to the
    // end. Either way it gets twice the room (at least two ids).
    const std::size_t capacity = std::max<std::size_t>(2 * std::size_t{run.capacity}, 2);
    const bool at_end = run.begin + std::size_t{run.capacity} == pool.size();
    const std::size_t begin = at_end ? run.begin : pool.size();
    LID_ENSURE(begin + capacity <= kMaxPool, "adjacency pool exceeds 32-bit offsets");
    pool.resize(begin + capacity);
    if (!at_end) {
      std::copy_n(pool.begin() + run.begin, run.size,
                  pool.begin() + static_cast<std::ptrdiff_t>(begin));
    }
    run.begin = static_cast<std::uint32_t>(begin);
    run.capacity = static_cast<std::uint32_t>(capacity);
  }
  pool[run.begin + run.size++] = e;
}

void Digraph::Adjacency::pack() {
  std::size_t begin = 0;
  for (Run& run : runs) {
    run.begin = static_cast<std::uint32_t>(begin);
    run.capacity = run.size;
    begin += run.size;
    run.size = 0;
  }
  pool.resize(begin);
}

Digraph::Digraph(std::size_t n, std::vector<Edge> edges) : edges_(std::move(edges)) {
  LID_ENSURE(n <= kMaxIds && edges_.size() <= kMaxIds, "graph exceeds 32-bit ids");
  out_.runs.resize(n);
  in_.runs.resize(n);
  for (const Edge& e : edges_) {
    check_node(e.src);
    check_node(e.dst);
    ++out_.runs[static_cast<std::size_t>(e.src)].size;
    ++in_.runs[static_cast<std::size_t>(e.dst)].size;
  }
  out_.pack();
  in_.pack();
  for (std::size_t id = 0; id < edges_.size(); ++id) {
    out_.append(edges_[id].src, static_cast<EdgeId>(id));
    in_.append(edges_[id].dst, static_cast<EdgeId>(id));
  }
}

NodeId Digraph::add_node() { return add_nodes(1); }

NodeId Digraph::add_nodes(std::size_t n) {
  const std::size_t first = out_.runs.size();
  LID_ENSURE(n <= kMaxIds - first, "graph exceeds 32-bit ids");
  out_.runs.resize(first + n);
  in_.runs.resize(first + n);
  return static_cast<NodeId>(first);
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst) {
  check_node(src);
  check_node(dst);
  LID_ENSURE(edges_.size() < kMaxIds, "graph exceeds 32-bit ids");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst});
  out_.append(src, id);
  in_.append(dst, id);
  return id;
}

bool Digraph::has_edge(NodeId src, NodeId dst) const {
  check_node(dst);
  const auto outs = out_edges(src);
  return std::any_of(outs.begin(), outs.end(),
                     [&](EdgeId e) { return edges_[static_cast<std::size_t>(e)].dst == dst; });
}

std::vector<EdgeId> Digraph::edges_between(NodeId src, NodeId dst) const {
  check_node(dst);
  std::vector<EdgeId> found;
  for (const EdgeId e : out_edges(src)) {
    if (edges_[static_cast<std::size_t>(e)].dst == dst) found.push_back(e);
  }
  return found;
}

Digraph Digraph::reversed() const {
  std::vector<Edge> flipped;
  flipped.reserve(edges_.size());
  for (const Edge& e : edges_) flipped.push_back(Edge{e.dst, e.src});
  return Digraph(num_nodes(), std::move(flipped));
}

}  // namespace lid::graph
