// Micro-benchmarks: Howard's minimum cycle mean (cold, and cold vs warm
// re-solves after marking changes) and the MST pipeline on generated doubled
// graphs of growing size.
#include <benchmark/benchmark.h>

#include "gen/generator.hpp"
#include "lis/lis_graph.hpp"
#include "mg/mcm.hpp"
#include "util/rng.hpp"

namespace {

using namespace lid;

lis::Expansion doubled_system(int vertices, int sccs) {
  util::Rng rng(42);
  gen::GeneratorParams params;
  params.vertices = vertices;
  params.sccs = sccs;
  params.min_cycles = 3;
  params.relay_stations = 10;
  params.reconvergent = true;
  params.policy = gen::RsPolicy::kScc;
  return lis::expand_doubled(gen::generate(params, rng));
}

void BM_HowardMcm(benchmark::State& state) {
  const lis::Expansion ex = doubled_system(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mg::min_cycle_mean_howard(ex.graph));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HowardMcm)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// Warm-start payoff: the lazy queue-sizing loop re-solves MCM after every
// marking change. Cold re-solves pay the full policy iteration each time;
// a persistent mg::Workspace restarts from the previous policy. Both
// variants apply the identical perturbation sequence (add then remove one
// token on a rotating place) so the solved markings match exactly.
void perturb_marking(mg::MarkedGraph& work, std::size_t round) {
  const auto victim = static_cast<mg::PlaceId>((round / 2) % work.num_places());
  const std::int64_t delta = round % 2 == 0 ? 1 : -1;
  work.set_tokens(victim, work.tokens(victim) + delta);
}

void BM_HowardMcmColdPerturbed(benchmark::State& state) {
  mg::MarkedGraph work = doubled_system(static_cast<int>(state.range(0)), 5).graph;
  std::size_t round = 0;
  for (auto _ : state) {
    perturb_marking(work, round++);
    benchmark::DoNotOptimize(mg::min_cycle_mean_howard(work));
  }
}
BENCHMARK(BM_HowardMcmColdPerturbed)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_HowardMcmWarmPerturbed(benchmark::State& state) {
  mg::MarkedGraph work = doubled_system(static_cast<int>(state.range(0)), 5).graph;
  mg::Workspace workspace;
  mg::MeanCycle out;
  std::size_t round = 0;
  for (auto _ : state) {
    perturb_marking(work, round++);
    benchmark::DoNotOptimize(mg::min_cycle_mean_howard(work, workspace, out));
  }
  state.counters["warm_restarts"] =
      static_cast<double>(workspace.stats().warm_restarts);
}
BENCHMARK(BM_HowardMcmWarmPerturbed)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_PracticalMst(benchmark::State& state) {
  util::Rng rng(43);
  gen::GeneratorParams params;
  params.vertices = static_cast<int>(state.range(0));
  params.sccs = 5;
  params.min_cycles = 3;
  params.relay_stations = 10;
  params.reconvergent = true;
  params.policy = gen::RsPolicy::kScc;
  const lis::LisGraph system = gen::generate(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lis::practical_mst(system));
  }
}
BENCHMARK(BM_PracticalMst)->Arg(50)->Arg(100)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
