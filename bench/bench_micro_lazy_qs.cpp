// Micro-benchmarks: lazy critical-cycle constraint generation vs the
// enumerate-everything pipeline on dense generated systems. A single SCC
// with many chords drives the doubled graph's elementary-cycle count into
// the tens of thousands; the full pipeline enumerates and constrains every
// one of them while the lazy solver touches only the few that are critical.
// Counters record the cycle counts so the asymmetry is visible in the JSON.
#include <benchmark/benchmark.h>

#include "core/lazy_sizing.hpp"
#include "core/qs_problem.hpp"
#include "core/queue_sizing.hpp"
#include "gen/generator.hpp"
#include "lis/lis_graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace lid;

// Dense single-SCC system: Hamiltonian cycle over `vertices` cores plus
// `chords` random chords, with a few relay stations degrading the MST so the
// sizing problem is non-trivial.
lis::LisGraph dense_system(int vertices, int chords) {
  util::Rng rng(4242);
  gen::GeneratorParams params;
  params.vertices = vertices;
  params.sccs = 1;
  params.min_cycles = chords;
  params.relay_stations = 8;
  params.reconvergent = true;
  params.policy = gen::RsPolicy::kAny;
  return gen::generate(params, rng);
}

void BM_SizeQueuesFull(benchmark::State& state) {
  const lis::LisGraph system = dense_system(14, static_cast<int>(state.range(0)));
  core::QsOptions options;
  options.method = core::QsMethod::kBoth;
  std::int64_t cycles = 0;
  std::int64_t total = 0;
  for (auto _ : state) {
    const core::QsReport r = core::size_queues(system, options);
    benchmark::DoNotOptimize(r);
    cycles = static_cast<std::int64_t>(r.problem.cycles_enumerated);
    total = r.exact ? r.exact->total_extra_tokens : -1;
  }
  state.counters["cycles_enumerated"] = static_cast<double>(cycles);
  state.counters["total_extra_tokens"] = static_cast<double>(total);
}
BENCHMARK(BM_SizeQueuesFull)->Arg(20)->Arg(24)->Arg(28)->Unit(benchmark::kMillisecond);

void BM_SizeQueuesLazy(benchmark::State& state) {
  const lis::LisGraph system = dense_system(14, static_cast<int>(state.range(0)));
  core::QsOptions options;
  options.method = core::QsMethod::kLazy;
  std::int64_t cycles = 0;
  std::int64_t total = 0;
  for (auto _ : state) {
    const core::QsReport r = core::size_queues(system, options);
    benchmark::DoNotOptimize(r);
    cycles = r.lazy->cycles_generated;
    total = r.exact ? r.exact->total_extra_tokens : -1;
  }
  state.counters["cycles_generated"] = static_cast<double>(cycles);
  state.counters["total_extra_tokens"] = static_cast<double>(total);
}
BENCHMARK(BM_SizeQueuesLazy)->Arg(20)->Arg(24)->Arg(28)->Unit(benchmark::kMillisecond);

// The engine-pooling payoff on re-analysis: one persistent workspace across
// repeated lazy solves of the same netlist (the AnalysisCache hit path).
void BM_SizeQueuesLazyPooledWorkspace(benchmark::State& state) {
  const lis::LisGraph system = dense_system(14, static_cast<int>(state.range(0)));
  core::QsOptions options;
  mg::Workspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::size_queues_lazy(system, options, &workspace));
  }
  state.counters["warm_restarts"] =
      static_cast<double>(workspace.stats().warm_restarts);
}
BENCHMARK(BM_SizeQueuesLazyPooledWorkspace)->Arg(20)->Arg(24)->Arg(28)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
