// Micro-benchmarks: elementary-cycle enumeration (the dominant cost of the
// queue-sizing front end — the paper reports 0.22 s below 1000 cycles and
// ~3 s between 1000 and 10000 cycles on 2008 hardware).
#include <benchmark/benchmark.h>

#include "gen/generator.hpp"
#include "graph/cycles.hpp"
#include "lis/lis_graph.hpp"
#include "soc/cofdm.hpp"
#include "util/rng.hpp"

namespace {

using namespace lid;

void BM_EnumerateDoubledCycles(benchmark::State& state) {
  util::Rng rng(44);
  gen::GeneratorParams params;
  params.vertices = static_cast<int>(state.range(0));
  params.sccs = 4;
  params.min_cycles = 2;
  params.relay_stations = 8;
  params.reconvergent = true;
  params.policy = gen::RsPolicy::kScc;
  const lis::Expansion ex = lis::expand_doubled(gen::generate(params, rng));
  graph::CycleEnumOptions options;
  options.max_cycles = 200000;
  std::size_t cycles = 0;
  for (auto _ : state) {
    const auto result = graph::enumerate_cycles(ex.graph.structure(), options);
    cycles = result.cycles.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_EnumerateDoubledCycles)->Arg(12)->Arg(16)->Arg(20);

void BM_EnumerateCofdmCycles(benchmark::State& state) {
  const lis::Expansion ex = lis::expand_doubled(soc::build_cofdm());
  std::size_t cycles = 0;
  for (auto _ : state) {
    const auto result = graph::enumerate_cycles(ex.graph.structure());
    cycles = result.cycles.size();
    benchmark::DoNotOptimize(result);
  }
  // The paper reports 10.5 s for all cycles of the doubled SoC graph (2008
  // hardware, 2896 cycles); this counter shows our reconstruction's count.
  state.counters["cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_EnumerateCofdmCycles);

}  // namespace

BENCHMARK_MAIN();
