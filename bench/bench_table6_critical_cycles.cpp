// Table VI: the potential critical cycles of the Fig. 19 scenario — relay
// stations on (FEC, Spread) and (Spread, Pilot) — i.e. every doubled-graph
// cycle whose mean falls below the scenario's ideal MST of 0.75, plus the
// queue-sizing fix (one extra token each on the (Pilot, Control) and
// (FFT_in, Control) backedges).
#include <algorithm>

#include "bench_common.hpp"
#include "core/queue_sizing.hpp"
#include "graph/cycles.hpp"
#include "lis/lis_graph.hpp"
#include "soc/cofdm.hpp"
#include "util/split.hpp"

int main(int argc, char** argv) {
  using namespace lid;
  const util::Cli cli(argc, argv);
  (void)cli;

  bench::banner("Table VI", "sub-critical cycles of the Fig. 19 COFDM scenario");

  lis::LisGraph system = soc::build_cofdm();
  system.set_relay_stations(soc::find_channel(system, soc::kFEC, soc::kSpread), 1);
  system.set_relay_stations(soc::find_channel(system, soc::kSpread, soc::kPilot), 1);

  const util::Rational ideal = lis::ideal_mst(system);
  std::cout << "scenario ideal MST " << ideal.to_string() << " ("
            << util::Table::fmt(ideal.to_double()) << "), practical MST "
            << lis::practical_mst(system).to_string() << " ("
            << util::Table::fmt(lis::practical_mst(system).to_double()) << ")\n";

  const lis::Expansion expansion = lis::expand_doubled(system);
  const auto cycles = graph::enumerate_cycles(expansion.graph.structure());

  struct Row {
    std::string blocks;
    util::Rational mean;
  };
  std::vector<Row> rows;
  for (const auto& cycle : cycles.cycles) {
    const util::Rational mean(expansion.graph.cycle_tokens(cycle),
                              static_cast<std::int64_t>(cycle.size()));
    if (mean >= ideal) continue;
    std::string blocks;
    for (const graph::EdgeId p : cycle) {
      const auto t = expansion.graph.producer(p);
      if (expansion.graph.transition_kind(t) == mg::TransitionKind::kShell) {
        if (!blocks.empty()) blocks += ", ";
        blocks += expansion.graph.transition_name(t);
      }
    }
    rows.push_back({std::move(blocks), mean});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.blocks < b.blocks; });

  util::Table table({"cycle (blocks)", "cycle mean", "as decimal"});
  int id = 0;
  for (const Row& row : rows) {
    std::string name(1, 'C');
    util::append_decimal(name, ++id);
    name.append(": (").append(row.blocks).push_back(')');
    table.add_row({std::move(name), row.mean.to_string(), util::Table::fmt(row.mean.to_double())});
  }
  table.print(std::cout);

  core::QsOptions options;
  options.method = core::QsMethod::kBoth;
  const core::QsReport report = core::size_queues(system, options);
  std::cout << "queue-sizing fix: heuristic " << report.heuristic->total_extra_tokens
            << " token(s), exact " << report.exact->total_extra_tokens
            << " token(s); grown queues:";
  for (std::size_t s = 0; s < report.problem.channels.size(); ++s) {
    if (report.exact->weights[s] > 0) {
      const lis::Channel& ch = system.channel(report.problem.channels[s]);
      std::cout << " (" << system.core_name(ch.dst) << ", " << system.core_name(ch.src)
                << ")+" << report.exact->weights[s];
    }
  }
  std::cout << "; achieved MST " << report.achieved_mst.to_string() << "\n";
  bench::footnote("paper: six cycles, five at 0.71 and one at 0.67; fix = +1 on the "
                  "(Pilot, Control) and (FFT_in, Control) backedges");
  return 0;
}
