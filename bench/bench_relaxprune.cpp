// Ablation beyond the paper: relax-time self-pruning. The paper applies
// the self-pruning test when an item is *popped*; since pop keys are
// monotone within a thread, the same test is already decisive at *push*
// time, skipping the queue operations for doomed items entirely. This
// bench quantifies the saved work (results are bit-identical; the test
// suite asserts that).
// Grown into a two-dimensional ablation: relax-time pruning x queue policy
// (binary vs bucket) — relax-time pruning saves exactly
// the queue operations whose cost the policy determines, so the two knobs
// interact.
#include <iostream>

#include "algo/parallel_spcs.hpp"
#include "algo/queue_policy.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

template <typename Queue>
void run_variant(const Network& net, QueueKind kind,
                 const std::vector<StationId>& sources, TablePrinter& table) {
  const auto queries = sources.size();
  for (bool on : {false, true}) {
    ParallelSpcsOptions opt;
    opt.threads = 1;
    opt.prune_on_relax = on;
    ParallelSpcsT<Queue> spcs(net.tt, net.graph, opt);
    QueryStats total;
    Timer timer;
    for (StationId s : sources) total += spcs.one_to_all(s).stats;
    table.add_row({queue_kind_name(kind),
                   on ? "pop+relax pruning" : "pop pruning (paper)",
                   format_count(total.settled / queries),
                   format_count(total.queue_ops() / queries),
                   format_count(total.relax_pruned / queries),
                   fixed(timer.elapsed_ms() / queries, 1)});
  }
}

void run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);

  const int queries = std::max(4, num_queries() / 2);
  std::vector<StationId> sources = random_stations(net.tt, queries, 31337);

  TablePrinter table({"queue", "variant", "settled conns", "queue ops",
                      "skipped pushes", "time [ms]"});
  for (QueueKind k : kAllQueueKinds) {
    with_spcs_queue(k, [&](auto tag) {
      run_variant<typename decltype(tag)::type>(net, k, sources, table);
    });
  }
  table.print();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);
  std::cout << "Relax-time self-pruning ablation x queue policy (identical "
               "results, fewer queue ops)\n";
  const auto presets =
      options().smoke
          ? std::vector<gen::Preset>{gen::Preset::kOahuLike}
          : std::vector<gen::Preset>(std::begin(gen::kAllPresets),
                                     std::end(gen::kAllPresets));
  for (gen::Preset p : presets) run_network(p);
  return 0;
}
