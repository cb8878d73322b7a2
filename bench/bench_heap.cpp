// Head-to-head comparison of the two queue policies (queue_policy.hpp):
// the paper's binary heap and the two-level monotone bucket queue.
//
// Two workloads:
//  * micro — a synthetic monotone Dijkstra mix (seed pushes, then pops
//    interleaved with improvement re-pushes), isolating raw queue cost;
//  * one-to-all — the Table-1 workload: parallel SPCS one-to-all profile
//    queries on the generated networks, p = 1, measuring what the policy
//    is worth end to end. The JSON output (--json) is what CI archives as
//    BENCH_queues.json; docs/queues.md interprets the numbers.
#include <iostream>
#include <string>
#include <vector>

#include "algo/queue_policy.hpp"
#include "algo/session.hpp"
#include "bench_common.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pconn::bench {
namespace {

// --------------------------------------------------------------- micro ---
// A monotone Dijkstra-shaped mix over composite SPCS-style keys. The
// binary heap uses push_or_decrease; the bucket queue re-pushes and
// filters stale pops against the settled bitmap, exactly like the engines.
template <typename Queue>
std::uint64_t run_micro(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Queue q(n);
  std::vector<std::uint8_t> settled(n, 0);
  std::uint64_t checksum = 0;
  for (std::uint32_t i = 0; i < n / 10 + 1; ++i) {
    q.push(i, (100u + rng.next_below(50)) << kSpcsKeyShift | i);
    settled[i] = 0;
  }
  std::uint32_t next_id = static_cast<std::uint32_t>(n / 10 + 1);
  while (!q.empty()) {
    auto [id, key] = q.pop();
    if constexpr (!Queue::kAddressable) {
      if (settled[id]) continue;
    }
    settled[id] = 1;
    checksum += key;
    const std::uint64_t radix = key >> kSpcsKeyShift;
    for (int k = 0; k < 2; ++k) {
      if (next_id >= n || !rng.next_bool(0.45)) break;
      const std::uint32_t head = next_id++;
      const std::uint64_t nk = (radix + rng.next_below(300)) << kSpcsKeyShift
                               | (head & ((1u << kSpcsKeyShift) - 1));
      if constexpr (Queue::kAddressable) {
        q.push_or_decrease(head, nk);
      } else {
        q.push(head, nk);
      }
    }
    // Occasional improvement of a not-yet-settled recent id.
    if (next_id > 1 && rng.next_bool(0.3)) {
      const std::uint32_t head = next_id - 1;
      if (!settled[head]) {
        const std::uint64_t nk = (radix + rng.next_below(50)) << kSpcsKeyShift
                                 | (head & ((1u << kSpcsKeyShift) - 1));
        if constexpr (Queue::kAddressable) {
          q.push_or_decrease(head, nk);
        } else {
          q.push(head, nk);
        }
      }
    }
  }
  return checksum;
}

struct MicroResult {
  double ms = 0.0;
  std::uint64_t checksum = 0;
};

template <typename Queue>
MicroResult measure_micro(std::size_t n, int reps) {
  MicroResult r;
  run_micro<Queue>(n, 7);  // warm-up, also warms allocations
  Timer t;
  for (int i = 0; i < reps; ++i) r.checksum += run_micro<Queue>(n, 7 + i);
  r.ms = t.elapsed_ms() / reps;
  return r;
}

// ---------------------------------------------------------- one-to-all ---
struct PolicyRow {
  QueueKind kind;
  double avg_ms = 0.0;
  QueryStats stats;
};

template <typename Queue>
PolicyRow measure_one_to_all(const Network& net, QueueKind kind,
                             const std::vector<StationId>& sources) {
  PolicyRow row;
  row.kind = kind;
  QuerySessionOptions opt;
  opt.threads = 1;
  QuerySessionT<Queue> session(net.tt, net.graph, opt);
  session.one_to_all(sources.front());  // warm-up: workspaces sized once
  Timer timer;
  for (StationId s : sources) row.stats += session.one_to_all(s).stats;
  row.avg_ms = timer.elapsed_ms() / sources.size();
  return row;
}

struct NetworkReport {
  std::string name;
  std::vector<PolicyRow> rows;  // rows[0] is the binary-heap baseline
};

NetworkReport run_network(gen::Preset preset) {
  Network net = load_network(preset);
  print_network_header(net);
  const std::vector<StationId> sources =
      random_stations(net.tt, num_queries(), 424242);

  NetworkReport rep;
  rep.name = gen::preset_name(preset);
  for (QueueKind k : kAllQueueKinds) {
    rep.rows.push_back(with_spcs_queue(k, [&](auto tag) {
      using Queue = typename decltype(tag)::type;
      return measure_one_to_all<Queue>(net, k, sources);
    }));
  }

  TablePrinter table({"queue", "time [ms]", "spd-up", "settled conns",
                      "queue ops", "stale pops"});
  const double base_ms = rep.rows.front().avg_ms;
  const auto q = sources.size();
  for (const PolicyRow& row : rep.rows) {
    table.add_row({queue_kind_name(row.kind), fixed(row.avg_ms, 1),
                   fixed(base_ms / row.avg_ms, 2),
                   format_count(row.stats.settled / q),
                   format_count(row.stats.queue_ops() / q),
                   format_count(row.stats.stale_popped / q)});
  }
  table.print();
  return rep;
}

std::string to_json(const std::vector<NetworkReport>& reports,
                    const std::vector<std::string>& micro_lines) {
  JsonWriter w = bench_json_doc("bench_heap", "table1-one-to-all");
  double best_speedup = 0.0;
  std::string best_policy = "binary";
  w.key("networks").begin_array();
  for (const NetworkReport& rep : reports) {
    w.begin_object().field("name", rep.name).key("policies").begin_array();
    const double base_ms = rep.rows.front().avg_ms;
    for (const PolicyRow& row : rep.rows) {
      const double speedup = base_ms / row.avg_ms;
      if (row.kind != QueueKind::kBinary && speedup > best_speedup) {
        best_speedup = speedup;
        best_policy = queue_kind_name(row.kind);
      }
      w.begin_object()
          .field("queue", queue_kind_name(row.kind))
          .field("avg_ms", row.avg_ms, 3)
          .field("speedup_vs_binary", speedup, 3)
          .field("settled", row.stats.settled)
          .field("pushed", row.stats.pushed)
          .field("decreased", row.stats.decreased)
          .field("stale_popped", row.stats.stale_popped)
          .field("queue_ops", row.stats.queue_ops())
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();
  w.key("micro").begin_array();
  for (const std::string& line : micro_lines) w.raw(line);
  w.end_array();
  w.field("best_new_policy", best_policy);
  w.field("best_new_policy_speedup", best_speedup, 3);
  w.end_object();
  return w.str();
}

}  // namespace
}  // namespace pconn::bench

int main(int argc, char** argv) {
  using namespace pconn;
  using namespace pconn::bench;
  parse_bench_args(argc, argv);

  std::cout << "Queue-policy head-to-head: binary vs bucket\n";

  // Micro workload.
  std::vector<std::string> micro_lines;
  std::cout << "\n== micro: monotone Dijkstra mix ==\n";
  TablePrinter micro({"n", "binary [ms]", "bucket [ms]"});
  const std::vector<std::size_t> sizes =
      options().smoke ? std::vector<std::size_t>{1 << 14}
                      : std::vector<std::size_t>{1 << 10, 1 << 14, 1 << 17};
  for (std::size_t n : sizes) {
    const int reps = n >= (1 << 17) ? 3 : 10;
    auto b = measure_micro<SpcsBinaryQueue>(n, reps);
    auto bk = measure_micro<SpcsBucketQueue>(n, reps);
    if (b.checksum != bk.checksum) {
      std::cerr << "checksum mismatch in micro workload!\n";
      return 1;
    }
    micro.add_row({std::to_string(n), fixed(b.ms, 3), fixed(bk.ms, 3)});
    std::ostringstream line;
    line << "{\"n\": " << n << ", \"binary_ms\": " << fixed(b.ms, 3)
         << ", \"bucket_ms\": " << fixed(bk.ms, 3) << "}";
    micro_lines.push_back(line.str());
  }
  micro.print();

  // Table-1-style one-to-all workload.
  std::vector<gen::Preset> presets;
  if (options().smoke) {
    presets = {gen::Preset::kOahuLike, gen::Preset::kGermanyLike};
  } else {
    presets.assign(std::begin(gen::kAllPresets), std::end(gen::kAllPresets));
  }
  std::vector<NetworkReport> reports;
  for (gen::Preset p : presets) reports.push_back(run_network(p));

  if (options().json) emit_json(to_json(reports, micro_lines));
  return 0;
}
