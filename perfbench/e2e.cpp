// End-to-end benchmark of pconn: three workloads, one load-generating
// process, every answer checked after the timed window.
//
//   ea_fleet    open-loop earliest-arrival requests against a supervised
//               fleet of 2 pconn_shardd shards (1 worker each) mapping one
//               oahu-like snapshot;
//   live_mix    90 % EA / 10 % profile requests against an in-process
//               QueryServer (2 workers) over a LiveOverlay while one
//               updater thread applies a seeded delay feed: open-loop
//               reference windows, closed-loop peak throughput;
//   one_to_all  closed loop of overlay one-to-all profile queries at
//               threads = nproc on losangeles-like (the paper's Table 1).
//
// Usage: perfbench_e2e --workload W --seed N --seconds S --trace 0|1
//                      --out-dir DIR
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics untraced, the per-layer metrics traced.
// Human-readable detail goes to stderr; the traced run also writes its
// spans and per-layer table to DIR. See perfbench/README.md.
#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/partition.hpp"
#include "gen/generator.hpp"
#include "graph/td_graph.hpp"
#include "harness.hpp"
#include "live/delay_feed.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "openloop.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "supervisor/supervisor.hpp"
#include "timetable/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using pconn::Opcode;
using pconn::Status;

// ------------------------------------------------------------ constants
// Fixed per workload so numbers compare across commits; changing any of
// them changes the benchmark (see README.md).

// Set-up runs kSetupRepeats times, kSetupsBefore of them before the timed
// windows and the rest after the answer check, and setup_s is their
// median: a slow spell of the host that covers only part of the run then
// moves it by at most a rank.
constexpr int kSetupRepeats = 11;
constexpr int kSetupsBefore = 6;
// The station pairs and their Zipf popularity are part of the workload,
// like the network: drawn once from kPoolSeed, the same for every --seed.
// The seed draws the requests (which pair when, departures, arrivals,
// the delay feed). A per-seed pool moved capacity by ~10 % between seeds
// through which pairs happened to be hot.
constexpr std::size_t kPairPool = 4096;
constexpr double kZipfS = 0.7;  // skew over the pair pool
constexpr std::uint64_t kPoolSeed = 20100419;
constexpr double kMaxFailedFrac = 0.001;

// ea_fleet
// p99 limit of the capacity search. At 10 % load the p99 of this ~0.15 ms
// request already reaches 4-9 ms in slow spells of a shared virtual host,
// so a 1 ms (or 10 ms) limit measured the host, not the fleet; 25 ms is
// crossed only where the fleet saturates.
constexpr double kEaLimitMs = 25.0;
constexpr double kEaRefQps = 4000.0;   // reference rate
constexpr double kEaCapLo = 8000.0, kEaCapHi = 80000.0;
// Shard request deadline: above the host's longest vCPU stalls (~90 ms),
// which at 50 ms expired requests at the 10 % reference load.
constexpr double kEaDeadlineMs = 200.0;
// live_mix
// Its throughput is the closed-loop peak, not a capacity search: two
// workers serve a mix whose requests differ ~200x in cost, so at the knee
// the queue random-walks over a probe window. On a calm host (<1 % steal)
// one seed's capacity read 1898 and 2770/s in two runs, and a fixed
// 2400/s probe passed in one run and failed in the next (p50 3 vs 127 ms).
// A closed loop with kMixPeakDepth requests in flight per connection keeps
// both workers busy and averages over the whole window instead.
constexpr double kMixRefQps = 500.0;
constexpr unsigned kMixPeakDepth = 2;
constexpr double kMixPeakSchedQps = 20000.0;  // request supply of a peak window
// Reference windows are printed against this p99; no metric depends on it.
constexpr double kMixLimitMs = 100.0;
constexpr double kMixDeadlineMs = 300.0;
constexpr double kMixProfileShare = 0.1;
// The delay feed applies kEventsPerSec events per second of every
// open-loop window (see Feed), from one stream drawn from kFeedSeed.
constexpr double kEventsPerSec = 4.0;
constexpr std::uint64_t kFeedSeed = 20100420;
// one_to_all's tail is p95: a run holds 600-1300 queries depending on the
// host, and p99 needs 1000 for ten samples beyond it. Fixing the
// percentile keeps its meaning the same on a faster or slower commit.
constexpr double kOneToAllTailQ = 0.95;
// one_to_all throughput is the median rate over blocks of this many
// consecutive queries: a parallel query waits for its slowest thread, so
// one descheduled virtual CPU stalls it, and a median of blocks keeps a few
// stalled blocks from setting the run's number.
constexpr std::size_t kOneToAllBlock = 16;
// capacity search
constexpr int kBisectSteps = 6;

// ------------------------------------------------------------- plumbing

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Ordered metric list printed as {"name": {"value": v, "unit": u}}.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> v;
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : v) {
      if (m.first == name) {
        m.second = {value, unit};
        return;
      }
    }
    v.push_back({name, {value, unit}});
  }
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;
  Metrics layer;
};

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// A kB field of /proc/<pid>/status ("self" for pid 0) in MiB; 0 when
/// unreadable.
double status_mb(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + (pid > 0 ? std::to_string(pid) : "self") +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atof(line.c_str() + field.size() + 1) / 1024.0;
    }
  }
  return 0.0;
}


double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Runs fn(t, i) for i in [0, n) on the pool's threads (t = thread index),
/// handing out items one at a time. The pool rethrows the first exception
/// any call throws; the other threads stop at their next item.
void parallel_for(pconn::ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto body = [&](std::size_t t) {
    try {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(t, i);
    } catch (...) {
      next = n;
      throw;
    }
  };
  pool.run(body);
}

// ---------------------------------------------------------- request mix

struct Pair {
  pconn::StationId s, t;
};

/// kPairPool distinct-endpoint station pairs drawn uniformly; requests
/// pick a pair by Zipf rank, so a few pairs are hot and most are cold.
std::vector<Pair> pair_pool(std::size_t stations) {
  pconn::Rng rng(kPoolSeed);
  std::vector<Pair> pool;
  while (pool.size() < kPairPool) {
    const auto s = static_cast<pconn::StationId>(rng.next_below(stations));
    const auto t = static_cast<pconn::StationId>(rng.next_below(stations));
    if (s != t) pool.push_back({s, t});
  }
  return pool;
}

/// The k stations with the most outgoing elementary connections (the most
/// expensive query sources), busiest first.
std::vector<pconn::StationId> busiest_stations(const pconn::Timetable& tt,
                                               std::size_t k) {
  std::vector<pconn::StationId> s(tt.num_stations());
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<pconn::StationId>(i);
  std::stable_sort(s.begin(), s.end(), [&](auto a, auto b) {
    return tt.outgoing(a).size() > tt.outgoing(b).size();
  });
  s.resize(std::min(k, s.size()));
  return s;
}

/// Poisson schedule at `rate` over `seconds`, requests spread round-robin
/// over `conns` connections; a `profile_share` of them ask for profiles.
std::vector<Request> make_schedule(double rate, double seconds,
                                   unsigned conns, const std::vector<Pair>& pool,
                                   const ZipfSampler& zipf, pconn::Time period,
                                   double profile_share, pconn::Rng& rng) {
  std::vector<Request> reqs;
  const std::vector<std::int64_t> due = poisson_schedule(rate, seconds, rng);
  reqs.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const Pair& p = pool[zipf.sample(rng)];
    Request r;
    r.conn = static_cast<std::uint32_t>(i % conns);
    r.due_ns = due[i];
    if (rng.next_double() < profile_share) {
      r.op = Opcode::kProfile;
      r.a = p.s;
      r.b = p.t;
    } else {
      r.op = Opcode::kEarliestArrival;
      r.a = p.s;
      r.b = static_cast<std::uint32_t>(rng.next_below(period));
      r.c = p.t;
    }
    reqs.push_back(r);
  }
  return reqs;
}

/// Open-loop numbers of one window.
struct WindowStats {
  std::size_t n = 0, ok = 0, failed = 0;
  double p50_ms = 0, tail_ms = 0, tail_q = 0;
  double ea_p50_ms = 0, ea_tail_ms = 0, prof_p50_ms = 0, prof_tail_ms = 0;
  double late_p99_ms = 0;
  double backlog_slope = 0;  // requests per second
  double achieved_qps = 0;
  bool pass = false;
};

/// Least-squares growth rate (requests/s) of the outstanding requests
/// (due, not yet answered), sampled at 40 instants of the window.
double window_backlog_slope(const Window& w) {
  std::vector<std::int64_t> due, done;
  for (std::size_t i = 0; i < w.reqs.size(); ++i) {
    due.push_back(w.reqs[i].due_ns);
    if (w.recs[i].done_ns >= 0) done.push_back(w.recs[i].done_ns);
  }
  std::sort(due.begin(), due.end());
  std::sort(done.begin(), done.end());
  std::vector<double> ts, outstanding;
  const std::int64_t span = due.empty() ? 0 : due.back();
  for (int k = 1; k <= 40; ++k) {
    const std::int64_t t = span * k / 40;
    const auto a = std::upper_bound(due.begin(), due.end(), t) - due.begin();
    const auto d = std::upper_bound(done.begin(), done.end(), t) - done.begin();
    ts.push_back(static_cast<double>(t) / 1e9);
    outstanding.push_back(static_cast<double>(a - d));
  }
  return backlog_slope(ts, outstanding);
}

/// Stats over one or more windows at one rate, pooled in due order: the
/// tail is the blocked p99 of the pooled sample, the backlog slope the
/// median of the windows' slopes.
WindowStats window_stats(const std::vector<const Window*>& ws,
                         double limit_ms) {
  WindowStats st;
  // Latencies in due order; a request that failed misses every limit and
  // counts as +inf.
  constexpr double kMiss = 1e300;
  std::vector<double> all, ea, prof, late, slopes;
  double seconds = 0;
  for (const Window* wp : ws) {
    const Window& w = *wp;
    st.n += w.reqs.size();
    seconds += w.seconds;
    slopes.push_back(window_backlog_slope(w));
    for (std::size_t i = 0; i < w.reqs.size(); ++i) {
      if (w.recs[i].sent_ns >= 0) {
        late.push_back(
            static_cast<double>(w.recs[i].sent_ns - w.reqs[i].due_ns) / 1e6);
      }
      const double l = w.ok(i) ? w.latency_ms(i) : kMiss;
      if (w.ok(i)) {
        ++st.ok;
      } else {
        ++st.failed;
      }
      all.push_back(l);
      (w.reqs[i].op == Opcode::kProfile ? prof : ea).push_back(l);
    }
  }
  st.tail_q = 0.99;
  st.p50_ms = quantile(all, 0.5);
  st.tail_ms = blocked_quantile(all, st.tail_q);
  st.ea_p50_ms = quantile(ea, 0.5);
  st.ea_tail_ms = blocked_quantile(ea, supported_quantile(ea.size(), 0.99));
  st.prof_p50_ms = quantile(prof, 0.5);
  st.prof_tail_ms = blocked_quantile(prof, supported_quantile(prof.size(), 0.99));
  st.late_p99_ms = quantile(late, supported_quantile(late.size(), 0.99));
  st.backlog_slope = median(slopes);
  st.achieved_qps = seconds > 0 ? static_cast<double>(st.ok) / seconds : 0;
  // Growth over one window's length, against 1 % of its requests + 20.
  const double per_window = ws.empty() ? 0 : seconds / ws.size();
  const double growth = st.backlog_slope * per_window;
  const bool backlog_ok =
      growth <= 20.0 + 0.01 * static_cast<double>(st.n) / std::max<std::size_t>(1, ws.size());
  const double failed_frac =
      st.n ? static_cast<double>(st.failed) / static_cast<double>(st.n) : 1.0;
  st.pass = st.n > 0 && failed_frac <= kMaxFailedFrac &&
            st.tail_ms <= limit_ms && backlog_ok;
  return st;
}

WindowStats window_stats(const Window& w, double limit_ms) {
  return window_stats(std::vector<const Window*>{&w}, limit_ms);
}

void print_window(const char* what, double rate, const WindowStats& st) {
  std::fprintf(stderr,
               "  %-10s rate %8.1f/s  n %7zu  failed %5zu  p50 %8.3f ms  "
               "p%-5g %9.3f ms  late.p99 %6.3f ms  backlog %+8.1f/s  %s\n",
               what, rate, st.n, st.failed, st.p50_ms, st.tail_q * 100,
               st.tail_ms >= 1e299 ? -1.0 : st.tail_ms, st.late_p99_ms,
               st.backlog_slope, st.pass ? "pass" : "FAIL");
}

/// req_ids are unique per run, so a late answer never matches a request of
/// a later window. The queue-depth sampler takes ids from its own thread.
std::atomic<std::uint32_t> g_next_id{1};

/// Runs `reqs` as one window on `conns`, then waits until the server has
/// answered everything sent on every connection, so an overloaded probe
/// never leaks its backlog into the next window.
Window open_loop(std::vector<Conn*>& conns, std::vector<Request> reqs,
                 double grace_ms, Tracer* tracer = nullptr) {
  Window w;
  w.reqs = std::move(reqs);
  const std::uint32_t base =
      g_next_id.fetch_add(static_cast<std::uint32_t>(w.reqs.size()) + 1);
  run_window(conns, w, base, grace_ms, tracer);
  for (Conn* c : conns) (void)c->rpc(pconn::encode_ping(g_next_id++), 5000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return w;
}

/// Per-layer metric names, each reported by every traced run (0 where the
/// workload does not run that layer; README.md lists which workload
/// measures which metric).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"server.ping_p50_us", "us"},
    {"server.ping_p99_us", "us"},
    {"server.overhead_us", "us"},
    {"server.side_p99_us", "us"},
    {"server.queue_depth_p99", "count"},
    {"server.shed", "count"},
    {"server.deadline_expired", "count"},
    {"server.malformed", "count"},
    {"protocol.encode_ns", "ns"},
    {"protocol.decode_ns", "ns"},
    {"protocol.profile_bytes_mean", "bytes"},
    {"supervisor.ready_ms", "ms"},
    {"supervisor.conn_balance", "ratio"},
    {"supervisor.reconnects", "count"},
    {"supervisor.recovery_ms", "ms"},
    {"supervisor.chaos_failed", "count"},
    {"live.apply_ms_p50", "ms"},
    {"live.apply_ms_p99", "ms"},
    {"live.relink_frac", "ratio"},
    {"live.recontract_frac", "ratio"},
    {"live.degraded_frac", "ratio"},
    {"live.affected_shortcuts_mean", "count"},
    {"live.retired_pinned_max", "count"},
    {"live.rewarm_us", "us"},
    {"live.staleness_ms", "ms"},
    {"algo.ea_us_p50", "us"},
    {"algo.ea_us_p99", "us"},
    {"algo.ea_settled_mean", "count"},
    {"algo.profile_ms_p50", "ms"},
    {"algo.profile_ms_p99", "ms"},
    {"algo.profile_settled_mean", "count"},
    {"algo.profile_relaxed_mean", "count"},
    {"algo.ea_share", "ratio"},
    {"algo.profile_share", "ratio"},
    {"algo.self_prune_frac", "ratio"},
    {"algo.spcs_thread_balance", "ratio"},
    {"algo.partition_conn_skew", "ratio"},
    {"algo.spcs_speedup", "ratio"},
    {"algo.contract_ms", "ms"},
    {"graph.relax_ns_per_edge", "ns"},
    {"graph.ttf_eval_ns", "ns"},
    {"timetable.snapshot_save_ms", "ms"},
    {"timetable.snapshot_load_ms", "ms"},
    {"timetable.snapshot_bytes", "bytes"},
    {"gen.network_ms", "ms"},
    {"process.rss_mb", "MiB"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.backlog_slope", "1/s"},
    {"loadgen.ea_p50_ms", "ms"},
    {"loadgen.ea_p99_ms", "ms"},
    {"loadgen.profile_p50_ms", "ms"},
    {"loadgen.profile_p99_ms", "ms"},
    {"loadgen.p50_ms", "ms"},
    {"loadgen.tail_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

void set_layer(Outcome& o, const std::string& name, double v) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (name == n) {
      o.layer.set(name, v, unit);
      return;
    }
  }
  std::fprintf(stderr, "internal: unknown layer metric %s\n", name.c_str());
  std::exit(3);
}

/// Durations (ms) of every span with this name.
std::vector<double> span_ms(const Tracer& tr, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : tr.spans()) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

/// Times TdGraph::ttfs().eval over seeded (function, time) pairs.
double ttf_eval_ns(const pconn::TdGraph& g, pconn::Rng& rng, Tracer& tr) {
  const pconn::TtfPool& pool = g.ttfs();
  if (pool.size() == 0) return 0.0;
  constexpr std::size_t kEvals = 200'000;
  std::vector<std::pair<std::uint32_t, pconn::Time>> pts(kEvals);
  for (auto& p : pts) {
    p.first = static_cast<std::uint32_t>(rng.next_below(pool.size()));
    p.second = static_cast<pconn::Time>(rng.next_below(pool.period() * 2));
  }
  std::uint64_t sum = 0;
  SpanScope span(tr, "graph.ttf_eval");
  const std::int64_t t0 = now_ns();
  for (const auto& [f, t] : pts) sum += pool.eval(f, t);
  const double ns = static_cast<double>(now_ns() - t0) / kEvals;
  volatile std::uint64_t sink = sum;  // keeps the loop
  (void)sink;
  return ns;
}

/// Per-layer numbers of the server path that need no engine: 3000 kPing
/// round trips through BlockingClient, and the protocol encoders and
/// decode_response timed over one window's own frames.
void server_path_layers(std::uint16_t port, const Window& w, Tracer& tr,
                        Outcome& o) {
  {
    pconn::BlockingClient client("127.0.0.1", port);
    std::vector<double> us;
    for (int i = 0; i < 3000; ++i) {
      SpanScope s(tr, "server.ping");
      const std::int64_t t0 = now_ns();
      (void)client.ping();
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    set_layer(o, "server.ping_p50_us", quantile(us, 0.5));
    set_layer(o, "server.ping_p99_us", quantile(us, 0.99));
  }
  if (w.reqs.empty()) return;
  {
    std::size_t bytes = 0;
    SpanScope span(tr, "protocol.encode");
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < w.reqs.size(); ++i) {
      bytes += encode_request(w.reqs[i], static_cast<std::uint32_t>(i)).size();
    }
    set_layer(o, "protocol.encode_ns", static_cast<double>(now_ns() - t0) /
                                           static_cast<double>(w.reqs.size()));
    volatile std::size_t sink = bytes;  // keeps the loop
    (void)sink;
  }
  {
    std::size_t decoded = 0;
    SpanScope span(tr, "protocol.decode");
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < w.reqs.size(); ++i) {
      if (w.recs[i].done_ns < 0) continue;
      const std::string_view p = w.payload(i);
      decoded += pconn::decode_response(p.data(), p.size()).has_value();
    }
    set_layer(o, "protocol.decode_ns",
              decoded ? static_cast<double>(now_ns() - t0) / decoded : 0.0);
  }
  std::vector<double> prof_bytes;
  for (std::size_t i = 0; i < w.reqs.size(); ++i) {
    if (w.ok(i) && w.reqs[i].op == Opcode::kProfile) {
      prof_bytes.push_back(w.recs[i].payload_len);
    }
  }
  set_layer(o, "protocol.profile_bytes_mean", mean(prof_bytes));
}

pconn::ResponseHeader ok_header(Opcode op, std::uint32_t req_id,
                                std::uint64_t epoch, bool degraded) {
  pconn::ResponseHeader h;
  h.status = Status::kOk;
  h.opcode = op;
  h.req_id = req_id;
  h.epoch = epoch;
  h.degraded = degraded;
  return h;
}

/// Connections from the generator to the server under test.
struct ConnSet {
  std::vector<std::unique_ptr<Conn>> owned;
  std::vector<Conn*> ptrs() const {
    std::vector<Conn*> p;
    for (const auto& c : owned) p.push_back(c.get());
    return p;
  }
};

/// kStats counters as seen through one connection (its shard's).
std::optional<pconn::DecodedResponse> stats_via(Conn& c) {
  const auto p = c.rpc(pconn::encode_stats(g_next_id++));
  if (!p) return std::nullopt;
  auto d = pconn::decode_response(p->data(), p->size());
  if (!d || d->header.status != Status::kOk) return std::nullopt;
  return d;
}

/// Groups connections by the shard that serves them, from outside: a
/// burst of pings on one connection moves the requests_ok counter of
/// exactly the connections that share its shard.
std::vector<int> classify_shards(std::vector<Conn*> conns) {
  constexpr int kBurst = 64;
  std::vector<int> group(conns.size(), -1);
  int next_group = 0;
  for (std::size_t r = 0; r < conns.size(); ++r) {
    if (group[r] >= 0) continue;
    std::vector<std::uint64_t> before(conns.size(), 0);
    for (std::size_t i = r; i < conns.size(); ++i) {
      if (group[i] >= 0) continue;
      if (auto s = stats_via(*conns[i])) before[i] = s->stats[0];
    }
    for (int k = 0; k < kBurst; ++k) (void)conns[r]->rpc(pconn::encode_ping(g_next_id++));
    for (std::size_t i = r; i < conns.size(); ++i) {
      if (group[i] >= 0) continue;
      const auto s = stats_via(*conns[i]);
      if (s && s->stats[0] - before[i] >= kBurst) group[i] = next_group;
    }
    group[r] = next_group++;
  }
  return group;
}

/// Fixed rates and limits of one open-loop workload. With peak_depth > 0
/// the throughput is the closed-loop peak at that depth per connection,
/// fed from a schedule at cap_hi; otherwise it is the capacity searched
/// over [cap_lo, cap_hi].
struct OpenLoopPlan {
  double ref_qps, limit_ms, cap_lo, cap_hi, grace_ms;
  unsigned peak_depth = 0;
};

/// The load phase of a workload: kRefWindows reference windows at the
/// fixed reference rate, interleaved with the throughput windows (capacity
/// probes or closed-loop peak windows) so that a slow spell of the host
/// lands in a few windows of each kind rather than in all of one. A traced
/// run skips the throughput windows and replays each reference schedule
/// with spans right after its untraced window, so both see the same host.
/// Every window's answers are kept for the check.
struct OpenLoop {
  std::vector<Window> windows;
  std::vector<std::size_t> ref;                     // reference windows
  std::vector<std::size_t> traced;                  // their traced replays
  std::vector<std::vector<Request>> ref_schedules;
  WindowStats ref_stats;                            // pooled over ref
  WindowStats traced_stats;                         // pooled over traced
  double throughput_qps = 0;                        // the e2e number
};

constexpr int kRefWindows = 6;
constexpr int kPeakWindows = 6;  // one after each reference window

/// Runs `reqs` in order as one closed-loop window of `seconds` with `depth`
/// requests in flight per connection, then drains like open_loop().
Window closed_loop(std::vector<Conn*>& conns, const std::vector<Request>& reqs,
                   unsigned depth, double seconds, double grace_ms) {
  Window w;
  const std::uint32_t base =
      g_next_id.fetch_add(static_cast<std::uint32_t>(reqs.size()) + 1);
  std::size_t i = 0;
  run_closed_window(conns, w, base, reqs.size(), depth, seconds, grace_ms,
                    [&] { return reqs[i++]; });
  if (w.reqs.size() == reqs.size()) {
    std::fprintf(stderr, "  warning: the closed loop ran out of requests\n");
  }
  for (Conn* c : conns) (void)c->rpc(pconn::encode_ping(g_next_id++), 5000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return w;
}

std::vector<const Window*> pick(const std::vector<Window>& ws,
                                const std::vector<std::size_t>& idx) {
  std::vector<const Window*> out;
  for (const std::size_t i : idx) out.push_back(&ws[i]);
  return out;
}

/// Work that runs beside every window of the load phase: start(seconds)
/// just before the window, stop() once the window has drained. Empty by
/// default.
struct SideLoad {
  std::function<void(double)> start;
  std::function<void()> stop;
};

OpenLoop run_open_loop(
    std::vector<Conn*>& conns, const Args& a, const OpenLoopPlan& plan,
    const std::function<std::vector<Request>(double, double)>& schedule,
    Tracer& tr, const SideLoad& side = {}) {
  OpenLoop ol;
  // Runs one window of `secs` with the side load beside it; its index.
  auto beside = [&](double secs, const std::function<Window()>& run) {
    if (side.start) side.start(secs);
    ol.windows.push_back(run());
    if (side.stop) side.stop();
    return ol.windows.size() - 1;
  };
  auto window = [&](std::vector<Request> reqs, double secs, Tracer* tracer) {
    return beside(secs, [&] {
      return open_loop(conns, std::move(reqs), plan.grace_ms, tracer);
    });
  };
  window(schedule(plan.ref_qps, 1.0), 1.0, nullptr);
  // A quarter of the run for the reference windows, the rest for the
  // throughput windows: throughput is the end-to-end number, and a longer
  // window measures it with less noise.
  const double ref_s = a.seconds * 0.25 / kRefWindows;
  auto reference = [&] {
    ol.ref_schedules.push_back(schedule(plan.ref_qps, ref_s));
    ol.ref.push_back(window(ol.ref_schedules.back(), ref_s, nullptr));
    print_window("reference", plan.ref_qps,
                 window_stats(ol.windows.back(), plan.limit_ms));
    if (a.trace) ol.traced.push_back(window(ol.ref_schedules.back(), ref_s, &tr));
  };
  int refs = 0;
  if (!a.trace && plan.peak_depth > 0) {
    // Requests for a closed-loop window come from a schedule far denser
    // than any reachable peak; only their order is used.
    const double peak_s = a.seconds * 0.75 / kPeakWindows;
    std::vector<double> rates;
    for (int k = 0; k < kPeakWindows; ++k) {
      if (refs < kRefWindows) {
        reference();
        ++refs;
      }
      const std::vector<Request> reqs = schedule(plan.cap_hi, peak_s);
      const Window& w = ol.windows[beside(peak_s, [&] {
        return closed_loop(conns, reqs, plan.peak_depth, peak_s, plan.grace_ms);
      })];
      std::size_t ok = 0, failed = 0;
      for (std::size_t i = 0; i < w.reqs.size(); ++i) {
        if (!w.ok(i)) {
          ++failed;
        } else if (w.recs[i].done_ns <= static_cast<std::int64_t>(peak_s * 1e9)) {
          ++ok;
        }
      }
      rates.push_back(static_cast<double>(ok) / peak_s);
      std::fprintf(stderr, "  peak       depth %u x %zu  n %7zu  failed %5zu  %8.1f ok/s\n",
                   plan.peak_depth, conns.size(), w.reqs.size(), failed,
                   rates.back());
    }
    ol.throughput_qps = median(rates);
    std::fprintf(stderr, "  peak throughput %.1f/s (median of %d windows)\n",
                 ol.throughput_qps, kPeakWindows);
  } else if (!a.trace) {
    // Room for kBisectSteps probes plus three retries.
    const double probe_s = a.seconds * 0.75 / (kBisectSteps + 3);
    const Capacity cap = bisect_capacity(
        plan.cap_lo, plan.cap_hi, kBisectSteps, [&](double r) {
          if (refs < kRefWindows) {
            reference();
            ++refs;
          }
          window(schedule(r, probe_s), probe_s, nullptr);
          const WindowStats st = window_stats(ol.windows.back(), plan.limit_ms);
          print_window("probe", r, st);
          return Probe{st.pass, st.achieved_qps};
        });
    std::fprintf(stderr, "  capacity %.1f/s (achieved %.1f/s) after %d probes\n",
                 cap.rate, cap.achieved_qps, cap.probes);
    ol.throughput_qps = cap.achieved_qps;
  }
  for (; refs < kRefWindows; ++refs) reference();
  ol.ref_stats = window_stats(pick(ol.windows, ol.ref), plan.limit_ms);
  print_window("ref.pooled", plan.ref_qps, ol.ref_stats);
  if (a.trace) {
    ol.traced_stats = window_stats(pick(ol.windows, ol.traced), plan.limit_ms);
    print_window("traced", plan.ref_qps, ol.traced_stats);
  }
  return ol;
}

/// Samples the server's queue depth through kStats on a spare connection
/// every 5 ms until stopped.
class DepthSampler {
 public:
  explicit DepthSampler(std::uint16_t port)
      : conn_(port), thread_([this] { run(); }) {}
  ~DepthSampler() { stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  std::vector<double> stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return depth_;
  }

 private:
  void run() {
    while (!stop_.load()) {
      if (auto s = stats_via(conn_)) depth_.push_back(static_cast<double>(s->stats[4]));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  Conn conn_;
  std::atomic<bool> stop_{false};
  std::vector<double> depth_;
  std::thread thread_;  // declared last: it uses the members above
};

// ============================================================ ea_fleet

Outcome run_ea_fleet(const Args& a, Tracer& tr) {
  Outcome o;
  const std::string snap = a.out_dir + "/ea_fleet-" +
                           std::to_string(::getpid()) + ".pcsn";
  std::unique_ptr<pconn::ShardSupervisor> sup;
  pconn::Timetable tt;
  std::vector<double> setup_s;
  std::uint64_t snap_bytes = 0;
  auto set_up = [&] {
    sup.reset();
    const std::int64_t t0 = now_ns();
    SpanScope setup(tr, "setup");
    {
      SpanScope s(tr, "gen.network", setup.id());
      tt = pconn::gen::make_preset(pconn::gen::Preset::kOahuLike, 1.0, 1);
    }
    pconn::OverlayGraph ov;
    {
      SpanScope s(tr, "algo.contract", setup.id());
      const pconn::TdGraph g = pconn::TdGraph::build(tt);
      ov = pconn::contract_graph(tt, g);
    }
    {
      SpanScope s(tr, "timetable.snapshot_save", setup.id());
      pconn::save_snapshot(tt, &ov, snap);
    }
    {
      SpanScope s(tr, "supervisor.ready", setup.id());
      pconn::SupervisorOptions so;
      so.shards = 2;
      so.shard_workers = 1;
      so.snapshot_path = snap;
      so.heartbeat_interval_ms = 10.0;
      so.restart_backoff_ms = 10.0;
      so.restart_backoff_cap_ms = 200.0;
      so.request_deadline_ms = kEaDeadlineMs;
      sup = std::make_unique<pconn::ShardSupervisor>(so);
      sup->start();
      if (!sup->wait_healthy(2, 15'000.0)) {
        throw std::runtime_error("fleet did not become healthy");
      }
    }
    pconn::BlockingClient first("127.0.0.1", sup->port());
    const auto pong = first.ping();
    if (!pong || pong->header.status != Status::kOk) {
      throw std::runtime_error("first ping failed");
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  };
  for (int k = 0; k < kSetupsBefore; ++k) set_up();
  snap_bytes = std::filesystem::file_size(snap);

  // Oracle over the same snapshot, loaded the way the shards load it.
  std::unique_ptr<pconn::LiveOverlay> live;
  {
    SpanScope s(tr, "timetable.snapshot_load");
    pconn::MappedSnapshot mapped(snap);
    live = std::make_unique<pconn::LiveOverlay>(mapped.load_timetable(),
                                                mapped.load_overlay());
  }

  // Connections, placed by SO_REUSEPORT; measure the placement, then
  // reconnect until both shards hold the same number.
  const unsigned nconn = std::min(4u, nproc());
  ConnSet cs;
  for (unsigned c = 0; c < nconn; ++c) {
    cs.owned.push_back(std::make_unique<Conn>(sup->port()));
  }
  std::vector<int> group = classify_shards(cs.ptrs());
  auto balance = [&](const std::vector<int>& g) {
    std::map<int, int> count;
    for (int x : g) ++count[x];
    if (count.size() < 2) return 0.0;
    int lo = 1 << 30, hi = 0;
    for (auto& [k, v] : count) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return static_cast<double>(lo) / hi;
  };
  const double initial_balance = balance(group);
  int reconnects = 0;
  const double target = nconn % 2 ? static_cast<double>(nconn / 2) /
                                        (nconn / 2 + 1)
                                  : 1.0;
  while (nconn >= 2 && balance(group) < target && reconnects < 64) {
    std::map<int, int> count;
    for (int x : group) ++count[x];
    int big = group[0];
    for (auto& [k, v] : count) {
      if (v > count[big]) big = k;
    }
    const std::size_t victim =
        std::find(group.begin(), group.end(), big) - group.begin();
    cs.owned[victim] = std::make_unique<Conn>(sup->port());
    ++reconnects;
    group = classify_shards(cs.ptrs());
  }
  std::fprintf(stderr,
               "ea_fleet: %u connections, initial balance %.2f, %d "
               "reconnects to balance\n",
               nconn, initial_balance, reconnects);
  std::vector<Conn*> conns = cs.ptrs();

  pconn::Rng rng(a.seed * 0x100000001b3ull + 11);
  const std::vector<Pair> pool = pair_pool(tt.num_stations());
  const ZipfSampler zipf(pool.size(), kZipfS);
  auto schedule = [&](double rate, double secs) {
    return make_schedule(rate, secs, nconn, pool, zipf, tt.period(), 0.0, rng);
  };

  const OpenLoopPlan plan{kEaRefQps, kEaLimitMs, kEaCapLo, kEaCapHi,
                          kEaDeadlineMs * 2};
  std::unique_ptr<DepthSampler> sampler;
  if (a.trace) sampler = std::make_unique<DepthSampler>(sup->port());
  OpenLoop ol = run_open_loop(conns, a, plan, schedule, tr);
  const std::vector<double> depth = sampler ? sampler->stop() : std::vector<double>{};
  std::vector<Window>& windows = ol.windows;  // every answer is checked
  const WindowStats ref = ol.ref_stats;
  std::vector<Request> ref_reqs;
  for (const auto& reqs : ol.ref_schedules) {
    ref_reqs.insert(ref_reqs.end(), reqs.begin(), reqs.end());
  }
  double rss = 0;
  for (unsigned i = 0; i < sup->shard_count(); ++i) {
    rss += status_mb(sup->shard_pid(i), "VmHWM");
  }

  // Per-layer probes of the traced run.
  if (a.trace) {
    const WindowStats& tst = ol.traced_stats;
    const std::vector<std::size_t>& traced = ol.traced;
    set_layer(o, "trace.overhead_ms", tst.p50_ms - ref.p50_ms);
    set_layer(o, "server.queue_depth_p99",
              quantile(depth, supported_quantile(depth.size(), 0.99)));

    server_path_layers(sup->port(), windows[traced.front()], tr, o);
    // Direct engine replay of the reference requests.
    {
      pconn::LiveQuerySession s(*live);
      std::vector<double> us;
      double settled = 0, relaxed = 0, engine_ns = 0;
      for (const Request& r : ref_reqs) (void)s.earliest_arrival(r.a, r.b, r.c);
      for (const Request& r : ref_reqs) {
        SpanScope span(tr, "algo.ea");
        const std::int64_t t0 = now_ns();
        (void)s.earliest_arrival(r.a, r.b, r.c);
        const std::int64_t dt = now_ns() - t0;
        us.push_back(static_cast<double>(dt) / 1e3);
        const pconn::QueryStats& qs =
            s.session().overlay_time_engine(*s.pinned().overlay).stats();
        settled += static_cast<double>(qs.settled);
        relaxed += static_cast<double>(qs.relaxed);
        engine_ns += static_cast<double>(dt);
      }
      const double p50 = quantile(us, 0.5);
      set_layer(o, "algo.ea_us_p50", p50);
      set_layer(o, "algo.ea_us_p99", quantile(us, 0.99));
      set_layer(o, "algo.ea_settled_mean", settled / ref_reqs.size());
      set_layer(o, "graph.relax_ns_per_edge", relaxed > 0 ? engine_ns / relaxed : 0);
      set_layer(o, "server.overhead_us", tst.ea_p50_ms * 1e3 - p50);
      set_layer(o, "algo.ea_share", p50 / (tst.ea_p50_ms * 1e3));
    }
    {
      const pconn::TdGraph g = pconn::TdGraph::build(tt);
      set_layer(o, "graph.ttf_eval_ns", ttf_eval_ns(g, rng, tr));
    }
    // Shard counters, summed over one connection per shard.
    {
      std::map<int, pconn::DecodedResponse> per_shard;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (per_shard.count(group[i])) continue;
        if (auto s = stats_via(*conns[i])) per_shard[group[i]] = *s;
      }
      double shed = 0, dead = 0, mal = 0;
      for (auto& [k, d] : per_shard) {
        shed += static_cast<double>(d.stats[1]);
        dead += static_cast<double>(d.stats[2]);
        mal += static_cast<double>(d.stats[3]);
      }
      set_layer(o, "server.shed", shed);
      set_layer(o, "server.deadline_expired", dead);
      set_layer(o, "server.malformed", mal);
    }
    // Recovery, outside every timed window: SIGKILL shard 0 under a
    // closed-loop retrying client and time until the fleet is whole.
    {
      std::atomic<bool> stop_load{false};
      std::atomic<std::uint64_t> lost{0}, wrong{0};
      pconn::LiveQuerySession oracle(*live);
      std::vector<std::pair<Request, pconn::Time>> cases;
      for (std::size_t i = 0; i < 256 && i < ref_reqs.size(); ++i) {
        cases.push_back({ref_reqs[i], oracle.earliest_arrival(
                                          ref_reqs[i].a, ref_reqs[i].b,
                                          ref_reqs[i].c)});
      }
      std::thread loader([&] {
        pconn::RetryPolicy pol;
        pol.max_attempts = 8;
        pol.backoff_cap_ms = 100.0;
        pconn::RetryingClient client("127.0.0.1", sup->port(), pol, 2000.0);
        for (std::size_t i = 0; !stop_load.load(); i = (i + 1) % cases.size()) {
          const auto& [r, arr] = cases[i];
          const auto d = client.earliest_arrival(r.a, r.b, r.c);
          if (!d) {
            ++lost;
          } else if (d->header.status != Status::kOk || d->arrival != arr) {
            ++wrong;
          }
        }
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const pid_t victim = sup->shard_pid(0);
      SpanScope span(tr, "supervisor.recovery");
      const std::int64_t t0 = now_ns();
      double rec_ms = -1;
      if (victim > 0) ::kill(victim, SIGKILL);
      while (ms_since(t0) < 10'000.0) {
        const pid_t p = sup->shard_pid(0);
        if (p > 0 && p != victim && sup->healthy_shards() == 2) {
          rec_ms = ms_since(t0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      stop_load = true;
      loader.join();
      set_layer(o, "supervisor.recovery_ms", rec_ms);
      set_layer(o, "supervisor.chaos_failed",
                static_cast<double>(lost.load() + wrong.load()));
      if (wrong.load() != 0) {
        std::fprintf(stderr, "ea_fleet: %llu wrong answers during recovery\n",
                     static_cast<unsigned long long>(wrong.load()));
        o.correct = false;
      }
    }
    set_layer(o, "supervisor.conn_balance", initial_balance);
    set_layer(o, "supervisor.reconnects", reconnects);
    set_layer(o, "loadgen.late_p99_ms", tst.late_p99_ms);
    set_layer(o, "loadgen.backlog_slope", tst.backlog_slope);
    set_layer(o, "loadgen.ea_p50_ms", tst.ea_p50_ms);
    set_layer(o, "loadgen.ea_p99_ms", tst.ea_tail_ms);
    set_layer(o, "loadgen.p50_ms", ref.p50_ms);
    set_layer(o, "loadgen.tail_ms", ref.tail_ms);
  }
  sup->stop();
  sup.reset();

  // Answer check, outside every window: each kOk response must equal,
  // byte for byte, the encoded answer of a direct session on the snapshot.
  std::vector<std::pair<std::size_t, std::size_t>> todo;  // (window, req)
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (std::size_t i = 0; i < windows[w].reqs.size(); ++i) {
      if (windows[w].ok(i)) todo.push_back({w, i});
    }
  }
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::unique_ptr<pconn::LiveQuerySession>> sessions;
  const unsigned threads = nproc();
  for (unsigned t = 0; t < threads; ++t) {
    sessions.push_back(std::make_unique<pconn::LiveQuerySession>(*live));
  }
  pconn::ThreadPool workers(threads);
  parallel_for(workers, todo.size(), [&](std::size_t t, std::size_t k) {
    const auto [wi, i] = todo[k];
    const Window& w = windows[wi];
    const Request& r = w.reqs[i];
    pconn::LiveQuerySession& s = *sessions[t];
    const pconn::Time arr = s.earliest_arrival(r.a, r.b, r.c);
    const std::string want =
        pconn::encode_ea_response(
            ok_header(Opcode::kEarliestArrival, w.id_base + i, s.epoch(),
                      s.serving_degraded()),
            arr)
            .substr(pconn::kFrameHeaderBytes);
    if (w.payload(i) != want) ++mismatches;
  });
  std::fprintf(stderr, "  checked %zu answers: %llu mismatches\n", todo.size(),
               static_cast<unsigned long long>(mismatches.load()));
  if (mismatches.load() != 0) o.correct = false;
  for (int k = kSetupsBefore; k < kSetupRepeats; ++k) set_up();
  sup->stop();
  sup.reset();
  std::remove(snap.c_str());

  o.attempted = ref.n;
  o.failed = ref.failed;
  o.e2e.set("setup_s", median(setup_s), "s");
  o.e2e.set("throughput_qps", ol.throughput_qps, "1/s");
  if (a.trace) set_layer(o, "process.rss_mb", rss);
  if (a.trace) {
    set_layer(o, "gen.network_ms", median(span_ms(tr, "gen.network")));
    set_layer(o, "algo.contract_ms", median(span_ms(tr, "algo.contract")));
    set_layer(o, "timetable.snapshot_save_ms",
              median(span_ms(tr, "timetable.snapshot_save")));
    set_layer(o, "timetable.snapshot_load_ms",
              median(span_ms(tr, "timetable.snapshot_load")));
    set_layer(o, "timetable.snapshot_bytes", static_cast<double>(snap_bytes));
    set_layer(o, "supervisor.ready_ms", median(span_ms(tr, "supervisor.ready")));
  }
  return o;
}

// ============================================================ live_mix

/// One seeded delay-feed event against the currently published timetable
/// (trip ids refer to it): 1 in 40 cancels a trip, 1 in 40 adds a relief
/// run 3-9 minutes behind an existing one, the rest delay a trip by 1-5.5
/// minutes from one of its stops.
pconn::DelayEvent next_event(pconn::Rng& rng, const pconn::Timetable& tt) {
  const double u = rng.next_double();
  const auto train = static_cast<pconn::TrainId>(rng.next_below(tt.num_trips()));
  const pconn::Trip& trip = tt.trip(train);
  if (u < 0.025) return pconn::DelayEvent::cancelled(train);
  const pconn::Route& route = tt.route(trip.route);
  if (u < 0.05) {
    const auto shift = static_cast<pconn::Time>(180 + 60 * rng.next_below(7));
    std::vector<pconn::TimetableBuilder::StopTime> stops;
    for (std::size_t k = 0; k < route.stops.size(); ++k) {
      stops.push_back({route.stops[k], trip.arrivals[k] + shift,
                       trip.departures[k] + shift});
    }
    return pconn::DelayEvent::extra_trip(std::move(stops));
  }
  const auto from = static_cast<std::uint32_t>(rng.next_below(route.stops.size() - 1));
  return pconn::DelayEvent::delayed(
      train, from, static_cast<pconn::Time>(60 + 30 * rng.next_below(10)));
}

struct Applied {
  pconn::DelayEvent event;
  std::int64_t start_ns = 0, end_ns = 0;  // absolute
  pconn::ApplyStatus status = pconn::ApplyStatus::kRejected;
  std::uint64_t epoch = 0;
  std::uint32_t affected_shortcuts = 0;
  std::size_t retired_pinned = 0;
};

/// The single writer of live_mix: one seeded stream of delay-feed events,
/// applied by an updater thread beside each window of the load phase. A
/// window of S seconds gets round(kEventsPerSec * S) events, due at evenly
/// spaced instants across it, so every window of a kind carries the same
/// write load. An event that falls behind runs late rather than being
/// dropped, and stop() waits for the window's last one. The log keeps
/// every applied event for the replay check.
class Feed {
 public:
  Feed(pconn::LiveOverlay& live, Tracer& tr)
      : live_(live), tr_(tr), rng_(kFeedSeed) {}
  ~Feed() {
    if (thread_.joinable()) thread_.join();
  }
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  void start(double seconds) {
    const long n = std::max(1L, std::lround(kEventsPerSec * seconds));
    const std::int64_t t0 = now_ns();
    const double gap_ns = seconds * 1e9 / static_cast<double>(n);
    thread_ = std::thread([this, n, t0, gap_ns] {
      try {
        for (long k = 0; k < n; ++k) {
          std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
              t0 + static_cast<std::int64_t>((static_cast<double>(k) + 0.5) * gap_ns))));
          apply_next();
        }
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  /// Joins the window's updater and rethrows what it threw.
  void stop() {
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(error_);
  }
  const std::vector<Applied>& log() const { return log_; }

 private:
  void apply_next() {
    Applied e;
    e.event = next_event(rng_, *live_.snapshot()->tt);
    SpanScope span(tr_, "live.apply");
    e.start_ns = now_ns();
    const pconn::ApplyResult r = live_.apply(e.event);
    e.end_ns = now_ns();
    e.status = r.status;
    e.epoch = r.epoch;
    e.affected_shortcuts = r.relink.affected_shortcuts;
    e.retired_pinned = live_.retired_pinned();
    log_.push_back(std::move(e));
  }

  pconn::LiveOverlay& live_;
  Tracer& tr_;
  pconn::Rng rng_;
  std::vector<Applied> log_;
  std::exception_ptr error_;  // read after the join
  std::thread thread_;
};

/// Median time from the start of an apply() inside one of the given
/// windows to the first response of that window carrying its epoch (or a
/// later one).
double staleness_ms(const std::vector<Window>& windows,
                    const std::vector<std::size_t>& which,
                    const std::vector<Applied>& log) {
  std::vector<double> out;
  for (const std::size_t wi : which) {
    const Window& w = windows[wi];
    std::vector<std::pair<std::int64_t, std::uint64_t>> done;  // (abs, epoch)
    for (std::size_t i = 0; i < w.reqs.size(); ++i) {
      if (w.ok(i)) done.push_back({w.start_ns + w.recs[i].done_ns, w.recs[i].epoch});
    }
    std::sort(done.begin(), done.end());
    const std::int64_t end = w.start_ns + static_cast<std::int64_t>(w.seconds * 1e9);
    for (const Applied& e : log) {
      if (e.start_ns < w.start_ns || e.start_ns > end) continue;
      if (e.status == pconn::ApplyStatus::kRejected) continue;
      for (const auto& [t, ep] : done) {
        if (t >= e.start_ns && ep >= e.epoch) {
          out.push_back(static_cast<double>(t - e.start_ns) / 1e6);
          break;
        }
      }
    }
  }
  return median(out);
}

/// p99 (us) of the server's accepted-latency histogram between two reads.
double hist_p99_us(const std::vector<std::uint64_t>& before,
                   const std::vector<std::uint64_t>& after) {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> d(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    d[i] = after[i] - (i < before.size() ? before[i] : 0);
    total += d[i];
  }
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(0.99 * total));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    acc += d[i];
    if (acc >= rank) {
      return static_cast<double>((i + 1)
                                 << pconn::QueryServer::kLatencyBucketShiftNs) /
             1e3;
    }
  }
  return 0.0;
}

Outcome run_live_mix(const Args& a, Tracer& tr) {
  Outcome o;
  pconn::LiveOverlayOptions lopt;
  std::unique_ptr<pconn::QueryServer> server;
  std::unique_ptr<pconn::LiveOverlay> live;
  pconn::Timetable tt0;
  std::vector<double> setup_s;
  auto set_up = [&] {
    server.reset();
    live.reset();
    const std::int64_t t0 = now_ns();
    SpanScope setup(tr, "setup");
    pconn::Timetable tt;
    {
      SpanScope s(tr, "gen.network", setup.id());
      tt = pconn::gen::make_preset(pconn::gen::Preset::kOahuLike, 1.0, 1);
    }
    tt0 = tt;
    {
      SpanScope s(tr, "algo.contract", setup.id());
      live = std::make_unique<pconn::LiveOverlay>(std::move(tt), lopt);
    }
    {
      SpanScope s(tr, "server.start", setup.id());
      pconn::ServerOptions so;
      so.workers = 2;
      so.request_deadline_ms = kMixDeadlineMs;
      server = std::make_unique<pconn::QueryServer>(*live, so);
      server->start();
    }
    pconn::BlockingClient first("127.0.0.1", server->port());
    const auto pong = first.ping();
    if (!pong || pong->header.status != Status::kOk) {
      throw std::runtime_error("first ping failed");
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  };
  for (int k = 0; k < kSetupsBefore; ++k) set_up();

  const unsigned nconn = std::min(4u, nproc());
  ConnSet cs;
  for (unsigned c = 0; c < nconn; ++c) {
    cs.owned.push_back(std::make_unique<Conn>(server->port()));
  }
  std::vector<Conn*> conns = cs.ptrs();
  pconn::Rng rng(a.seed * 0x100000001b3ull + 22);
  const std::vector<Pair> pool = pair_pool(tt0.num_stations());
  const ZipfSampler zipf(pool.size(), kZipfS);
  auto schedule = [&](double rate, double secs) {
    return make_schedule(rate, secs, nconn, pool, zipf, tt0.period(),
                         kMixProfileShare, rng);
  };

  Feed feed(*live, tr);

  const OpenLoopPlan plan{kMixRefQps,         kMixLimitMs, 0.0,
                          kMixPeakSchedQps,   kMixDeadlineMs * 2,
                          kMixPeakDepth};
  // Warm-up burst, the same for every seed: profiles among the 4 busiest
  // stations, all due at once, so both workers' arenas grow to their
  // working size before anything is measured.
  std::vector<Request> burst;
  const auto hubs = busiest_stations(tt0, 4);
  for (const auto x : hubs) {
    for (const auto y : hubs) {
      if (x == y) continue;
      Request r;
      r.conn = static_cast<std::uint32_t>(burst.size() % nconn);
      r.op = Opcode::kProfile;
      r.a = x;
      r.b = y;
      burst.push_back(r);
    }
  }
  Window warm = open_loop(conns, burst, kMixDeadlineMs * 2);
  std::unique_ptr<DepthSampler> sampler;
  std::vector<std::uint64_t> hist0;
  if (a.trace) {
    sampler = std::make_unique<DepthSampler>(server->port());
    hist0 = server->accepted_latency_hist();
  }
  OpenLoop ol = run_open_loop(conns, a, plan, schedule, tr,
                              {[&](double secs) { feed.start(secs); },
                               [&] { feed.stop(); }});
  const std::vector<double> depth = sampler ? sampler->stop() : std::vector<double>{};
  std::vector<Window>& windows = ol.windows;  // every answer is checked
  windows.push_back(std::move(warm));
  const std::vector<Applied>& log = feed.log();
  const WindowStats ref = ol.ref_stats;
  std::vector<Request> ref_reqs;
  for (const auto& reqs : ol.ref_schedules) {
    ref_reqs.insert(ref_reqs.end(), reqs.begin(), reqs.end());
  }
  std::fprintf(stderr, "  ea p50 %.3f / p99 %.3f ms, profile p50 %.3f / p99 %.3f ms\n",
               ref.ea_p50_ms, ref.ea_tail_ms, ref.prof_p50_ms, ref.prof_tail_ms);

  const WindowStats& tst = ol.traced_stats;
  const std::vector<std::size_t>& traced = ol.traced;
  if (a.trace) {
    set_layer(o, "server.side_p99_us",
              hist_p99_us(hist0, server->accepted_latency_hist()));
  }
  const double rss = status_mb(0, "VmHWM");
  const double stale = staleness_ms(windows, ol.ref, log);
  std::fprintf(stderr, "  %zu events applied, staleness p50 %.3f ms\n",
               log.size(), stale);

  if (a.trace) {
    const Window& tw = windows[traced.front()];
    set_layer(o, "trace.overhead_ms", tst.p50_ms - ref.p50_ms);
    set_layer(o, "live.staleness_ms", staleness_ms(windows, traced, log));
    set_layer(o, "server.queue_depth_p99",
              quantile(depth, supported_quantile(depth.size(), 0.99)));
    const pconn::ServerStats ss = server->stats();
    set_layer(o, "server.shed", static_cast<double>(ss.requests_shed));
    set_layer(o, "server.deadline_expired",
              static_cast<double>(ss.requests_deadline));
    set_layer(o, "server.malformed", static_cast<double>(ss.requests_malformed));
    server_path_layers(server->port(), tw, tr, o);
    // Live-update layer, from the writer's log.
    std::vector<double> apply_ms, affected;
    double relinked = 0, recontracted = 0, degraded = 0, pinned = 0;
    for (const Applied& e : log) {
      apply_ms.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
      relinked += e.status == pconn::ApplyStatus::kRelinked;
      recontracted += e.status == pconn::ApplyStatus::kRecontracted;
      degraded += e.status == pconn::ApplyStatus::kDegraded;
      if (e.status == pconn::ApplyStatus::kRelinked) {
        affected.push_back(e.affected_shortcuts);
      }
      pinned = std::max(pinned, static_cast<double>(e.retired_pinned));
    }
    const double n_ev = std::max<std::size_t>(1, log.size());
    set_layer(o, "live.apply_ms_p50", quantile(apply_ms, 0.5));
    set_layer(o, "live.apply_ms_p99",
              quantile(apply_ms, supported_quantile(apply_ms.size(), 0.99)));
    set_layer(o, "live.relink_frac", relinked / n_ev);
    set_layer(o, "live.recontract_frac", recontracted / n_ev);
    set_layer(o, "live.degraded_frac", degraded / n_ev);
    set_layer(o, "live.affected_shortcuts_mean", mean(affected));
    set_layer(o, "live.retired_pinned_max", pinned);
    // Direct engine replays of the traced window's requests.
    pconn::LiveQuerySession s(*live);
    std::vector<double> ea_us, prof_ms;
    double ea_settled = 0, p_settled = 0, p_relaxed = 0, p_ns = 0;
    for (const Request& r : ref_reqs) {
      if (r.op == Opcode::kEarliestArrival) {
        SpanScope span(tr, "algo.ea");
        const std::int64_t t0 = now_ns();
        (void)s.earliest_arrival(r.a, r.b, r.c);
        ea_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        ea_settled += static_cast<double>(
            s.session().overlay_time_engine(*s.pinned().overlay).stats().settled);
      } else {
        SpanScope span(tr, "algo.profile");
        const std::int64_t t0 = now_ns();
        const pconn::StationQueryResult& res = s.station_to_station(r.a, r.b);
        const std::int64_t dt = now_ns() - t0;
        prof_ms.push_back(static_cast<double>(dt) / 1e6);
        p_settled += static_cast<double>(res.stats.settled);
        p_relaxed += static_cast<double>(res.stats.relaxed);
        p_ns += static_cast<double>(dt);
      }
    }
    const double ea50 = quantile(ea_us, 0.5), pr50 = quantile(prof_ms, 0.5);
    set_layer(o, "algo.ea_us_p50", ea50);
    set_layer(o, "algo.ea_us_p99", quantile(ea_us, supported_quantile(ea_us.size(), 0.99)));
    set_layer(o, "algo.ea_settled_mean", ea_settled / std::max<std::size_t>(1, ea_us.size()));
    set_layer(o, "algo.profile_ms_p50", pr50);
    set_layer(o, "algo.profile_ms_p99",
              quantile(prof_ms, supported_quantile(prof_ms.size(), 0.99)));
    set_layer(o, "algo.profile_settled_mean",
              p_settled / std::max<std::size_t>(1, prof_ms.size()));
    set_layer(o, "algo.profile_relaxed_mean",
              p_relaxed / std::max<std::size_t>(1, prof_ms.size()));
    set_layer(o, "graph.relax_ns_per_edge", p_relaxed > 0 ? p_ns / p_relaxed : 0);
    set_layer(o, "server.overhead_us", tst.ea_p50_ms * 1e3 - ea50);
    set_layer(o, "algo.ea_share", tst.ea_p50_ms > 0 ? ea50 / (tst.ea_p50_ms * 1e3) : 0);
    set_layer(o, "algo.profile_share", tst.prof_p50_ms > 0 ? pr50 / tst.prof_p50_ms : 0);
    set_layer(o, "loadgen.late_p99_ms", tst.late_p99_ms);
    set_layer(o, "loadgen.backlog_slope", tst.backlog_slope);
    set_layer(o, "loadgen.ea_p50_ms", tst.ea_p50_ms);
    set_layer(o, "loadgen.ea_p99_ms", tst.ea_tail_ms);
    set_layer(o, "loadgen.profile_p50_ms", tst.prof_p50_ms);
    set_layer(o, "loadgen.profile_p99_ms", tst.prof_tail_ms);
    set_layer(o, "loadgen.p50_ms", ref.p50_ms);
    set_layer(o, "loadgen.tail_ms", ref.tail_ms);
    {
      const pconn::TdGraph g = pconn::TdGraph::build(tt0);
      set_layer(o, "graph.ttf_eval_ns", ttf_eval_ns(g, rng, tr));
    }
  }
  server->stop();

  // Re-warm cost of an epoch change, on a direct session: the first query
  // after a publish minus the same query warm. Run after the answer log is
  // closed, so these extra epochs are never checked against.
  if (a.trace) {
    pconn::LiveQuerySession s(*live);
    pconn::Rng erng(kFeedSeed + 1);
    std::vector<double> extra;
    const Pair& p = pool[0];
    for (int k = 0; k < 5; ++k) {
      (void)s.earliest_arrival(p.s, 8 * 3600, p.t);
      std::int64_t t0 = now_ns();
      (void)s.earliest_arrival(p.s, 8 * 3600, p.t);
      const double warm = static_cast<double>(now_ns() - t0) / 1e3;
      (void)live->apply(next_event(erng, *live->snapshot()->tt));
      SpanScope span(tr, "live.rewarm");
      t0 = now_ns();
      (void)s.earliest_arrival(p.s, 8 * 3600, p.t);
      extra.push_back(static_cast<double>(now_ns() - t0) / 1e3 - warm);
    }
    set_layer(o, "live.rewarm_us", median(extra));
  }

  // Answer check: replay the same event stream on a fresh LiveOverlay and
  // answer each epoch's requests at that epoch. Identical requests at one
  // epoch are answered once and compared with the req_id patched in.
  struct Item {
    std::uint32_t w, i;
  };
  std::map<std::uint64_t, std::vector<Item>> by_epoch;
  for (std::uint32_t w = 0; w < windows.size(); ++w) {
    for (std::uint32_t i = 0; i < windows[w].reqs.size(); ++i) {
      if (windows[w].ok(i)) by_epoch[windows[w].recs[i].epoch].push_back({w, i});
    }
  }
  pconn::LiveOverlay replay(tt0, lopt);
  std::atomic<std::uint64_t> mismatches{0};
  std::size_t checked = 0;
  const unsigned threads = nproc();
  std::vector<std::unique_ptr<pconn::LiveQuerySession>> sessions;
  for (unsigned t = 0; t < threads; ++t) {
    sessions.push_back(std::make_unique<pconn::LiveQuerySession>(replay));
  }
  pconn::ThreadPool workers(threads);
  auto answer_epoch = [&](std::uint64_t epoch) {
    auto it = by_epoch.find(epoch);
    if (it == by_epoch.end()) return;
    // Distinct requests of this epoch.
    std::map<std::tuple<int, std::uint32_t, std::uint32_t, std::uint32_t>,
             std::vector<Item>>
        distinct;
    for (const Item& x : it->second) {
      const Request& r = windows[x.w].reqs[x.i];
      distinct[{static_cast<int>(r.op), r.a, r.b, r.c}].push_back(x);
    }
    std::vector<const std::vector<Item>*> groups;
    for (auto& [k, v] : distinct) groups.push_back(&v);
    parallel_for(workers, groups.size(), [&](std::size_t t, std::size_t g) {
      pconn::LiveQuerySession& s = *sessions[t];
      const std::vector<Item>& items = *groups[g];
      const Request& r = windows[items[0].w].reqs[items[0].i];
      std::string want;
      if (r.op == Opcode::kEarliestArrival) {
        const pconn::Time arr = s.earliest_arrival(r.a, r.b, r.c);
        want = pconn::encode_ea_response(
            ok_header(r.op, 0, s.epoch(), s.serving_degraded()), arr);
      } else {
        const pconn::StationQueryResult& res = s.station_to_station(r.a, r.b);
        want = pconn::encode_profile_response(
            ok_header(r.op, 0, s.epoch(), s.serving_degraded()), res.profile);
      }
      want.erase(0, pconn::kFrameHeaderBytes);
      for (const Item& x : items) {
        const std::uint32_t id = windows[x.w].id_base + x.i;
        std::memcpy(want.data() + 4, &id, 4);
        if (windows[x.w].payload(x.i) != want) ++mismatches;
      }
    });
    checked += it->second.size();
  };
  answer_epoch(replay.epoch());
  for (const Applied& e : log) {
    const pconn::ApplyResult r = replay.apply(e.event);
    if (r.epoch != e.epoch || r.status != e.status) {
      std::fprintf(stderr, "  replay diverged at epoch %llu\n",
                   static_cast<unsigned long long>(e.epoch));
      o.correct = false;
      break;
    }
    if (r.status != pconn::ApplyStatus::kRejected) answer_epoch(r.epoch);
  }
  std::fprintf(stderr, "  checked %zu answers over %zu epochs: %llu mismatches\n",
               checked, by_epoch.size(),
               static_cast<unsigned long long>(mismatches.load()));
  std::size_t total_ok = 0;
  for (auto& [e, v] : by_epoch) total_ok += v.size();
  if (mismatches.load() != 0 || checked != total_ok) o.correct = false;
  sessions.clear();
  for (int k = kSetupsBefore; k < kSetupRepeats; ++k) set_up();

  o.attempted = ref.n;
  o.failed = ref.failed;
  o.e2e.set("setup_s", median(setup_s), "s");
  o.e2e.set("throughput_qps", ol.throughput_qps, "1/s");
  if (a.trace) set_layer(o, "process.rss_mb", rss);
  if (a.trace) {
    set_layer(o, "gen.network_ms", median(span_ms(tr, "gen.network")));
    set_layer(o, "algo.contract_ms", median(span_ms(tr, "algo.contract")));
  }
  return o;
}

// ========================================================== one_to_all

/// Median over blocks of `block` consecutive queries of the block's rate
/// (queries per second of query time); the overall rate when the run holds
/// less than one block.
double block_rate(const std::vector<double>& ms, std::size_t block) {
  std::vector<double> rates;
  for (std::size_t i = 0; i + block <= ms.size(); i += block) {
    double sum = 0;
    for (std::size_t k = i; k < i + block; ++k) sum += ms[k];
    rates.push_back(1e3 * static_cast<double>(block) / sum);
  }
  if (rates.empty()) {
    double sum = 0;
    for (const double x : ms) sum += x;
    return sum > 0 ? 1e3 * static_cast<double>(ms.size()) / sum : 0.0;
  }
  return median(rates);
}

/// Order-sensitive 64-bit digest of every profile of a one-to-all result.
std::uint64_t digest(const pconn::OneToAllResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const pconn::Profile& p : r.profiles) {
    mix(p.size());
    for (const pconn::ProfilePoint& q : p) {
      mix((static_cast<std::uint64_t>(q.dep) << 32) | q.arr);
    }
  }
  return h;
}

Outcome run_one_to_all(const Args& a, Tracer& tr) {
  Outcome o;
  const unsigned p = nproc();
  pconn::QuerySessionOptions par;
  par.threads = p;
  std::unique_ptr<pconn::LiveQuerySession> session;
  std::unique_ptr<pconn::LiveOverlay> live;
  std::vector<double> setup_s;
  std::size_t stations = 0;
  auto set_up = [&] {
    session.reset();
    live.reset();
    const std::int64_t t0 = now_ns();
    SpanScope setup(tr, "setup");
    pconn::Timetable tt;
    {
      SpanScope s(tr, "gen.network", setup.id());
      tt = pconn::gen::make_preset(pconn::gen::Preset::kLosAngelesLike, 1.0, 1);
    }
    stations = tt.num_stations();
    {
      SpanScope s(tr, "algo.contract", setup.id());
      live = std::make_unique<pconn::LiveOverlay>(std::move(tt));
    }
    session = std::make_unique<pconn::LiveQuerySession>(*live, par);
    setup_s.push_back(ms_since(t0) / 1e3);
  };
  for (int k = 0; k < kSetupsBefore; ++k) set_up();

  // Sources: a seeded permutation of every station, cycled.
  pconn::Rng rng(a.seed * 0x100000001b3ull + 44);
  std::vector<pconn::StationId> order(stations);
  for (std::size_t i = 0; i < stations; ++i) order[i] = static_cast<pconn::StationId>(i);
  rng.shuffle(order);
  // Warm-up from the busiest stations, in a fixed order: the workspace
  // arenas grow geometrically to the largest query seen, so a seeded warm-up
  // order made the footprint depend on the seed (520 vs 750 MiB).
  for (const pconn::StationId s : busiest_stations(*live->snapshot()->tt, 8)) {
    (void)session->one_to_all(s);
  }

  struct Query {
    pconn::StationId s;
    double ms;
    std::uint64_t digest;
  };
  auto closed_loop = [&](double secs, std::size_t first) {
    std::vector<Query> qs;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = first; ms_since(t0) < secs * 1e3; ++i) {
      const pconn::StationId s = order[i % stations];
      SpanScope span(tr, "algo.one_to_all", -1, i);
      const std::int64_t q0 = now_ns();
      const pconn::OneToAllResult& r = session->one_to_all(s);
      const double ms = static_cast<double>(now_ns() - q0) / 1e6;
      qs.push_back({s, ms, digest(r)});
    }
    return std::make_pair(qs, ms_since(t0) / 1e3);
  };
  const bool was_on = tr.enabled();
  tr.enable(false);
  const double main_s = a.trace ? a.seconds * 0.4 : a.seconds * 0.9;
  auto [qs, elapsed] = closed_loop(main_s, 0);
  tr.enable(was_on);
  const double rss = status_mb(0, "VmHWM");
  std::vector<double> lat;
  for (const Query& q : qs) lat.push_back(q.ms);
  const double q_tail = kOneToAllTailQ;
  if (supported_quantile(lat.size()) < q_tail) {
    std::fprintf(stderr, "  warning: %zu queries do not support p%g\n",
                 lat.size(), q_tail * 100);
  }
  const double p50 = quantile(lat, 0.5), tail = quantile(lat, q_tail);
  const double qps = block_rate(lat, kOneToAllBlock);
  std::fprintf(stderr,
               "one_to_all: %zu queries in %.2f s at p=%u: %.2f qps overall, "
               "%.2f qps block median, p50 %.3f ms, p%g %.3f ms\n",
               qs.size(), elapsed, p, qs.size() / elapsed, qps, p50,
               q_tail * 100, tail);

  if (a.trace) {
    auto [tq, telapsed] = closed_loop(a.seconds * 0.3, qs.size());
    std::vector<double> tl;
    for (const Query& q : tq) tl.push_back(q.ms);
    set_layer(o, "trace.overhead_ms", quantile(tl, 0.5) - p50);
    set_layer(o, "loadgen.p50_ms", p50);
    set_layer(o, "loadgen.tail_ms", tail);
    qs.insert(qs.end(), tq.begin(), tq.end());
    // Balance, partition skew and self-pruning over a fixed source sample,
    // then the same sources at p = 1 for the speedup.
    const std::size_t sample = std::min<std::size_t>(24, stations);
    std::vector<std::uint32_t> bounds;
    double bal = 0, skew = 0, pruned = 0, settled = 0, par_ms = 0;
    for (std::size_t i = 0; i < sample; ++i) {
      const pconn::OneToAllResult& r = session->one_to_all(order[i]);
      bal += r.max_thread_ms > 0 ? r.min_thread_ms / r.max_thread_ms : 1.0;
      pruned += static_cast<double>(r.stats.self_pruned);
      settled += static_cast<double>(r.stats.settled);
      par_ms += r.stats.time_ms;
      session->session().overlay_partition_connections_into(order[i], bounds);
      skew += pconn::partition_imbalance(bounds);
    }
    pconn::LiveQuerySession seq(*live);
    double seq_ms = 0, relaxed = 0;
    (void)seq.one_to_all(order[0]);
    for (std::size_t i = 0; i < sample; ++i) {
      SpanScope span(tr, "algo.one_to_all.p1");
      const pconn::OneToAllResult& r = seq.one_to_all(order[i]);
      seq_ms += r.stats.time_ms;
      relaxed += static_cast<double>(r.stats.relaxed);
    }
    set_layer(o, "algo.spcs_thread_balance", bal / sample);
    set_layer(o, "algo.partition_conn_skew", skew / sample);
    set_layer(o, "algo.self_prune_frac", settled > 0 ? pruned / settled : 0);
    set_layer(o, "algo.spcs_speedup", par_ms > 0 ? seq_ms / par_ms : 0);
    set_layer(o, "graph.relax_ns_per_edge", relaxed > 0 ? seq_ms * 1e6 / relaxed : 0);
    const pconn::LiveSnapshot& snap = *live->snapshot();
    set_layer(o, "graph.ttf_eval_ns", ttf_eval_ns(*snap.graph, rng, tr));
    // Snapshot save / load of this network, untimed by the workload.
    const std::string path = a.out_dir + "/one_to_all-" +
                             std::to_string(::getpid()) + ".pcsn";
    {
      SpanScope s(tr, "timetable.snapshot_save");
      pconn::save_snapshot(*snap.tt, snap.overlay.get(), path);
    }
    set_layer(o, "timetable.snapshot_bytes",
              static_cast<double>(std::filesystem::file_size(path)));
    {
      SpanScope s(tr, "timetable.snapshot_load");
      pconn::MappedSnapshot mapped(path);
      (void)mapped.load_timetable();
      (void)mapped.load_overlay();
    }
    std::remove(path.c_str());
    set_layer(o, "timetable.snapshot_save_ms",
              median(span_ms(tr, "timetable.snapshot_save")));
    set_layer(o, "timetable.snapshot_load_ms",
              median(span_ms(tr, "timetable.snapshot_load")));
  }

  // Answer check: every queried source again at p = 1; the digests of all
  // profiles must match those computed at p = nproc.
  std::map<pconn::StationId, std::uint64_t> want;
  for (const Query& q : qs) want[q.s] = q.digest;
  std::vector<std::pair<pconn::StationId, std::uint64_t>> todo(want.begin(), want.end());
  std::vector<std::unique_ptr<pconn::LiveQuerySession>> seqs;
  for (unsigned t = 0; t < p; ++t) {
    seqs.push_back(std::make_unique<pconn::LiveQuerySession>(*live));
  }
  std::atomic<std::uint64_t> mismatches{0};
  pconn::ThreadPool workers(p);
  parallel_for(workers, todo.size(), [&](std::size_t t, std::size_t i) {
    if (digest(seqs[t]->one_to_all(todo[i].first)) != todo[i].second) ++mismatches;
  });
  std::size_t repeat_mismatch = 0;
  for (const Query& q : qs) repeat_mismatch += want[q.s] != q.digest;
  std::fprintf(stderr, "  checked %zu sources at p=1: %llu mismatches\n",
               todo.size(), static_cast<unsigned long long>(mismatches.load()));
  if (mismatches.load() != 0 || repeat_mismatch != 0) o.correct = false;
  seqs.clear();
  for (int k = kSetupsBefore; k < kSetupRepeats; ++k) set_up();

  o.attempted = qs.size();
  o.failed = mismatches.load() + repeat_mismatch;
  o.e2e.set("setup_s", median(setup_s), "s");
  o.e2e.set("throughput_qps", qps, "1/s");
  if (a.trace) {
    set_layer(o, "process.rss_mb", rss);
    set_layer(o, "gen.network_ms", median(span_ms(tr, "gen.network")));
    set_layer(o, "algo.contract_ms", median(span_ms(tr, "algo.contract")));
  }
  return o;
}

// ================================================================ main

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Writes the spans (JSON lines) and the per-layer span table.
void write_trace(const Tracer& tr, const Args& a) {
  const std::string stem = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed);
  const std::vector<Span>& spans = tr.spans();
  {
    std::ofstream out(stem + ".spans.jsonl");
    for (const Span& s : spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::vector<std::pair<double, double>>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(
        {static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6,
         static_cast<double>(self[i]) / 1e6});
  }
  std::ostringstream table;
  char line[256];
  std::snprintf(line, sizeof line, "%-26s %8s %12s %12s %10s %10s\n", "span",
                "count", "total_ms", "self_ms", "p50_ms", "p99_ms");
  table << line;
  for (auto& [name, v] : by_name) {
    std::vector<double> d;
    double total = 0, self_total = 0;
    for (auto [dur, s] : v) {
      d.push_back(dur);
      total += dur;
      self_total += s;
    }
    std::snprintf(line, sizeof line, "%-26s %8zu %12.3f %12.3f %10.4f %10.4f\n",
                  name.c_str(), v.size(), total, self_total, quantile(d, 0.5),
                  quantile(d, supported_quantile(d.size(), 0.99)));
    table << line;
  }
  std::ofstream(stem + ".layers.txt") << table.str();
  std::fprintf(stderr, "%s(spans in %s.spans.jsonl)\n", table.str().c_str(),
               stem.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload ea_fleet|live_mix|one_to_all "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;

    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || a.seconds <= 0) return usage();
  std::filesystem::create_directories(a.out_dir);
  ::signal(SIGPIPE, SIG_IGN);

  Tracer tr;
  tr.enable(a.trace);
  Outcome o;
  if (a.workload == "ea_fleet") {
    o = run_ea_fleet(a, tr);
  } else if (a.workload == "live_mix") {
    o = run_live_mix(a, tr);
  } else if (a.workload == "one_to_all") {
    o = run_one_to_all(a, tr);
  } else {
    return usage();
  }

  Metrics out;
  if (a.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      bool found = false;
      for (const auto& m : o.layer.v) found |= m.first == name;
      if (!found) o.layer.set(name, 0.0, unit);  // layer not run here
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      for (const auto& m : o.layer.v) {
        if (m.first == name) out.v.push_back(m);
      }
    }
    write_trace(tr, a);
  } else {
    out = o.e2e;
  }
  std::ostringstream js;
  js << "{\"correct\": " << (o.correct ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.v.size(); ++i) {
    const auto& [name, vu] = out.v[i];
    js << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
       << json_number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
