// Serving front-end correctness (src/server/, docs/server.md):
//  * responses byte-identical to direct LiveQuerySession calls, binary and
//    text mode, across epochs and while degraded;
//  * every rung of the resilience ladder answers a typed Status and leaves
//    the server alive — malformed frames (structured cases plus a fuzz
//    sweep), invalid stations, forced queue overflow + Retry-After,
//    deadline expiry in-queue and post-execution, worker faults, transient
//    accept failures, slow-client output caps, idle reaping;
//  * drain: in-flight work finishes, late requests get kShuttingDown or a
//    clean close, SIGTERM-installed drain shuts the listener;
//  * plan_admission() math, and the admission probe measuring scratch at
//    the thread count the workers serve with;
//  * the CPU-share rule (spcs_threads_per_worker, shard_cpu_share), and
//    workers fanning profile requests over p >= 2 threads answering
//    byte-identically to threads = 1 sessions under concurrent clients,
//    across an epoch publish and on a degraded epoch.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "live/delay_feed.hpp"
#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

constexpr const char* kHost = "127.0.0.1";

ServerOptions fast_opts() {
  ServerOptions o;
  o.host = kHost;
  o.port = 0;  // ephemeral
  o.workers = 1;
  return o;
}

/// Expected wire payload (length prefix stripped) of a direct-session
/// answer, encoded through the same protocol functions the server uses.
std::string strip_frame(std::string framed) { return framed.substr(4); }

}  // namespace

TEST(ServerProtocol, AdmissionPlanMath) {
  // Worker scratch comes off the top; the rest splits evenly between
  // queue slots and connections, floored at 4 and capped at 4096.
  const std::size_t kReq = 64 + (std::size_t{16} << 10);
  const std::size_t kConn = (std::size_t{64} << 10) + (std::size_t{16} << 10);
  AdmissionPlan p = plan_admission(std::size_t{64} << 20, 2,
                                   std::size_t{4} << 20, std::size_t{64}
                                                             << 10);
  const std::size_t remaining = (std::size_t{64} << 20) -
                                2 * (std::size_t{4} << 20);
  EXPECT_EQ(p.per_worker_scratch_bytes, std::size_t{4} << 20);
  EXPECT_EQ(p.queue_capacity, remaining / 2 / kReq);
  EXPECT_EQ(p.max_connections, remaining / 2 / kConn);

  // Scratch exceeding the budget still yields a usable (floor) plan.
  p = plan_admission(1 << 20, 4, 1 << 20, std::size_t{64} << 10);
  EXPECT_EQ(p.queue_capacity, 4u);
  EXPECT_EQ(p.max_connections, 4u);

  // A huge budget is capped — the queue must stay bounded regardless.
  p = plan_admission(std::size_t{1} << 40, 1, 0, std::size_t{64} << 10);
  EXPECT_EQ(p.queue_capacity, 4096u);
  EXPECT_EQ(p.max_connections, 4096u);
}

TEST(ServerCpuShare, ThreadsPerWorkerRule) {
  // Each worker gets an even share of the CPUs for its profile fan-out.
  EXPECT_EQ(spcs_threads_per_worker(4, 1), 4u);
  EXPECT_EQ(spcs_threads_per_worker(4, 2), 2u);
  EXPECT_EQ(spcs_threads_per_worker(5, 2), 2u);  // rounds down
  EXPECT_EQ(spcs_threads_per_worker(8, 0), 8u);  // 0 workers counts as 1
  // The floor at 1: a single CPU, and more workers than CPUs.
  EXPECT_EQ(spcs_threads_per_worker(1, 1), 1u);
  EXPECT_EQ(spcs_threads_per_worker(1, 4), 1u);
  EXPECT_EQ(spcs_threads_per_worker(3, 8), 1u);

  // cpus = 0 resolves to the affinity mask, not hardware_concurrency.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(set), &set), 0);
  const unsigned affinity = static_cast<unsigned>(CPU_COUNT(&set));
  EXPECT_EQ(affinity_cpu_count(), affinity);
  EXPECT_EQ(spcs_threads_per_worker(0, 1), affinity);
  EXPECT_EQ(spcs_threads_per_worker(0, affinity), 1u);
  EXPECT_EQ(spcs_threads_per_worker(0, 2 * affinity), 1u);
}

TEST(ServerCpuShare, ShardShareThenWorkerShare) {
  // pconn_shardd's rule: affinity / shards, never 0 (0 would mean "the
  // whole affinity mask" to ServerOptions::cpus).
  EXPECT_EQ(shard_cpu_share(8, 2), 4u);
  EXPECT_EQ(shard_cpu_share(7, 2), 3u);
  EXPECT_EQ(shard_cpu_share(4, 8), 1u);
  EXPECT_EQ(shard_cpu_share(4, 0), 4u);
  EXPECT_EQ(shard_cpu_share(4, 1), 4u);
  // Composed as a shard applies it: 2 shards x 2 workers on 8 CPUs fan
  // out 2-wide each, 8 threads in all; an oversubscribed fleet floors.
  EXPECT_EQ(spcs_threads_per_worker(shard_cpu_share(8, 2), 2), 2u);
  EXPECT_EQ(spcs_threads_per_worker(shard_cpu_share(4, 8), 1), 1u);
  EXPECT_EQ(spcs_threads_per_worker(shard_cpu_share(16, 3), 2), 2u);
}

TEST(ServerCpuShare, ServerDerivesSessionThreads) {
  // The caller's QuerySessionOptions::threads is overwritten by the rule.
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.workers = 2;
  opt.cpus = 6;
  QuerySessionOptions sopt;
  sopt.threads = 7;
  QueryServer server(live, opt, sopt);
  EXPECT_EQ(server.session_options().threads, 3u);
  opt.cpus = 0;
  QueryServer by_affinity(live, opt, sopt);
  EXPECT_EQ(by_affinity.session_options().threads,
            spcs_threads_per_worker(0, 2));
}

TEST(Server, AdmissionProbeMeasuresAtServedThreadCount) {
  // The per-worker scratch the plan reserves must be what a worker
  // session actually pins: measured at the served thread count, every
  // per-thread arena included.
  LiveOverlay live(test::small_city(47));
  ServerOptions opt = fast_opts();
  opt.cpus = 2;
  QueryServer server(live, opt);
  server.start();
  ASSERT_EQ(server.session_options().threads, 2u);

  const auto n = static_cast<StationId>(live.snapshot()->tt->num_stations());
  auto warm = [&](LiveQuerySession& s) {
    (void)s.earliest_arrival(0, 0, n - 1);
    (void)s.station_to_station(0, n - 1);
    return s.session().scratch_bytes_reserved();
  };
  LiveQuerySession served(live, server.session_options());
  const std::size_t planned = server.admission().per_worker_scratch_bytes;
  EXPECT_EQ(planned, warm(served));
  // Both threads' arenas hold scratch, and the figure covers them all.
  SpcsPool& pool = served.session().spcs_pool();
  ASSERT_EQ(pool.size(), 2u);
  std::size_t per_thread = 0;
  for (unsigned t = 0; t < pool.size(); ++t) {
    EXPECT_GT(pool.workspace(t).bytes_reserved(), 0u) << "thread " << t;
    per_thread += pool.workspace(t).bytes_reserved();
  }
  EXPECT_GE(planned, per_thread);
  // A server at one thread per worker plans its own (different) figure.
  opt.cpus = 1;
  QueryServer serial(live, opt);
  serial.start();
  LiveQuerySession one(live, serial.session_options());
  EXPECT_EQ(serial.admission().per_worker_scratch_bytes, warm(one));
  EXPECT_NE(serial.admission().per_worker_scratch_bytes, planned);
  serial.stop();
  server.stop();
}

TEST(Server, ParallelWorkerSessionsAnswerByteIdentically) {
  // Two workers whose sessions fan profile requests out over 2 threads
  // each, hammered by concurrent clients while the writer publishes: every
  // answer must equal, byte for byte, a threads = 1 direct session's at
  // the epoch the response reports — on overlay epochs (overlay SPCS) and
  // on a degraded epoch (flat SPCS).
  FaultInjector faults;
  LiveOverlayOptions lopt;
  lopt.faults = &faults;
  lopt.relink.faults = &faults;
  LiveOverlay live(test::small_city(46), lopt);
  ServerOptions opt = fast_opts();
  opt.workers = 2;
  opt.cpus = 4;
  opt.request_deadline_ms = 30'000.0;  // sanitizer builds run slowly
  QueryServer server(live, opt);
  ASSERT_EQ(server.session_options().threads, 2u);
  server.start();

  struct Req {
    Opcode op;
    StationId s, t;
    Time dep;
  };
  const auto n = live.snapshot()->tt->num_stations();
  std::vector<Req> reqs;
  Rng rng(4646);
  for (int i = 0; i < 32; ++i) {
    const auto s = static_cast<StationId>(rng.next_below(n));
    const auto t = static_cast<StationId>(rng.next_below(n));
    const auto dep = static_cast<Time>(rng.next_below(24 * 3600));
    reqs.push_back({i % 2 ? Opcode::kEarliestArrival : Opcode::kProfile, s, t,
                    dep});
  }

  // threads = 1 oracles, one per epoch; manual refresh keeps each pinned
  // to its epoch after the writer moves on.
  std::map<std::uint64_t, std::unique_ptr<LiveQuerySession>> direct;
  auto pin_current = [&] {
    auto d = std::make_unique<LiveQuerySession>(live);
    d->set_auto_refresh(false);
    const std::uint64_t e = d->epoch();
    direct[e] = std::move(d);
  };

  struct Reply {
    std::size_t req;
    std::uint32_t req_id;
    std::string payload;
  };
  constexpr int kClients = 4;
  // Each client cycles through every request (from its own offset) and
  // records the raw payloads; `publish` runs on this thread once a third
  // of the first pass is answered, and each client then finishes a full
  // pass begun after it returned, so both sides of the publish are served.
  auto serve_round = [&](const std::function<void()>& publish) {
    std::atomic<int> answered{0};
    std::atomic<int> finished{0};
    std::atomic<bool> published{false};
    std::vector<std::vector<Reply>> got(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        struct Done {
          std::atomic<int>& n;
          ~Done() { n.fetch_add(1, std::memory_order_release); }
        } done{finished};
        BlockingClient client(kHost, server.port());
        std::uint32_t req_id = static_cast<std::uint32_t>(c) << 24;
        for (bool last = false; !last;) {
          last = published.load(std::memory_order_acquire);
          for (std::size_t k = 0; k < reqs.size(); ++k) {
            const std::size_t i = (k + 8 * c) % reqs.size();
            const Req& r = reqs[i];
            ++req_id;
            const bool sent =
                r.op == Opcode::kProfile
                    ? client.send_raw(encode_profile(req_id, r.s, r.t))
                    : client.send_raw(
                          encode_earliest_arrival(req_id, r.s, r.dep, r.t));
            auto payload = client.recv_frame();
            if (!sent || !payload) return;  // counted as missing below
            got[c].push_back({i, req_id, std::move(*payload)});
            answered.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    const int third = kClients * static_cast<int>(reqs.size()) / 3;
    while (answered.load(std::memory_order_relaxed) < third &&
           finished.load(std::memory_order_acquire) < kClients) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    publish();
    published.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    pin_current();
    std::vector<Reply> all;
    for (auto& g : got) {
      EXPECT_GE(g.size(), 2 * reqs.size()) << "a client lost its connection";
      for (Reply& r : g) all.push_back(std::move(r));
    }
    return all;
  };

  // Checks every reply against its epoch's oracle, counting per epoch.
  std::map<std::uint64_t, int> per_epoch;
  auto check = [&](const std::vector<Reply>& replies) {
    for (const Reply& rep : replies) {
      const auto d = decode_response(rep.payload.data(), rep.payload.size());
      ASSERT_TRUE(d.has_value());
      ASSERT_EQ(d->header.status, Status::kOk);
      ASSERT_EQ(direct.count(d->header.epoch), 1u)
          << "unexpected epoch " << d->header.epoch;
      LiveQuerySession& o = *direct[d->header.epoch];
      const Req& r = reqs[rep.req];
      ResponseHeader h;
      h.status = Status::kOk;
      h.opcode = r.op;
      h.req_id = rep.req_id;
      h.epoch = o.epoch();
      h.degraded = o.serving_degraded();
      const std::string want =
          r.op == Opcode::kProfile
              ? encode_profile_response(h, o.station_to_station(r.s, r.t)
                                               .profile)
              : encode_ea_response(h, o.earliest_arrival(r.s, r.dep, r.t));
      EXPECT_EQ(rep.payload, strip_frame(want))
          << (r.op == Opcode::kProfile ? "profile " : "ea ") << r.s << "->"
          << r.t << " at epoch " << o.epoch();
      ++per_epoch[d->header.epoch];
    }
  };

  // Round 1: overlay epoch 0, a delay published mid-round (epoch 1).
  pin_current();
  const auto round1 = serve_round([&] {
    const ApplyStatus st = live.apply(DelayEvent::delayed(0, 0, 300)).status;
    EXPECT_TRUE(st == ApplyStatus::kRelinked ||
                st == ApplyStatus::kRecontracted);
  });
  check(round1);
  EXPECT_GT(per_epoch[0], 0);
  EXPECT_GT(per_epoch[1], 0);

  // Round 2: a relink fault degrades epoch 2 (flat engines); the retry
  // mid-round recontracts into epoch 3.
  faults.arm(FaultInjector::Site::kRelinkShortcut);
  ASSERT_EQ(live.apply(DelayEvent::delayed(1, 0, 240)).status,
            ApplyStatus::kDegraded);
  pin_current();
  ASSERT_TRUE(direct[2]->serving_degraded());
  const auto round2 = serve_round([&] {
    EXPECT_EQ(live.retry().status, ApplyStatus::kRecontracted);
  });
  check(round2);
  EXPECT_GT(per_epoch[2], 0);
  EXPECT_GT(per_epoch[3], 0);
  EXPECT_GE(server.stats().degraded_served, 1u);
  server.stop();
}

TEST(Server, BinaryResponsesByteIdenticalToDirectSession) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  LiveQuerySession direct(live);
  BlockingClient client(kHost, server.port());

  std::uint32_t req_id = 100;
  for (StationId s = 0; s < 3; ++s) {
    for (StationId t = 0; t < 3; ++t) {
      if (s == t) continue;
      for (const Time dep : {Time{0}, Time{8 * 3600}, Time{20 * 3600}}) {
        ++req_id;
        const Time arr = direct.earliest_arrival(s, dep, t);
        ResponseHeader h;
        h.status = Status::kOk;
        h.opcode = Opcode::kEarliestArrival;
        h.req_id = req_id;
        h.epoch = direct.epoch();
        h.degraded = direct.serving_degraded();
        ASSERT_TRUE(
            client.send_raw(encode_earliest_arrival(req_id, s, dep, t)));
        auto payload = client.recv_frame();
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ(*payload, strip_frame(encode_ea_response(h, arr)))
            << "ea " << s << "->" << t << " @" << dep;
      }
      ++req_id;
      const StationQueryResult& res = direct.station_to_station(s, t);
      ResponseHeader h;
      h.status = Status::kOk;
      h.opcode = Opcode::kProfile;
      h.req_id = req_id;
      h.epoch = direct.epoch();
      h.degraded = direct.serving_degraded();
      ASSERT_TRUE(client.send_raw(encode_profile(req_id, s, t)));
      auto payload = client.recv_frame();
      ASSERT_TRUE(payload.has_value());
      EXPECT_EQ(*payload, strip_frame(encode_profile_response(h, res.profile)))
          << "profile " << s << "->" << t;
    }
  }
  server.stop();
}

TEST(Server, AcceptedLatencyHistogramCountsOnlyAnsweredWork) {
  // Answered requests land in the server-side latency histogram
  // (bench_server's overload gate reads it); shed and deadline-expired
  // work must not — those latencies are not something a client ever saw
  // an answer for.
  LiveOverlay live(test::tiny_line());
  {
    QueryServer server(live, fast_opts());
    server.start();
    BlockingClient client(kHost, server.port());
    constexpr std::uint64_t kN = 32;
    for (std::uint64_t i = 0; i < kN; ++i) {
      auto r = client.earliest_arrival(0, 8 * 3600, 2);
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->header.status, Status::kOk);
    }
    const std::vector<std::uint64_t> hist = server.accepted_latency_hist();
    std::uint64_t total = 0;
    for (const std::uint64_t b : hist) total += b;
    EXPECT_EQ(total, kN);
    EXPECT_EQ(server.stats().requests_ok, kN);
    server.stop();
  }
  {
    ServerOptions opt = fast_opts();
    opt.request_deadline_ms = 0.0;  // everything expires in the queue
    QueryServer server(live, opt);
    server.start();
    BlockingClient client(kHost, server.port());
    auto r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kDeadlineExceeded);
    const std::vector<std::uint64_t> hist = server.accepted_latency_hist();
    std::uint64_t total = 0;
    for (const std::uint64_t b : hist) total += b;
    EXPECT_EQ(total, 0u);
    server.stop();
  }
}

TEST(Server, TextModeServesSameAnswers) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  LiveQuerySession direct(live);
  BlockingClient client(kHost, server.port());
  ASSERT_TRUE(client.text_hello());

  EXPECT_EQ(client.text_command("ping").value_or("?"), "ok pong");

  const Time arr = direct.earliest_arrival(0, 8 * 3600, 2);
  EXPECT_EQ(client.text_command("ea 0 28800 2").value_or("?"),
            "ok " + std::to_string(arr));

  const StationQueryResult& res = direct.station_to_station(0, 2);
  std::string want = "ok " + std::to_string(res.profile.size());
  for (const ProfilePoint& p : res.profile) {
    want += ' ' + std::to_string(p.dep) + ':' + std::to_string(p.arr);
  }
  EXPECT_EQ(client.text_command("profile 0 2").value_or("?"), want);

  const std::string stats = client.text_command("stats").value_or("?");
  EXPECT_EQ(stats.substr(0, 6), "ok ok=");

  // Malformed text answers an error and KEEPS the connection.
  EXPECT_EQ(client.text_command("frobnicate").value_or("?"),
            "err malformed");
  EXPECT_EQ(client.text_command("ea 1 2").value_or("?"), "err malformed");
  EXPECT_EQ(client.text_command("ea a b c").value_or("?"), "err malformed");
  EXPECT_EQ(client.text_command("ping").value_or("?"), "ok pong");
  server.stop();
}

TEST(Server, MalformedBinaryFramesAreTypedAndClose) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();

  struct Case {
    std::string name;
    std::string bytes;
  };
  std::vector<Case> cases;
  {
    std::string huge;  // declared length way past the frame cap
    put_u32(huge, 0xffffffffu);
    cases.push_back({"huge-length", huge});
    std::string zero;  // below the opcode+req_id minimum
    put_u32(zero, 0);
    cases.push_back({"zero-length", zero});
    std::string op = encode_ping(7);
    op[4] = 0x7f;  // unknown opcode
    cases.push_back({"bad-opcode", op});
    // Right opcode, wrong argument length: a ping frame claiming EA.
    std::string wrong = encode_ping(8);
    wrong[4] = static_cast<char>(Opcode::kEarliestArrival);
    cases.push_back({"wrong-arg-length", wrong});
  }
  for (const Case& c : cases) {
    BlockingClient client(kHost, server.port(), 2000.0);
    ASSERT_TRUE(client.send_raw(c.bytes)) << c.name;
    auto payload = client.recv_frame();
    ASSERT_TRUE(payload.has_value()) << c.name;
    auto r = decode_response(payload->data(), payload->size());
    ASSERT_TRUE(r.has_value()) << c.name;
    EXPECT_EQ(r->header.status, Status::kMalformed) << c.name;
    // Binary framing is lost after a malformed frame: connection closes.
    EXPECT_FALSE(client.recv_frame().has_value()) << c.name;
  }
  // The server itself is unharmed.
  BlockingClient fresh(kHost, server.port());
  ASSERT_TRUE(fresh.ping().has_value());
  EXPECT_GE(server.stats().requests_malformed, cases.size());
  server.stop();
}

TEST(Server, FuzzSweepNeverCrashes) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();

  Rng rng(20260808);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 1 + rng.next_u64() % 64;
    std::string blob(len, '\0');
    for (char& b : blob) {
      b = static_cast<char>(rng.next_u64() & 0xff);
    }
    BlockingClient client(kHost, server.port(), 100.0);
    client.send_raw(blob);
    // Whatever the blob decoded to — a malformed reject, a valid tiny
    // request, or a partial frame the server is still waiting on — the
    // read either returns a frame or times out; it never hangs the server.
    (void)client.recv_frame();
  }
  BlockingClient fresh(kHost, server.port());
  ASSERT_TRUE(fresh.ping().has_value());
  server.stop();
}

TEST(Server, InvalidStationIsTypedBadRequest) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  BlockingClient client(kHost, server.port());

  auto r = client.earliest_arrival(999, 0, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kBadRequest);
  r = client.profile(0, 12345);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kBadRequest);
  // The connection survives a bad request.
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().requests_bad, 2u);
  server.stop();
}

TEST(Server, ForcedQueueOverflowShedsWithRetryAfter) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.faults = &faults;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port());

  faults.arm(FaultInjector::Site::kQueueOverflow);
  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOverloaded);
  EXPECT_GE(r->retry_after_ms, 1u);
  // Backpressure is per-request, not per-connection: the next one runs.
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().requests_shed, 1u);
  server.stop();
}

TEST(Server, PipelinedFloodGetsOnlyTypedAnswers) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.queue_capacity = 4;  // tiny queue: the flood must shed, not grow
  opt.request_deadline_ms = 10'000.0;  // statuses must be ok/shed only
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port());

  constexpr int kBurst = 100;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += encode_earliest_arrival(static_cast<std::uint32_t>(i), 0,
                                     8 * 3600, 2);
  }
  ASSERT_TRUE(client.send_raw(burst));
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto payload = client.recv_frame();
    ASSERT_TRUE(payload.has_value()) << "response " << i;
    auto r = decode_response(payload->data(), payload->size());
    ASSERT_TRUE(r.has_value());
    if (r->header.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r->header.status, Status::kOverloaded);
      EXPECT_GE(r->retry_after_ms, 1u);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests_ok, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.requests_shed, static_cast<std::uint64_t>(shed));
  server.stop();
}

TEST(Server, WorkerFaultAnswersInternalAndServerSurvives) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.faults = &faults;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port());

  faults.arm(FaultInjector::Site::kServerWorker);
  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kInternal);
  // Same worker, same connection: the fault poisoned nothing.
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().requests_internal, 1u);
  server.stop();
}

TEST(Server, DeadlineExpiryIsTypedInQueueAndPostExecution) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());

  {
    // In-queue expiry: a zero deadline ages out before the worker runs,
    // and the request is answered WITHOUT being executed.
    ServerOptions opt = fast_opts();
    opt.request_deadline_ms = 0.0;
    QueryServer server(live, opt);
    server.start();
    BlockingClient client(kHost, server.port());
    auto r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kDeadlineExceeded);
    EXPECT_EQ(server.stats().requests_deadline, 1u);
    EXPECT_EQ(server.stats().requests_ok, 0u);
    server.stop();
  }
  {
    // Post-execution overrun (forced): the query ran but its answer is
    // replaced by the typed error — the client already gave up.
    ServerOptions opt = fast_opts();
    opt.faults = &faults;
    QueryServer server(live, opt);
    server.start();
    BlockingClient client(kHost, server.port());
    faults.arm(FaultInjector::Site::kWorkerDeadline);
    auto r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kDeadlineExceeded);
    r = client.earliest_arrival(0, 8 * 3600, 2);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.status, Status::kOk);
    server.stop();
  }
}

TEST(Server, AcceptFaultIsTransient) {
  FaultInjector faults;
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.faults = &faults;
  QueryServer server(live, opt);
  server.start();

  faults.arm(FaultInjector::Site::kAccept);
  // The connect itself succeeds (TCP backlog); the server's first
  // accept_ready() trips the fault, the next epoll tick accepts us.
  BlockingClient client(kHost, server.port());
  auto r = client.ping();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(server.stats().accept_failures, 1u);
  server.stop();
}

TEST(Server, DegradedEpochServedFlatAndFlagged) {
  FaultInjector faults;
  LiveOverlayOptions lopt;
  lopt.faults = &faults;
  lopt.relink.faults = &faults;
  LiveOverlay live(test::tiny_line(), lopt);
  QueryServer server(live, fast_opts());
  server.start();
  BlockingClient client(kHost, server.port());

  auto r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.epoch, 0u);
  EXPECT_FALSE(r->header.degraded);
  const Time healthy_arr = r->arrival;

  // Degrade mid-serving: the relink faults, the new epoch has no overlay.
  faults.arm(FaultInjector::Site::kRelinkShortcut);
  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 300)).status,
            ApplyStatus::kDegraded);
  r = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.status, Status::kOk);
  EXPECT_EQ(r->header.epoch, 1u);
  EXPECT_TRUE(r->header.degraded);
  // Degraded serving is exact: agree with a direct flat-serving session.
  LiveQuerySession direct(live);
  EXPECT_EQ(r->arrival, direct.earliest_arrival(0, 8 * 3600, 2));
  EXPECT_GE(server.stats().degraded_served, 1u);

  // Recovery: same answers, overlay-routed again, flag drops.
  ASSERT_EQ(live.retry().status, ApplyStatus::kRecontracted);
  auto r2 = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->header.epoch, 2u);
  EXPECT_FALSE(r2->header.degraded);
  EXPECT_EQ(r2->arrival, r->arrival);
  (void)healthy_arr;  // the delay may legitimately change the answer
  server.stop();
}

TEST(Server, SlowClientOutputCapCloses) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.max_out_buf_bytes = 8;  // smaller than any single response frame
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port(), 2000.0);
  ASSERT_TRUE(client.send_raw(encode_ping(1)));
  // The response would breach the buffer budget: the connection closes
  // instead of the server holding unbounded output.
  EXPECT_FALSE(client.recv_frame().has_value());
  EXPECT_EQ(server.stats().slow_clients_closed, 1u);
  server.stop();
}

TEST(Server, IdleConnectionsAreReaped) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.idle_timeout_ms = 50.0;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port(), 3000.0);
  ASSERT_TRUE(client.ping().has_value());
  // Quiet past the idle deadline: the server closes us (client sees EOF).
  EXPECT_FALSE(client.recv_frame().has_value());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(server.stats().idle_reaped, 1u);
  server.stop();
}

TEST(Server, DrainFinishesInFlightAndAnswersLateRequestsTyped) {
  LiveOverlay live(test::tiny_line());
  ServerOptions opt = fast_opts();
  opt.queue_capacity = 8;
  opt.request_deadline_ms = 10'000.0;
  QueryServer server(live, opt);
  server.start();
  BlockingClient client(kHost, server.port(), 5000.0);

  // A served burst first, so drain has flushed real work behind it.
  constexpr int kBurst = 50;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += encode_earliest_arrival(static_cast<std::uint32_t>(i), 0,
                                     8 * 3600, 2);
  }
  ASSERT_TRUE(client.send_raw(burst));
  for (int i = 0; i < kBurst; ++i) {
    auto payload = client.recv_frame();
    ASSERT_TRUE(payload.has_value());
    auto r = decode_response(payload->data(), payload->size());
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->header.status == Status::kOk ||
                r->header.status == Status::kOverloaded);
  }

  server.request_drain();
  // A request racing the drain either gets the typed kShuttingDown answer
  // or a clean close — never a hang, never an untyped byte.
  if (client.send_raw(encode_ping(9999))) {
    auto payload = client.recv_frame();
    if (payload.has_value()) {
      auto r = decode_response(payload->data(), payload->size());
      ASSERT_TRUE(r.has_value());
      EXPECT_TRUE(r->header.status == Status::kShuttingDown ||
                  r->header.status == Status::kOk);
    }
  }
  server.wait();  // bounded by drain_deadline_ms; returning IS the test
  EXPECT_FALSE(server.running());
  EXPECT_THROW(BlockingClient(kHost, server.port(), 200.0),
               std::runtime_error);
}

TEST(Server, SigtermInstallsDrain) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  server.install_drain_signal(SIGTERM);
  {
    BlockingClient client(kHost, server.port());
    ASSERT_TRUE(client.ping().has_value());
  }
  ASSERT_EQ(std::raise(SIGTERM), 0);
  server.wait();
  EXPECT_THROW(BlockingClient(kHost, server.port(), 200.0),
               std::runtime_error);
}

TEST(Server, EpochTransitionVisibleThroughSocket) {
  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();
  BlockingClient client(kHost, server.port());

  auto before = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->header.epoch, 0u);

  ASSERT_EQ(live.apply(DelayEvent::delayed(0, 1, 300)).status,
            ApplyStatus::kRelinked);
  auto after = client.earliest_arrival(0, 8 * 3600, 2);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->header.epoch, 1u);
  // And the answer matches a direct session on the new epoch.
  LiveQuerySession direct(live);
  EXPECT_EQ(after->arrival, direct.earliest_arrival(0, 8 * 3600, 2));
  server.stop();
}

TEST(Server, SurvivesSignalStormDuringPipelinedFlood) {
  // EINTR regression for every syscall in the serving path: a thread
  // hammers the process with a handler-installed, non-SA_RESTART signal
  // while a pipelined flood runs, so epoll_wait / accept4 / recv / send /
  // eventfd reads keep getting interrupted mid-call. Every response must
  // still arrive complete and correct — no short writes, no dropped
  // frames, no spun-out IO loop.
  struct sigaction sa {};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls fail EINTR
  struct sigaction old_sa {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old_sa), 0);

  LiveOverlay live(test::tiny_line());
  QueryServer server(live, fast_opts());
  server.start();  // server threads inherit an unblocked SIGUSR1

  // Block SIGUSR1 on this thread BEFORE spawning the storm thread (which
  // inherits the blocked mask): process-directed kill() then has only the
  // server's IO and worker threads left to deliver to.
  sigset_t block, old_mask;
  sigemptyset(&block);
  sigaddset(&block, SIGUSR1);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block, &old_mask), 0);

  std::atomic<bool> stop{false};
  std::thread storm([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  LiveQuerySession direct(live);
  const Time expected = direct.earliest_arrival(0, 8 * 3600, 2);
  BlockingClient client(kHost, server.port());
  constexpr int kBursts = 20;
  constexpr std::uint32_t kPerBurst = 16;
  std::uint32_t req_id = 1;
  for (int burst = 0; burst < kBursts; ++burst) {
    // Pipelined: write the whole burst, then collect every response.
    std::string frames;
    for (std::uint32_t i = 0; i < kPerBurst; ++i) {
      frames += encode_earliest_arrival(req_id + i, 0, 8 * 3600, 2);
    }
    ASSERT_TRUE(client.send_raw(frames));
    for (std::uint32_t i = 0; i < kPerBurst; ++i) {
      auto payload = client.recv_frame();
      ASSERT_TRUE(payload.has_value())
          << "burst " << burst << " frame " << i << ": "
          << client_error_name(client.last_error());
      auto res = decode_response(payload->data(), payload->size());
      ASSERT_TRUE(res.has_value());
      EXPECT_EQ(res->header.status, Status::kOk);
      EXPECT_EQ(res->header.req_id, req_id + i);
      EXPECT_EQ(res->arrival, expected);
    }
    req_id += kPerBurst;
  }

  stop.store(true, std::memory_order_release);
  storm.join();
  EXPECT_GE(server.stats().requests_ok,
            static_cast<std::uint64_t>(kBursts) * kPerBurst);
  server.stop();

  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &old_mask, nullptr), 0);
  ASSERT_EQ(sigaction(SIGUSR1, &old_sa, nullptr), 0);
}

}  // namespace pconn
