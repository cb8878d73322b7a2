// QueryServer — the overload-resilient serving front-end (docs/server.md,
// docs/architecture.md "Serving front-end").
//
// One IO thread runs a non-blocking epoll loop: it accepts TCP
// connections, parses frames at the boundary (malformed input is answered
// and never reaches a worker), admits requests into a bounded MPMC queue,
// and flushes worker-produced responses back to sockets. A fixed pool of
// workers each owns one warm LiveQuerySessionT and picks requests up by
// atomic index; answers are encoded through src/server/protocol.hpp, the
// same encoders the byte-identity oracles use. A worker answers a profile
// request with the paper's partitioned parallel SPCS over its share of
// the CPUs (spcs_threads_per_worker()); EA requests run on the worker
// alone.
//
// The resilience ladder, top to bottom — every rung answers with a typed
// Status instead of crashing, blocking, or growing without bound:
//
//   admission     queue capacity and max connections derived from a memory
//                 budget and the measured per-worker
//                 scratch_bytes_reserved() (plan_admission());
//   backpressure  full queue => kOverloaded + Retry-After hint, computed
//                 from the EWMA service time and current depth;
//   deadlines     a request older than its deadline is answered
//                 kDeadlineExceeded — without executing when it aged out
//                 in the queue, and its result is discarded when the
//                 execution itself overran;
//   slow clients  a connection that stops reading while output is pending
//                 is closed after write_timeout_ms; idle connections are
//                 reaped after idle_timeout_ms;
//   bad input     rejected at the parse boundary with kMalformed /
//                 kBadRequest (binary connections close after a malformed
//                 frame — framing is lost; text connections survive);
//   degradation   a degraded LiveOverlay epoch is served through the flat
//                 engines — slower, still exact, flagged in the response;
//   worker fault  an exception inside a query answers kInternal and the
//                 worker lives on;
//   drain         request_drain() (async-signal-safe, SIGTERM-installable)
//                 stops accepting, answers new requests kShuttingDown,
//                 finishes the queue within drain_deadline_ms, flushes,
//                 and exits.
//
// Fault sites (util/fault_injector.hpp): kAccept, kServerWorker,
// kQueueOverflow, kWorkerDeadline — every rung is driven deterministically
// in tests/server_test.cpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "live/live_overlay.hpp"
#include "live/live_session.hpp"
#include "server/protocol.hpp"
#include "server/request_queue.hpp"
#include "util/fault_injector.hpp"

namespace pconn {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  unsigned workers = 1;
  /// CPUs the workers share; 0 = the size of this process's
  /// sched_getaffinity mask (affinity_cpu_count()). Each worker's profile
  /// requests fan out over spcs_threads_per_worker(cpus, workers)
  /// threads. A shard of an N-shard fleet gets shard_cpu_share(affinity,
  /// N), so sibling shards do not oversubscribe the machine N-fold.
  unsigned cpus = 0;

  /// >= 0: adopt this already-bound, already-listening socket instead of
  /// creating one (the supervisor passes each shard its SO_REUSEPORT
  /// listener this way; the fd is made non-blocking and owned — closed on
  /// stop). host/port/reuse_port are ignored when set.
  int listen_fd = -1;
  /// Sets SO_REUSEPORT on the listener the server creates itself, so
  /// multiple processes can bind one address and let the kernel
  /// load-balance connections (docs/server.md "Sharding & supervision").
  bool reuse_port = false;

  /// Memory budget the admission plan divides between worker scratch,
  /// queued requests, and connection buffers (docs/server.md).
  std::size_t memory_budget_bytes = std::size_t{64} << 20;
  /// 0 = derive from the admission plan; nonzero overrides.
  std::size_t queue_capacity = 0;
  std::size_t max_connections = 0;

  double request_deadline_ms = 1000.0;
  double idle_timeout_ms = 30'000.0;
  double write_timeout_ms = 5'000.0;  // slow-client cap
  double drain_deadline_ms = 5'000.0;

  std::size_t max_request_bytes = std::size_t{64} << 10;  // frame cap
  std::size_t max_out_buf_bytes = std::size_t{4} << 20;   // per connection

  FaultInjector* faults = nullptr;  // null in production
};

/// The admission-control math, exposed as a pure function so tests and
/// docs/server.md can state it exactly. Budget not consumed by worker
/// scratch is split evenly between queued work and connection buffers.
struct AdmissionPlan {
  std::size_t per_worker_scratch_bytes = 0;  // measured, not guessed
  std::size_t per_request_bytes = 0;     // queued request + typical response
  std::size_t per_connection_bytes = 0;  // in_buf cap + typical response
  std::size_t queue_capacity = 0;
  std::size_t max_connections = 0;
};

AdmissionPlan plan_admission(std::size_t memory_budget_bytes,
                             unsigned workers,
                             std::size_t per_worker_scratch_bytes,
                             std::size_t max_request_bytes);

/// CPUs in this process's sched_getaffinity mask — what cpusets and
/// taskset leave it — falling back to hardware_concurrency() when the
/// mask cannot be read. Always >= 1.
unsigned affinity_cpu_count();

/// The CPU-share rule of the serving path: each of `workers` workers runs
/// its profile requests' partitioned SPCS on max(1, cpus / workers)
/// threads, so all workers fanning out at once stay within `cpus`. A
/// `cpus` of 0 means affinity_cpu_count(); `workers` of 0 counts as 1.
unsigned spcs_threads_per_worker(unsigned cpus, unsigned workers);

/// The CPUs one of `shards` sibling shard processes may use on a machine
/// (or cpuset) of `affinity` CPUs: max(1, affinity / shards), `shards` of
/// 0 counting as 1. pconn_shardd sets ServerOptions::cpus to this.
unsigned shard_cpu_share(unsigned affinity, unsigned shards);

/// Monotonic counters, readable from any thread while the server runs.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // at max_connections
  std::uint64_t accept_failures = 0;       // transient accept() errors
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_bad = 0;        // kBadRequest
  std::uint64_t requests_malformed = 0;  // kMalformed
  std::uint64_t requests_shed = 0;       // kOverloaded
  std::uint64_t requests_deadline = 0;   // kDeadlineExceeded
  std::uint64_t requests_shutdown = 0;   // kShuttingDown
  std::uint64_t requests_internal = 0;   // kInternal (worker faults)
  std::uint64_t degraded_served = 0;     // kOk answered by flat engines
  std::uint64_t idle_reaped = 0;
  std::uint64_t slow_clients_closed = 0;
};

class QueryServer {
 public:
  /// Serves `live`'s epochs. The LiveOverlay must outlive the server;
  /// apply()/retry() stay with the caller's updater thread (single-writer
  /// contract) — the server only ever reads snapshots.
  ///
  /// `session_opt` configures every worker's session (and the admission
  /// probe's) except `threads`, which the server derives:
  /// spcs_threads_per_worker(opt.cpus, opt.workers). Whatever the caller
  /// sets there is overwritten; read the result via session_options().
  QueryServer(const LiveOverlay& live, ServerOptions opt = {},
              QuerySessionOptions session_opt = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, measures the admission plan, and spawns the IO thread and
  /// worker pool. Throws std::runtime_error when the socket setup fails.
  void start();

  /// The bound port (after start()); useful with opt.port = 0.
  std::uint16_t port() const { return port_; }
  const AdmissionPlan& admission() const { return plan_; }
  /// The options every worker session runs with (threads derived).
  const QuerySessionOptions& session_options() const { return session_opt_; }

  /// Async-signal-safe drain trigger: stop accepting, answer new requests
  /// kShuttingDown, finish the queue within drain_deadline_ms, flush and
  /// exit the IO loop. Safe to call from a SIGTERM handler.
  void request_drain() noexcept;

  /// Installs a process signal handler for `signo` (typically SIGTERM)
  /// that calls request_drain() on this server. One server at a time.
  void install_drain_signal(int signo);

  /// Blocks until the IO loop has exited (drain finished or stop()).
  void wait();
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// True once a drain was requested (signal or call) — lets an embedding
  /// process (the shard main loop) notice SIGTERM-initiated drains.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Hard stop: request_drain() + join everything. Idempotent; the
  /// destructor calls it.
  void stop();

  ServerStats stats() const;

  // Accepted-request latency histogram: arrival (admission) to execution
  // end, answered requests only — shed and deadline-expired work is
  // excluded, so by the deadline mechanism every counted latency is
  // <= request_deadline_ms. Bucket i counts latencies in
  // [i << kLatencyBucketShiftNs, (i+1) << kLatencyBucketShiftNs) ns;
  // the last bucket absorbs the overflow.
  static constexpr int kLatencyBucketShiftNs = 12;  // ~4.1 us buckets
  static constexpr std::size_t kLatencyBuckets = 2048;  // ~8.4 ms span
  std::vector<std::uint64_t> accepted_latency_hist() const;

 private:
  struct Conn;
  struct Request {
    int fd = -1;
    std::uint64_t gen = 0;
    Opcode opcode = Opcode::kPing;
    bool text = false;
    std::uint32_t req_id = 0;
    std::uint32_t a = 0, b = 0, c = 0;  // opcode args
    std::chrono::steady_clock::time_point arrival{};
    std::chrono::steady_clock::time_point deadline{};
  };
  struct Completion {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string bytes;
  };

  void io_main();
  void worker_main(unsigned widx);

  // IO-thread helpers (definitions in server.cpp).
  void accept_ready();
  void conn_readable(Conn& c);
  void conn_writable(Conn& c);
  bool parse_binary(Conn& c);
  bool parse_text(Conn& c);
  void admit(Conn& c, const Request& r);
  void enqueue_response(Conn& c, std::string bytes);
  void close_conn(int fd);
  void sweep_timeouts(std::chrono::steady_clock::time_point now);
  void drain_completions();
  std::uint32_t retry_after_ms() const;

  // Worker helpers.
  std::string execute(LiveQuerySession& session, const Request& r);
  void post_completion(Completion done);

  const LiveOverlay& live_;
  ServerOptions opt_;
  QuerySessionOptions session_opt_;
  AdmissionPlan plan_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions, drain, stop
  std::uint16_t port_ = 0;

  std::unique_ptr<BoundedMpmcQueue<Request>> queue_;
  std::counting_semaphore<> work_sem_{0};
  std::atomic<std::size_t> inflight_{0};  // queued + executing + completing

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  std::vector<std::unique_ptr<Conn>> conns_;  // indexed by fd
  std::size_t open_conns_ = 0;
  std::uint64_t next_gen_ = 1;

  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> stop_hard_{false};

  /// EWMA of worker service time in nanoseconds (relaxed; feeds the
  /// Retry-After hint only).
  std::atomic<std::uint64_t> ewma_service_ns_{0};

  struct AtomicStats;  // mirrors ServerStats with atomics
  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace pconn
