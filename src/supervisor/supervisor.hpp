// ShardSupervisor — crash-resilient multi-process serving (docs/server.md
// "Sharding & supervision").
//
// One supervisor process owns N SO_REUSEPORT listening sockets bound to
// one address and spawns N shard processes (pconn_shardd), passing each
// its own listener; the kernel load-balances incoming connections across
// the shards' accept queues. Shards are plain QueryServer processes that
// map the shared read-only snapshot (timetable/snapshot.hpp) — all N
// share one page-cache copy of the dataset, and a restarted shard is
// serving warm in milliseconds because adoption skips the builder replay
// and the initial contraction.
//
// Supervision contract:
//   heartbeats   each shard writes a byte on its pipe every interval; the
//                first beat doubles as the readiness signal (it is sent
//                only after QueryServer::start() succeeded);
//   crash        waitpid notices the exit; the parent KEEPS the dead
//                shard's listener open, so connections that hash to it
//                queue in the accept backlog and are answered by the
//                restarted shard instead of being refused;
//   hang         a live process that stops beating (SIGSTOP, livelock)
//                is SIGKILLed after heartbeat_timeout_ms and restarted —
//                a hung shard holds sockets hostage, a dead one does not;
//   restart      under capped decorrelated-jitter backoff
//                (util/backoff.hpp, shared with LiveOverlay::retry()):
//                sleep_k = min(cap, uniform(base, 3 * sleep_{k-1}));
//   crash loop   K deaths within W ms => hold down (no restart) for
//                hold_down_ms, logged; the held shard's listener is
//                closed so the kernel re-balances new connections onto
//                the surviving shards instead of black-holing them;
//   config fatal a shard exiting with kShardExitSnapshotFatal (bad or
//                unreadable snapshot — deterministic, a restart cannot
//                fix it) is held down immediately, no K-death grace;
//   drain        request_drain() (SIGTERM-installable) forwards SIGTERM
//                to every shard — each QueryServer drains in place —
//                waits up to drain_deadline_ms, SIGKILLs stragglers, and
//                reaps everything before wait() returns.
//
// Shards are spawned with posix_spawn (never fork() alone: the
// supervisor is embedded in threaded test processes where a raw fork can
// deadlock in the allocator); the listener and heartbeat pipe ride in on
// fixed fds via addup2 file actions.
//
// Fault sites (armed inside the SHARD via --fault-* flags, exercised in
// tests/supervisor_test.cpp): kShardCrash (abrupt _exit mid-serving),
// kShardHang (SIGSTOP self — stops beating), kSnapshotMap (MappedSnapshot
// rejects => config-fatal exit).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace pconn {

/// Shard process exit codes with supervisor-visible meaning.
constexpr int kShardExitOk = 0;
/// Snapshot/config failure before serving began: deterministic, a restart
/// cannot fix it — the supervisor holds the shard down immediately.
constexpr int kShardExitSnapshotFatal = 66;
/// The kShardCrash fault site's abrupt exit (tests tell injected crashes
/// from real ones by this code).
constexpr int kShardExitCrash = 113;

/// Entry point of the shard process (pconn_shardd wraps exactly this):
/// maps the snapshot, adopts the inherited listener into a QueryServer,
/// heartbeats on the inherited pipe, drains on SIGTERM.
int shard_process_main(int argc, char** argv);

struct SupervisorOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read via port() after start()
  unsigned shards = 2;
  unsigned shard_workers = 1;

  /// Snapshot file every shard maps (save_snapshot output). Required.
  std::string snapshot_path;
  /// Shard executable; empty = "pconn_shardd" next to /proc/self/exe
  /// (tests and benches run from the build root, where both live).
  std::string shard_binary;
  /// Extra argv entries for every shard (the chaos harness's --fault-*).
  std::vector<std::string> shard_extra_args;

  double heartbeat_interval_ms = 20.0;
  /// No beat for this long (while the process is alive) => hung => SIGKILL.
  double heartbeat_timeout_ms = 1000.0;

  /// Decorrelated-jitter restart backoff: base and per-sleep cap.
  double restart_backoff_ms = 20.0;
  double restart_backoff_cap_ms = 2000.0;
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;

  /// Crash loop: >= crash_loop_deaths deaths within crash_loop_window_ms
  /// => hold down for hold_down_ms (then try once more).
  std::uint32_t crash_loop_deaths = 5;
  double crash_loop_window_ms = 10'000.0;
  double hold_down_ms = 5'000.0;

  /// Fleet drain bound: SIGTERM everywhere, then SIGKILL stragglers.
  double drain_deadline_ms = 5'000.0;

  // Forwarded to each shard's ServerOptions.
  double request_deadline_ms = 1'000.0;
  double shard_drain_deadline_ms = 2'000.0;
  std::size_t queue_capacity = 0;  // 0 = let the shard's plan derive it

  /// Log supervision events (spawns, deaths, hold-downs) to stderr.
  bool log = false;
};

enum class ShardState : std::uint8_t {
  kStarting = 0,  // spawned, no heartbeat yet
  kHealthy = 1,   // beating
  kBackoff = 2,   // dead, restart scheduled
  kHeldDown = 3,  // crash loop / config fatal: parked, listener closed
  kStopped = 4,   // drained / supervisor stopped
};

struct SupervisorStats {
  std::uint64_t spawns = 0;          // shard process launches, initial included
  std::uint64_t deaths = 0;          // exits reaped, drain included
  std::uint64_t crashes = 0;         // abnormal exits (signal / nonzero)
  std::uint64_t hung_kills = 0;      // heartbeat-timeout SIGKILLs
  std::uint64_t restarts = 0;        // relaunches after a death
  std::uint64_t hold_downs = 0;      // crash-loop / config-fatal park events
  std::uint64_t snapshot_fatal = 0;  // kShardExitSnapshotFatal exits
  std::uint64_t drained_ok = 0;      // clean exits during the fleet drain
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(SupervisorOptions opt);
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Binds the SO_REUSEPORT socket set, spawns every shard, and starts
  /// the monitor thread. Throws std::runtime_error on socket/spawn setup
  /// failure.
  void start();

  /// The one port every shard serves (after start()).
  std::uint16_t port() const { return port_; }
  unsigned shard_count() const;
  /// -1 when the shard is not currently running.
  pid_t shard_pid(unsigned idx) const;
  ShardState shard_state(unsigned idx) const;
  /// Shards currently kHealthy (spawned AND heard from).
  unsigned healthy_shards() const;
  /// Polls until >= n shards are healthy; false on timeout. The readiness
  /// probe tests and benches gate on before offering load.
  bool wait_healthy(unsigned n, double timeout_ms) const;

  /// Fleet-wide coordinated drain (async-signal-safe: atomic + eventfd).
  void request_drain() noexcept;
  /// Installs a handler for `signo` (typically SIGTERM) that calls
  /// request_drain() on this supervisor. One supervisor at a time.
  void install_drain_signal(int signo);
  /// Blocks until the monitor loop exited (drain finished).
  void wait();
  /// request_drain() + wait(). Idempotent; the destructor calls it.
  void stop();

  SupervisorStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard {
    int listen_fd = -1;       // parent's copy; stays open across restarts
    int hb_fd = -1;           // heartbeat pipe read end (current incarnation)
    pid_t pid = -1;
    ShardState state = ShardState::kStopped;
    Clock::time_point last_beat{};
    Clock::time_point restart_at{};
    double prev_backoff_ms = 0.0;
    bool kill_sent = false;  // hung-shard SIGKILL fired for this incarnation
    std::deque<Clock::time_point> death_times;  // crash-loop window
  };

  void monitor_main();
  bool spawn_shard(unsigned idx);          // caller holds mutex_
  void reap_shard(unsigned idx, int status, Clock::time_point now);
  int make_listener() const;               // bound + listening, fd >= 10
  void logf(const char* fmt, ...) const;

  SupervisorOptions opt_;
  std::uint16_t port_ = 0;
  int wake_fd_ = -1;  // eventfd: drain request
  mutable std::mutex mutex_;  // guards shards_, stats_, rng_
  std::vector<Shard> shards_;
  SupervisorStats stats_;
  Rng rng_;
  std::thread monitor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> drain_requested_{false};
};

}  // namespace pconn
