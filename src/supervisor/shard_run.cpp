// shard_process_main — the body of pconn_shardd, one shard of the
// supervised fleet (supervisor.hpp; docs/server.md "Sharding &
// supervision").
//
// Lifecycle: map the snapshot (read-only, shared page cache with every
// sibling shard), adopt it into a LiveOverlay without re-contracting,
// adopt the inherited SO_REUSEPORT listener into a QueryServer, then sit
// in the heartbeat loop — one byte per interval on the inherited pipe,
// the first of which tells the supervisor "ready". SIGTERM (forwarded by
// the supervisor's fleet drain) flips QueryServer::draining(); the loop
// notices, stops beating, waits for the in-place drain, exits 0.
//
// CPU share: the supervisor passes --workers=W and --shards=N (default 1
// when run by hand). The shard takes shard_cpu_share(affinity, N) of the
// CPUs in its affinity mask as ServerOptions::cpus, and its W workers
// split that share for their profile fan-out (spcs_threads_per_worker).
//
// Any failure before serving begins — unreadable or corrupt snapshot,
// snapshot from a different dataset, unusable listener fd — exits with
// kShardExitSnapshotFatal: it is deterministic, a restart replays it, and
// the supervisor holds the shard down instead of crash-looping.
//
// Chaos flags (tests/supervisor_test.cpp): --fault-crash-after=N makes
// the N-th heartbeat tick _exit(kShardExitCrash) abruptly;
// --fault-hang-after=N makes it SIGSTOP itself (beats stop, process
// lives — the supervisor's hung-shard detector must notice);
// --fault-snapshot-map makes MappedSnapshot itself refuse.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "live/live_overlay.hpp"
#include "server/server.hpp"
#include "supervisor/supervisor.hpp"
#include "timetable/snapshot.hpp"

namespace pconn {

namespace {

bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int shard_process_main(int argc, char** argv) {
  int listen_fd = 3;
  int heartbeat_fd = 4;
  std::string snapshot_path;
  unsigned workers = 1;
  unsigned shards = 1;
  unsigned shard_index = 0;
  double heartbeat_interval_ms = 20.0;
  double request_deadline_ms = 1000.0;
  double drain_deadline_ms = 2000.0;
  std::size_t queue_capacity = 0;
  long crash_after = -1;
  long hang_after = -1;
  bool fault_snapshot_map = false;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "--listen-fd", &v)) {
      listen_fd = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--heartbeat-fd", &v)) {
      heartbeat_fd = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--snapshot", &v)) {
      snapshot_path = v;
    } else if (parse_flag(argv[i], "--workers", &v)) {
      workers = static_cast<unsigned>(std::atoi(v.c_str()));
    } else if (parse_flag(argv[i], "--shards", &v)) {
      shards = static_cast<unsigned>(std::atoi(v.c_str()));
    } else if (parse_flag(argv[i], "--shard-index", &v)) {
      shard_index = static_cast<unsigned>(std::atoi(v.c_str()));
    } else if (parse_flag(argv[i], "--heartbeat-interval-ms", &v)) {
      heartbeat_interval_ms = std::atof(v.c_str());
    } else if (parse_flag(argv[i], "--request-deadline-ms", &v)) {
      request_deadline_ms = std::atof(v.c_str());
    } else if (parse_flag(argv[i], "--drain-deadline-ms", &v)) {
      drain_deadline_ms = std::atof(v.c_str());
    } else if (parse_flag(argv[i], "--queue-capacity", &v)) {
      queue_capacity = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (parse_flag(argv[i], "--fault-crash-after", &v)) {
      crash_after = std::atol(v.c_str());
    } else if (parse_flag(argv[i], "--fault-hang-after", &v)) {
      hang_after = std::atol(v.c_str());
    } else if (std::strcmp(argv[i], "--fault-snapshot-map") == 0) {
      fault_snapshot_map = true;
    } else {
      std::fprintf(stderr, "shardd: unknown argument %s\n", argv[i]);
      return kShardExitSnapshotFatal;
    }
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "shardd: --snapshot is required\n");
    return kShardExitSnapshotFatal;
  }

  // A heartbeat write racing a dead supervisor must fail with EPIPE, not
  // kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  FaultInjector faults;
  if (crash_after >= 0) {
    faults.arm(FaultInjector::Site::kShardCrash,
               static_cast<std::uint32_t>(crash_after));
  }
  if (hang_after >= 0) {
    faults.arm(FaultInjector::Site::kShardHang,
               static_cast<std::uint32_t>(hang_after));
  }
  if (fault_snapshot_map) {
    faults.arm(FaultInjector::Site::kSnapshotMap, 0);
  }

  std::optional<LiveOverlay> live;
  try {
    MappedSnapshot snap(snapshot_path, &faults);
    Timetable tt = snap.load_timetable();
    if (snap.has_overlay()) {
      live.emplace(std::move(tt), snap.load_overlay());
    } else {
      // No overlay section: contract at startup (slow path — supervised
      // deployments should bake the overlay into the snapshot).
      live.emplace(std::move(tt));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shardd[%u]: snapshot %s: %s\n", shard_index,
                 snapshot_path.c_str(), e.what());
    return kShardExitSnapshotFatal;
  }

  ServerOptions sopt;
  sopt.listen_fd = listen_fd;
  sopt.workers = workers;
  sopt.cpus = shard_cpu_share(affinity_cpu_count(), shards);
  sopt.request_deadline_ms = request_deadline_ms;
  sopt.drain_deadline_ms = drain_deadline_ms;
  sopt.queue_capacity = queue_capacity;
  QueryServer server(*live, sopt);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shardd[%u]: start: %s\n", shard_index, e.what());
    return kShardExitSnapshotFatal;
  }
  server.install_drain_signal(SIGTERM);

  // Heartbeat loop. Each tick consults the chaos sites, then writes one
  // byte: the first byte after a successful start() is the readiness
  // signal the supervisor's wait_healthy() gates on.
  const auto interval =
      std::chrono::duration<double, std::milli>(heartbeat_interval_ms);
  while (!server.draining()) {
    if (faults.fires(FaultInjector::Site::kShardCrash)) {
      // Abrupt death mid-serving: no drain, no flush — exactly what a
      // segfault looks like to the supervisor and to connected clients.
      ::_exit(kShardExitCrash);
    }
    if (faults.fires(FaultInjector::Site::kShardHang)) {
      // Stop beating but stay alive: the hung-shard ladder, not the
      // crashed-shard one, has to catch this.
      ::raise(SIGSTOP);
    }
    const char beat = 'b';
    const ssize_t w = ::write(heartbeat_fd, &beat, 1);
    if (w < 0 && errno == EPIPE) {
      // Supervisor is gone; nobody will restart us. Drain and leave.
      server.request_drain();
      break;
    }
    std::this_thread::sleep_for(interval);
  }
  server.wait();
  return kShardExitOk;
}

}  // namespace pconn
