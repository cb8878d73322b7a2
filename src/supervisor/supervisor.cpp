#include "supervisor/supervisor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/backoff.hpp"

extern char** environ;

namespace pconn {

namespace {

/// Raise an fd above the dup2 staging slots (3, 4) so a spawn file action
/// never dup2s over its own source; CLOEXEC so only the staged copies
/// reach the child.
int raise_cloexec(int fd) {
  if (fd < 0) return fd;
  const int raised = ::fcntl(fd, F_DUPFD_CLOEXEC, 10);
  if (raised < 0) {
    ::close(fd);
    return -1;
  }
  ::close(fd);
  return raised;
}

std::string default_shard_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "pconn_shardd";  // fall back to PATH lookup
  buf[n] = '\0';
  std::string self(buf);
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return "pconn_shardd";
  return self.substr(0, slash + 1) + "pconn_shardd";
}

std::atomic<ShardSupervisor*> g_signal_supervisor{nullptr};

void supervisor_drain_handler(int) {
  if (ShardSupervisor* s = g_signal_supervisor.load(std::memory_order_acquire);
      s != nullptr) {
    s->request_drain();
  }
}

}  // namespace

ShardSupervisor::ShardSupervisor(SupervisorOptions opt)
    : opt_(std::move(opt)), rng_(opt_.backoff_seed) {}

ShardSupervisor::~ShardSupervisor() {
  stop();
  if (g_signal_supervisor.load(std::memory_order_acquire) == this) {
    g_signal_supervisor.store(nullptr, std::memory_order_release);
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void ShardSupervisor::logf(const char* fmt, ...) const {
  if (!opt_.log) return;
  char line[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(line, sizeof(line), fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "[supervisor] %s\n", line);
}

int ShardSupervisor::make_listener() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    return -1;
  }
  return raise_cloexec(fd);
}

void ShardSupervisor::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (opt_.snapshot_path.empty()) {
    throw std::runtime_error("supervisor: snapshot_path is required");
  }
  if (opt_.shards == 0) opt_.shards = 1;
  if (opt_.shard_binary.empty()) opt_.shard_binary = default_shard_binary();

  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw std::runtime_error("supervisor: eventfd failed");

  auto fail = [this](const char* what) {
    for (Shard& s : shards_) {
      if (s.listen_fd >= 0) ::close(s.listen_fd);
      if (s.hb_fd >= 0) ::close(s.hb_fd);
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
        ::waitpid(s.pid, nullptr, 0);
      }
    }
    shards_.clear();
    ::close(wake_fd_);
    wake_fd_ = -1;
    throw std::runtime_error(std::string("supervisor: ") + what);
  };

  // Bind the SO_REUSEPORT listener set up front: the first bind discovers
  // the ephemeral port, the rest join it. The parent keeps every fd so a
  // shard's accept backlog survives its death.
  port_ = opt_.port;
  shards_.resize(opt_.shards);
  for (unsigned i = 0; i < opt_.shards; ++i) {
    shards_[i].listen_fd = make_listener();
    if (shards_[i].listen_fd < 0) fail("cannot bind SO_REUSEPORT listener");
    if (i == 0 && port_ == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(shards_[0].listen_fd,
                        reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        fail("getsockname failed");
      }
      port_ = ntohs(bound.sin_port);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned i = 0; i < opt_.shards; ++i) {
      if (!spawn_shard(i)) fail("cannot spawn shard");
    }
  }

  running_.store(true, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_main(); });
}

bool ShardSupervisor::spawn_shard(unsigned idx) {
  Shard& s = shards_[idx];
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return false;
  const int hb_read = raise_cloexec(pipe_fds[0]);
  const int hb_write = raise_cloexec(pipe_fds[1]);
  if (hb_read < 0 || hb_write < 0) {
    if (hb_read >= 0) ::close(hb_read);
    if (hb_write >= 0) ::close(hb_write);
    return false;
  }
  ::fcntl(hb_read, F_SETFL, O_NONBLOCK);

  char arg_buf[16][64];
  int nbuf = 0;
  auto fmt_arg = [&](const char* fmt, auto value) {
    std::snprintf(arg_buf[nbuf], sizeof(arg_buf[nbuf]), fmt, value);
    return arg_buf[nbuf++];
  };
  std::string snapshot_arg = "--snapshot=" + opt_.snapshot_path;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(opt_.shard_binary.c_str()));
  argv.push_back(const_cast<char*>("--listen-fd=3"));
  argv.push_back(const_cast<char*>("--heartbeat-fd=4"));
  argv.push_back(const_cast<char*>(snapshot_arg.c_str()));
  argv.push_back(fmt_arg("--workers=%u", opt_.shard_workers));
  argv.push_back(fmt_arg("--shards=%u", opt_.shards));
  argv.push_back(fmt_arg("--shard-index=%u", idx));
  argv.push_back(
      fmt_arg("--heartbeat-interval-ms=%.3f", opt_.heartbeat_interval_ms));
  argv.push_back(
      fmt_arg("--request-deadline-ms=%.3f", opt_.request_deadline_ms));
  argv.push_back(
      fmt_arg("--drain-deadline-ms=%.3f", opt_.shard_drain_deadline_ms));
  if (opt_.queue_capacity != 0) {
    argv.push_back(fmt_arg("--queue-capacity=%zu", opt_.queue_capacity));
  }
  for (const std::string& extra : opt_.shard_extra_args) {
    argv.push_back(const_cast<char*>(extra.c_str()));
  }
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, s.listen_fd, 3);
  posix_spawn_file_actions_adddup2(&fa, hb_write, 4);

  // Hand the child a clean signal slate: the supervisor lives inside
  // threaded test processes that block/ignore signals for their own
  // purposes, and a shard spawned with SIGTERM blocked could never drain.
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  sigset_t empty, full;
  sigemptyset(&empty);
  sigfillset(&full);
  posix_spawnattr_setsigmask(&attr, &empty);
  posix_spawnattr_setsigdefault(&attr, &full);
  posix_spawnattr_setflags(&attr,
                           POSIX_SPAWN_SETSIGMASK | POSIX_SPAWN_SETSIGDEF);

  pid_t pid = -1;
  const int rc = ::posix_spawnp(&pid, opt_.shard_binary.c_str(), &fa, &attr,
                                argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  ::close(hb_write);  // child holds the only remaining write end

  if (rc != 0) {
    ::close(hb_read);
    logf("shard %u: spawn failed: %s", idx, std::strerror(rc));
    return false;
  }
  s.pid = pid;
  s.hb_fd = hb_read;
  s.state = ShardState::kStarting;
  s.last_beat = Clock::now();  // grace period runs from the spawn
  s.kill_sent = false;
  ++stats_.spawns;
  logf("shard %u: spawned pid %d", idx, static_cast<int>(pid));
  return true;
}

void ShardSupervisor::reap_shard(unsigned idx, int status,
                                 Clock::time_point now) {
  Shard& s = shards_[idx];
  if (s.hb_fd >= 0) {
    ::close(s.hb_fd);
    s.hb_fd = -1;
  }
  const pid_t dead = s.pid;
  s.pid = -1;
  ++stats_.deaths;
  const bool exited = WIFEXITED(status);
  const int code = exited ? WEXITSTATUS(status) : -1;
  const bool clean = exited && code == kShardExitOk;

  if (drain_requested_.load(std::memory_order_acquire)) {
    if (clean) {
      ++stats_.drained_ok;
    } else {
      ++stats_.crashes;
    }
    s.state = ShardState::kStopped;
    logf("shard %u: pid %d exited during drain (%s)", idx,
         static_cast<int>(dead), clean ? "clean" : "not clean");
    return;
  }

  if (!clean) ++stats_.crashes;
  if (exited && code == kShardExitSnapshotFatal) {
    // Deterministic config failure: restarting replays the same failure,
    // so park immediately — no K-death grace — and release the listener
    // so the kernel steers new connections to healthy shards.
    ++stats_.snapshot_fatal;
    ++stats_.hold_downs;
    s.state = ShardState::kHeldDown;
    s.restart_at =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(opt_.hold_down_ms));
    if (s.listen_fd >= 0) {
      ::close(s.listen_fd);
      s.listen_fd = -1;
    }
    logf("shard %u: snapshot-fatal exit, held down", idx);
    return;
  }

  s.death_times.push_back(now);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(opt_.crash_loop_window_ms));
  while (!s.death_times.empty() && now - s.death_times.front() > window) {
    s.death_times.pop_front();
  }
  if (s.death_times.size() >= opt_.crash_loop_deaths) {
    ++stats_.hold_downs;
    s.state = ShardState::kHeldDown;
    s.restart_at =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(opt_.hold_down_ms));
    s.death_times.clear();
    s.prev_backoff_ms = 0.0;
    if (s.listen_fd >= 0) {
      ::close(s.listen_fd);
      s.listen_fd = -1;
    }
    logf("shard %u: crash loop (%u deaths in window), held down for %.0f ms",
         idx, opt_.crash_loop_deaths, opt_.hold_down_ms);
    return;
  }

  const double backoff =
      decorrelated_jitter(std::max(1.0, opt_.restart_backoff_ms),
                          opt_.restart_backoff_cap_ms, s.prev_backoff_ms, rng_);
  s.state = ShardState::kBackoff;
  s.restart_at = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(backoff));
  logf("shard %u: pid %d died (%s %d), restart in %.1f ms", idx,
       static_cast<int>(dead), exited ? "exit" : "signal",
       exited ? code : (WIFSIGNALED(status) ? WTERMSIG(status) : 0), backoff);
}

void ShardSupervisor::monitor_main() {
  bool draining = false;
  bool kill_all_sent = false;
  Clock::time_point drain_deadline{};
  const auto hb_timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(opt_.heartbeat_timeout_ms));

  for (;;) {
    std::vector<pollfd> pfds;
    pfds.push_back({wake_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const Shard& s : shards_) {
        if (s.hb_fd >= 0) pfds.push_back({s.hb_fd, POLLIN, 0});
      }
    }
    int pr = ::poll(pfds.data(), pfds.size(), 10);
    if (pr < 0 && errno != EINTR) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const Clock::time_point now = Clock::now();

    std::unique_lock<std::mutex> lock(mutex_);

    if (pfds[0].revents & POLLIN) {
      std::uint64_t tok;
      while (::read(wake_fd_, &tok, sizeof(tok)) > 0) {
      }
    }

    // Heartbeats: drain each pipe; any byte refreshes the shard's beat,
    // and the FIRST byte of an incarnation is its readiness signal.
    for (unsigned i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      if (s.hb_fd < 0) continue;
      char buf[64];
      ssize_t r;
      bool beat = false;
      while ((r = ::read(s.hb_fd, buf, sizeof(buf))) > 0) beat = true;
      if (beat) {
        s.last_beat = now;
        if (s.state == ShardState::kStarting) {
          s.state = ShardState::kHealthy;
          logf("shard %u: healthy", i);
        }
      }
    }

    // Reap exits.
    for (unsigned i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      if (s.pid <= 0) continue;
      int status = 0;
      const pid_t w = ::waitpid(s.pid, &status, WNOHANG);
      if (w == s.pid) reap_shard(i, status, now);
    }

    if (!draining && drain_requested_.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        opt_.drain_deadline_ms));
      for (unsigned i = 0; i < shards_.size(); ++i) {
        Shard& s = shards_[i];
        if (s.pid > 0) {
          // SIGCONT first: a stopped shard cannot run its SIGTERM drain.
          ::kill(s.pid, SIGCONT);
          ::kill(s.pid, SIGTERM);
        } else if (s.state != ShardState::kStopped) {
          s.state = ShardState::kStopped;
        }
      }
      logf("drain requested, deadline %.0f ms", opt_.drain_deadline_ms);
    }

    if (draining) {
      bool any_alive = false;
      for (Shard& s : shards_) {
        if (s.pid > 0) any_alive = true;
      }
      if (!any_alive) break;
      if (!kill_all_sent && now >= drain_deadline) {
        kill_all_sent = true;
        for (Shard& s : shards_) {
          if (s.pid > 0) {
            logf("drain deadline passed, SIGKILL pid %d",
                 static_cast<int>(s.pid));
            ::kill(s.pid, SIGCONT);
            ::kill(s.pid, SIGKILL);
          }
        }
      }
      continue;  // no hang checks or restarts while draining
    }

    // Hung shards: alive but silent past the timeout. SIGKILL — a hung
    // process holds its accepted sockets hostage; a dead one releases
    // them so clients can reconnect to a healthy shard.
    for (unsigned i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      if (s.pid <= 0 || s.kill_sent) continue;
      if ((s.state == ShardState::kHealthy ||
           s.state == ShardState::kStarting) &&
          now - s.last_beat > hb_timeout) {
        s.kill_sent = true;
        ++stats_.hung_kills;
        logf("shard %u: no heartbeat for %.0f ms, SIGKILL pid %d", i,
             opt_.heartbeat_timeout_ms, static_cast<int>(s.pid));
        ::kill(s.pid, SIGCONT);  // SIGKILL reaps a stopped process anyway,
        ::kill(s.pid, SIGKILL);  // but CONT keeps the kernel bookkeeping tidy
      }
    }

    // Restarts: backoff expiry, and hold-down expiry (which must first
    // re-bind the listener it released).
    for (unsigned i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      if (s.pid > 0 || now < s.restart_at) continue;
      if (s.state == ShardState::kBackoff ||
          s.state == ShardState::kHeldDown) {
        if (s.listen_fd < 0) {
          s.listen_fd = make_listener();
          if (s.listen_fd < 0) {
            // Port momentarily unavailable: extend the hold and retry.
            s.restart_at = now + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(
                                         opt_.hold_down_ms));
            logf("shard %u: cannot re-bind listener, hold extended", i);
            continue;
          }
        }
        if (spawn_shard(i)) {
          ++stats_.restarts;
        } else {
          s.restart_at =
              now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            std::max(100.0, opt_.restart_backoff_ms)));
        }
      }
    }
  }

  // Drain complete: release every parent-held fd.
  std::lock_guard<std::mutex> lock(mutex_);
  for (Shard& s : shards_) {
    if (s.listen_fd >= 0) {
      ::close(s.listen_fd);
      s.listen_fd = -1;
    }
    if (s.hb_fd >= 0) {
      ::close(s.hb_fd);
      s.hb_fd = -1;
    }
    s.state = ShardState::kStopped;
  }
  running_.store(false, std::memory_order_release);
}

unsigned ShardSupervisor::shard_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<unsigned>(shards_.size());
}

pid_t ShardSupervisor::shard_pid(unsigned idx) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idx < shards_.size() ? shards_[idx].pid : -1;
}

ShardState ShardSupervisor::shard_state(unsigned idx) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idx < shards_.size() ? shards_[idx].state : ShardState::kStopped;
}

unsigned ShardSupervisor::healthy_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  unsigned n = 0;
  for (const Shard& s : shards_) {
    if (s.state == ShardState::kHealthy && s.pid > 0) ++n;
  }
  return n;
}

bool ShardSupervisor::wait_healthy(unsigned n, double timeout_ms) const {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  while (Clock::now() < deadline) {
    if (healthy_shards() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return healthy_shards() >= n;
}

void ShardSupervisor::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
  }
}

void ShardSupervisor::install_drain_signal(int signo) {
  g_signal_supervisor.store(this, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = &supervisor_drain_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (::sigaction(signo, &sa, nullptr) != 0) {
    throw std::runtime_error("supervisor: sigaction failed");
  }
}

void ShardSupervisor::wait() {
  if (monitor_.joinable()) monitor_.join();
}

void ShardSupervisor::stop() {
  if (!monitor_.joinable()) return;
  request_drain();
  wait();
}

SupervisorStats ShardSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pconn
