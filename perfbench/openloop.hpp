// Load generator over the binary protocol (src/server/protocol).
//
// Open loop (run_window): a sender thread writes every request at its due
// time, whatever is still outstanding, and a receiver thread matches
// responses to requests by req_id. Latency is timed from the due time, so a
// stalled server (or a late generator) charges its delay to every request
// queued behind it; how late the sender ran is recorded per request.
// Closed loop (run_closed_window): a fixed number of requests stays in
// flight on each connection, which measures the server's peak throughput.
// Frames are built with the protocol's own encoders; raw response payloads
// are kept for the byte-identity check after the window.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "server/protocol.hpp"

namespace perfbench {

/// A connected TCP socket to the server under test (binary mode).
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{0, 20'000};  // blocking reads recheck their deadline
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    timeval stv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &stv, sizeof stv);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  bool send_all(const std::string& bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  /// Reads one frame's payload; nullopt once `deadline_ns` passes or the
  /// connection fails.
  std::optional<std::string> recv_frame(std::int64_t deadline_ns) {
    for (;;) {
      if (auto p = next_buffered()) return p;
      if (now_ns() > deadline_ns) return std::nullopt;
      if (!read_some(0)) return std::nullopt;
    }
  }

  /// Appends whatever the socket holds without blocking; false once the
  /// connection is closed or failed.
  bool read_available() { return read_some(MSG_DONTWAIT); }

  /// Pops one complete frame's payload from the read buffer, if any.
  std::optional<std::string> next_buffered() {
    if (buf_.size() < pconn::kFrameHeaderBytes) return std::nullopt;
    const std::uint32_t len = pconn::get_u32(buf_.data());
    if (buf_.size() < pconn::kFrameHeaderBytes + len) return std::nullopt;
    std::string payload = buf_.substr(pconn::kFrameHeaderBytes, len);
    buf_.erase(0, pconn::kFrameHeaderBytes + len);
    return payload;
  }

  /// One synchronous request/response. Responses to other req_ids (late
  /// answers of an earlier window) are skipped, so the answer also proves
  /// that everything sent before it on this connection was answered.
  std::optional<std::string> rpc(const std::string& frame,
                                 double timeout_ms = 2000.0) {
    if (!send_all(frame)) return std::nullopt;
    const std::uint32_t id = pconn::get_u32(
        frame.data() + pconn::kFrameHeaderBytes + 1);  // after the opcode
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_ms * 1e6);
    for (;;) {
      std::optional<std::string> p = recv_frame(deadline);
      if (!p || (p->size() >= 8 && pconn::get_u32(p->data() + 4) == id)) {
        return p;
      }
    }
  }

 private:
  bool read_some(int flags) {
    char tmp[64 * 1024];
    const ssize_t r = ::recv(fd_, tmp, sizeof tmp, flags);
    if (r > 0) {
      buf_.append(tmp, static_cast<std::size_t>(r));
      return true;
    }
    if (r == 0) return false;
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }

  int fd_ = -1;
  std::string buf_;
};

/// One scheduled request.
struct Request {
  std::uint32_t conn = 0;
  pconn::Opcode op = pconn::Opcode::kEarliestArrival;
  std::uint32_t a = 0, b = 0, c = 0;  // opcode args as on the wire
  std::int64_t due_ns = 0;            // offset from the window start
};

/// What happened to one request. Times are offsets from the window start;
/// done_ns < 0 means no response arrived before the window's grace ended.
struct Record {
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;
  pconn::Status status = pconn::Status::kInternal;
  std::uint64_t epoch = 0;
  std::uint32_t payload_off = 0, payload_len = 0;  // into Window::blobs
};

struct Window {
  std::vector<Request> reqs;
  std::vector<Record> recs;
  std::vector<std::string> blobs;  // raw payloads, one blob per connection
  std::uint32_t id_base = 0;       // req_id of reqs[0]
  std::int64_t start_ns = 0;       // absolute steady-clock start
  double seconds = 0.0;

  std::string_view payload(std::size_t i) const {
    const Record& r = recs[i];
    return std::string_view(blobs[reqs[i].conn]).substr(r.payload_off,
                                                        r.payload_len);
  }
  bool ok(std::size_t i) const {
    return recs[i].done_ns >= 0 && recs[i].status == pconn::Status::kOk;
  }
  double latency_ms(std::size_t i) const {
    return static_cast<double>(recs[i].done_ns - reqs[i].due_ns) / 1e6;
  }
  /// Records response payload `p`, read from connection c at absolute time
  /// t, as the answer to its request. False, with nothing recorded, for a
  /// short frame, an id outside this window (a late answer of an earlier
  /// one), or a request already answered or sent on another connection.
  bool record(std::uint32_t c, const std::string& p, std::int64_t t) {
    if (p.size() < pconn::kResponseHeaderBytes) return false;
    const std::uint32_t id = pconn::get_u32(p.data() + 4);
    if (id < id_base || id - id_base >= reqs.size()) return false;
    const std::uint32_t i = id - id_base;
    Record& r = recs[i];
    if (r.done_ns >= 0 || reqs[i].conn != c) return false;
    r.done_ns = t - start_ns;
    r.status = static_cast<pconn::Status>(static_cast<std::uint8_t>(p[0]));
    r.epoch = pconn::get_u64(p.data() + 8);
    r.payload_off = static_cast<std::uint32_t>(blobs[c].size());
    r.payload_len = static_cast<std::uint32_t>(p.size());
    blobs[c] += p;
    return true;
  }
};

inline std::string encode_request(const Request& r, std::uint32_t req_id) {
  switch (r.op) {
    case pconn::Opcode::kEarliestArrival:
      return pconn::encode_earliest_arrival(req_id, r.a, r.b, r.c);
    case pconn::Opcode::kProfile:
      return pconn::encode_profile(req_id, r.a, r.b);
    case pconn::Opcode::kStats:
      return pconn::encode_stats(req_id);
    case pconn::Opcode::kPing:
      break;
  }
  return pconn::encode_ping(req_id);
}

/// Runs one open-loop window: request i carries req_id `id_base + i`, is
/// written at start + due on connection reqs[i].conn, and is waited for
/// until the last due time plus `grace_ms`. Responses with unknown ids
/// (late answers from an earlier window) are dropped. With a tracer
/// enabled, every request gets a root span (due -> response) and a child
/// span around its encode + write.
///
/// One sender thread serves every connection in due order and sleeps until
/// each due time; requests that fell due while it slept go out together
/// when it wakes. It does not spin: on a virtual host that grants four busy
/// vCPUs about 2.3 CPUs of time, a spinning sender took a third of the
/// fleet's CPU and made capacity swing between 17k and 48k/s. A late wake
/// is charged to the request and reported as loadgen.late_p99_ms. One
/// receiver thread reads all connections through epoll.
inline void run_window(std::vector<Conn*>& conns, Window& w,
                       std::uint32_t id_base, double grace_ms,
                       Tracer* tracer = nullptr) {
  const std::size_t n = w.reqs.size();
  w.id_base = id_base;
  w.recs.assign(n, Record{});
  w.blobs.assign(conns.size(), std::string());
  std::vector<std::uint32_t> order(n);
  std::int64_t last_due = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    order[i] = i;
    last_due = std::max(last_due, w.reqs[i].due_ns);
  }
  std::stable_sort(order.begin(), order.end(), [&](auto x, auto y) {
    return w.reqs[x].due_ns < w.reqs[y].due_ns;
  });
  w.start_ns = now_ns() + 2'000'000;  // threads are up before the first due
  const std::int64_t end_ns =
      w.start_ns + last_due + static_cast<std::int64_t>(grace_ms * 1e6);
  std::vector<std::int64_t> send_span(tracer ? n : 0, -1);

  std::thread sender([&] {
    for (const std::uint32_t i : order) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(w.start_ns + w.reqs[i].due_ns)));
      const std::int64_t t = now_ns();
      std::int64_t span = -1;
      if (tracer != nullptr) span = tracer->begin("loadgen.send", -1, i);
      const bool sent = conns[w.reqs[i].conn]->send_all(
          encode_request(w.reqs[i], id_base + i));
      if (tracer != nullptr) {
        tracer->end(span);
        send_span[i] = span;
      }
      if (sent) w.recs[i].sent_ns = t - w.start_ns;
    }
  });

  std::thread receiver([&] {
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c]->fd(), &ev);
    }
    std::size_t got = 0;
    epoll_event evs[16];
    while (got < n) {
      const std::int64_t left_ms = (end_ns - now_ns()) / 1'000'000;
      if (left_ms < 0) break;
      const int k = ::epoll_wait(ep, evs, 16,
                                 static_cast<int>(std::min<std::int64_t>(left_ms, 20)));
      for (int e = 0; e < k; ++e) {
        const std::size_t c = evs[e].data.u64;
        if (!conns[c]->read_available()) continue;
        const std::int64_t t = now_ns();
        while (std::optional<std::string> p = conns[c]->next_buffered()) {
          if (w.record(static_cast<std::uint32_t>(c), *p, t)) ++got;
        }
      }
    }
    ::close(ep);
  });
  sender.join();
  receiver.join();
  w.seconds = static_cast<double>(last_due) / 1e9;
  if (tracer != nullptr) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const Record& r = w.recs[i];
      if (r.done_ns < 0) continue;
      const std::int64_t root =
          tracer->add("loadgen.request", w.start_ns + w.reqs[i].due_ns,
                      w.start_ns + r.done_ns, -1, i);
      tracer->set_parent(send_span[i], root);
    }
  }
}

/// Runs one closed-loop window: each connection keeps `depth` requests in
/// flight, and every answer is followed at once by the next request from
/// `next` on the same connection until `seconds` have passed; the requests
/// still in flight are then waited for up to `grace_ms`. Request i carries
/// req_id `id_base + i` (at most `max_reqs` are sent) and is appended to
/// w.reqs as it goes out, with its send time as due time, so the window is
/// checked like an open-loop one. One thread sends and receives.
inline void run_closed_window(std::vector<Conn*>& conns, Window& w,
                              std::uint32_t id_base, std::size_t max_reqs,
                              unsigned depth, double seconds, double grace_ms,
                              const std::function<Request()>& next) {
  w.id_base = id_base;
  w.reqs.clear();
  w.recs.clear();
  w.blobs.assign(conns.size(), std::string());
  w.start_ns = now_ns();
  w.seconds = seconds;
  const std::int64_t stop_ns = w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t end_ns = stop_ns + static_cast<std::int64_t>(grace_ms * 1e6);
  std::size_t in_flight = 0;
  auto send = [&](std::uint32_t c) {
    if (w.reqs.size() >= max_reqs) return;
    Request r = next();
    r.conn = c;
    r.due_ns = now_ns() - w.start_ns;
    const auto i = static_cast<std::uint32_t>(w.reqs.size());
    w.reqs.push_back(r);
    w.recs.push_back(Record{});
    if (conns[c]->send_all(encode_request(r, id_base + i))) {
      w.recs[i].sent_ns = r.due_ns;
      ++in_flight;
    }
  };
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (std::uint32_t c = 0; c < conns.size(); ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c]->fd(), &ev);
    for (unsigned d = 0; d < depth; ++d) send(c);
  }
  epoll_event evs[16];
  while (in_flight > 0 && now_ns() < end_ns) {
    const int k = ::epoll_wait(ep, evs, 16, 20);
    for (int e = 0; e < k; ++e) {
      const auto c = static_cast<std::uint32_t>(evs[e].data.u64);
      if (!conns[c]->read_available()) continue;
      while (std::optional<std::string> p = conns[c]->next_buffered()) {
        const std::int64_t t = now_ns();
        if (!w.record(c, *p, t)) continue;
        --in_flight;
        if (t < stop_ns) send(c);
      }
    }
  }
  ::close(ep);
}

}  // namespace perfbench
