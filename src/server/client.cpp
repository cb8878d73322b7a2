#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/backoff.hpp"

namespace pconn {

const char* client_error_name(ClientError e) {
  switch (e) {
    case ClientError::kNone: return "none";
    case ClientError::kConnect: return "connect";
    case ClientError::kTimeout: return "timeout";
    case ClientError::kClosed: return "closed";
    case ClientError::kReset: return "reset";
    case ClientError::kShortRead: return "short-read";
    case ClientError::kProtocol: return "protocol";
  }
  return "?";
}

BlockingClient::BlockingClient(const std::string& host, std::uint16_t port,
                               double timeout_ms)
    : timeout_ms_(timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("client: bad host " + host);
  }
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno == EINTR) {
    // A signal interrupted connect(): the handshake continues
    // asynchronously — poll for writability and read the final verdict
    // from SO_ERROR instead of retrying connect() (which would fail
    // EALREADY/EISCONN depending on timing).
    pollfd pfd{fd_, POLLOUT, 0};
    int pr;
    do {
      pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms_));
    } while (pr < 0 && errno == EINTR);
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (pr <= 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      rc = -1;
    } else {
      rc = 0;
    }
  }
  if (rc < 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("client: connect failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

BlockingClient::~BlockingClient() { close(); }

void BlockingClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool BlockingClient::send_raw(const std::string& bytes) {
  std::size_t off = 0;
  while (fd_ >= 0 && off < bytes.size()) {
    const ssize_t w =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    last_error_ = (w < 0 && (errno == ECONNRESET || errno == EPIPE))
                      ? ClientError::kReset
                      : ClientError::kClosed;
    close();
    return false;
  }
  return fd_ >= 0;
}

bool BlockingClient::recv_exact(char* out, std::size_t n, bool mid_frame) {
  std::size_t got = 0;
  while (fd_ >= 0 && got < n) {
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms_));
    if (pr == 0) {  // timeout
      last_error_ = ClientError::kTimeout;
      close();
      return false;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      last_error_ = ClientError::kReset;
      close();
      return false;
    }
    const ssize_t r = ::recv(fd_, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) {
      // Orderly close. At a frame boundary that is just "the server went
      // away"; after bytes of this frame already arrived it is a SHORT
      // READ — a half-delivered response that must never be mistaken for
      // a timeout or a clean close (the chaos harness counts these).
      last_error_ = (mid_frame || got > 0) ? ClientError::kShortRead
                                           : ClientError::kClosed;
    } else {
      last_error_ = (errno == ECONNRESET || errno == EPIPE)
                        ? ClientError::kReset
                        : ClientError::kClosed;
    }
    close();
    return false;
  }
  return fd_ >= 0;
}

std::optional<std::string> BlockingClient::recv_frame() {
  char hdr[kFrameHeaderBytes];
  if (!recv_exact(hdr, sizeof(hdr), /*mid_frame=*/false)) return std::nullopt;
  const std::uint32_t len = get_u32(hdr);
  if (len > (std::uint32_t{16} << 20)) {  // sanity cap for a test client
    last_error_ = ClientError::kProtocol;
    close();
    return std::nullopt;
  }
  std::string payload(len, '\0');
  if (!recv_exact(payload.data(), len, /*mid_frame=*/true)) {
    return std::nullopt;
  }
  last_error_ = ClientError::kNone;
  return payload;
}

std::optional<DecodedResponse> BlockingClient::round_trip(
    const std::string& frame) {
  if (!send_raw(frame)) return std::nullopt;
  std::optional<std::string> payload = recv_frame();
  if (!payload) return std::nullopt;
  std::optional<DecodedResponse> res =
      decode_response(payload->data(), payload->size());
  if (!res) {
    last_error_ = ClientError::kProtocol;
    close();
    return std::nullopt;
  }
  last_error_ = ClientError::kNone;
  return res;
}

std::optional<DecodedResponse> BlockingClient::ping() {
  return round_trip(encode_ping(next_req_id_++));
}

std::optional<DecodedResponse> BlockingClient::earliest_arrival(
    StationId source, Time departure, StationId target) {
  return round_trip(
      encode_earliest_arrival(next_req_id_++, source, departure, target));
}

std::optional<DecodedResponse> BlockingClient::profile(StationId source,
                                                       StationId target) {
  return round_trip(encode_profile(next_req_id_++, source, target));
}

std::optional<DecodedResponse> BlockingClient::server_stats() {
  return round_trip(encode_stats(next_req_id_++));
}

bool BlockingClient::text_hello() { return send_raw("TEXT\n"); }

std::optional<std::string> BlockingClient::text_command(
    const std::string& line) {
  if (!send_raw(line + "\n")) return std::nullopt;
  for (;;) {
    const std::size_t nl = line_buf_.find('\n');
    if (nl != std::string::npos) {
      std::string out = line_buf_.substr(0, nl);
      line_buf_.erase(0, nl + 1);
      if (!out.empty() && out.back() == '\r') out.pop_back();
      last_error_ = ClientError::kNone;
      return out;
    }
    char buf[1024];
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms_));
    if (pr == 0) {
      // poll()'s timeout return leaves errno untouched — checking errno
      // here (as this path once did) reads a stale value and can spin the
      // loop forever on a leftover EINTR. A timeout is a timeout.
      last_error_ = ClientError::kTimeout;
      close();
      return std::nullopt;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      last_error_ = ClientError::kReset;
      close();
      return std::nullopt;
    }
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r > 0) {
      line_buf_.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) {
      last_error_ = line_buf_.empty() ? ClientError::kClosed
                                      : ClientError::kShortRead;
    } else {
      last_error_ = (errno == ECONNRESET || errno == EPIPE)
                        ? ClientError::kReset
                        : ClientError::kClosed;
    }
    close();
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// RetryingClient

RetryingClient::RetryingClient(std::string host, std::uint16_t port,
                               RetryPolicy policy, double timeout_ms)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      timeout_ms_(timeout_ms),
      rng_(policy.seed) {}

bool RetryingClient::ensure_connected() {
  if (client_ != nullptr && client_->connected()) return true;
  try {
    client_ = std::make_unique<BlockingClient>(host_, port_, timeout_ms_);
    if (ever_connected_) ++reconnects_;
    ever_connected_ = true;
    return true;
  } catch (const std::exception&) {
    client_.reset();
    last_error_ = ClientError::kConnect;
    return false;
  }
}

void RetryingClient::backoff_sleep() {
  // Decorrelated jitter (util/backoff.hpp): clients that all lost the same
  // shard must not re-arrive in lockstep.
  if (policy_.backoff_ms <= 0.0) return;
  const double ms = decorrelated_jitter(
      policy_.backoff_ms, policy_.backoff_cap_ms, prev_backoff_ms_, rng_);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

template <typename Fn>
std::optional<DecodedResponse> RetryingClient::with_retry(Fn&& call) {
  for (std::uint32_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) backoff_sleep();
    if (!ensure_connected()) continue;
    std::optional<DecodedResponse> res = call(*client_);
    if (!res) {
      // Transport failure: remember why, drop the connection, retry. A
      // timeout keeps the socket closed too (BlockingClient already did)
      // — the response may still arrive but this client gave up on it.
      last_error_ = client_->last_error();
      continue;
    }
    if (res->header.status == Status::kOverloaded &&
        policy_.honor_retry_after && attempt + 1 < policy_.max_attempts) {
      // The server said when to come back; believe it (capped), skip the
      // reconnect jitter — the connection is fine, the queue was full.
      ++overload_waits_;
      const double ms = std::min(policy_.retry_after_cap_ms,
                                 static_cast<double>(res->retry_after_ms));
      if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }
      continue;
    }
    last_error_ = ClientError::kNone;
    return res;
  }
  return std::nullopt;
}

std::optional<DecodedResponse> RetryingClient::ping() {
  return with_retry([](BlockingClient& c) { return c.ping(); });
}

std::optional<DecodedResponse> RetryingClient::earliest_arrival(
    StationId source, Time departure, StationId target) {
  return with_retry([&](BlockingClient& c) {
    return c.earliest_arrival(source, departure, target);
  });
}

std::optional<DecodedResponse> RetryingClient::profile(StationId source,
                                                       StationId target) {
  return with_retry(
      [&](BlockingClient& c) { return c.profile(source, target); });
}

}  // namespace pconn
