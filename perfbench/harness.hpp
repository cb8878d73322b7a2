// Measurement helpers of the end-to-end benchmark: seeded sampling, the
// open-loop arrival schedule, percentiles, spans with self time, the
// capacity bisection and the backlog slope. Header-only; randomness comes
// from the library's seedable pconn::Rng.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// ------------------------------------------------------------ randomness

/// Exponential with the given rate (mean 1 / rate).
inline double exponential(pconn::Rng& rng, double rate) {
  return -std::log1p(-rng.next_double()) / rate;
}

/// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t sample(pconn::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrivals at `rate` per second over [0, seconds): due offsets in
/// nanoseconds, ascending.
inline std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                                  pconn::Rng& rng) {
  std::vector<std::int64_t> due;
  double t = exponential(rng, rate);
  while (t < seconds) {
    due.push_back(static_cast<std::int64_t>(t * 1e9));
    t += exponential(rng, rate);
  }
  return due;
}

// ----------------------------------------------------------- percentiles

/// Nearest-rank quantile of an ascending vector; 0 when empty.
template <typename T>
double quantile_sorted(const std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return static_cast<double>(v[idx]);
}

template <typename T>
double quantile(std::vector<T> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

/// The reporting rule for tails: the highest quantile of the ladder
/// 0.5 / 0.9 / 0.95 / 0.99 / 0.999, not above `cap`, that still has at
/// least ten samples beyond it. A sample of n supports quantile q when
/// n * (1 - q) >= 10; below 20 samples only the median is reported.
inline double supported_quantile(std::size_t n, double cap = 0.999) {
  constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
  for (double q : kLadder) {
    if (q > cap) continue;
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

/// Tail quantile q of a time-ordered sample, made robust to rare stalls of
/// the host: the sample is cut into consecutive blocks (at most 8, each
/// with at least ten samples beyond q) and the median of the per-block
/// quantiles is returned. One stalled block then moves the result by at
/// most one rank among the blocks instead of setting the tail outright.
inline double blocked_quantile(const std::vector<double>& in_time_order,
                               double q) {
  const std::size_t n = in_time_order.size();
  const auto min_block = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  const std::size_t blocks = std::clamp<std::size_t>(n / min_block, 1, 8);
  std::vector<double> tails;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> part(
        in_time_order.begin() + static_cast<std::ptrdiff_t>(n * b / blocks),
        in_time_order.begin() + static_cast<std::ptrdiff_t>(n * (b + 1) / blocks));
    tails.push_back(quantile(std::move(part), q));
  }
  std::sort(tails.begin(), tails.end());
  // Median of the block tails; with an even count, the lower middle.
  return tails[(tails.size() - 1) / 2];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ----------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One traced interval: a call into one layer. `parent` indexes the span
/// that caused it (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Duration of each span minus the part of its interval that its child
/// spans cover (overlapping children are counted once; a child reaching
/// outside its parent is clipped to it).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// In-memory span recorder. Disabled, begin() returns -1 and costs one
/// branch. Spans are appended under a mutex (the traced run records at
/// call granularity, never per relaxed edge) and written out at exit.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::uint64_t request = 0) {
    if (!on_) return -1;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  /// Records an interval measured elsewhere (e.g. a request's due time to
  /// its response).
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = 0) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void set_parent(std::int64_t id, std::int64_t parent) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].parent = parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, std::int64_t parent = -1,
            std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

// ------------------------------------------------------ capacity search

/// Outcome of one offered-rate probe.
struct Probe {
  bool ok = false;
  double achieved_qps = 0.0;  // answered-ok requests per second
};

struct Capacity {
  double rate = 0.0;          // highest offered rate that passed
  double achieved_qps = 0.0;  // measured at that rate
  int probes = 0;
};

/// Fixed geometric bisection of the offered rate over [lo, hi]: `steps`
/// probes at sqrt(ok * bad). A failed probe is repeated once and the rate
/// fails only if both attempts failed, so one stall of the host does not
/// send the search below the real knee. If no probe passed, lo itself is
/// probed and halved (at most four times) until one passes; `rate` stays 0
/// only when none did.
inline Capacity bisect_capacity(double lo, double hi, int steps,
                                const std::function<Probe(double)>& probe) {
  Capacity out;
  double ok = lo, bad = hi;
  for (int i = 0; i < steps; ++i) {
    const double mid = std::sqrt(ok * bad);
    Probe p = probe(mid);
    ++out.probes;
    if (!p.ok) {
      p = probe(mid);
      ++out.probes;
    }
    if (p.ok) {
      ok = mid;
      out.rate = mid;
      out.achieved_qps = p.achieved_qps;
    } else {
      bad = mid;
    }
  }
  for (int k = 0; out.rate == 0.0 && k < 5; ++k, ok /= 2) {
    const Probe p = probe(ok);
    ++out.probes;
    if (p.ok) {
      out.rate = ok;
      out.achieved_qps = p.achieved_qps;
    }
  }
  return out;
}

/// Least-squares slope (per second) of outstanding-request samples taken
/// at times t (seconds). A backlog that keeps growing has a positive slope.
inline double backlog_slope(const std::vector<double>& t,
                            const std::vector<double>& outstanding) {
  const std::size_t n = std::min(t.size(), outstanding.size());
  if (n < 2) return 0.0;
  double mt = 0, mo = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mt += t[i];
    mo += outstanding[i];
  }
  mt /= static_cast<double>(n);
  mo /= static_cast<double>(n);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (t[i] - mt) * (outstanding[i] - mo);
    den += (t[i] - mt) * (t[i] - mt);
  }
  return den > 0 ? num / den : 0.0;
}

}  // namespace perfbench
