// Tests of the benchmark's own helpers (harness.hpp). Built by
// perfbench/CMakeLists.txt; run with `python3 perfbench/run.py --selftest`
// or `ctest` in the benchmark's build directory. Exits non-zero on the
// first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

void zipf_is_deterministic_per_seed() {
  const ZipfSampler z(1000, 0.8);
  pconn::Rng a(42), b(42), c(43);
  std::vector<std::size_t> xa, xb, xc;
  for (int i = 0; i < 2000; ++i) {
    xa.push_back(z.sample(a));
    xb.push_back(z.sample(b));
    xc.push_back(z.sample(c));
  }
  CHECK(xa == xb);
  CHECK(xa != xc);
  // Skew: rank 0 is drawn far more often than rank 999.
  std::size_t r0 = 0, rlast = 0;
  pconn::Rng d(7);
  for (int i = 0; i < 200000; ++i) {
    const std::size_t r = z.sample(d);
    CHECK(r < 1000);
    r0 += r == 0;
    rlast += r == 999;
  }
  CHECK(r0 > 20 * (rlast + 1));
  // The Poisson schedule is seeded the same way.
  pconn::Rng p1(9), p2(9);
  CHECK(poisson_schedule(1000, 1.0, p1) == poisson_schedule(1000, 1.0, p2));
}

void percentile_rule() {
  // n * (1 - q) >= 10 decides the highest supported quantile.
  CHECK(supported_quantile(10) == 0.5);
  CHECK(supported_quantile(99) == 0.5);
  CHECK(supported_quantile(100) == 0.9);
  CHECK(supported_quantile(199) == 0.9);
  CHECK(supported_quantile(200) == 0.95);
  CHECK(supported_quantile(999) == 0.95);
  CHECK(supported_quantile(1000) == 0.99);
  CHECK(supported_quantile(10000) == 0.999);
  CHECK(supported_quantile(10000, 0.99) == 0.99);
  // Nearest rank: p99 of 1..1000 is 990, and exactly 10 samples lie
  // beyond it.
  std::vector<int> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  CHECK(quantile(v, 0.99) == 990.0);
  CHECK(quantile(v, 0.5) == 500.0);
  CHECK(quantile(std::vector<int>{}, 0.5) == 0.0);
  CHECK(quantile(std::vector<int>{7}, 0.999) == 7.0);

  // Blocked tail: 8 blocks of 1000; one block holds a 100-sample stall.
  std::vector<double> lat(8000, 1.0);
  for (std::size_t i = 0; i < lat.size(); ++i) lat[i] += (i % 1000) / 1000.0;
  for (std::size_t i = 3000; i < 3100; ++i) lat[i] = 100.0;
  CHECK(quantile(lat, 0.99) == 100.0);  // the stall sets the plain p99
  const double blocked = blocked_quantile(lat, 0.99);
  CHECK(blocked > 1.98 && blocked < 2.0);  // every clean block's p99
  // Too few samples for two blocks: the plain quantile.
  std::vector<double> few(1500, 2.0);
  CHECK(blocked_quantile(few, 0.99) == 2.0);
}

void self_time_subtraction() {
  // root [0,100) with children [10,30), [20,50) (overlapping: covered
  // 10..50 = 40) and [90,120) (clipped to 90..100 = 10): self = 50.
  std::vector<Span> s = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},      {"c", 90, 120, 0, 1},
      {"a.child", 12, 18, 1, 1}, {"other", 0, 40, -1, 2},
  };
  const auto self = self_times(s);
  CHECK(self[0] == 50);
  CHECK(self[1] == 14);  // 20 - 6
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  CHECK(self[5] == 40);
}

void capacity_bisection() {
  // Synthetic system: p99 stays under the limit up to 7300 qps.
  const double true_cap = 7300.0;
  int calls = 0;
  const auto probe = [&](double rate) {
    ++calls;
    return Probe{rate <= true_cap, rate * 0.999};
  };
  const Capacity c = bisect_capacity(1000.0, 40000.0, 8, probe);
  // Every step above the knee fails twice (probe + retry).
  CHECK(calls == c.probes);
  CHECK(calls > 8 && calls < 16);
  CHECK(c.rate <= true_cap);
  // 8 geometric steps over a 40x range resolve to 40^(1/256) ~ 1.5 %.
  CHECK(c.rate >= true_cap / std::pow(40.0, 1.0 / 256.0) - 1e-9);
  CHECK(std::abs(c.achieved_qps - c.rate * 0.999) < 1e-6);

  // Nothing in range passes: lo is probed and halved until one does.
  const auto slow = [](double rate) { return Probe{rate <= 300.0, rate}; };
  const Capacity d = bisect_capacity(1000.0, 4000.0, 3, slow);
  CHECK(d.rate == 250.0);
  CHECK(d.probes == 2 * 3 + 3);  // 3 failed steps, then 1000, 500, 250

  // A one-off stall fails the first probe; the retry passes it, and the
  // search still lands just below the knee.
  int attempts = 0;
  const auto flaky = [&](double rate) {
    ++attempts;
    return Probe{rate <= true_cap && attempts != 1, rate};
  };
  const Capacity e = bisect_capacity(1000.0, 40000.0, 8, flaky);
  CHECK(e.rate <= true_cap);
  CHECK(e.rate >= true_cap / std::pow(40.0, 1.0 / 256.0) - 1e-9);
  // A stall through both attempts costs the whole upper half of the range
  // (the first step, sqrt(1000 * 40000) = 6325, fails).
  attempts = 0;
  const auto stalled = [&](double rate) {
    ++attempts;
    return Probe{rate <= true_cap && attempts > 2, rate};
  };
  CHECK(bisect_capacity(1000.0, 40000.0, 8, stalled).rate < 6400.0);

  // Backlog slope: a queue growing by 50 per second, and a flat one.
  std::vector<double> t, grow, flat;
  for (int i = 0; i < 20; ++i) {
    t.push_back(i * 0.1);
    grow.push_back(3.0 + 5.0 * i);
    flat.push_back(i % 2 ? 4.0 : 6.0);
  }
  CHECK(std::abs(backlog_slope(t, grow) - 50.0) < 1e-9);
  CHECK(std::abs(backlog_slope(t, flat)) < 1.0);
}

}  // namespace

int main() {
  zipf_is_deterministic_per_seed();
  percentile_rule();
  self_time_subtraction();
  capacity_bisection();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::puts("perfbench helpers: all checks passed");
  return 0;
}
