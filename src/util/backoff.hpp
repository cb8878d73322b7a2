// Capped decorrelated-jitter backoff (the "AWS" recurrence).
//
//   sleep_k = min(cap, uniform(base, 3 * sleep_{k-1})),  sleep_0 = base.
//
// Retriers that failed on the same event (worker recoveries after one bad
// delay, clients that lost the same shard, shards that crashed together)
// must not re-arrive in lockstep; drawing each sleep from a window that
// grows with the previous one decorrelates them while the expected sleep
// still grows ~1.5x per attempt. LiveOverlay::retry(), RetryingClient and
// ShardSupervisor all step this one function, each with its own seeded Rng,
// so every sleep sequence is reproducible per seed.
#pragma once

#include <algorithm>

#include "util/rng.hpp"

namespace pconn {

/// Returns the next sleep (same unit as base/cap) and stores it in `prev`.
/// `prev` is the previous sleep, 0 before the first one — which therefore
/// sleeps exactly `base`. Draws one value from `rng` per call.
inline double decorrelated_jitter(double base, double cap, double& prev,
                                  Rng& rng) {
  const double hi = std::max(base, 3.0 * prev);
  const double sleep = std::min(cap, base + rng.next_double() * (hi - base));
  prev = sleep;
  return sleep;
}

}  // namespace pconn
