// The two priority-queue policies of the query engines.
//
// Every Dijkstra-style engine except label-correcting search (SPCS, the
// time queries, the multi-query and multi-criteria engines) is a class
// template over a queue policy; this header names the two shipped
// policies, gives them stable CLI names (`--queue` in the table benches),
// and provides the runtime-to-compile-time dispatch the benches and the
// differential tests use:
//   binary — the paper's addressable binary heap (Section 5), the
//            reference every cross-policy differential compares against;
//   bucket — the monotone bucket queue, the fastest measured policy.
// docs/queues.md has the measurements behind this choice of two.
// A policy must provide:
//   reset_capacity / capacity / size / empty / push / pop / top_key /
//   top_id / clear,
// plus the trait constant kAddressable: contains/key_of/decrease_key/
// erase/push_or_decrease exist and pops are never stale. Non-addressable
// policies rely on the engines' settled/label arrays to recognise and drop
// stale pops (counted in QueryStats::stale_popped). The bucket policy also
// forbids pushes below the last popped key, so it serves monotone
// searches only.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

#include "timetable/types.hpp"
#include "util/bucket_queue.hpp"
#include "util/heap.hpp"
#include "util/lazy_heap.hpp"

namespace pconn {

/// SPCS queue keys are composite: (arrival << kSpcsKeyShift) | rev-conn
/// index (see SpcsThreadStateT). The bucket policy buckets on the arrival
/// part only, so tie-breaking stays inside one bucket.
inline constexpr unsigned kSpcsKeyShift = 20;

// --- SPCS policies (64-bit composite keys) -------------------------------
using SpcsBinaryQueue = BinaryHeap<std::uint64_t>;  // the paper's queue
using SpcsBucketQueue = BucketQueue<std::uint64_t, kSpcsKeyShift, 12>;

// --- scalar-time policies (time, overlay and multi-query engines) --------
// The label-correcting engines always run on TimeBinaryQueue: their keys
// are not monotone, so the bucket policy cannot serve them.
using TimeBinaryQueue = BinaryHeap<Time>;
using TimeBucketQueue = BucketQueue<Time, 0, 12>;  // one bucket per second

// --- multi-criteria policies (McTimeQuery) -------------------------------
/// Mc queue keys are composite: (arrival << kMcKeyShift) | boardings. A
/// multi-label search keeps several live entries per node, so only
/// non-addressable policies apply (an addressable heap holds one key per
/// id); the "binary" spot is filled by the lazy heap at arity 2, which is
/// exactly the std::priority_queue the engine used to hard-code.
inline constexpr unsigned kMcKeyShift = 8;
using McBinaryQueue = LazyDAryHeap<std::uint64_t, 2>;
using McBucketQueue = BucketQueue<std::uint64_t, kMcKeyShift, 12>;

/// Runtime policy selector (bench `--queue` flag, differential tests).
enum class QueueKind { kBinary, kBucket };

inline constexpr QueueKind kAllQueueKinds[] = {QueueKind::kBinary,
                                               QueueKind::kBucket};

inline const char* queue_kind_name(QueueKind k) {
  switch (k) {
    case QueueKind::kBinary: return "binary";
    case QueueKind::kBucket: return "bucket";
  }
  return "?";
}

inline std::optional<QueueKind> parse_queue_kind(std::string_view s) {
  for (QueueKind k : kAllQueueKinds) {
    if (s == queue_kind_name(k)) return k;
  }
  return std::nullopt;
}

/// Calls `fn(std::type_identity<Policy>{})` with the SPCS policy selected
/// by `k`; returns whatever fn returns (all branches must agree).
template <typename Fn>
decltype(auto) with_spcs_queue(QueueKind k, Fn&& fn) {
  switch (k) {
    case QueueKind::kBucket:
      return fn(std::type_identity<SpcsBucketQueue>{});
    case QueueKind::kBinary:
    default:
      return fn(std::type_identity<SpcsBinaryQueue>{});
  }
}

/// Scalar-time variant of with_spcs_queue (time/overlay/multi-query
/// engines).
template <typename Fn>
decltype(auto) with_time_queue(QueueKind k, Fn&& fn) {
  switch (k) {
    case QueueKind::kBucket:
      return fn(std::type_identity<TimeBucketQueue>{});
    case QueueKind::kBinary:
    default:
      return fn(std::type_identity<TimeBinaryQueue>{});
  }
}

/// Multi-criteria variant of with_spcs_queue: `binary` maps to the lazy
/// binary heap (see McBinaryQueue above).
template <typename Fn>
decltype(auto) with_mc_queue(QueueKind k, Fn&& fn) {
  switch (k) {
    case QueueKind::kBucket:
      return fn(std::type_identity<McBucketQueue>{});
    case QueueKind::kBinary:
    default:
      return fn(std::type_identity<McBinaryQueue>{});
  }
}

}  // namespace pconn
