// Two-level monotone bucket queue (Dial's structure with an overflow
// level), for Dijkstra-style searches whose pop keys never decrease.
//
// Keys are split at KeyShift: the high bits (the "radix" — an arrival time
// in seconds for every user in this codebase) select a bucket, the low bits
// only break ties inside one bucket. Level one is a circular window of
// 2^BucketBits buckets starting at `base_`; entries whose radix falls past
// the window go to the overflow level, a flat vector that is redistributed
// into a fresh window whenever the current one drains. Since pop keys are
// monotone, a bucket can be filled only at or after the scan cursor, so
// every bucket is touched O(1) times.
//
// Cursor advance is a bitset scan, not a per-bucket probe: a word-packed
// occupancy bitset (bit b set iff bucket b is non-empty) lets the cursor
// jump straight to the next occupied bucket with std::countr_zero —
// O(window/64) words instead of O(window) `empty()` probes, which matters
// on sparse windows where almost every bucket is empty.
//
// The rebase keeps a *running* minimum of the overflow radixes (updated as
// entries are pushed), so re-anchoring the window is a single
// redistribution pass; the min of the entries that stay in overflow is
// recomputed during that same pass. Period-spanning queries that cross many
// windows pay one pass per rebase instead of two.
//
// Within a bucket, entries are sorted by the full key on first pop, so the
// composite-key tie-breaking (SPCS pops the later connection first) is
// preserved exactly; pushes into the bucket currently being drained keep
// the sort by positioned insertion — in SPCS such a push carries the same
// low bits as the entry just popped (relaxation preserves the connection
// index), so the global pop order stays non-decreasing in the full key.
//
// Like LazyDAryHeap this queue is not addressable: duplicates per id are
// allowed and the caller drops stale pops (QueryStats::stale_popped).
// Constructed from a workspace allocator, the bucket window and the
// overflow level live in the session arena (util/arena.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "util/arena.hpp"

namespace pconn {

template <typename Key, unsigned KeyShift = 0, unsigned BucketBits = 12>
class BucketQueue {
  static_assert(BucketBits >= 1 && BucketBits < 32, "unreasonable window");

 public:
  using Id = std::uint32_t;
  /// Queue-policy trait (see docs/queues.md). Pushes below the last
  /// popped key's bucket are undefined behaviour (asserted in debug
  /// builds) — monotone searches only.
  static constexpr bool kAddressable = false;
  static constexpr std::size_t kNumBuckets = std::size_t{1} << BucketBits;

  BucketQueue() : BucketQueue(ScratchAlloc()) {}
  explicit BucketQueue(ScratchAlloc alloc)
      : buckets_(kNumBuckets, Bucket(ArenaAllocator<Entry>(alloc)),
                 ArenaAllocator<Bucket>(alloc)),
        overflow_(ArenaAllocator<Entry>(alloc)) {
    occ_.fill(0);
  }
  explicit BucketQueue(std::size_t capacity) : BucketQueue() {
    reset_capacity(capacity);
  }

  /// Id-space bookkeeping only (no per-id state). Clears the queue.
  void reset_capacity(std::size_t capacity) {
    capacity_ = capacity;
    clear();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push(Id id, Key key) {
    assert(id < capacity_);
    const std::uint64_t r = radix(key);
    ++size_;
    if (!anchored_) {
      // Before the first pop (and after a drain) pushes arrive in any
      // order; they collect in the overflow level and the next pop anchors
      // the window at their minimum radix.
      overflow_.push_back({key, id});
      overflow_min_ = std::min(overflow_min_, r);
      return;
    }
    assert(r >= base_ + cur_ && "bucket queue requires monotone pushes");
    if (r - base_ < kNumBuckets) {
      Bucket& b = buckets_[r - base_];
      if (r == base_ + cur_ && cur_sorted_) {
        // The bucket is being drained in descending-key order; keep it
        // sorted so the next pop still returns the minimum full key.
        b.insert(std::upper_bound(b.begin(), b.end(), key,
                                  [](Key k, const Entry& e) {
                                    return k > e.key;
                                  }),
                 Entry{key, id});
      } else {
        b.push_back({key, id});
      }
      mark_occupied(r - base_);
    } else {
      overflow_.push_back({key, id});
      overflow_min_ = std::min(overflow_min_, r);
    }
  }

  Key top_key() {
    settle_cursor();
    return buckets_[cur_].back().key;
  }
  Id top_id() {
    settle_cursor();
    return buckets_[cur_].back().id;
  }

  /// Removes and returns the minimum entry.
  std::pair<Id, Key> pop() {
    settle_cursor();
    Bucket& b = buckets_[cur_];
    Entry e = b.back();
    b.pop_back();
    if (b.empty()) mark_empty(cur_);
    if (--size_ == 0) anchored_ = false;  // next push batch re-anchors
    return {e.id, e.key};
  }

  void clear() {
    if (size_ != 0) {
      for (Bucket& b : buckets_) b.clear();
      overflow_.clear();
    }
    occ_.fill(0);
    size_ = 0;
    base_ = 0;
    cur_ = 0;
    cur_sorted_ = false;
    anchored_ = false;
    overflow_min_ = kNoRadix;
  }

 private:
  struct Entry {
    Key key;
    Id id;
  };
  using Bucket = std::vector<Entry, ArenaAllocator<Entry>>;

  static constexpr std::size_t kOccWords = (kNumBuckets + 63) / 64;
  static constexpr std::uint64_t kNoRadix = ~std::uint64_t{0};

  static std::uint64_t radix(Key key) {
    return static_cast<std::uint64_t>(key) >> KeyShift;
  }

  void mark_occupied(std::size_t b) { occ_[b >> 6] |= std::uint64_t{1} << (b & 63); }
  void mark_empty(std::size_t b) { occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63)); }

  /// First occupied bucket at or after `from`; kNumBuckets when the rest of
  /// the window is empty. The first (masked) word is probed directly, then
  /// the scan tests one 64-bucket word per step.
  std::size_t first_occupied_from(std::size_t from) const {
    std::size_t w = from >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w == kOccWords) return kNumBuckets;
      word = occ_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

  /// Advances the scan cursor to the bucket holding the minimum entry and
  /// sorts it (descending, so pops come off the back in ascending order).
  void settle_cursor() {
    assert(size_ != 0);
    if (!anchored_) rebase();
    while (true) {
      const std::size_t idx = first_occupied_from(cur_);
      if (idx != kNumBuckets) {
        if (idx != cur_) {
          cur_ = idx;
          cur_sorted_ = false;
        }
        if (!cur_sorted_) {
          std::sort(buckets_[cur_].begin(), buckets_[cur_].end(),
                    [](const Entry& a, const Entry& b) {
                      return a.key > b.key;
                    });
          cur_sorted_ = true;
        }
        return;
      }
      rebase();
    }
  }

  /// The window drained but overflow entries remain: re-anchor the window
  /// at the smallest overflow radix (kept as a running min by push, so no
  /// separate scan) and redistribute what now fits; the min of what stays
  /// in overflow falls out of the same pass.
  void rebase() {
    assert(!overflow_.empty() && overflow_min_ != kNoRadix);
    base_ = overflow_min_;
    cur_ = 0;
    cur_sorted_ = false;
    anchored_ = true;
    occ_.fill(0);
    std::size_t kept = 0;
    std::uint64_t kept_min = kNoRadix;
    for (Entry& e : overflow_) {
      const std::uint64_t r = radix(e.key);
      if (r - base_ < kNumBuckets) {
        buckets_[r - base_].push_back(e);
        mark_occupied(r - base_);
      } else {
        kept_min = std::min(kept_min, r);
        overflow_[kept++] = e;
      }
    }
    overflow_.resize(kept);
    overflow_min_ = kept_min;
  }

  std::vector<Bucket, ArenaAllocator<Bucket>> buckets_;  // the window
  std::vector<Entry, ArenaAllocator<Entry>> overflow_;   // radix past it
  std::array<std::uint64_t, kOccWords> occ_{};  // bit b: bucket b non-empty
  std::uint64_t base_ = 0;  // radix of buckets_[0]
  std::uint64_t overflow_min_ = kNoRadix;  // running min radix in overflow_
  std::size_t cur_ = 0;     // scan cursor into buckets_
  bool cur_sorted_ = false;
  bool anchored_ = false;  // window is positioned; false while only the
                           // overflow level holds entries (pre-first-pop)
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace pconn
