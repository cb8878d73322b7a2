#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "util/backoff.hpp"
#include "util/csv.hpp"
#include "util/epoch_array.hpp"
#include "util/format.hpp"
#include "util/heap.hpp"
#include "util/lazy_heap.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pconn {
namespace {

TEST(Heap, PushPopOrdered) {
  BinaryHeap<int> h(10);
  h.push(3, 30);
  h.push(1, 10);
  h.push(2, 20);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.pop(), (std::pair<std::uint32_t, int>{1, 10}));
  EXPECT_EQ(h.pop(), (std::pair<std::uint32_t, int>{2, 20}));
  EXPECT_EQ(h.pop(), (std::pair<std::uint32_t, int>{3, 30}));
  EXPECT_TRUE(h.empty());
}

TEST(Heap, DecreaseKeyMovesElementUp) {
  BinaryHeap<int> h(10);
  for (std::uint32_t i = 0; i < 8; ++i) h.push(i, 100 + static_cast<int>(i));
  h.decrease_key(7, 1);
  EXPECT_EQ(h.top_id(), 7u);
  EXPECT_EQ(h.key_of(7), 1);
}

TEST(Heap, PushOrDecreaseSemantics) {
  BinaryHeap<int> h(4);
  EXPECT_EQ(h.push_or_decrease(0, 5), QueuePush::kPushed);
  EXPECT_EQ(h.push_or_decrease(0, 7), QueuePush::kUnchanged);  // larger key
  EXPECT_EQ(h.key_of(0), 5);
  EXPECT_EQ(h.push_or_decrease(0, 2), QueuePush::kDecreased);
  EXPECT_EQ(h.key_of(0), 2);
}

TEST(Heap, EraseArbitrary) {
  BinaryHeap<int> h(8);
  for (std::uint32_t i = 0; i < 8; ++i) h.push(i, static_cast<int>(i));
  h.erase(0);
  h.erase(4);
  EXPECT_FALSE(h.contains(0));
  EXPECT_FALSE(h.contains(4));
  std::vector<std::uint32_t> order;
  while (!h.empty()) order.push_back(h.pop().first);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3, 5, 6, 7}));
}

TEST(Heap, ClearResetsMembership) {
  BinaryHeap<int> h(4);
  h.push(1, 1);
  h.push(2, 2);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(1));
  h.push(1, 9);  // reusable after clear
  EXPECT_EQ(h.top_key(), 9);
}

TEST(Heap, RandomizedBinary) {
  Rng rng(42);
  BinaryHeap<std::uint64_t> h(512);
  std::vector<bool> in(512, false);
  std::vector<std::uint64_t> key(512);
  for (int step = 0; step < 20000; ++step) {
    std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(512));
    if (!in[id]) {
      key[id] = rng.next_below(1000000);
      h.push(id, key[id]);
      in[id] = true;
    } else if (rng.next_bool(0.5) && key[id] > 0) {
      key[id] = rng.next_below(key[id] + 1);
      h.decrease_key(id, key[id]);
    } else if (!h.empty()) {
      // Pop the min and compare against brute force.
      std::uint64_t expect = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t i = 0; i < 512; ++i) {
        if (in[i]) expect = std::min(expect, key[i]);
      }
      auto [pid, pkey] = h.pop();
      in[pid] = false;
      ASSERT_EQ(pkey, expect);
    }
  }
}

// The lazy heap has no decrease-key: an improvement pushes a second entry
// for the id, and the caller drops the outdated one when it pops — the
// protocol of McTimeQuery and the contraction's witness searches and node
// ordering.
template <unsigned Arity>
void lazy_randomized_against_brute_force(std::uint64_t seed) {
  constexpr std::uint32_t kIds = 512;
  Rng rng(seed);
  LazyDAryHeap<std::uint64_t, Arity> h(kIds);
  std::vector<bool> in(kIds, false);
  std::vector<std::uint64_t> key(kIds);
  auto brute_min = [&] {
    std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t i = 0; i < kIds; ++i) {
      if (in[i]) m = std::min(m, key[i]);
    }
    return m;
  };
  // Pops until a live entry comes out; returns its key (max if drained).
  std::uint64_t stale = 0;
  auto pop_live = [&] {
    while (!h.empty()) {
      auto [pid, pkey] = h.pop();
      if (!in[pid] || key[pid] != pkey) {
        ++stale;
        continue;
      }
      in[pid] = false;
      return pkey;
    }
    return std::numeric_limits<std::uint64_t>::max();
  };
  for (int step = 0; step < 20000; ++step) {
    std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(kIds));
    if (!in[id]) {
      key[id] = rng.next_below(1000000);
      h.push(id, key[id]);
      in[id] = true;
    } else if (rng.next_bool(0.5) && key[id] > 0) {
      key[id] = rng.next_below(key[id]);  // strictly lower: old entry stale
      h.push(id, key[id]);
    } else {
      const std::uint64_t expect = brute_min();
      ASSERT_EQ(pop_live(), expect) << "arity " << Arity << " step " << step;
    }
  }
  // Drain: live keys come out ascending, every queued id exactly once.
  for (std::uint64_t expect = brute_min();
       expect != std::numeric_limits<std::uint64_t>::max();
       expect = brute_min()) {
    ASSERT_EQ(pop_live(), expect) << "arity " << Arity << " drain";
  }
  while (!h.empty()) {
    EXPECT_FALSE(in[h.pop().first]);
    ++stale;
  }
  EXPECT_GT(stale, 0u) << "the workload never exercised a stale pop";
}

TEST(LazyHeap, RandomizedBinaryArity) {
  lazy_randomized_against_brute_force<2>(43);
}
TEST(LazyHeap, RandomizedQuadArity) {
  lazy_randomized_against_brute_force<4>(44);
}

TEST(Backoff, DecorrelatedJitterEnvelope) {
  constexpr double kBase = 5.0;
  constexpr double kCap = 200.0;
  auto sequence = [&](std::uint64_t seed) {
    Rng rng(seed);
    double prev = 0.0;
    std::vector<double> seq;
    for (int k = 0; k < 12; ++k) {
      seq.push_back(decorrelated_jitter(kBase, kCap, prev, rng));
    }
    return seq;
  };
  const std::vector<double> a = sequence(7);
  EXPECT_EQ(a, sequence(7)) << "not deterministic per seed";
  EXPECT_NE(a, sequence(8)) << "seeds do not decorrelate";
  EXPECT_EQ(a.front(), kBase);
  double prev = 0.0;
  for (double ms : a) {
    EXPECT_GE(ms, kBase);
    EXPECT_LE(ms, kCap);
    if (prev > 0.0) {
      EXPECT_LE(ms, 3.0 * prev);
    }
    prev = ms;
  }
}

TEST(EpochArray, DefaultsAndClear) {
  EpochArray<int> a(4, -1);
  EXPECT_EQ(a.get(2), -1);
  a.set(2, 7);
  EXPECT_EQ(a.get(2), 7);
  EXPECT_TRUE(a.touched(2));
  a.clear();
  EXPECT_EQ(a.get(2), -1);
  EXPECT_FALSE(a.touched(2));
}

TEST(EpochArray, EnsureAndClearGrows) {
  EpochArray<int> a(2, 0);
  a.set(1, 5);
  a.ensure_and_clear(10, 0);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a.get(1), 0);
  a.set(9, 3);
  a.ensure_and_clear(4, 0);  // shrinking request keeps capacity
  EXPECT_EQ(a.get(9), 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    auto v = rng.next_in(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Csv, RoundTripQuoting) {
  std::vector<std::string> rec{"plain", "with,comma", "with\"quote",
                               "multi\nline", ""};
  std::ostringstream out;
  write_csv_record(out, rec);
  std::istringstream in(out.str());
  auto back = read_csv_record(in);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, rec);
}

TEST(Csv, TableParsesHeaderAndRows) {
  std::istringstream in("a,b,c\r\n1,2,3\n4,,6\n");
  CsvTable t = CsvTable::parse(in);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(0, "a"), "1");
  EXPECT_EQ(t.cell(1, "c"), "6");
  EXPECT_EQ(t.cell_or(1, "b", "fallback"), "fallback");
  EXPECT_EQ(t.cell_or(0, "missing", "x"), "x");
  EXPECT_THROW(t.cell(0, "missing"), std::runtime_error);
}

TEST(Csv, RaggedRowThrows) {
  std::istringstream in("a,b\n1,2,3\n");
  EXPECT_THROW(CsvTable::parse(in), std::runtime_error);
}

TEST(Csv, BomStripped) {
  std::istringstream in("\xef\xbb\xbfstop_id,name\nX,Y\n");
  CsvTable t = CsvTable::parse(in);
  EXPECT_TRUE(t.has_column("stop_id"));
  EXPECT_EQ(t.cell(0, "stop_id"), "X");
}

TEST(Format, Clock) {
  EXPECT_EQ(format_clock(0), "00:00:00");
  EXPECT_EQ(format_clock(8 * 3600 + 90), "08:01:30");
  EXPECT_EQ(format_clock(86400 + 1800), "00:30:00+1d");
}

TEST(Format, MinSecAndBytesAndCount) {
  EXPECT_EQ(format_min_sec(190.2), "3:10");
  EXPECT_EQ(format_bytes(5 * 1024 * 1024), "5.0 MiB");
  EXPECT_EQ(format_count(4311920), "4 311 920");
  EXPECT_EQ(format_count(12), "12");
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(4, 0);
  pool.run([&](std::size_t t) { hits[t]++; });
  pool.run([&](std::size_t t) { hits[t]++; });
  EXPECT_EQ(hits, (std::vector<int>{2, 2, 2, 2}));
}

TEST(ThreadPool, SingleThreadInline) {
  ThreadPool pool(1);
  int x = 0;
  pool.run([&](std::size_t) { ++x; });
  EXPECT_EQ(x, 1);
}

TEST(ThreadPool, ParallelSum) {
  ThreadPool pool(3);
  std::vector<std::uint64_t> partial(3, 0);
  pool.run([&](std::size_t t) {
    for (std::uint64_t i = t; i < 3000; i += 3) partial[t] += i;
  });
  EXPECT_EQ(partial[0] + partial[1] + partial[2], 3000ull * 2999 / 2);
}

}  // namespace
}  // namespace pconn
