#include "graph/ttf_pool.hpp"

#include <algorithm>
#include <bit>

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PCONN_HAVE_AVX2_DISPATCH 1
#include <immintrin.h>
#else
#define PCONN_HAVE_AVX2_DISPATCH 0
#endif

namespace pconn {

std::uint32_t TtfPool::add(const Ttf& f) {
  assert(f.period() == period_ || f.empty());
  return add_raw(f.points());
}

std::uint32_t TtfPool::add_raw(std::span<const TtfPoint> pts) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < pts.size(); ++i) {
    assert(pts[i].dep < period_);
    assert(i == 0 || pts[i - 1].dep < pts[i].dep);
  }
#endif
  // The AVX2 kernel gathers bucket entries and points through signed
  // 32-bit lanes; both stay far below 2^29 entries on any real network.
  assert(meta_.size() < (std::size_t{1} << 29));
  assert(points_.size() + pts.size() < (std::size_t{1} << 29));
  const std::uint32_t idx = static_cast<std::uint32_t>(meta_.size());
  TtfMeta m;
  m.first = static_cast<std::uint32_t>(points_.size());
  m.count = static_cast<std::uint32_t>(pts.size());
  m.bucket0 = static_cast<std::uint32_t>(bucket_idx_.size());
  points_.insert(points_.end(), pts.begin(), pts.end());

  // Default density: one bucket per point (rounded to a power of two,
  // capped at 2^16) — the expected scan past the bucket entry is then <= 1
  // point. The index options scale the density per network and drop the
  // index for small functions: those (and empty ones) keep a single bucket
  // pointing at their first point, so eval's index lookup stays branchless
  // and the scan is the plain linear lower_bound.
  std::uint32_t buckets = 1;
  if (pts.size() >= idx_.min_indexed_points) {
    const double want = std::max(
        1.0, static_cast<double>(pts.size()) * idx_.buckets_per_point);
    buckets = static_cast<std::uint32_t>(std::min<std::size_t>(
        std::bit_ceil(static_cast<std::size_t>(want)), std::size_t{1} << 16));
  }
  m.log2b = static_cast<std::uint32_t>(std::countr_zero(buckets));

  // bucket_idx_[b] = first point whose departure maps to bucket b or later
  // (two-pointer over the sorted departures; m.first + count when every
  // point maps earlier — the scan then wraps to the function's start).
  std::uint32_t i = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    while (i < m.count && bucket_of(pts[i].dep, m.log2b) < b) ++i;
    bucket_idx_.push_back(m.first + i);
  }
  meta_.push_back(m);
  return idx;
}

void TtfPool::append_copy(const TtfPool& src, std::uint32_t begin,
                          std::uint32_t end) {
  assert(&src != this);
  assert(src.period_ == period_);
  assert(begin <= end && end <= src.meta_.size());
  if (begin == end) return;
  const TtfMeta& mb = src.meta_[begin];
  const TtfMeta& ml = src.meta_[end - 1];
  // Functions are laid out in add order, so [begin, end) occupies one
  // contiguous span in each of src's three arrays.
  const std::uint32_t pts_lo = mb.first;
  const std::uint32_t pts_hi = ml.first + ml.count;
  const std::uint32_t bkt_lo = mb.bucket0;
  const std::uint32_t bkt_hi = ml.bucket0 + (1u << ml.log2b);
  assert(points_.size() + (pts_hi - pts_lo) < (std::size_t{1} << 29));
  assert(meta_.size() + (end - begin) < (std::size_t{1} << 29));
  const std::uint32_t point_shift =
      static_cast<std::uint32_t>(points_.size()) - pts_lo;
  const std::uint32_t bucket_shift =
      static_cast<std::uint32_t>(bucket_idx_.size()) - bkt_lo;

  points_.insert(points_.end(), src.points_.begin() + pts_lo,
                 src.points_.begin() + pts_hi);
  // Bucket entries are absolute point indices; shift them as they land.
  bucket_idx_.reserve(bucket_idx_.size() + (bkt_hi - bkt_lo));
  for (std::uint32_t b = bkt_lo; b < bkt_hi; ++b) {
    bucket_idx_.push_back(src.bucket_idx_[b] + point_shift);
  }
  meta_.reserve(meta_.size() + (end - begin));
  for (std::uint32_t f = begin; f < end; ++f) {
    TtfMeta m = src.meta_[f];
    m.first += point_shift;
    m.bucket0 += bucket_shift;
    meta_.push_back(m);
  }
}

void TtfPool::arrival_n(const std::uint32_t* entries, std::size_t n, Time t,
                        Time* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      const std::uint32_t next = entries[i + 1];
      if (!(next & kConstFlag)) prefetch_points(next);
    }
    out[i] = arrival_entry(entries[i], t);
  }
}

void TtfPool::arrival_tn_scalar(std::uint32_t f, const Time* ts, std::size_t n,
                                Time* out) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = arrival(f, ts[i]);
}

void TtfPool::arrival_tn_sorted(std::uint32_t f, const Time* ts, std::size_t n,
                                Time* out) const {
  arrival_tn_sorted_fused(
      f, n, [ts](std::size_t i) { return ts[i]; },
      [out](std::size_t i, Time a) { out[i] = a; });
}

#if PCONN_HAVE_AVX2_DISPATCH

// The kernel uses the bucket-mapping identity
//   bucket_of(tau, b) = ((tau << b) * inv) >> 32 = (tau * inv) >> (32 - b)
// with tau * inv < 2^32 (tau < period, inv = floor(2^32 / period)), so the
// per-lane bucket is a 32-bit multiply plus a shift — no division anywhere.
// All comparisons run in signed 32-bit lanes, which is safe because times
// stay below 2^30 (asserted in reset) and pool indices below 2^29
// (asserted in add).

namespace {

bool cpu_has_avx2() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
}

/// Per-32-bit-lane high half of the unsigned product a*b.
[[gnu::target("avx2")]] inline __m256i mul_hi_epu32(__m256i a, __m256i b) {
  const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(a, b), 32);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32),
                                       _mm256_srli_epi64(b, 32));
  // even holds lanes 0,2,.. in the low 64-bit halves; odd's products sit
  // with their high 32 bits exactly in the odd lane positions.
  return _mm256_blend_epi32(even, odd, 0b10101010);
}

}  // namespace

[[gnu::target("avx2")]] void TtfPool::arrival_tn_avx2(std::uint32_t f,
                                                      const Time* ts,
                                                      std::size_t n,
                                                      Time* out) const {
  const TtfMeta& m = meta_[f];
  if (m.count == 0) {
    std::fill(out, out + n, kInfTime);
    return;
  }
  const int* const bidx_base = reinterpret_cast<const int*>(bucket_idx_.data());
  const int* const pts_base = reinterpret_cast<const int*>(points_.data());
  const std::uint32_t inv32 = static_cast<std::uint32_t>(inv_period_);

  const __m256i vinv = _mm256_set1_epi32(static_cast<int>(inv32));
  const __m256i vperiod = _mm256_set1_epi32(static_cast<int>(period_));
  const __m256i vperiod_m1 =
      _mm256_set1_epi32(static_cast<int>(period_ - 1));
  const __m256i vfirst = _mm256_set1_epi32(static_cast<int>(m.first));
  const __m256i vend = _mm256_set1_epi32(static_cast<int>(m.first + m.count));
  const __m256i vbucket0 = _mm256_set1_epi32(static_cast<int>(m.bucket0));
  const __m128i vshift =
      _mm_cvtsi32_si128(static_cast<int>(32 - m.log2b));

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ts + i));
    // tau = t % period via the truncated reciprocal: the quotient estimate
    // undershoots by at most one, fixed with a single conditional subtract.
    const __m256i q = mul_hi_epu32(t, vinv);
    __m256i tau = _mm256_sub_epi32(t, _mm256_mullo_epi32(q, vperiod));
    const __m256i over = _mm256_cmpgt_epi32(tau, vperiod_m1);
    tau = _mm256_sub_epi32(tau, _mm256_and_si256(over, vperiod));
    // bucket = (tau * inv) >> (32 - log2b); tau * inv < 2^32, so the low
    // 32-bit product is exact.
    const __m256i bucket =
        _mm256_srl_epi32(_mm256_mullo_epi32(tau, vinv), vshift);
    __m256i pos = _mm256_i32gather_epi32(
        bidx_base, _mm256_add_epi32(vbucket0, bucket), 4);
    for (;;) {
      const __m256i in_range = _mm256_cmpgt_epi32(vend, pos);
      if (_mm256_testz_si256(in_range, in_range)) break;
      const __m256i dep = _mm256_mask_i32gather_epi32(
          tau, pts_base, _mm256_slli_epi32(pos, 1), in_range, 4);
      const __m256i advance =
          _mm256_and_si256(in_range, _mm256_cmpgt_epi32(tau, dep));
      if (_mm256_testz_si256(advance, advance)) break;
      pos = _mm256_sub_epi32(pos, advance);
    }
    pos = _mm256_blendv_epi8(vfirst, pos, _mm256_cmpgt_epi32(vend, pos));
    const __m256i p2 = _mm256_slli_epi32(pos, 1);
    const __m256i dep = _mm256_i32gather_epi32(pts_base + 0, p2, 4);
    const __m256i dur = _mm256_i32gather_epi32(pts_base + 1, p2, 4);
    const __m256i wrap = _mm256_cmpgt_epi32(tau, dep);
    const __m256i wait = _mm256_add_epi32(_mm256_sub_epi32(dep, tau),
                                          _mm256_and_si256(wrap, vperiod));
    const __m256i res = _mm256_add_epi32(t, _mm256_add_epi32(wait, dur));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), res);
  }
  arrival_tn_scalar(f, ts + i, n - i, out + i);
}

#endif  // PCONN_HAVE_AVX2_DISPATCH

void TtfPool::arrival_tn(std::uint32_t f, const Time* ts, std::size_t n,
                         Time* out) const {
#if PCONN_HAVE_AVX2_DISPATCH
  // period_ == 1 would need the 33-bit reciprocal; never a real timetable.
  if (n >= 8 && period_ > 1 && cpu_has_avx2()) {
    arrival_tn_avx2(f, ts, n, out);
    return;
  }
#endif
  arrival_tn_scalar(f, ts, n, out);
}

}  // namespace pconn
