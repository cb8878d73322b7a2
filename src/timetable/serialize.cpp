#include "timetable/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "timetable/builder.hpp"

namespace pconn {

namespace {

constexpr char kMagic[4] = {'P', 'C', 'T', 'T'};
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.write(buf, 4);
}

std::uint32_t read_u32(std::istream& in) {
  char buf[4];
  in.read(buf, 4);
  if (!in) {
    throw LoadError(LoadError::Kind::kTruncated, "timetable: truncated stream");
  }
  std::uint32_t v;
  std::memcpy(&v, buf, 4);
  return v;
}

void write_string(std::ostream& out, const std::string& s) {
  write_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& in) {
  std::uint32_t n = read_u32(in);
  if (n > (1u << 20)) {
    throw LoadError(LoadError::Kind::kBadCount, "timetable: absurd string size");
  }
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (!in) {
    throw LoadError(LoadError::Kind::kTruncated, "timetable: truncated stream");
  }
  return s;
}

}  // namespace

void save_timetable(const Timetable& tt, std::ostream& out) {
  out.write(kMagic, 4);
  write_u32(out, kVersion);
  write_u32(out, tt.period());
  write_u32(out, static_cast<std::uint32_t>(tt.num_stations()));
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    write_string(out, tt.station_name(s));
    write_u32(out, tt.transfer_time(s));
  }
  write_u32(out, static_cast<std::uint32_t>(tt.num_trips()));
  for (TrainId t = 0; t < tt.num_trips(); ++t) {
    const Trip& trip = tt.trip(t);
    const Route& route = tt.route(trip.route);
    write_u32(out, static_cast<std::uint32_t>(route.stops.size()));
    for (std::size_t k = 0; k < route.stops.size(); ++k) {
      write_u32(out, route.stops[k]);
      write_u32(out, trip.arrivals[k]);
      write_u32(out, trip.departures[k]);
    }
  }
  if (!out) throw std::runtime_error("timetable: write failure");
}

namespace {

constexpr char kOverlayMagic[4] = {'P', 'C', 'O', 'V'};
constexpr std::uint32_t kOverlayVersion = 1;

template <typename T>
void write_u32_vector(std::ostream& out, const std::vector<T>& v) {
  static_assert(sizeof(T) == 4);
  write_u32(out, static_cast<std::uint32_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * 4));
}

// Reads a count-prefixed u32 array whose length is free (it DEFINES a
// dimension rather than matching one); the cap bounds the resize a
// corrupted count can cause before cross-checks catch it.
template <typename T>
void read_u32_vector(std::istream& in, std::vector<T>& v,
                     const char* section) {
  static_assert(sizeof(T) == 4);
  const std::uint32_t n = read_u32(in);
  if (n > (1u << 28)) {
    throw LoadError(LoadError::Kind::kBadCount,
                    std::string("overlay: absurd ") + section + " size");
  }
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(std::size_t{n} * 4));
  if (!in) {
    throw LoadError(LoadError::Kind::kTruncated,
                    std::string("overlay: truncated ") + section);
  }
}

// Reads a count-prefixed u32 array whose length is already implied by the
// sections loaded before it: the count is checked against `expected`
// BEFORE any storage is allocated, so a lying count in a corrupted file
// fails with a diagnostic instead of a multi-GB resize.
template <typename T>
void read_u32_vector_expect(std::istream& in, std::vector<T>& v,
                            std::size_t expected, const char* section) {
  static_assert(sizeof(T) == 4);
  const std::uint32_t n = read_u32(in);
  if (n != expected) {
    throw LoadError(LoadError::Kind::kBadCount,
                    std::string("overlay: ") + section + " count " +
                        std::to_string(n) + " != expected " +
                        std::to_string(expected));
  }
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(std::size_t{n} * 4));
  if (!in) {
    throw LoadError(LoadError::Kind::kTruncated,
                    std::string("overlay: truncated ") + section);
  }
}

}  // namespace

void save_overlay(const OverlayGraph& ov, std::ostream& out) {
  out.write(kOverlayMagic, 4);
  write_u32(out, kOverlayVersion);
  write_u32(out, static_cast<std::uint32_t>(ov.num_stations_));
  write_u32(out, static_cast<std::uint32_t>(ov.num_core_));
  write_u32(out, ov.period_);
  write_u32(out, ov.max_out_degree_);
  write_u32(out, ov.num_base_ttfs_);
  write_u32(out, ov.num_base_edges_);

  write_u32_vector(out, ov.rank_);
  write_u32_vector(out, ov.board_shift_);
  write_u32_vector(out, ov.edge_begin_);
  write_u32_vector(out, ov.heads_);
  write_u32_vector(out, ov.words_);
  write_u32_vector(out, ov.origins_);
  write_u32(out, static_cast<std::uint32_t>(ov.ttf_out_degree_.size()));
  out.write(reinterpret_cast<const char*>(ov.ttf_out_degree_.data()),
            static_cast<std::streamsize>(ov.ttf_out_degree_.size()));

  write_u32(out, static_cast<std::uint32_t>(ov.shortcuts_.size()));
  for (const OverlayGraph::ShortcutRec& r : ov.shortcuts_) {
    write_u32(out, r.word);
    write_u32(out, r.mid);
    write_u32(out, r.a);
    write_u32(out, r.b);
  }

  write_u32_vector(out, ov.down_node_);
  write_u32_vector(out, ov.down_begin_);
  write_u32_vector(out, ov.down_tails_);
  write_u32_vector(out, ov.down_words_);

  // Pooled TTFs as raw pruned point spans. The points are the dominant
  // payload (hundreds of thousands of shortcut points on the bench
  // networks), so each function's contiguous span is written in one shot.
  static_assert(sizeof(TtfPoint) == 8);
  write_u32(out, static_cast<std::uint32_t>(ov.ttfs_.size()));
  for (std::uint32_t f = 0; f < static_cast<std::uint32_t>(ov.ttfs_.size());
       ++f) {
    const auto pts = ov.ttfs_.points(f);
    write_u32(out, static_cast<std::uint32_t>(pts.size()));
    out.write(reinterpret_cast<const char*>(pts.data()),
              static_cast<std::streamsize>(pts.size() * sizeof(TtfPoint)));
  }
  if (!out) throw std::runtime_error("overlay: write failure");
}

OverlayGraph load_overlay(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kOverlayMagic, 4) != 0) {
    throw LoadError(LoadError::Kind::kBadMagic, "overlay: bad magic");
  }
  const std::uint32_t version = read_u32(in);
  if (version != kOverlayVersion) {
    throw LoadError(LoadError::Kind::kBadVersion,
                    "overlay: unsupported version " + std::to_string(version));
  }
  const auto structural = [](bool ok, const char* what) {
    if (!ok) {
      throw LoadError(LoadError::Kind::kCorrupt,
                      std::string("overlay: inconsistent structure (") + what +
                          ")");
    }
  };

  OverlayGraph ov;
  ov.num_stations_ = read_u32(in);
  ov.num_core_ = read_u32(in);
  ov.period_ = read_u32(in);
  ov.max_out_degree_ = read_u32(in);
  ov.num_base_ttfs_ = read_u32(in);
  ov.num_base_edges_ = read_u32(in);
  // The pool divides by the period (reciprocal precompute) and the AVX2
  // arrival_tn kernel compares times in signed 32-bit lanes; reject
  // garbage before either sees it.
  if (ov.period_ == 0 || ov.period_ >= (Time{1} << 30)) {
    throw LoadError(LoadError::Kind::kCorrupt, "overlay: invalid period");
  }

  // rank_ defines the node count; everything after it has an implied
  // length and is read through the expect path (count checked before the
  // allocation happens).
  read_u32_vector(in, ov.rank_, "rank");
  const std::size_t n = ov.rank_.size();
  structural(ov.num_stations_ <= n, "stations > nodes");
  structural(ov.num_core_ <= n, "core > nodes");
  read_u32_vector_expect(in, ov.board_shift_, ov.num_stations_, "board_shift");
  for (const Time shift : ov.board_shift_) {
    structural(shift < ov.period_, "board shift >= period");
  }
  read_u32_vector_expect(in, ov.edge_begin_, n + 1, "edge_begin");
  structural(ov.edge_begin_.front() == 0, "edge_begin front");
  std::uint32_t widest = 0;
  for (std::size_t v = 0; v < n; ++v) {
    structural(ov.edge_begin_[v] <= ov.edge_begin_[v + 1],
               "edge_begin not monotone");
    widest = std::max(widest, ov.edge_begin_[v + 1] - ov.edge_begin_[v]);
  }
  // The engines reserve batch buffers to this; a corrupted value would
  // turn into a surprise multi-GB allocation at bind time.
  structural(ov.max_out_degree_ == widest, "max_out_degree mismatch");
  const std::size_t edges = ov.edge_begin_.back();
  read_u32_vector_expect(in, ov.heads_, edges, "heads");
  read_u32_vector_expect(in, ov.words_, edges, "words");
  read_u32_vector_expect(in, ov.origins_, edges, "origins");
  {
    const std::uint32_t count = read_u32(in);
    if (count != n) {
      throw LoadError(LoadError::Kind::kBadCount,
                      "overlay: ttf_out_degree count " + std::to_string(count) +
                          " != expected " + std::to_string(n));
    }
    ov.ttf_out_degree_.resize(n);
    in.read(reinterpret_cast<char*>(ov.ttf_out_degree_.data()),
            static_cast<std::streamsize>(n));
    if (!in) {
      throw LoadError(LoadError::Kind::kTruncated,
                      "overlay: truncated ttf_out_degree");
    }
  }

  const std::uint32_t num_shortcuts = read_u32(in);
  if (num_shortcuts > (1u << 28)) {
    throw LoadError(LoadError::Kind::kBadCount,
                    "overlay: absurd shortcut table size");
  }
  {
    // The shortcut count is free (not implied by earlier sections), so a
    // lying count on a truncated stream could request a huge reserve.
    // Grow incrementally instead: a fabricated count then fails with
    // kTruncated after at most one doubling step past the real data.
    ov.shortcuts_.reserve(std::min<std::size_t>(num_shortcuts, 1u << 16));
    for (std::uint32_t i = 0; i < num_shortcuts; ++i) {
      OverlayGraph::ShortcutRec r;
      r.word = read_u32(in);
      r.mid = read_u32(in);
      r.a = read_u32(in);
      r.b = read_u32(in);
      ov.shortcuts_.push_back(r);
    }
  }

  read_u32_vector(in, ov.down_node_, "down_node");
  read_u32_vector_expect(in, ov.down_begin_, ov.down_node_.size() + 1,
                         "down_begin");
  structural(ov.down_begin_.front() == 0, "down_begin front");
  for (std::size_t i = 0; i < ov.down_node_.size(); ++i) {
    structural(ov.down_begin_[i] <= ov.down_begin_[i + 1],
               "down_begin not monotone");
  }
  read_u32_vector_expect(in, ov.down_tails_, ov.down_begin_.back(),
                         "down_tails");
  read_u32_vector_expect(in, ov.down_words_, ov.down_tails_.size(),
                         "down_words");

  // Cross-array structural validation: a bit-flipped or hand-edited cache
  // file must fail here with a diagnostic, not at query time with an
  // out-of-bounds relax (load_timetable gets this for free by replaying
  // through TimetableBuilder; the overlay arrays are loaded verbatim).
  // Everything below runs BEFORE the TTF point payload — the dominant
  // allocation — is touched; word references are checked against the pool
  // size the arrays imply, and the pool read then enforces that size.
  const std::size_t expected_funcs =
      std::size_t{ov.num_base_ttfs_} + ov.shortcuts_.size();
  const auto word_ok = [&](std::uint32_t w) {
    return TdGraph::word_is_const(w) || w < expected_funcs;
  };
  const auto origin_ok = [&](std::uint32_t o) {
    // Shortcut origins index the record table; flat edge ids index the
    // base graph whose edge count the header records (the engine ctors
    // additionally assert that count against the graph they are given).
    return OverlayGraph::origin_is_shortcut(o)
               ? (o & ~OverlayGraph::kShortcutBit) < ov.shortcuts_.size()
               : o < ov.num_base_edges_;
  };
  for (std::size_t e = 0; e < edges; ++e) {
    structural(ov.heads_[e] < n, "edge head out of range");
    structural(word_ok(ov.words_[e]), "edge word out of range");
    structural(origin_ok(ov.origins_[e]), "edge origin out of range");
  }
  for (std::size_t i = 0; i < ov.shortcuts_.size(); ++i) {
    const OverlayGraph::ShortcutRec& r = ov.shortcuts_[i];
    structural(word_ok(r.word), "record word out of range");
    structural(r.mid == kInvalidNode || r.mid < n, "record mid out of range");
    structural(origin_ok(r.a) && origin_ok(r.b), "record leg out of range");
    // Records only ever reference earlier records (construction appends a
    // merge right after the link it folds in), which is what keeps the
    // journey replay's recursion finite — reject cycles here, not by
    // stack overflow.
    const auto acyclic = [&](std::uint32_t o) {
      return !OverlayGraph::origin_is_shortcut(o) ||
             (o & ~OverlayGraph::kShortcutBit) < i;
    };
    structural(acyclic(r.a) && acyclic(r.b), "record references later record");
  }
  for (std::size_t i = 0; i < ov.down_node_.size(); ++i) {
    structural(ov.down_node_[i] < n, "down node out of range");
    // Strictly descending contraction rank — the order that makes the
    // queue-less downward sweep exact; a permuted list would pass every
    // range check and silently corrupt settle_contracted results.
    structural(ov.rank_[ov.down_node_[i]] != kCoreRank, "core node in sweep");
    structural(i == 0 ||
                   ov.rank_[ov.down_node_[i - 1]] > ov.rank_[ov.down_node_[i]],
               "down sweep not rank-descending");
  }
  for (std::size_t e = 0; e < ov.down_tails_.size(); ++e) {
    structural(ov.down_tails_[e] < n, "down tail out of range");
    structural(word_ok(ov.down_words_[e]), "down word out of range");
  }

  // Pool last: every structural fact is already established, so the only
  // failures left are per-point (ordering/range) and truncation.
  ov.ttfs_.reset(ov.period_);
  const std::uint32_t funcs = read_u32(in);
  if (funcs != expected_funcs) {
    throw LoadError(LoadError::Kind::kBadCount,
                    "overlay: pool size " + std::to_string(funcs) +
                        " != base ttfs + shortcut records " +
                        std::to_string(expected_funcs));
  }
  std::vector<TtfPoint> pts;
  for (std::uint32_t f = 0; f < funcs; ++f) {
    const std::uint32_t count = read_u32(in);
    if (count > (1u << 28)) {
      throw LoadError(LoadError::Kind::kBadCount,
                      "overlay: absurd function size");
    }
    pts.resize(count);
    in.read(reinterpret_cast<char*>(pts.data()),
            static_cast<std::streamsize>(std::size_t{count} *
                                         sizeof(TtfPoint)));
    if (!in) {
      throw LoadError(LoadError::Kind::kTruncated,
                      "overlay: truncated function points");
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].dep >= ov.period_ || (i > 0 && pts[i - 1].dep >= pts[i].dep)) {
        throw LoadError(LoadError::Kind::kCorrupt,
                        "overlay: malformed function points");
      }
    }
    ov.ttfs_.add_raw(pts);
  }

  // Derived, not serialized: the node -> down-sweep-position map every
  // sweeping engine reads (validated down_node_ makes it well-defined).
  ov.build_down_pos();
  return ov;
}

Timetable load_timetable(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw LoadError(LoadError::Kind::kBadMagic, "timetable: bad magic");
  }
  std::uint32_t version = read_u32(in);
  if (version != kVersion) {
    throw LoadError(LoadError::Kind::kBadVersion,
                    "timetable: unsupported version " +
                        std::to_string(version));
  }
  Time period = read_u32(in);
  TimetableBuilder builder(period);
  std::uint32_t stations = read_u32(in);
  for (std::uint32_t s = 0; s < stations; ++s) {
    std::string name = read_string(in);
    Time transfer = read_u32(in);
    builder.add_station(std::move(name), transfer);
  }
  std::uint32_t trips = read_u32(in);
  for (std::uint32_t t = 0; t < trips; ++t) {
    std::uint32_t stops = read_u32(in);
    if (stops > (1u << 20)) {
      throw LoadError(LoadError::Kind::kBadCount, "timetable: absurd trip");
    }
    std::vector<TimetableBuilder::StopTime> seq(stops);
    for (std::uint32_t k = 0; k < stops; ++k) {
      seq[k].station = read_u32(in);
      seq[k].arrival = read_u32(in);
      seq[k].departure = read_u32(in);
    }
    builder.add_trip(seq);
  }
  return builder.finalize();
}

}  // namespace pconn
