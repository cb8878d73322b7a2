// Binary (de)serialization of timetables and contraction overlays: lets
// applications cache parsed GTFS feeds or generated networks — and the
// once-per-dataset contraction preprocessing — instead of rebuilding them
// per run.
//
// Timetable format: little-endian, magic "PCTT" + version, stations
// (names + transfer times) followed by trips (stop sequences + raw times).
// Loading replays the trips through TimetableBuilder, so route
// partitioning and validation are identical to a fresh build.
//
// Overlay format: magic "PCOV" + version, the overlay's scalar header,
// every CSR/provenance array verbatim, and the pooled TTFs as raw
// (already-pruned) point spans re-added through TtfPool::add_raw — the
// loaded overlay is structurally identical to the saved one and answers
// queries byte-for-byte the same (the eval bucket index is rebuilt with
// the default TtfIndexOptions, which never change results). Loading
// validates as it goes and throws a typed LoadError: every section's
// element count is checked against what the already-loaded sections
// require BEFORE its storage is allocated (a corrupted count fails with a
// diagnostic, not a multi-GB resize), and the cross-array checks (CSR
// monotonicity, head/word/origin/record ranges, the flat-edge-origins
// index against the header's base-edge count, record acyclicity, down
// order, point ordering) all run before the TTF point payload — the big
// allocation — is touched. An overlay only makes sense against the
// timetable/graph it was contracted from; the overlay engines'
// constructors validate the node/station/edge/TTF counts against the
// dataset they are given and throw on a mismatch — a stale cache fails
// loud in Release builds too.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "graph/overlay_graph.hpp"
#include "timetable/load_error.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

/// Writes `tt` to `out`. Throws std::runtime_error on stream failure.
void save_timetable(const Timetable& tt, std::ostream& out);

/// Reads a timetable written by save_timetable. Throws LoadError on bad
/// magic, unsupported version, truncation, or stream failure (and the
/// builder's std::invalid_argument on semantically malformed trips).
Timetable load_timetable(std::istream& in);

/// Writes a contraction overlay. Throws std::runtime_error on stream
/// failure.
void save_overlay(const OverlayGraph& ov, std::ostream& out);

/// Reads an overlay written by save_overlay. Throws LoadError on bad
/// magic, unsupported version, truncation, or any corrupt/inconsistent
/// section (see the header note for the validation order).
OverlayGraph load_overlay(std::istream& in);

}  // namespace pconn
