// QueryWorkspace — the reusable per-thread scratch home of a query engine.
//
// A workspace owns one Arena and hands out ScratchAlloc handles; every
// engine constructed over it places its scratch containers (epoch arrays,
// heap slots, bucket windows, hook tables) in that arena. The workspace —
// not the engine — is the unit of reuse: engines are cheap views that a
// QuerySession keeps alive across queries, the workspace survives with
// them, and a warm query allocates nothing because every container has
// already grown to its high-water mark inside the arena.
//
// Threading rule (docs/architecture.md): one workspace per thread, no
// sharing. An SpcsPool holds one workspace per pool thread for the
// parallel SPCS drivers (algo/spcs_pool.hpp); QuerySession owns one more
// for its single-threaded engines.
#pragma once

#include <memory>

#include "util/arena.hpp"

namespace pconn {

class QueryWorkspace {
 public:
  explicit QueryWorkspace(
      std::size_t first_block_bytes = Arena::kDefaultBlockBytes)
      : arena_(std::make_unique<Arena>(first_block_bytes)) {}

  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;
  QueryWorkspace(QueryWorkspace&&) = default;
  QueryWorkspace& operator=(QueryWorkspace&&) = default;

  Arena& arena() { return *arena_; }
  const Arena& arena() const { return *arena_; }

  /// Allocator handle for an engine's containers; rebinds per element type.
  ScratchAlloc alloc() { return ScratchAlloc(arena_.get()); }

  /// Arena footprint — what this workspace pins in memory.
  std::size_t bytes_reserved() const { return arena_->bytes_reserved(); }
  std::size_t bytes_used() const { return arena_->bytes_used(); }

 private:
  // unique_ptr so a workspace can move while allocators keep a stable
  // Arena* (the engines' containers store those pointers).
  std::unique_ptr<Arena> arena_;
};

/// The allocator engines derive their containers from: bound to `ws`'s
/// arena when given a workspace, unbound (plain heap) otherwise — every
/// engine stays constructible without a session.
inline ScratchAlloc scratch_alloc(QueryWorkspace* ws) {
  return ws ? ws->alloc() : ScratchAlloc();
}

}  // namespace pconn
