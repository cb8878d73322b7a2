// SpcsPool — the fork-join thread pool of the parallel SPCS drivers
// together with one QueryWorkspace per pool thread.
//
// Every parallel driver (ParallelSpcsT, OverlayParallelSpcsT, and through
// them the s2s and all-to-one engines) builds its per-thread SPCS states
// inside these workspaces and forks its partitions over this pool. A
// driver constructed on its own owns a private pool; a QuerySession owns
// ONE pool and lends it to every parallel engine it builds. The threads
// and arenas then outlive the engines: an epoch transition
// (QuerySessionT::rebind) drops the engines — views over the old world —
// and rewinds the arenas in place, instead of joining and respawning
// p - 1 threads and reallocating p arenas per published epoch.
//
// Single-owner like a session: one run() at a time, and rewind() only
// while no state built over the workspaces is alive.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "algo/workspace.hpp"
#include "util/thread_pool.hpp"

namespace pconn {

class SpcsPool {
 public:
  /// Spawns threads - 1 workers (the caller of run() is thread 0) and one
  /// workspace per thread, each arena pinned to its thread's NUMA node.
  explicit SpcsPool(unsigned threads);

  SpcsPool(const SpcsPool&) = delete;
  SpcsPool& operator=(const SpcsPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workspaces_.size()); }

  /// Runs fn(t) for t in [0, size()) and waits (ThreadPool::run).
  void run(TaskRef fn) { pool_.run(fn); }

  QueryWorkspace& workspace(std::size_t t) { return *workspaces_[t]; }

  /// Total arena footprint of the per-thread workspaces.
  std::size_t scratch_bytes_reserved() const;

  /// Rewinds every arena without releasing its blocks (Arena::reset).
  void rewind();

 private:
  ThreadPool pool_;
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
};

}  // namespace pconn
