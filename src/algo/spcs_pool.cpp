#include "algo/spcs_pool.hpp"

namespace pconn {

SpcsPool::SpcsPool(unsigned threads) : pool_(threads) {
  workspaces_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workspaces_.push_back(std::make_unique<QueryWorkspace>());
  }
  // Before any state grows scratch into a workspace, pin its arena to the
  // NUMA node of the pool thread that will run on it (PCONN_NUMA=0
  // disables; single-node machines are a no-op). The states are built on
  // the calling thread, but mbind routes their blocks' pages to the
  // workers' nodes. The pinning survives rewind().
  pool_.run([&](std::size_t t) {
    workspaces_[t]->arena().set_numa_node(Arena::current_numa_node());
  });
}

std::size_t SpcsPool::scratch_bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& w : workspaces_) total += w->bytes_reserved();
  return total;
}

void SpcsPool::rewind() {
  for (auto& w : workspaces_) w->arena().reset();
}

}  // namespace pconn
