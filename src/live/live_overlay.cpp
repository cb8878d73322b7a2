#include "live/live_overlay.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "util/backoff.hpp"

namespace pconn {

LiveOverlay::LiveOverlay(Timetable tt, LiveOverlayOptions opt)
    : opt_(std::move(opt)), backoff_rng_(opt_.backoff_seed) {
  // Witness pruning would bake cost bounds into the overlay structure and
  // break re-link exactness; live overlays always contract without it.
  opt_.contraction.witness_settles = 0;
  opt_.contraction.faults = opt_.faults;

  auto tt_ptr = std::make_shared<const Timetable>(std::move(tt));
  auto g_ptr = std::make_shared<const TdGraph>(TdGraph::build(*tt_ptr));
  auto snap = std::make_shared<LiveSnapshot>();
  snap->epoch = 0;
  snap->tt = tt_ptr;
  snap->graph = g_ptr;
  try {
    snap->overlay = std::make_shared<const OverlayGraph>(
        contract(*tt_ptr, *g_ptr));
  } catch (const std::exception&) {
    // Injected fault / allocation failure during the initial build: start
    // degraded — flat engines are exact, retry() restores the overlay.
    snap->degraded = true;
    snap->bypassed_stations = all_stations(*tt_ptr);
    ++stats_.degradations;
    ++failed_attempts_;
  }
  current_ = std::move(snap);
}

LiveOverlay::LiveOverlay(Timetable tt, OverlayGraph overlay,
                         LiveOverlayOptions opt)
    : opt_(std::move(opt)), backoff_rng_(opt_.backoff_seed) {
  opt_.contraction.witness_settles = 0;  // same invariant as the build path
  opt_.contraction.faults = opt_.faults;

  auto tt_ptr = std::make_shared<const Timetable>(std::move(tt));
  auto g_ptr = std::make_shared<const TdGraph>(TdGraph::build(*tt_ptr));
  // The engine constructors re-validate these counts at bind time; check
  // here too so a stale snapshot fails at adoption, before the first
  // query pins the epoch.
  if (overlay.num_nodes() != g_ptr->num_nodes() ||
      overlay.num_stations() != tt_ptr->num_stations() ||
      overlay.num_base_ttfs() != g_ptr->ttfs().size() ||
      overlay.num_base_edges() != g_ptr->num_edges()) {
    throw std::runtime_error(
        "live: adopted overlay does not match the timetable "
        "(snapshot from a different dataset?)");
  }
  auto snap = std::make_shared<LiveSnapshot>();
  snap->epoch = 0;
  snap->tt = tt_ptr;
  snap->graph = g_ptr;
  snap->overlay = std::make_shared<const OverlayGraph>(std::move(overlay));
  current_ = std::move(snap);
}

OverlayGraph LiveOverlay::contract(const Timetable& tt,
                                   const TdGraph& g) const {
  return contract_graph(tt, g, opt_.contraction);
}

std::vector<StationId> LiveOverlay::all_stations(const Timetable& tt) {
  std::vector<StationId> all(tt.num_stations());
  for (StationId s = 0; s < all.size(); ++s) all[s] = s;
  return all;
}

void LiveOverlay::publish(std::shared_ptr<const LiveSnapshot> next) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_) {
    retired_.push_back(current_);
    ++stats_.epochs_retired;
  }
  // Prune epochs no reader pins anymore (the weak_ptrs expire on their
  // own; this just keeps the bookkeeping vector bounded).
  std::erase_if(retired_,
                [](const std::weak_ptr<const LiveSnapshot>& w) {
                  return w.expired();
                });
  current_ = std::move(next);
}

std::size_t LiveOverlay::retired_pinned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& w : retired_) {
    if (!w.expired()) ++n;
  }
  return n;
}

ApplyResult LiveOverlay::apply(const DelayEvent& ev) {
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  ApplyResult res;

  // 0. Validate by replaying the published timetable with the event folded
  // in. A malformed event dies here — nothing published, serving state
  // untouched (the "malformed event" degradation path is a rejection).
  std::shared_ptr<const Timetable> tt_new;
  std::shared_ptr<const TdGraph> g_new;
  try {
    tt_new = std::make_shared<const Timetable>(apply_event(*cur->tt, ev));
    g_new = std::make_shared<const TdGraph>(TdGraph::build(*tt_new));
  } catch (const std::exception& e) {
    ++stats_.events_rejected;
    res.status = ApplyStatus::kRejected;
    res.epoch = cur->epoch;
    res.error = e.what();
    return res;
  }
  ++stats_.events_applied;

  auto next = std::make_shared<LiveSnapshot>();
  next->epoch = cur->epoch + 1;
  next->tt = tt_new;
  next->graph = g_new;
  res.epoch = next->epoch;

  // 1. Incremental re-link off the healthy overlay.
  if (cur->overlay != nullptr && !cur->degraded) {
    try {
      RelinkResult r =
          relink_overlay(*tt_new, *g_new, *cur->graph, *cur->overlay,
                         opt_.relink);
      res.relink_status = r.status;
      res.relink = r.stats;
      stats_.last_relink = r.stats;
      if (r.status == RelinkStatus::kRelinked) {
        next->overlay =
            std::make_shared<const OverlayGraph>(std::move(r.overlay));
        ++stats_.relinks;
        failed_attempts_ = 0;
        prev_backoff_ms_ = 0.0;
        publish(std::move(next));
        res.status = ApplyStatus::kRelinked;
        return res;
      }
      if (r.status == RelinkStatus::kStructureChanged) {
        // 2. The perturbation changed the graph's structure (route split,
        // cancelled/extra trip): re-contract from scratch.
        next->overlay = std::make_shared<const OverlayGraph>(
            contract(*tt_new, *g_new));
        ++stats_.recontractions;
        failed_attempts_ = 0;
        prev_backoff_ms_ = 0.0;
        publish(std::move(next));
        res.status = ApplyStatus::kRecontracted;
        return res;
      }
      // Blast radius / deadline: fall through to degradation.
      res.error = r.status == RelinkStatus::kBlastRadiusExceeded
                      ? "re-link blast radius exceeded"
                      : "re-link deadline exceeded";
    } catch (const std::exception& e) {
      // Injected fault or allocation failure mid-rebuild.
      res.error = e.what();
    }
  }

  // 3. Degrade: publish the new timetable WITHOUT an overlay. The flat
  // engines serve every station exactly; retry() rebuilds in background.
  next->overlay = nullptr;
  next->degraded = true;
  next->bypassed_stations = all_stations(*tt_new);
  ++stats_.degradations;
  ++failed_attempts_;
  publish(std::move(next));
  res.status = ApplyStatus::kDegraded;
  return res;
}

ApplyResult LiveOverlay::retry() {
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  ApplyResult res;
  res.epoch = cur->epoch;
  if (!cur->degraded) {
    res.status = ApplyStatus::kNoop;
    return res;
  }
  ++stats_.retries;
  if (failed_attempts_ > 0) {
    const double cap =
        opt_.backoff_ms * static_cast<double>(1u << opt_.max_backoff_exp);
    const double ms = decorrelated_jitter(opt_.backoff_ms, cap,
                                          prev_backoff_ms_, backoff_rng_);
    last_backoff_ms_ = ms;
    if (opt_.backoff_ms > 0.0 && ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
  }
  try {
    auto next = std::make_shared<LiveSnapshot>();
    next->epoch = cur->epoch + 1;
    next->tt = cur->tt;        // recovery reuses the degraded epoch's world
    next->graph = cur->graph;  // — only the overlay is new
    next->overlay = std::make_shared<const OverlayGraph>(
        contract(*cur->tt, *cur->graph));
    ++stats_.recoveries;
    failed_attempts_ = 0;
    prev_backoff_ms_ = 0.0;
    res.epoch = next->epoch;
    publish(std::move(next));
    res.status = ApplyStatus::kRecontracted;
    return res;
  } catch (const std::exception& e) {
    // Still failing: stay on the degraded epoch, deepen the backoff.
    ++failed_attempts_;
    res.status = ApplyStatus::kDegraded;
    res.error = e.what();
    return res;
  }
}

}  // namespace pconn
