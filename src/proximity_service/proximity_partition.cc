#include "proximity_service/proximity_partition.h"

#include <utility>

#include "util/logging.h"

namespace amici {

ProximityPartition::ProximityPartition(uint32_t id, DeltaOverlayGraph* delta,
                                       const ProximityModel* model,
                                       size_t cache_capacity,
                                       size_t warm_top_n)
    : id_(id),
      delta_(delta),
      warm_top_n_(warm_top_n),
      flight_(model, cache_capacity) {
  if (warm_top_n_ > 0) {
    warm_ = std::make_unique<WarmOverWorker>(
        [this](const GraphView& view, UserId user) {
          ProximityOutcome outcome;
          (void)flight_.Get(*view.graph, user, view.generation, &outcome);
          if (outcome == ProximityOutcome::kComputed) {
            warmed_.fetch_add(1, std::memory_order_relaxed);
          }
        });
  }
}

void ProximityPartition::SeedFrontier(
    std::unordered_map<UserId, uint32_t> refs) {
  std::lock_guard<std::mutex> lock(frontier_mutex_);
  frontier_ = std::move(refs);
}

std::shared_ptr<const ProximityVector> ProximityPartition::GetProximity(
    const SocialGraph& graph, UserId source, uint64_t generation,
    ProximityOutcome* outcome) {
  return flight_.Get(graph, source, generation, outcome);
}

void ProximityPartition::ApplyResidentEdit(UserId u, UserId v, bool insert,
                                           PartitionBoundary& boundary) {
  AMICI_CHECK(boundary.PartitionOf(u) == id_);
  ApplyHalfLocal(u, v, insert);
  if (boundary.PartitionOf(v) == id_) {
    ApplyHalfLocal(v, u, insert);
  } else {
    boundary_out_.fetch_add(1, std::memory_order_relaxed);
    boundary.ApplyRemoteHalf(v, u, insert);
  }
}

void ProximityPartition::ApplyRemoteHalf(UserId resident, UserId other,
                                         bool insert) {
  boundary_in_.fetch_add(1, std::memory_order_relaxed);
  ApplyHalfLocal(resident, other, insert);
}

void ProximityPartition::ApplyHalfLocal(UserId resident, UserId other,
                                        bool insert) {
  delta_->ApplyHalf(resident, other, insert);
  if (GraphPartitionOf(other, delta_->num_buckets()) == id_) return;
  std::lock_guard<std::mutex> lock(frontier_mutex_);
  if (insert) {
    ++frontier_[other];
  } else {
    const auto it = frontier_.find(other);
    AMICI_CHECK(it != frontier_.end()) << "frontier refcount underflow";
    if (--it->second == 0) frontier_.erase(it);
  }
}

std::vector<UserId> ProximityPartition::HottestUsers() const {
  if (warm_top_n_ == 0) return {};
  return flight_.cache().HottestUsers(warm_top_n_);
}

void ProximityPartition::SubmitWarm(GraphView view,
                                    std::vector<UserId> users) {
  if (warm_ == nullptr) return;
  warm_->Submit(std::move(view), std::move(users));
}

void ProximityPartition::WaitForWarmup() {
  if (warm_ != nullptr) warm_->WaitForWarmup();
}

ProximityPartitionStats ProximityPartition::stats(size_t patch_rows) const {
  ProximityPartitionStats stats;
  stats.partition = id_;
  stats.residents = residents_;
  stats.patch_rows = patch_rows;
  {
    std::lock_guard<std::mutex> lock(frontier_mutex_);
    stats.frontier_users = frontier_.size();
  }
  stats.boundary_out = boundary_out_.load(std::memory_order_relaxed);
  stats.boundary_in = boundary_in_.load(std::memory_order_relaxed);
  stats.computations = flight_.computations();
  stats.cache_hits = flight_.cache().hits();
  stats.inflight_joins = flight_.inflight_joins();
  stats.warmed = warmed_.load(std::memory_order_relaxed);
  stats.cache_entries = flight_.cache().size();
  return stats;
}

}  // namespace amici
