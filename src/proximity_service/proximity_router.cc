#include "proximity_service/proximity_router.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "proximity/ppr_forward_push.h"
#include "util/logging.h"

namespace amici {

namespace {

/// The one statement of the edit-validation rules; EditEdge and the
/// ValidateEdit preview both apply exactly this.
Status ValidateEditAgainst(const SocialGraph& graph, UserId u, UserId v,
                           bool adding, bool check_existence) {
  if (u >= graph.num_users() || v >= graph.num_users()) {
    return Status::InvalidArgument("friendship endpoint outside the graph");
  }
  if (u == v) return Status::InvalidArgument("self-friendship is not a thing");
  if (!check_existence) return Status::Ok();
  if (adding && graph.HasEdge(u, v)) {
    return Status::AlreadyExists("friendship already present");
  }
  if (!adding && !graph.HasEdge(u, v)) {
    return Status::NotFound("no such friendship");
  }
  return Status::Ok();
}

}  // namespace

ProximityServiceRouter::ProximityServiceRouter(SocialGraph graph,
                                               Options options)
    : model_(options.model != nullptr
                 ? options.model
                 : std::make_shared<PprForwardPush>(/*restart_prob=*/0.15,
                                                    /*epsilon=*/1e-4)),
      options_(std::move(options)),
      fold_policy_(options_.fold_policy != nullptr
                       ? options_.fold_policy
                       : std::make_shared<AdaptiveOverlayFoldPolicy>()),
      delta_(std::move(graph), std::max<size_t>(1, options_.num_partitions)) {
  const size_t n = delta_.num_buckets();
  partitions_.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    partitions_.push_back(std::make_unique<ProximityPartition>(
        static_cast<uint32_t>(p), &delta_, model_.get(),
        options_.cache_capacity, options_.warm_top_n));
  }

  auto initial = std::make_shared<const GraphView>(
      GraphView{std::make_shared<const SocialGraph>(delta_.Compose()), 0});

  // Seed resident counts and frontier refcounts from the starting graph:
  // partition p's frontier is every remote endpoint its residents'
  // adjacency reaches. One O(U + E) pass at construction; edits maintain
  // it incrementally from here.
  const SocialGraph& view = *initial->graph;
  std::vector<size_t> residents(n, 0);
  std::vector<std::unordered_map<UserId, uint32_t>> frontiers(n);
  for (size_t u = 0; u < view.num_users(); ++u) {
    const uint32_t p = PartitionOf(static_cast<UserId>(u));
    ++residents[p];
    if (n == 1) continue;  // a single partition has no remote endpoints
    for (const UserId v : view.Friends(static_cast<UserId>(u))) {
      if (PartitionOf(v) != p) ++frontiers[p][v];
    }
  }
  for (size_t p = 0; p < n; ++p) {
    partitions_[p]->SeedResidents(residents[p]);
    if (!frontiers[p].empty()) {
      partitions_[p]->SeedFrontier(std::move(frontiers[p]));
    }
  }

  state_.store(std::move(initial));
}

GraphView ProximityServiceRouter::Acquire() const {
  return *state_.load();
}

std::shared_ptr<const ProximityVector> ProximityServiceRouter::GetProximity(
    const SocialGraph& graph, UserId source, uint64_t generation,
    ProximityOutcome* outcome) {
  return partitions_[PartitionOf(source)]->GetProximity(graph, source,
                                                        generation, outcome);
}

Status ProximityServiceRouter::ValidateEdit(UserId u, UserId v, bool adding,
                                            bool check_existence) const {
  const std::shared_ptr<const GraphView> cur = state_.load();
  return ValidateEditAgainst(*cur->graph, u, v, adding, check_existence);
}

Status ProximityServiceRouter::EditEdge(UserId u, UserId v, bool insert) {
  bool should_fold = false;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    const std::shared_ptr<const GraphView> cur = state_.load();
    AMICI_RETURN_IF_ERROR(ValidateEditAgainst(*cur->graph, u, v, insert,
                                              /*check_existence=*/true));

    // Snapshot the warm-over candidates BEFORE publishing: the hottest
    // users of each partition's RETIRING generation are exactly the ones
    // worth paying for against the new graph.
    std::vector<std::vector<UserId>> hottest(partitions_.size());
    for (size_t p = 0; p < partitions_.size(); ++p) {
      hottest[p] = partitions_[p]->HottestUsers();
    }

    // O(deg(u) + deg(v)): replace the two endpoint rows in their owners'
    // patch buckets (the remote half crossing the boundary when the
    // endpoints live on different partitions).
    partitions_[PartitionOf(u)]->ApplyResidentEdit(u, v, insert, *this);

    auto next = std::make_shared<const GraphView>(
        GraphView{std::make_shared<const SocialGraph>(delta_.Compose()),
                  cur->generation + 1});
    state_.store(next);
    generations_.fetch_add(1, std::memory_order_relaxed);
    // No cache flush: entries are keyed by generation, so stale vectors
    // can neither hit nor survive the first new-generation access.

    for (size_t p = 0; p < partitions_.size(); ++p) {
      partitions_[p]->SubmitWarm(*next, std::move(hottest[p]));
    }

    should_fold = fold_policy_->ShouldFold(delta_.signals());
  }
  if (should_fold) FoldOverlay();
  return Status::Ok();
}

void ProximityServiceRouter::ApplyRemoteHalf(UserId remote_user, UserId other,
                                             bool insert) {
  partitions_[PartitionOf(remote_user)]->ApplyRemoteHalf(remote_user, other,
                                                         insert);
}

Status ProximityServiceRouter::AddFriendship(UserId u, UserId v) {
  return EditEdge(u, v, /*insert=*/true);
}

Status ProximityServiceRouter::RemoveFriendship(UserId u, UserId v) {
  return EditEdge(u, v, /*insert=*/false);
}

size_t ProximityServiceRouter::FoldOverlay() {
  std::unique_lock<std::mutex> lock(writer_mutex_);
  if (delta_.signals().patch_rows == 0) return 0;
  const DeltaOverlayGraph::FoldPin pin = delta_.PinForFold();
  lock.unlock();
  // The O(U + E) rebuild runs off the writer lock: concurrent edits keep
  // landing (their rows outlive the fold via the pin's sequence number)
  // and readers keep serving the published view.
  SocialGraph folded = pin.view.Flatten();
  lock.lock();
  const size_t rows = delta_.AdoptFolded(pin, std::move(folded));
  // Republish the CURRENT generation over the folded representation —
  // the graph content is unchanged, so this must not look like an edit
  // to generation-keyed caches or pinned snapshots.
  const std::shared_ptr<const GraphView> cur = state_.load();
  state_.store(std::make_shared<const GraphView>(
      GraphView{std::make_shared<const SocialGraph>(delta_.Compose()),
                cur->generation}));
  folds_.fetch_add(1, std::memory_order_relaxed);
  return rows;
}

ProximityProviderStats ProximityServiceRouter::stats() const {
  ProximityProviderStats stats;
  stats.partitions = partitions_.size();
  stats.generations_published =
      generations_.load(std::memory_order_relaxed);
  stats.overlay_folds = folds_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    stats.overlay_rows = delta_.signals().patch_rows;
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const ProximityPartitionStats part = partitions_[p]->stats(0);
    stats.computations += part.computations;
    stats.cache_hits += part.cache_hits;
    stats.inflight_joins += part.inflight_joins;
    stats.warmed += part.warmed;
    stats.cache_entries += part.cache_entries;
    stats.boundary_crossings += part.boundary_out;
    stats.frontier_users += part.frontier_users;
  }
  return stats;
}

std::vector<ProximityPartitionStats>
ProximityServiceRouter::partition_stats() const {
  std::vector<ProximityPartitionStats> out;
  out.reserve(partitions_.size());
  std::lock_guard<std::mutex> lock(writer_mutex_);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    out.push_back(partitions_[p]->stats(delta_.bucket_rows(p)));
  }
  return out;
}

void ProximityServiceRouter::WaitForWarmup() {
  for (const auto& partition : partitions_) partition->WaitForWarmup();
}

}  // namespace amici
