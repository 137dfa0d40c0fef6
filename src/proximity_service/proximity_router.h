#ifndef AMICI_PROXIMITY_SERVICE_PROXIMITY_ROUTER_H_
#define AMICI_PROXIMITY_SERVICE_PROXIMITY_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "proximity/proximity_model.h"
#include "proximity/proximity_provider.h"
#include "proximity_service/delta_overlay_graph.h"
#include "proximity_service/overlay_fold_policy.h"
#include "proximity_service/partition_boundary.h"
#include "proximity_service/proximity_partition.h"
#include "util/atomic_shared_ptr.h"
#include "util/status.h"

namespace amici {

/// The one shared graph + proximity surface behind every engine and
/// shard: users are hash-partitioned (GraphPartitionOf) across N
/// ProximityPartitions, each with its own generation-keyed cache,
/// single-flight table, and warm-over worker.
///
/// The router owns the social graph (publishing new generations
/// RCU-style, exactly like engine snapshots) and the proximity model.
/// Engines CONSUME it: they pin a (graph, generation) pair into each
/// EngineSnapshot and ask the router for proximity vectors against that
/// pinned pair, so a query racing a friendship edit is always scored
/// against one consistent generation.
///
///  * Queries route by querying user: GetProximity(source) is served by
///    the partition owning `source`.
///  * Edits route by first endpoint; the half belonging to a remote
///    endpoint crosses the PartitionBoundary to its owner, which keeps a
///    refcounted frontier of remote endpoints its residents link to.
///  * Graph storage is the delta-overlay representation: an edit replaces
///    the two endpoint rows in the owners' patch buckets — O(deg(u) +
///    deg(v)), NOT an O(E) CSR rebuild — and publishes the next
///    generation as base + overlay. A fold policy (the
///    compaction-scheduler shape from src/ingest/) decides when the patch
///    is folded into a fresh base CSR; the O(E) flatten runs OFF the
///    writer lock and republishes the SAME generation (representation
///    change only), so concurrent edits and readers never wait on it.
///
/// Thread-safety contract:
///  * Acquire / GetProximity / stats are safe from any number of threads,
///    concurrently with each other AND with friendship edits;
///  * AddFriendship / RemoveFriendship serialize among themselves and
///    publish atomically — readers holding an older generation keep it
///    alive via the shared_ptr and are never invalidated mid-query.
///
/// The boundary is in-process today (virtual calls under the writer
/// lock), but the partition state split is real: a partition only ever
/// holds its residents' patch rows plus the frontier refcounts, and every
/// cross-partition touch is an explicit PartitionBoundary call — the seam
/// a multi-node deployment would cut along. Proximity models still score
/// against the full stitched SocialGraph view (ProximityModel::Compute
/// takes the whole graph); distributing the model computation itself is
/// deliberately out of scope.
class ProximityServiceRouter : private PartitionBoundary {
 public:
  struct Options {
    /// User partitions (clamped to >= 1).
    size_t num_partitions = 2;
    /// Null selects forward-push PPR (restart 0.15, epsilon 1e-4) — the
    /// same default the engine always used.
    std::shared_ptr<const ProximityModel> model;
    /// LRU capacity of EACH partition's score cache; clamped to >= 1.
    size_t cache_capacity = 4096;
    /// Hottest users recomputed per partition in the background after a
    /// generation bump. 0 disables warm-over (useful for exact-count
    /// tests).
    size_t warm_top_n = 16;
    /// When to fold the overlay patch into a fresh base CSR; null
    /// selects AdaptiveOverlayFoldPolicy defaults.
    std::shared_ptr<const OverlayFoldPolicy> fold_policy;
  };

  /// Takes ownership of `graph` as generation 0 (any overlay it carries,
  /// e.g. restored from a snapshot's overlay tail, is adopted as the
  /// starting patch).
  ProximityServiceRouter(SocialGraph graph, Options options);

  /// Joins every partition's warm-over worker.
  ~ProximityServiceRouter() override = default;

  ProximityServiceRouter(const ProximityServiceRouter&) = delete;
  ProximityServiceRouter& operator=(const ProximityServiceRouter&) = delete;

  /// The current graph generation (lock-free load).
  GraphView Acquire() const;

  /// Returns the proximity vector of `source` computed against `graph` /
  /// `generation` — normally the pair the caller pinned via Acquire() (or
  /// an EngineSnapshot). Cached per (source, generation); concurrent
  /// misses for the same key share ONE computation. `outcome`, when
  /// non-null, reports how the call was satisfied.
  std::shared_ptr<const ProximityVector> GetProximity(
      const SocialGraph& graph, UserId source, uint64_t generation,
      ProximityOutcome* outcome = nullptr);

  /// Edits one undirected edge and publishes a new graph generation.
  /// Validation happens here — the single place the graph lives:
  /// endpoints outside the graph and self-edges are InvalidArgument,
  /// duplicate adds are AlreadyExists, missing removes are NotFound; no
  /// publish happens on any rejected edit.
  Status AddFriendship(UserId u, UserId v);
  Status RemoveFriendship(UserId u, UserId v);

  /// Validation-only preview of Add/RemoveFriendship against the CURRENT
  /// generation — the same rules the edit itself applies, with no
  /// publish. `check_existence` false limits it to the structural rules
  /// (endpoint range, self-edge), for callers that must not judge edge
  /// existence against a graph that queued edits may still change (see
  /// ShardedSearchService::EnqueueAddFriendship).
  Status ValidateEdit(UserId u, UserId v, bool adding,
                      bool check_existence) const;

  /// The proximity model scores are computed with (pure and stateless).
  const ProximityModel& model() const { return *model_; }

  /// Counter snapshot (internally consistent enough for tests: counters
  /// are monotone and quiesced reads are exact).
  ProximityProviderStats stats() const;

  /// Blocks until every background warm-over round queued so far has
  /// been applied or superseded.
  void WaitForWarmup();

  /// Forces the delta-overlay patch to fold into a fresh base CSR,
  /// regardless of the fold policy; returns the number of patch rows
  /// folded away. Representation-only: the published graph content and
  /// generation are unchanged.
  size_t FoldOverlay();

  /// Users in the current graph generation (graphs never change their
  /// vertex set — edits rewire edges only).
  size_t num_users() const { return Acquire().graph->num_users(); }

  // PartitionBoundary (routing surface; the edit entry point stays
  // private — partitions reach it through the boundary reference they
  // are handed under the writer lock):
  size_t num_partitions() const override { return partitions_.size(); }
  uint32_t PartitionOf(UserId u) const override {
    return GraphPartitionOf(u, partitions_.size());
  }

  /// Per-partition observability (residents, frontier, boundary
  /// traffic, serving counters).
  std::vector<ProximityPartitionStats> partition_stats() const;

 private:
  /// Shared edit path: validates, applies both halves through the
  /// owning partitions, publishes the next generation, queues warm-over
  /// rounds, and triggers a fold when the policy says so.
  Status EditEdge(UserId u, UserId v, bool insert);

  void ApplyRemoteHalf(UserId remote_user, UserId other,
                       bool insert) override;

  std::shared_ptr<const ProximityModel> model_;
  Options options_;
  std::shared_ptr<const OverlayFoldPolicy> fold_policy_;

  /// Writer-side graph state — guarded by writer_mutex_, except that the
  /// fold's O(E) flatten runs between two critical sections (see
  /// DeltaOverlayGraph's fold protocol).
  DeltaOverlayGraph delta_;
  std::vector<std::unique_ptr<ProximityPartition>> partitions_;

  /// The published (graph, generation) pair — readers load lock-free,
  /// edits store under writer_mutex_ (RCU-style, like engine snapshots).
  AtomicSharedPtr<const GraphView> state_;
  mutable std::mutex writer_mutex_;

  std::atomic<uint64_t> generations_{0};
  std::atomic<uint64_t> folds_{0};
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_SERVICE_PROXIMITY_ROUTER_H_
