#ifndef AMICI_PROXIMITY_SERVICE_PROXIMITY_PARTITION_H_
#define AMICI_PROXIMITY_SERVICE_PROXIMITY_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "proximity/proximity_provider.h"
#include "proximity/single_flight_proximity.h"
#include "proximity/warm_over_worker.h"
#include "proximity_service/delta_overlay_graph.h"
#include "proximity_service/partition_boundary.h"

namespace amici {

/// One user partition of the proximity service: the serving machinery
/// (generation-keyed cache + single-flight + warm-over, one instance per
/// partition) plus ownership of its residents' graph state — the
/// partition's bucket of replacement rows in the shared DeltaOverlayGraph
/// and a refcounted frontier of the remote endpoints its residents link
/// to. Everything a resident edit needs from another partition goes
/// through the PartitionBoundary it is handed, never a sibling pointer.
///
/// Thread-safety: GetProximity / SubmitWarm / WaitForWarmup / stats are
/// safe from any thread; the edit methods (ApplyResidentEdit,
/// ApplyRemoteHalf) must be serialized by the owning router's writer
/// mutex, which also guards the shared DeltaOverlayGraph.
class ProximityPartition {
 public:
  /// `delta` and `model` are not owned and must outlive the partition.
  /// `warm_top_n` 0 disables the warm-over worker.
  ProximityPartition(uint32_t id, DeltaOverlayGraph* delta,
                     const ProximityModel* model, size_t cache_capacity,
                     size_t warm_top_n);

  ProximityPartition(const ProximityPartition&) = delete;
  ProximityPartition& operator=(const ProximityPartition&) = delete;

  uint32_t id() const { return id_; }

  /// Build-time seeding (router constructor, single-threaded): resident
  /// head-count and the initial frontier refcounts scanned from the
  /// starting graph.
  void SeedResidents(size_t residents) { residents_ = residents; }
  void SeedFrontier(std::unordered_map<UserId, uint32_t> refs);

  /// Serves a resident's proximity vector (single-flight + cache).
  std::shared_ptr<const ProximityVector> GetProximity(
      const SocialGraph& graph, UserId source, uint64_t generation,
      ProximityOutcome* outcome);

  /// Applies a full undirected edit whose FIRST endpoint `u` is resident
  /// here: u's half locally, v's half locally when v is also resident,
  /// otherwise across `boundary` to v's owner.
  void ApplyResidentEdit(UserId u, UserId v, bool insert,
                         PartitionBoundary& boundary);

  /// The boundary entry point: applies resident `resident`'s half of an
  /// edit initiated by another partition.
  void ApplyRemoteHalf(UserId resident, UserId other, bool insert);

  /// The warm-over candidates of the retiring generation (hottest cached
  /// residents), respecting warm_top_n; empty when warm-over is off.
  std::vector<UserId> HottestUsers() const;

  /// Queues a warm-over round against `view` on this partition's worker.
  void SubmitWarm(GraphView view,
                  std::vector<UserId> users);
  void WaitForWarmup();

  /// `patch_rows` is this partition's bucket row count, read by the
  /// caller under the writer mutex (the one piece of partition state
  /// that lives in the shared DeltaOverlayGraph).
  ProximityPartitionStats stats(size_t patch_rows) const;

  uint64_t computations() const { return flight_.computations(); }
  uint64_t inflight_joins() const { return flight_.inflight_joins(); }
  uint64_t warmed() const {
    return warmed_.load(std::memory_order_relaxed);
  }

 private:
  /// Applies one half (resident's row ± other) and maintains the
  /// frontier refcount when `other` is remote.
  void ApplyHalfLocal(UserId resident, UserId other, bool insert);

  const uint32_t id_;
  DeltaOverlayGraph* const delta_;
  const size_t warm_top_n_;
  size_t residents_ = 0;

  SingleFlightProximity flight_;
  std::atomic<uint64_t> warmed_{0};
  std::atomic<uint64_t> boundary_out_{0};
  std::atomic<uint64_t> boundary_in_{0};

  /// remote user -> number of resident adjacencies referencing it.
  /// Guarded by frontier_mutex_ (edits are serialized by the router, but
  /// stats() reads concurrently).
  mutable std::mutex frontier_mutex_;
  std::unordered_map<UserId, uint32_t> frontier_;

  /// Declared after flight_ so the worker thread (which calls into
  /// flight_) is joined before the flight machinery dies.
  std::unique_ptr<WarmOverWorker> warm_;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_SERVICE_PROXIMITY_PARTITION_H_
