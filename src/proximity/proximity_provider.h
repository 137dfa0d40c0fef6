#ifndef AMICI_PROXIMITY_PROXIMITY_PROVIDER_H_
#define AMICI_PROXIMITY_PROXIMITY_PROVIDER_H_

#include <cstdint>
#include <memory>

#include "graph/social_graph.h"

namespace amici {

/// How one GetProximity call was satisfied (per-request observability:
/// the engine folds this into SearchStats, so SearchResponse reports how
/// much proximity work a request actually caused).
enum class ProximityOutcome {
  /// Served from the shared generation-keyed cache.
  kCacheHit,
  /// This call ran the model (the expensive path).
  kComputed,
  /// A concurrent call for the same (user, generation) was already
  /// computing; this call waited for its result instead of duplicating
  /// the work (single-flight).
  kJoinedInFlight,
};

/// Cumulative counters of one ProximityServiceRouter. `computations` is
/// the number the whole design exists to minimize: with one router shared
/// across N shards, a cache-missed user costs 1 computation per (user,
/// generation) — not N.
struct ProximityProviderStats {
  /// ProximityModel::Compute calls (queries + warm-over).
  uint64_t computations = 0;
  /// GetProximity calls served from the cache.
  uint64_t cache_hits = 0;
  /// GetProximity calls that joined a concurrent in-flight computation.
  uint64_t inflight_joins = 0;
  /// Entries precomputed by the background warm-over after a generation
  /// bump (a subset of `computations`).
  uint64_t warmed = 0;
  /// Graph generations published by friendship edits (0 = initial graph).
  /// Folds do NOT bump this — a fold changes the representation, not the
  /// graph.
  uint64_t generations_published = 0;
  /// Vectors currently resident in the cache (summed across partitions).
  size_t cache_entries = 0;

  // Delta-overlay / partitioned-service counters.
  /// User partitions behind the router (1 = unpartitioned).
  size_t partitions = 1;
  /// Replacement rows currently overlaying the base CSR.
  size_t overlay_rows = 0;
  /// Folds performed (patch merged into a fresh base CSR).
  uint64_t overlay_folds = 0;
  /// Cross-partition edit halves routed through the partition boundary.
  uint64_t boundary_crossings = 0;
  /// Remote endpoints materialized as partition frontiers (summed).
  size_t frontier_users = 0;
};

/// One published (graph, generation) pair of the proximity service.
/// Holding `graph` pins that generation for as long as the caller keeps
/// the pointer.
struct GraphView {
  std::shared_ptr<const SocialGraph> graph;
  uint64_t generation = 0;
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_PROXIMITY_PROVIDER_H_
