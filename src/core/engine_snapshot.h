#ifndef AMICI_CORE_ENGINE_SNAPSHOT_H_
#define AMICI_CORE_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "geo/grid_index.h"
#include "graph/social_graph.h"
#include "index/index_builder.h"
#include "storage/item_store.h"
#include "util/ids.h"

namespace amici {

/// One immutable, atomically-published generation of the engine's
/// query-visible state (RCU-style read/write split):
///
///  * readers load the current snapshot once per query (a lock-free
///    shared_ptr load) and execute entirely against it — no lock is held
///    while the query runs, and the shared_ptr keeps every component
///    alive even if writers publish newer generations mid-query;
///  * writers never mutate a published snapshot. They prepare new state
///    (append to the item store's pointer-stable tail, rebuild the graph
///    or the indexes) and publish a fresh snapshot with a copy-on-write
///    pointer swap under the engine's writer mutex.
///
/// The heavy components are shared_ptrs, so publishing a new generation
/// that changes only one of them (e.g. the store bound after AddItem)
/// costs one small allocation plus refcount traffic.
struct EngineSnapshot {
  /// CSR friendship graph of this generation — PINNED from the engine's
  /// ProximityServiceRouter (which owns the graph and publishes new
  /// generations on friendship edits). Engines sharing one provider
  /// share this pointer: N shards, one graph instance.
  std::shared_ptr<const SocialGraph> graph;
  /// Inverted + social indexes covering items [0, index_horizon).
  std::shared_ptr<const BuiltIndexes> indexes;
  /// Geo grid over the indexed items; null when none of them carry a geo
  /// position.
  std::shared_ptr<const GridIndex> grid;
  /// Bounded read view: the catalogue prefix this generation exposes.
  /// Items in [index_horizon, store.num_items()) form the un-indexed tail
  /// that queries scan exhaustively. NOTE: the view points into the
  /// engine-owned catalogue — the engine must outlive pinned snapshots.
  ItemStoreView store;
  /// First item id NOT covered by `indexes`.
  ItemId index_horizon = 0;
  /// Monotonic generation counter of `graph` (the ProximityServiceRouter's
  /// generation number); keys the shared proximity cache so vectors
  /// computed against an older graph can never serve (or poison) queries
  /// running against a newer one.
  uint64_t graph_version = 0;

  size_t unindexed_items() const { return store.num_items() - index_horizon; }

  /// True when the indexed items include geo positions (enables the
  /// kGeoGrid strategy). Derived from `grid`, which is built exactly when
  /// geo items exist, so the two can never desynchronize.
  bool has_geo_items() const { return grid != nullptr; }
};

}  // namespace amici

#endif  // AMICI_CORE_ENGINE_SNAPSHOT_H_
