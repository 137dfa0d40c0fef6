#ifndef AMICI_SERVICE_SERVICE_PERSISTENCE_H_
#define AMICI_SERVICE_SERVICE_PERSISTENCE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "persist/manifest.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "proximity/proximity_provider.h"
#include "util/status.h"

namespace amici {

/// Service-level snapshot orchestration behind ShardedSearchService (one
/// or N shards). Directory layout on top of the engine-level layout
/// (src/persist/snapshot.h):
///
///   <dir>/CURRENT             -> MANIFEST-<gen> (THE commit point)
///   <dir>/MANIFEST-<gen>      root manifest: num_shards, wal file, graph
///   <dir>/graph-<gen>.seg     the ONE shared graph (never per shard)
///   <dir>/wal-<gen>.log       ingest WAL: mutations since the segments
///   <dir>/shard-<i>/MANIFEST-<gen> + segments   per-shard engine state
///
/// Save protocol: write every shard's segments + manifest (no CURRENT in
/// shard dirs — the root manifest pins their generation), then the graph
/// segment, then a fresh empty WAL, then the root manifest, then commit
/// CURRENT atomically. A crash anywhere before the commit leaves the
/// previous snapshot fully live (its files are deleted only after the
/// commit). Restart = map shard segments + replay the WAL tail.

/// In-memory persistence state of a service; guarded by the service's
/// writer mutex. `attached` means mutators append to `wal`.
struct ServicePersistState {
  std::string dir;
  persist::Manifest root;
  std::unique_ptr<persist::WalWriter> wal;
  /// Provider generation whose graph the committed snapshot holds —
  /// lets the next save skip the O(E) graph rewrite when no friendship
  /// edit happened in between (valid within this process only).
  uint64_t saved_graph_version = 0;
  bool attached = false;
};

/// "shard-<i>" subdirectory path.
std::string ShardDirPath(const std::string& dir, size_t shard);

/// Writes and COMMITS a full service snapshot of `shards` into `dir`,
/// then attaches a fresh WAL to `state`. Incremental per shard when the
/// directory's live snapshot is compatible (same shard count; each shard
/// save falls back to full when its own base is incompatible). Caller
/// holds the service writer mutex, so the engines' published snapshots
/// are the complete service state.
Result<persist::SnapshotSaveReport> SaveServiceSnapshot(
    const std::string& dir, std::span<SocialSearchEngine* const> shards,
    ProximityProvider& provider, uint64_t num_items,
    persist::SnapshotSaveOptions options, ServicePersistState* state);

/// What OpenServiceSnapshot reconstructs. The WAL is NOT yet replayed or
/// attached: the concrete service first rebuilds its routing state from
/// the manifests, then replays through its own mutators (see
/// ReplayAndAttachWal).
struct LoadedServiceSnapshot {
  persist::Manifest root;
  /// Built from the root graph segment via
  /// SocialSearchEngine::MakeProximityProvider — the one provider every
  /// restored shard engine consumes.
  std::shared_ptr<ProximityProvider> provider;
  std::vector<std::unique_ptr<SocialSearchEngine>> shards;
};

/// Opens the root manifest (CURRENT or open_options.manifest_name),
/// restores the shared graph + provider, and opens every shard engine
/// against its pinned manifest generation. Fills `state` (dir, root;
/// WAL not attached).
Result<LoadedServiceSnapshot> OpenServiceSnapshot(
    const std::string& dir, const SocialSearchEngine::Options& engine_options,
    const persist::SnapshotOpenOptions& open_options,
    ServicePersistState* state);

/// Replays the root WAL's committed prefix through `handlers` (the
/// service's own mutators — `state->attached` is still false, so nothing
/// is re-logged), truncates any torn tail, and attaches the WAL for
/// appending. No-op (Ok, zero stats) when the snapshot has no WAL.
Result<persist::WalReplayStats> ReplayAndAttachWal(
    ServicePersistState* state, const persist::WalReplayHandlers& handlers);

/// Mutation logging — called by the service mutators AFTER the mutation
/// applied, under the writer mutex. No-ops when not attached. Each
/// append is fdatasync-flushed: an acknowledged write survives a crash.
Status LogAddItems(ServicePersistState* state, uint64_t first_item_id,
                   std::span<const Item> items);
Status LogFriendship(ServicePersistState* state, bool adding, UserId u,
                     UserId v);

}  // namespace amici

#endif  // AMICI_SERVICE_SERVICE_PERSISTENCE_H_
