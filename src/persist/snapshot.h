#ifndef AMICI_PERSIST_SNAPSHOT_H_
#define AMICI_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine_snapshot.h"
#include "graph/social_graph.h"
#include "persist/manifest.h"
#include "storage/item_store.h"
#include "storage/posting_list.h"
#include "util/status.h"

namespace amici {
namespace persist {

/// Shard snapshot save/load: the codecs between one shard engine's
/// immutable EngineSnapshot and a shard directory of segment files +
/// manifest. Every snapshot is a service snapshot; the service root
/// (CURRENT, root manifest, the one graph segment, the WAL) sits above
/// the shard-<i>/ directories — see src/service/service_persistence.h.
///
/// Shard directory layout:
///
///   MANIFEST-<gen>      checksummed root of trust (persist/manifest.h);
///                       the root manifest pins which generation is live
///   items-<gen>.seg     catalogue rows [first_id, first_id + count)
///   postings-<gen>.seg  per-tag posting-list v2 images + impact arrays
///   social-<gen>.seg    per-owner quality-ordered buckets
///   grid-<gen>.seg      per-cell item lists (only when geo items exist)
///
/// A shard manifest never lists a graph segment: the service owns ONE
/// graph, at the root, and the loader refuses a shard manifest that
/// names one.
///
/// Posting segments embed the PostingList v2 serialized image VERBATIM,
/// so a loaded snapshot maps them and traverses blocks zero-copy —
/// block-max skipping and SIMD batched decode run against the page
/// cache, not a deserialized copy.
///
/// Incremental saves: because merge compaction is bit-identical to a
/// full rebuild, a key's serialized list changes ONLY when items in
/// [prev index_horizon, new index_horizon) touch it. A save against a
/// previous manifest therefore writes just those tags / owners / cells
/// (plus the new catalogue rows) as a new segment generation; readers
/// apply generations in order, latest wins per key, and untouched
/// segments stay live across saves.

struct SnapshotSaveReport {
  uint64_t generation = 0;
  bool incremental = false;
  uint64_t segments_written = 0;
  uint64_t lists_written = 0;  // posting lists + buckets + cells + item rows
  uint64_t bytes_written = 0;
};

struct SnapshotOpenOptions {
  /// Full payload checksum verification at open. Disabling defers page
  /// faults to first use (the cold-start bench's lazy path); header
  /// checksums and manifest cross-checks still run.
  bool verify_checksums = true;
  /// Specific manifest to open (a service root pins its shards' manifest
  /// generation). Empty = read CURRENT.
  std::string manifest_name;
};

/// What LoadEngineSnapshot reconstructs; the engine assembles it into a
/// live EngineSnapshot (the grid needs a view over the engine-owned
/// store, so GridIndex::Restore runs there, not here).
struct LoadedEngineState {
  Manifest manifest;
  ItemStore store;
  /// Tag-indexed handles for InvertedIndex::Restore. Posting lists VIEW
  /// the mapped segments (each holds its segment as keepalive).
  std::vector<std::shared_ptr<const PostingList>> doc_ordered;
  std::vector<std::shared_ptr<const std::vector<ScoredItem>>> impact_ordered;
  /// User-indexed buckets for SocialIndex::Restore.
  std::vector<std::shared_ptr<const std::vector<ScoredItem>>> social_buckets;
  /// Cell key -> ascending ids for GridIndex::Restore.
  std::vector<std::pair<uint64_t, std::shared_ptr<const std::vector<ItemId>>>>
      grid_cells;
};

/// Writes the segment files and MANIFEST-<generation> for `snap` into
/// the shard directory `dir` (created if missing) — everything except
/// the commit, which the service performs once for all shards by
/// writing its root manifest and repointing CURRENT. `prev`, when
/// non-null, is a manifest `snap` is known to extend (the caller vouches
/// that its segments hold this shard's own earlier state); the save is
/// then incremental when the shapes are compatible and full otherwise.
Result<Manifest> WriteEngineSnapshot(const std::string& dir,
                                     const EngineSnapshot& snap,
                                     uint64_t generation, const Manifest* prev,
                                     SnapshotSaveReport* report);

/// Graph segment payload codec: a raw CSR image
///   u64 num_users | u64 neighbor_slots
///   | offsets u64*(num_users+1) | neighbors u32*neighbor_slots
/// so restoring the shared graph is two bulk copies plus an O(V + E)
/// shape check, not a varint decode of every edge (graph_io's "AMIG"
/// wire format stays for export/import paths where bytes matter more
/// than restart latency).
///
/// A delta-overlay graph (base CSR + replacement-row patch; see
/// src/proximity_service/) appends its patch as a replayable tail after
/// the base arrays:
///   u64 num_rows | num_rows * (u64 user | u64 len | u32*len row)
/// — each entry replays as "replace user's row", exactly the operation
/// edits perform, so the restored provider adopts the patch unfolded.
/// A patch-free graph writes no tail and the payload is byte-identical
/// to the legacy pure-CSR image (old snapshots parse unchanged).
std::string BuildGraphSegmentPayload(const SocialGraph& graph);
Result<SocialGraph> ParseGraphSegmentPayload(std::string_view payload);

/// Loads the state a shard manifest describes: maps and verifies every
/// live segment, replays item generations into a fresh store, resolves
/// per-key latest-wins over list generations. A service root manifest is
/// InvalidArgument; a graph segment in a shard manifest is Corruption.
Result<LoadedEngineState> LoadEngineSnapshot(const std::string& dir,
                                             const SnapshotOpenOptions& options);

/// Deletes snapshot files in `dir` that `live` no longer references
/// (superseded segments, old manifests, stale WALs). Run after a
/// CURRENT commit; never required for correctness.
Status RemoveRetiredFiles(const std::string& dir, const Manifest& live);

}  // namespace persist
}  // namespace amici

#endif  // AMICI_PERSIST_SNAPSHOT_H_
