#ifndef AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
#define AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/search_service.h"
#include "service/service_persistence.h"
#include "storage/stable_column.h"
#include "util/thread_pool.h"

namespace amici {

/// The partitioned backend: items are hash-partitioned across N
/// single-node engines; the friendship graph and the proximity score
/// cache live in ONE ProximityProvider that every shard engine
/// consumes — one graph instance and one proximity computation per
/// cache-missed (user, generation), no matter the shard count. A request
/// fans out to every shard on a thread pool and the per-shard top-k
/// lists are merged exactly on (score desc, global id asc).
///
/// Why the merge is exact: an item's blended score depends only on the
/// item itself, the query, and the owner's proximity — and proximity is
/// computed on the one shared graph, identically everywhere. Any item in
/// the global top-k therefore also ranks in its own shard's top-k, so the
/// union of per-shard top-k lists contains the global top-k, and merging
/// on score reproduces it bit-for-bit (tests/service/
/// sharded_invariance_test.cc asserts this against a bare
/// SocialSearchEngine over the same corpus for plain, diverse,
/// geo-filtered and batch requests).
///
/// One shard is the single-node deployment: the same code path with a
/// trivial placement. Requests without a deadline, and every request at
/// N=1, take the barrier fan-out (the calling thread runs a lone
/// request's shard itself); a deadlined request's single shard stops
/// cooperatively through its token.
///
/// Id spaces: callers see GLOBAL ids, assigned densely in ingest order
/// exactly like a single engine would. Internally each shard has its own
/// dense local id space; the service keeps both directions of the
/// mapping in pointer-stable columns so queries can translate
/// concurrently with ingest. Because items are appended to shards in
/// global order, local id order within a shard agrees with global order —
/// which is what makes the tie-break (ascending id) consistent between
/// the per-shard heaps and the global merge.
///
/// Thread-safety mirrors the engine contract: queries from any number of
/// threads, concurrently with mutators; mutators serialize on a service
/// writer mutex (shard engines additionally serialize internally).
/// Consistency note: a fanned-out request pins each shard's snapshot
/// independently, so an ingest racing a query may be visible on some
/// shards and not yet on others — each shard's contribution is exact for
/// the state it pinned (the usual freshness relaxation of distributed
/// search; quiesced states match a single engine over the whole corpus:
/// identical float scores at every rank, identical items except for
/// selection among entries whose float-rounded scores tie exactly).
class ShardedSearchService final : public SearchService {
 public:
  struct Options {
    /// Number of partitions; >= 1.
    size_t num_shards = 4;
    /// Applied to every shard engine. The proximity knobs
    /// (proximity_model / proximity_cache_capacity /
    /// proximity_warm_top_n / proximity_partitions) configure the ONE
    /// provider Build creates and hands to every shard;
    /// engine.proximity_provider itself must be left null (Build owns
    /// provider construction).
    SocialSearchEngine::Options engine;
    /// Fan-out worker threads; 0 sizes the pool to min(num_shards,
    /// hardware concurrency).
    size_t fanout_threads = 0;
  };

  /// Builds the service over `graph` and `store` (both consumed): items
  /// are dealt to shards by id hash, the graph moves into the one shared
  /// ProximityProvider all shards consume.
  static Result<std::unique_ptr<ShardedSearchService>> Build(
      SocialGraph graph, ItemStore store, Options options);

  /// Reopens a service from a snapshot directory written by
  /// SaveSnapshot: restores the one shared graph from the root segment,
  /// maps every shard's segments, deterministically rebuilds the global
  /// <-> local id maps (placement is a pure function of the global id
  /// and the shard count), replays the WAL's committed tail through the
  /// normal mutators, and attaches the WAL. The shard count comes from
  /// the root manifest; options.num_shards is ignored. `replay_stats`,
  /// when non-null, receives what the replay did.
  static Result<std::unique_ptr<ShardedSearchService>> OpenSnapshot(
      const std::string& dir, Options options,
      const persist::SnapshotOpenOptions& open_options =
          persist::SnapshotOpenOptions(),
      persist::WalReplayStats* replay_stats = nullptr);

  /// Joins the background ingest/compaction threads before the shards go
  /// away (they drain through this object's mutators).
  ~ShardedSearchService() override;

  std::string_view backend_name() const override { return backend_label_; }
  size_t num_shards() const override { return shards_.size(); }

  /// Per-shard compaction surface: the background scheduler triggers
  /// exactly the shards whose policy fires, instead of the fleet-wide
  /// Compact(). Signals are read from each shard engine's snapshot and
  /// stats — safe concurrently with queries and ingest.
  CompactionSignals ShardSignals(size_t shard) const override;
  Status CompactShard(size_t shard,
                      CompactionOutcome* outcome = nullptr) override;

  Result<std::vector<TagSuggestion>> SuggestTags(
      UserId user, std::span<const TagId> seed_tags,
      const QueryExpansionOptions& options) override;

  /// Sum of the per-shard estimates (each shard runs the query against
  /// its own lists and tail).
  uint64_t EstimateQueryCost(const SocialQuery& query) const override;

  /// The one provider shared by every shard engine.
  std::shared_ptr<ProximityProvider> proximity_provider() const override {
    return provider_;
  }

  /// Escape hatch for tests/tooling that inspect a shard's engine (e.g.
  /// asserting every shard snapshot pins the SAME graph instance).
  SocialSearchEngine* shard_engine(size_t shard) {
    return shards_[shard].get();
  }

  Result<ItemId> AddItem(const Item& item) override;
  Result<std::vector<ItemId>> AddItems(std::span<const Item> items) override;
  Status AddFriendship(UserId u, UserId v) override;
  Status RemoveFriendship(UserId u, UserId v) override;
  Status Compact() override;
  Result<persist::SnapshotSaveReport> SaveSnapshot(
      const std::string& dir) override;

  size_t num_users() const override;
  /// Ids admitted so far. May briefly LEAD query visibility while an
  /// append is in flight (it never lags it: any id a response contains is
  /// already counted). Do not derive readable ids from it during
  /// concurrent ingest — see OwnerOf.
  size_t num_items() const override {
    return num_items_.load(std::memory_order_acquire);
  }
  size_t unindexed_items() const override;
  /// `item` must be a published id (obtained from a response or an Add
  /// return value) — ids merely admitted by an in-flight append are not
  /// yet readable.
  UserId OwnerOf(ItemId item) const override;
  std::vector<TagId> TagsOf(ItemId item) const override;
  std::vector<UserId> FriendsOf(UserId user) const override;
  std::string StatsSummary() const override;

 protected:
  Result<SearchResponse> SearchImpl(const SearchRequest& request) override;
  std::vector<Result<SearchResponse>> SearchBatchImpl(
      std::span<const SearchRequest> requests) override;

 private:
  /// Where a global item lives. Trivially copyable: stored in a
  /// StableColumn read concurrently with ingest.
  struct ShardRef {
    uint32_t shard;
    ItemId local;
  };

  explicit ShardedSearchService(Options options);

  uint32_t ShardOf(ItemId global) const;

  /// Creates the fan-out pool once shards_ is populated:
  /// options_.fanout_threads workers, or min(num_shards, hardware
  /// concurrency) when that is 0.
  void StartFanOutPool();

  /// True when any shard's current snapshot covers geo items (the
  /// precondition for honouring a geo-grid hint somewhere).
  bool AnyShardHasGeoItems() const;

  /// Executes `query` on shard `s` (honouring the algorithm hint, with an
  /// exact hybrid fallback where the hint cannot apply locally —
  /// `geo_fallback_allowed` is AnyShardHasGeoItems() computed once per
  /// request) and translates result ids to the global space. `cancel`
  /// (null = never) is the row's deadline/abandonment token, probed
  /// cooperatively inside the shard's algorithm — an abandoned row's
  /// stragglers exit early instead of occupying pool slots.
  Result<QueryResult> QueryShard(size_t s, const SocialQuery& query,
                                 std::optional<AlgorithmId> hint,
                                 bool geo_fallback_allowed,
                                 const CancellationToken* cancel) const;

  /// Shared fan-out/merge loop behind Search and SearchBatch.
  std::vector<Result<SearchResponse>> ExecuteRequests(
      std::span<const SearchRequest> requests);

  /// Appends the mapping rows for global id `global` -> (shard, local).
  void RecordPlacementLocked(ItemId global, uint32_t shard, ItemId local);

  Options options_;
  std::string backend_label_;  // "sharded/<N>"
  /// The one graph + proximity surface every shard engine consumes.
  std::shared_ptr<ProximityProvider> provider_;
  std::vector<std::unique_ptr<SocialSearchEngine>> shards_;
  /// global id -> (shard, local id). Readers only touch rows of items
  /// already visible through some pinned shard snapshot; the engine's
  /// snapshot publish provides the release/acquire edge that makes the
  /// row's writes visible (see StableColumn's concurrency contract).
  StableColumn<ShardRef> global_to_shard_;
  /// Per shard: local id -> global id. Same visibility argument.
  std::vector<StableColumn<ItemId>> local_to_global_;
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes mutators (item ingest, friendship edits).
  std::mutex writer_mutex_;
  std::atomic<size_t> num_items_{0};
  /// Snapshot attachment + WAL; guarded by writer_mutex_.
  ServicePersistState persist_;
};

}  // namespace amici

#endif  // AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
