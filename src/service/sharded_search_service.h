#ifndef AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
#define AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/query_expansion.h"
#include "ingest/compaction_scheduler.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/ingest_sink.h"
#include "proximity_service/proximity_router.h"
#include "service/admission_controller.h"
#include "service/search_service.h"
#include "service/service_persistence.h"
#include "storage/stable_column.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace amici {

/// The query service: everything callers (examples, benches, tests, a
/// future RPC layer) need. Items are hash-partitioned across N
/// single-node engines; the friendship graph and the proximity score
/// cache live in ONE ProximityServiceRouter that every shard engine
/// consumes — one graph instance and one proximity computation per
/// cache-missed (user, generation), no matter the shard count. A request
/// fans out to every shard on a thread pool and the per-shard top-k
/// lists are merged exactly on (score desc, global id asc).
///
/// Contract:
///  * Search / SearchBatch / SuggestTags are safe from any number of
///    threads, concurrently with each other AND with all mutators;
///  * AddItem / AddItems / AddFriendship / RemoveFriendship / Compact are
///    safe concurrently with queries and serialize among themselves on a
///    service writer mutex (shard engines additionally serialize
///    internally);
///  * Search / SearchBatch results are EXACT and identical at every
///    shard count: the same corpus behind any number of shards returns
///    the same items with the same scores as one SocialSearchEngine
///    over it (tests/service/sharded_invariance_test.cc asserts this for
///    plain, diverse, geo-filtered and batch requests). SuggestTags
///    support counts and thresholds are likewise exact everywhere;
///    suggestion WEIGHTS may differ across shard counts in the last
///    float ulps (per-shard float subtotals vs one double sum), which
///    can reorder near-tied tags.
///
/// Why the merge is exact: an item's blended score depends only on the
/// item itself, the query, and the owner's proximity — and proximity is
/// computed on the one shared graph, identically everywhere. Any item in
/// the global top-k therefore also ranks in its own shard's top-k, so the
/// union of per-shard top-k lists contains the global top-k, and merging
/// on score reproduces it bit-for-bit.
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
/// Consistency note: a fanned-out request pins each shard's snapshot
/// independently, so an ingest racing a query may be visible on some
/// shards and not yet on others — each shard's contribution is exact for
/// the state it pinned (the usual freshness relaxation of distributed
/// search; quiesced states match a single engine over the whole corpus:
/// identical float scores at every rank, identical items except for
/// selection among entries whose float-rounded scores tie exactly).
///
/// The service also owns the OPTIONAL background machinery of the ingest
/// subsystem (src/ingest/): an MPSC queue + writer thread (StartIngest /
/// EnqueueItems / Flush) and a background compaction scheduler
/// (StartAutoCompaction). Both drain into the synchronous mutators
/// through the IngestSink / CompactionTarget interfaces implemented here.
class ShardedSearchService final : public IngestSink,
                                   public CompactionTarget {
 public:
  struct Options {
    /// Number of partitions; >= 1.
    size_t num_shards = 4;
    /// Applied to every shard engine. The proximity knobs
    /// (proximity_model / proximity_cache_capacity /
    /// proximity_warm_top_n / proximity_partitions) configure the ONE
    /// router Build creates and hands to every shard;
    /// engine.proximity_provider itself must be left null (Build owns
    /// router construction).
    SocialSearchEngine::Options engine;
    /// Fan-out worker threads; 0 sizes the pool to min(num_shards,
    /// hardware concurrency).
    size_t fanout_threads = 0;
  };

  /// Builds the service over `graph` and `store` (both consumed): items
  /// are dealt to shards by id hash, the graph moves into the one shared
  /// ProximityServiceRouter all shards consume.
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

  /// Stops the compaction scheduler, then the ingest drain, before any
  /// member goes away (both background threads call this object's
  /// mutators).
  ~ShardedSearchService() override;

  /// Stable deployment label ("sharded/1", "sharded/4").
  std::string_view backend_name() const { return backend_label_; }
  size_t num_shards() const override { return shards_.size(); }

  /// Per-shard compaction surface: the background scheduler triggers
  /// exactly the shards whose policy fires, instead of the fleet-wide
  /// Compact(). Signals are read from each shard engine's snapshot and
  /// stats — safe concurrently with queries and ingest.
  CompactionSignals ShardSignals(size_t shard) const override;
  Status CompactShard(size_t shard,
                      CompactionOutcome* outcome = nullptr) override;

  /// Executes a batch through the QoS edge; results are positionally
  /// aligned with `requests`. Admission is per request (when enabled —
  /// some rows of one batch may run while others shed or degrade,
  /// reported honestly in each response); the admitted rows fan out
  /// together. This is the ONE place every query passes.
  std::vector<Result<SearchResponse>> SearchBatch(
      std::span<const SearchRequest> requests);

  /// Executes one request (plain or owner-diversified top-k): the
  /// one-row SearchBatch.
  Result<SearchResponse> Search(const SearchRequest& request);

  /// Estimated work for `query`, in candidate units: the sum over shards
  /// of the posting entries the tag lists would feed the algorithm plus
  /// the un-indexed tail items scanned per query. Reads the current
  /// snapshots; cheap (per-tag document frequencies, no traversal). The
  /// admission controller's cost gates compare against this number.
  uint64_t EstimateQueryCost(const SocialQuery& query) const;

  // --- Query QoS: admission control + honest shedding -------------------
  // Disabled by default: without a controller the edge is a pass-through
  // and responses are bit-identical to the pre-QoS behaviour.

  /// Installs (or replaces) the admission controller at this service's
  /// query edge. Safe alongside in-flight queries: they finish under the
  /// controller they entered with.
  void EnableAdmissionControl(AdmissionController::Options options);

  /// Removes the controller; queries pass through unconditionally again.
  void DisableAdmissionControl();

  /// Cumulative QoS counters at this service's edge (all zero until the
  /// relevant feature fires): every Search/SearchBatch row lands in
  /// exactly one of admitted/degraded/shed.
  struct QosCounters {
    uint64_t admitted = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    /// Responses whose stats.truncated was set (mid-shard cancellation).
    uint64_t truncated = 0;
    uint64_t deadline_exceeded = 0;
    /// Sum of SearchResponse::shards_abandoned over all responses.
    uint64_t shards_abandoned = 0;
    /// Sum of SearchResponse::shards_failed over all responses.
    uint64_t shards_failed = 0;
  };
  QosCounters qos_counters() const;

  /// Suggests expansion tags for `seed_tags` (sorted, unique) from the
  /// user's social neighbourhood (see query_expansion.h), union-merging
  /// per-shard evidence and applying min_cooccurrence on the global
  /// support count.
  Result<std::vector<TagSuggestion>> SuggestTags(
      UserId user, std::span<const TagId> seed_tags,
      const QueryExpansionOptions& options = QueryExpansionOptions());

  /// The ONE graph + proximity surface behind this service, shared by
  /// every shard engine.
  std::shared_ptr<ProximityServiceRouter> proximity_provider() const {
    return provider_;
  }

  /// Router counter snapshot (computations, cache hits, in-flight joins,
  /// warm-over work, generations); per-request counters additionally
  /// ride in SearchResponse::stats.
  ProximityProviderStats proximity_stats() const { return provider_->stats(); }

  /// Escape hatch for tests/tooling that inspect a shard's engine (e.g.
  /// asserting every shard snapshot pins the SAME graph instance).
  SocialSearchEngine* shard_engine(size_t shard) {
    return shards_[shard].get();
  }

  /// Appends one item; returns its GLOBAL id. Ids are assigned densely in
  /// ingest order.
  Result<ItemId> AddItem(const Item& item);
  /// Batch, atomic, one snapshot publish per touched shard, global ids in
  /// batch order — exactly what the ingest writer thread drains into.
  Result<std::vector<ItemId>> AddItems(std::span<const Item> items) override;
  /// Engine status semantics: AlreadyExists / NotFound.
  Status AddFriendship(UserId u, UserId v) override;
  Status RemoveFriendship(UserId u, UserId v) override;

  /// Folds every un-indexed tail into fresh indexes (all shards).
  Status Compact();

  /// Persists the full service state into `dir` and commits it
  /// atomically (see src/service/service_persistence.h for the layout
  /// and protocol), then attaches a fresh ingest WAL: every subsequent
  /// mutation is logged and fdatasync-flushed before it is acknowledged,
  /// so reopening the directory replays exactly the acknowledged tail.
  /// Incremental when `dir` holds the snapshot this service last saved
  /// or was opened from (in this process); full otherwise.
  /// Serializes with the other mutators; queries are unaffected.
  Result<persist::SnapshotSaveReport> SaveSnapshot(const std::string& dir);

  // --- Asynchronous ingest (MPSC queue + writer thread) ----------------
  // The decoupled write path: producers enqueue and immediately return
  // with a ticket; a dedicated writer thread coalesces queued batches
  // into the fewest possible AddItems calls (one snapshot publish per
  // coalesced run). See src/ingest/ingest_pipeline.h.

  /// Starts the pipeline. FailedPrecondition when already running.
  Status StartIngest(const IngestPipeline::Options& options = {});

  /// Closes the queue, drains it, joins the writer thread. Idempotent.
  Status StopIngest();

  bool ingest_running() const;

  /// Enqueues a batch for the writer thread (backpressure per the queue
  /// options). When no pipeline is running, falls back to applying the
  /// batch synchronously and returns an already-completed ticket — so
  /// callers can speak Enqueue + Flush regardless of deployment mode.
  /// While a StopIngest drain is in flight the enqueue is REJECTED
  /// (FailedPrecondition) rather than silently jumping the queue.
  Result<IngestTicket> EnqueueItems(std::vector<Item> items);

  /// Friendship edits through the same queue, ordered with the item
  /// batches around them. Synchronous fallback like EnqueueItems.
  ///
  /// Validated at the API edge, BEFORE anything is enqueued: self-edges
  /// and out-of-range endpoints are ALWAYS InvalidArgument immediately
  /// (no queued edit could make them valid). Edge-existence outcomes
  /// (AlreadyExists for duplicate adds, NotFound for missing removes)
  /// are also reported immediately on the synchronous path — but with a
  /// pipeline running they ride the ticket, because a still-queued edit
  /// may legitimately change the edge's state first (Add directly
  /// followed by Remove is a valid ordered sequence, and rejecting it
  /// against the published graph would break the queue's ordering
  /// contract).
  Result<IngestTicket> EnqueueAddFriendship(UserId u, UserId v);
  Result<IngestTicket> EnqueueRemoveFriendship(UserId u, UserId v);

  /// Read-your-writes barrier: returns once everything enqueued BEFORE
  /// this call is applied and query-visible. Ok when no pipeline runs
  /// (synchronous writes are always visible).
  Status Flush();

  /// Producer + drain side counters (zeroes when no pipeline ran).
  IngestCounters ingest_counters() const;

  // --- Background compaction -------------------------------------------
  // Replaces manual Compact() calls with policy: a scheduler thread polls
  // every shard's CompactionSignals and compacts exactly the shards whose
  // policy fires (per-shard, not fleet-wide). See
  // src/ingest/compaction_scheduler.h.

  /// Starts the scheduler. FailedPrecondition when already running.
  Status StartAutoCompaction(const CompactionScheduler::Options& options = {});

  /// Stops and joins the scheduler thread. Idempotent.
  Status StopAutoCompaction();

  bool auto_compaction_running() const;

  /// Background compactions triggered so far (0 when never started).
  uint64_t auto_compactions() const;

  // --- Introspection (global id space) ---------------------------------

  size_t num_users() const { return provider_->num_users(); }
  /// Ids admitted so far. May briefly LEAD query visibility while an
  /// append is in flight (it never lags it: any id a response contains is
  /// already counted). Do not derive readable ids from it during
  /// concurrent ingest — see OwnerOf.
  size_t num_items() const {
    return num_items_.load(std::memory_order_acquire);
  }
  /// Items not yet covered by indexes, summed over shards.
  size_t unindexed_items() const;
  /// `item` must be a published id (obtained from a response or an Add
  /// return value) — ids merely admitted by an in-flight append are not
  /// yet readable.
  UserId OwnerOf(ItemId item) const;
  /// Sorted, unique tags of `item` (copied: a shard cannot hand out a
  /// stable span across the service boundary).
  std::vector<TagId> TagsOf(ItemId item) const;
  std::vector<UserId> FriendsOf(UserId user) const;
  /// Human-readable per-shard query statistics, the proximity router's
  /// counters and the QoS edge's counters.
  std::string StatsSummary() const;

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

  /// The fan-out/merge loop behind SearchBatch, run on the rows the QoS
  /// edge admitted (degrade overrides already applied).
  std::vector<Result<SearchResponse>> ExecuteRequests(
      std::span<const SearchRequest> requests);

  /// The live admission controller (null when disabled).
  std::shared_ptr<AdmissionController> admission() const;

  /// Folds one finished response into the cumulative QoS counters.
  void AccountResponse(const Result<SearchResponse>& response);

  /// Shared edge-of-API path behind EnqueueAdd/RemoveFriendship:
  /// validates through the router (see the contract above) and
  /// dispatches to the pipeline or the synchronous fallback under ONE
  /// pipeline snapshot.
  Result<IngestTicket> EnqueueFriendshipEdit(UserId u, UserId v, bool adding);

  /// Snapshots of the background objects. The mutex guards the POINTERS,
  /// not the objects: producers copy the shared_ptr and operate outside
  /// the lock, so a backpressure-blocked producer cannot deadlock
  /// StopIngest (which closes the queue to unblock it).
  std::shared_ptr<IngestPipeline> pipeline() const;
  std::shared_ptr<CompactionScheduler> scheduler() const;

  /// Appends the mapping rows for global id `global` -> (shard, local).
  void RecordPlacementLocked(ItemId global, uint32_t shard, ItemId local);

  Options options_;
  std::string backend_label_;  // "sharded/<N>"
  /// The one graph + proximity surface every shard engine consumes.
  std::shared_ptr<ProximityServiceRouter> provider_;
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

  mutable std::mutex background_mutex_;
  std::shared_ptr<IngestPipeline> pipeline_;
  std::shared_ptr<CompactionScheduler> scheduler_;
  /// Admission controller; null = QoS edge disabled. Guarded by
  /// background_mutex_ (the pointer, not the object — queries copy the
  /// shared_ptr and run outside the lock).
  std::shared_ptr<AdmissionController> admission_;
  /// Cumulative QoS accounting (see QosCounters). Plain relaxed atomics:
  /// monotone counters, no cross-field consistency needed.
  std::atomic<uint64_t> qos_admitted_{0};
  std::atomic<uint64_t> qos_degraded_{0};
  std::atomic<uint64_t> qos_shed_{0};
  std::atomic<uint64_t> qos_truncated_{0};
  std::atomic<uint64_t> qos_deadline_exceeded_{0};
  std::atomic<uint64_t> qos_shards_abandoned_{0};
  std::atomic<uint64_t> qos_shards_failed_{0};
  /// Compactions triggered by schedulers that have since been stopped;
  /// guarded by background_mutex_ and updated in the SAME critical
  /// section that unregisters the scheduler, so auto_compactions() is
  /// cumulative across restarts and never transiently drops.
  uint64_t retired_auto_compactions_ = 0;
  /// Serializes StopIngest / StopAutoCompaction end to end (including
  /// the drain/join, which runs outside background_mutex_): a concurrent
  /// second Stop caller must not return before the first caller's drain
  /// finished — callers use Stop's return as "no background thread is
  /// touching this object any more" (the destructor relies on it).
  std::mutex shutdown_mutex_;
};

}  // namespace amici

#endif  // AMICI_SERVICE_SHARDED_SEARCH_SERVICE_H_
