#ifndef AMICI_SERVICE_SEARCH_SERVICE_H_
#define AMICI_SERVICE_SEARCH_SERVICE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/social_query.h"

namespace amici {

/// One query through ShardedSearchService: the SocialQuery plus the
/// options that used to be separate engine entry points (algorithm
/// override, owner diversity, deadline). A plain default-constructed
/// request with just `query` filled in reproduces the old
/// `engine.Query(query)` behaviour at any shard count.
struct SearchRequest {
  SocialQuery query;
  /// Execution-strategy hint; nullopt selects hybrid. The service may
  /// substitute an equivalent strategy where the hint cannot apply (e.g.
  /// geo-grid on a shard holding no geo items) — results are exact
  /// either way, only the work profile changes.
  std::optional<AlgorithmId> algorithm;
  /// Owner-diversified top-k: at most this many results from any single
  /// owner (0 = unconstrained). Exact — see SocialSearchEngine::QueryDiverse.
  size_t max_per_owner = 0;
  /// Deadline in milliseconds from request start; 0 disables. Enforced
  /// COOPERATIVELY: the service derives a CancellationToken from it that
  /// the search algorithms probe per posting-list block / candidate
  /// batch, so an expired deadline stops work *inside* a shard (stats.
  /// truncated marks the best-effort partial). With more than one shard
  /// the service additionally abandons whole shards at the fan-out barrier and
  /// cancels their stragglers (deadline_exceeded = true, shards_touched /
  /// shards_abandoned = how the fan-out split); the response is the
  /// exact-over-completed merge of whatever the deadline allowed.
  double timeout_ms = 0.0;
};

/// The outcome of one service request: item ids are in the service's
/// GLOBAL id space regardless of how the catalogue is partitioned.
struct SearchResponse {
  /// Best-first (score-descending, item-id-ascending tie-break) results,
  /// at most `query.k` entries.
  std::vector<ScoredItem> items;
  /// Work counters, summed across every shard that executed.
  SearchStats stats;
  /// End-to-end latency observed by the service, including fan-out and
  /// merge.
  double elapsed_ms = 0.0;
  /// Which strategy executed (the hint, or hybrid). When the service
  /// substituted an equivalent strategy on SOME shards only (see
  /// SearchRequest::algorithm), the hint's name is kept; if every shard
  /// substituted, the substitute's name is reported.
  std::string_view algorithm;
  /// Which deployment served the request ("sharded/1", "sharded/4", ...).
  std::string_view backend;
  /// How many partitions contributed results. Normally the service's
  /// shard count; fewer when a deadline abandoned slow shards mid-fan-out
  /// or a shard failed (see shards_abandoned / shards_failed).
  size_t shards_touched = 1;
  /// Shards the deadline abandoned before they reported: their stragglers
  /// were cancelled (cooperatively) and their items are missing from this
  /// response by design. Counted even on paths the token cannot reach
  /// (e.g. a shard stuck in an un-cancellable proximity computation).
  size_t shards_abandoned = 0;
  /// Shards that completed with an error. Their items are missing; the
  /// merge is exact over the healthy shards. First error in shard_error.
  size_t shards_failed = 0;
  /// Message of the first failed shard's status ("" when none failed) —
  /// the honest-response contract surfaces partial failures here instead
  /// of discarding the healthy shards' results.
  std::string shard_error;
  /// True when a timeout_ms was set and the request overran it — cut
  /// short inside a shard (stats.truncated), at the fan-out barrier
  /// (shards_abandoned > 0, items possibly partial), or detected post-hoc
  /// (results still complete).
  bool deadline_exceeded = false;
  /// True when admission control ran this request cheaper than asked
  /// (substituted algorithm / capped k / clamped deadline — see
  /// AdmissionController::Options). Results are exact for WHAT RAN, but
  /// not what was requested.
  bool degraded = false;
  /// True when admission control refused to run this request: a
  /// well-formed empty response, not an error and never a silent drop.
  bool shed = false;
};

/// Folds `from` into `into` (counter-wise sum) — the per-shard stats
/// merge every partitioned response goes through.
void MergeSearchStats(const SearchStats& from, SearchStats* into);

}  // namespace amici

#endif  // AMICI_SERVICE_SEARCH_SERVICE_H_
