#ifndef AMICI_BENCH_BENCH_COMMON_H_
#define AMICI_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "service/sharded_search_service.h"
#include "util/stats.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace bench {

/// An engine plus a dataset copy usable for workload generation (the
/// engine consumes the original graph/store).
struct EngineBundle {
  std::unique_ptr<SocialSearchEngine> engine;
  Dataset workload_view;
};

/// A ShardedSearchService plus a dataset copy usable for workload generation.
struct ServiceBundle {
  std::unique_ptr<ShardedSearchService> service;
  Dataset workload_view;
};

/// Generates the dataset, builds the engine, and keeps a regenerated view
/// for query synthesis. Progress goes to stderr; stdout stays clean for
/// the result tables. Aborts on error (benches have no recovery story).
EngineBundle BuildEngine(const DatasetConfig& config,
                         SocialSearchEngine::Options options = {});

/// Service-level counterpart of BuildEngine: a ShardedSearchService over
/// `shards` (>= 1) hash partitions.
ServiceBundle BuildService(const DatasetConfig& config, size_t shards,
                           SocialSearchEngine::Options options = {});

/// Runs every query through `algorithm` and reports the latency summary.
/// `repeats` multiplies the workload to stabilize timings. When
/// `accumulated` is non-null, every query's SearchStats is summed into it
/// (MergeSearchStats semantics) — how the figure benches surface the
/// blocks_decoded/blocks_skipped traversal counters.
LatencySummary RunQueries(SocialSearchEngine* engine,
                          const std::vector<SocialQuery>& queries,
                          AlgorithmId algorithm, int repeats = 1,
                          SearchStats* accumulated = nullptr);

/// Service-level counterpart of RunQueries; `accumulated` sums the
/// shard-merged SearchResponse::stats.
LatencySummary RunServiceQueries(ShardedSearchService* service,
                                 const std::vector<SocialQuery>& queries,
                                 AlgorithmId algorithm, int repeats = 1,
                                 SearchStats* accumulated = nullptr);

/// Populates the proximity cache for every query user so that the first
/// measured algorithm does not pay all the cache misses.
void WarmProximityCache(SocialSearchEngine* engine,
                        const std::vector<SocialQuery>& queries);

/// Service-level warm-up: one query per workload entry (hybrid), enough
/// to populate every shard's proximity cache for the query users.
void WarmService(ShardedSearchService* service,
                 const std::vector<SocialQuery>& queries);

/// Parses a `--shards=N` (or `--shards N`) command-line override; returns
/// `fallback` when absent or malformed.
size_t ParseShardsFlag(int argc, char** argv, size_t fallback);

/// Prints the standard bench banner: which experiment this reproduces and
/// the expected shape of the result.
void PrintBanner(const std::string& experiment, const std::string& claim);

/// "%.3f"-formatted helper.
std::string Ms(double milliseconds);

}  // namespace bench
}  // namespace amici

#endif  // AMICI_BENCH_BENCH_COMMON_H_
