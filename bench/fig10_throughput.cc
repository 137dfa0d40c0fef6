// Fig 10 — concurrent throughput through the SearchService surface, on
// two axes:
//
//  (a) queries per second as CLIENT threads scale against a 1-shard
//      service — the engine's internal synchronization (proximity cache +
//      stats) under read contention, as in the original figure;
//  (b) queries per second as the SHARD count scales under a fixed client
//      load — the fan-out/merge router's scaling curve (--shards=a,b,c
//      overrides the default 1,2,4,8 sweep);
//  (c) merge-scan throughput with block-max pruning on vs off, with the
//      blocks_decoded/blocks_skipped counters read off the public
//      SearchResponse::stats surface.
//
//   ./build/bench/bench_fig10_throughput [--shards=N]

#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace amici;

namespace {

struct QpsMeasurement {
  double qps = 0.0;  // 0 on any query failure
  SearchStats stats;  // summed over every response (MergeSearchStats)
};

/// Hammers `service` from `threads` client threads, `queries_per_thread`
/// queries each. Response stats are accumulated per thread and merged at
/// join, so the measurement itself adds no cross-thread contention.
QpsMeasurement MeasureQpsWithStats(SearchService* service,
                                   const std::vector<SocialQuery>& queries,
                                   int threads, int queries_per_thread,
                                   std::optional<AlgorithmId> algorithm) {
  std::atomic<int> errors{0};
  std::mutex merge_mutex;
  QpsMeasurement measurement;
  Stopwatch watch;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      SearchStats local;
      for (int i = 0; i < queries_per_thread; ++i) {
        SearchRequest request;
        request.query = queries[(static_cast<size_t>(t) * 37 + i) %
                                queries.size()];
        request.algorithm = algorithm;
        const auto response = service->Search(request);
        if (!response.ok()) {
          errors.fetch_add(1);
          continue;
        }
        MergeSearchStats(response.value().stats, &local);
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      MergeSearchStats(local, &measurement.stats);
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed = watch.ElapsedSeconds();
  if (errors.load() != 0) {
    std::fprintf(stderr, "[bench] %d errors!\n", errors.load());
    return {};
  }
  measurement.qps =
      static_cast<double>(threads) * queries_per_thread / elapsed;
  return measurement;
}

/// Backend-default-algorithm (hybrid) variant reporting QPS only.
double MeasureQps(SearchService* service,
                  const std::vector<SocialQuery>& queries, int threads,
                  int queries_per_thread) {
  return MeasureQpsWithStats(service, queries, threads, queries_per_thread,
                             std::nullopt)
      .qps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintBanner(
      "Fig 10: hybrid query throughput vs client threads and vs shards "
      "[medium dataset, alpha=0.5, k=10]",
      "read-only throughput scales near-linearly until memory bandwidth "
      "saturates; sharding adds fan-out parallelism per request");

  QueryWorkloadConfig workload;
  workload.num_queries = 256;
  workload.k = 10;
  workload.alpha = 0.5;
  workload.seed = 99;

  // --- (a) client-thread sweep on a 1-shard service. -------------------
  {
    bench::ServiceBundle bundle = bench::BuildService(MediumDataset(), 1);
    const auto queries = GenerateQueries(bundle.workload_view, workload);
    if (!queries.ok()) return 1;
    // Warm the proximity cache once so every configuration sees the same
    // steady state.
    bench::WarmService(bundle.service.get(), queries.value());

    TablePrinter table({"threads", "total queries", "elapsed s", "QPS",
                        "speedup"});
    double baseline_qps = 0.0;
    for (const int threads : {1, 2, 4, 8, 16}) {
      const int queries_per_thread = 2000;
      Stopwatch watch;
      const double qps = MeasureQps(bundle.service.get(), queries.value(),
                                    threads, queries_per_thread);
      if (qps == 0.0) return 1;
      if (baseline_qps == 0.0) baseline_qps = qps;
      const double total =
          static_cast<double>(threads) * queries_per_thread;
      table.AddRow({std::to_string(threads), StringPrintf("%.0f", total),
                    StringPrintf("%.2f", watch.ElapsedSeconds()),
                    StringPrintf("%.0f", qps),
                    StringPrintf("%.2fx", qps / baseline_qps)});
      std::fprintf(stderr, "[bench] %d threads done\n", threads);
    }
    std::printf("%s", table.ToString().c_str());
  }

  // --- (b) shard sweep at a fixed client load. -------------------------
  std::vector<size_t> shard_counts{1, 2, 4, 8};
  if (const size_t forced = bench::ParseShardsFlag(argc, argv, 0);
      forced != 0) {
    shard_counts = {forced};
  }
  const int kClientThreads = 8;
  const int kQueriesPerThread = 1000;
  TablePrinter shard_table(
      {"shards", "backend", "QPS", "speedup vs 1 shard"});
  double one_shard_qps = 0.0;
  for (const size_t shards : shard_counts) {
    bench::ServiceBundle bundle = bench::BuildService(MediumDataset(), shards);
    const auto queries = GenerateQueries(bundle.workload_view, workload);
    if (!queries.ok()) return 1;
    bench::WarmService(bundle.service.get(), queries.value());
    const double qps = MeasureQps(bundle.service.get(), queries.value(),
                                  kClientThreads, kQueriesPerThread);
    if (qps == 0.0) return 1;
    if (shards == 1) one_shard_qps = qps;
    // A --shards=N override skips the 1-shard run: no baseline, no ratio.
    shard_table.AddRow({std::to_string(shards),
                        std::string(bundle.service->backend_name()),
                        StringPrintf("%.0f", qps),
                        one_shard_qps > 0.0
                            ? StringPrintf("%.2fx", qps / one_shard_qps)
                            : std::string("n/a")});
    std::fprintf(stderr, "[bench] %zu shards done\n", shards);
  }
  std::printf("\n%s", shard_table.ToString().c_str());

  // --- (c) block-max pruning on vs off under concurrent load. ----------
  // Merge-scan queries (the posting-list-walking strategy) against twin
  // 1-shard services; the traversal counters arrive through the public
  // SearchResponse::stats surface, end to end.
  {
    TablePrinter bmax_table(
        {"block-max", "QPS", "blocks decoded", "blocks skipped"});
    for (const bool enabled : {true, false}) {
      SocialSearchEngine::Options options;
      options.index_options.posting_options.enable_block_max = enabled;
      bench::ServiceBundle bundle =
          bench::BuildService(MediumDataset(), 1, options);
      const auto queries = GenerateQueries(bundle.workload_view, workload);
      if (!queries.ok()) return 1;
      bench::WarmService(bundle.service.get(), queries.value());
      const QpsMeasurement measured =
          MeasureQpsWithStats(bundle.service.get(), queries.value(), 4, 2000,
                              AlgorithmId::kMergeScan);
      if (measured.qps == 0.0) return 1;
      bmax_table.AddRow(
          {enabled ? "on" : "off", StringPrintf("%.0f", measured.qps),
           std::to_string(measured.stats.aggregation.blocks_decoded),
           std::to_string(measured.stats.aggregation.blocks_skipped)});
      std::fprintf(stderr, "[bench] block-max %s done\n",
                   enabled ? "on" : "off");
    }
    std::printf("\n%s", bmax_table.ToString().c_str());
  }
  return 0;
}
