// Fig 5 — scalability: latency vs graph size, through the SearchService
// surface. The exhaustive baseline grows linearly with the catalogue; the
// index-driven strategies grow sublinearly (bounded by the query's
// neighbourhood and posting-list prefixes, not the corpus). With
// --shards=N (default 1) the service splits the catalogue N ways: each
// shard scans/aggregates over ~1/N of the items and the fan-out/merge
// happens on a thread pool, so the exhaustive row in particular drops
// toward 1/N.
//
//   ./build/bench/bench_fig5_scalability [--shards=N]

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace amici;

int main(int argc, char** argv) {
  const size_t shards = bench::ParseShardsFlag(argc, argv, 1);
  bench::PrintBanner(
      StringPrintf("Fig 5: mean query latency (ms) vs users  "
                   "[alpha=0.5, k=10, shards=%zu]",
                   shards),
      "exhaustive grows linearly with corpus size; hybrid grows "
      "sublinearly; sharding divides the per-request scan work");

  TablePrinter table({"users", "items", "exhaustive", "merge-scan",
                      "hybrid"});
  for (const size_t users : {10000, 20000, 40000, 80000, 160000, 320000}) {
    bench::ServiceBundle bundle =
        bench::BuildService(ScaledDataset(users), shards);
    QueryWorkloadConfig workload;
    workload.num_queries = users >= 160000 ? 25 : 50;
    workload.k = 10;
    workload.alpha = 0.5;
    workload.seed = 55;
    const auto queries = GenerateQueries(bundle.workload_view, workload);
    if (!queries.ok()) return 1;
    bench::WarmService(bundle.service.get(), queries.value());

    std::vector<std::string> row{
        WithThousandsSeparators(users),
        WithThousandsSeparators(bundle.service->num_items())};
    for (const AlgorithmId id :
         {AlgorithmId::kExhaustive, AlgorithmId::kMergeScan,
          AlgorithmId::kHybrid}) {
      row.push_back(bench::Ms(
          bench::RunServiceQueries(bundle.service.get(), queries.value(), id)
              .mean));
    }
    table.AddRow(row);
    std::fprintf(stderr, "[bench] %zu users done\n", users);
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
