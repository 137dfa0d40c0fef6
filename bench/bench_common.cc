#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "service/sharded_search_service.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace amici {
namespace bench {

EngineBundle BuildEngine(const DatasetConfig& config,
                         SocialSearchEngine::Options options) {
  Stopwatch watch;
  auto dataset = GenerateDataset(config);
  AMICI_CHECK(dataset.ok()) << dataset.status().ToString();
  auto view = GenerateDataset(config);
  AMICI_CHECK(view.ok()) << view.status().ToString();
  const double generate_ms = watch.ElapsedMillis();

  watch.Restart();
  auto engine = SocialSearchEngine::Build(std::move(dataset.value().graph),
                                          std::move(dataset.value().store),
                                          std::move(options));
  AMICI_CHECK(engine.ok()) << engine.status().ToString();
  std::fprintf(stderr,
               "[bench] dataset '%s': %zu users, %zu items "
               "(gen %.0f ms, build %.0f ms)\n",
               config.name.c_str(), view.value().graph.num_users(),
               view.value().store.num_items(), generate_ms,
               watch.ElapsedMillis());

  EngineBundle bundle;
  bundle.engine = std::move(engine).value();
  bundle.workload_view = std::move(view).value();
  return bundle;
}

ServiceBundle BuildService(const DatasetConfig& config, size_t shards,
                           SocialSearchEngine::Options options) {
  Stopwatch watch;
  auto dataset = GenerateDataset(config);
  AMICI_CHECK(dataset.ok()) << dataset.status().ToString();
  auto view = GenerateDataset(config);
  AMICI_CHECK(view.ok()) << view.status().ToString();
  const double generate_ms = watch.ElapsedMillis();

  watch.Restart();
  ServiceBundle bundle;
  ShardedSearchService::Options service_options;
  service_options.num_shards = shards;
  service_options.engine = std::move(options);
  auto service = ShardedSearchService::Build(
      std::move(dataset.value().graph), std::move(dataset.value().store),
      std::move(service_options));
  AMICI_CHECK(service.ok()) << service.status().ToString();
  bundle.service = std::move(service).value();
  std::fprintf(stderr,
               "[bench] dataset '%s': %zu users, %zu items, backend %s "
               "(gen %.0f ms, build %.0f ms)\n",
               config.name.c_str(), view.value().graph.num_users(),
               view.value().store.num_items(),
               std::string(bundle.service->backend_name()).c_str(),
               generate_ms, watch.ElapsedMillis());
  bundle.workload_view = std::move(view).value();
  return bundle;
}

LatencySummary RunQueries(SocialSearchEngine* engine,
                          const std::vector<SocialQuery>& queries,
                          AlgorithmId algorithm, int repeats,
                          SearchStats* accumulated) {
  LatencyRecorder recorder;
  for (int r = 0; r < repeats; ++r) {
    for (const SocialQuery& query : queries) {
      Stopwatch watch;
      const auto result = engine->Query(query, algorithm);
      AMICI_CHECK(result.ok())
          << AlgorithmName(algorithm) << ": " << result.status().ToString();
      recorder.Record(watch.ElapsedMillis());
      if (accumulated != nullptr) {
        MergeSearchStats(result.value().stats, accumulated);
      }
    }
  }
  return recorder.Summarize();
}

LatencySummary RunServiceQueries(SearchService* service,
                                 const std::vector<SocialQuery>& queries,
                                 AlgorithmId algorithm, int repeats,
                                 SearchStats* accumulated) {
  LatencyRecorder recorder;
  for (int r = 0; r < repeats; ++r) {
    for (const SocialQuery& query : queries) {
      SearchRequest request;
      request.query = query;
      request.algorithm = algorithm;
      Stopwatch watch;
      const auto response = service->Search(request);
      AMICI_CHECK(response.ok())
          << AlgorithmName(algorithm) << ": "
          << response.status().ToString();
      recorder.Record(watch.ElapsedMillis());
      if (accumulated != nullptr) {
        MergeSearchStats(response.value().stats, accumulated);
      }
    }
  }
  return recorder.Summarize();
}

void WarmProximityCache(SocialSearchEngine* engine,
                        const std::vector<SocialQuery>& queries) {
  const auto snap = engine->snapshot();
  for (const SocialQuery& query : queries) {
    (void)engine->proximity().GetProximity(*snap->graph, query.user,
                                           snap->graph_version);
  }
}

void WarmService(SearchService* service,
                 const std::vector<SocialQuery>& queries) {
  for (const SocialQuery& query : queries) {
    SearchRequest request;
    request.query = query;
    (void)service->Search(request);
  }
}

size_t ParseShardsFlag(int argc, char** argv, size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shards=", 9) == 0) {
      const long parsed = std::atol(arg + 9);
      if (parsed >= 1) return static_cast<size_t>(parsed);
    } else if (std::strcmp(arg, "--shards") == 0 && i + 1 < argc) {
      const long parsed = std::atol(argv[i + 1]);
      if (parsed >= 1) return static_cast<size_t>(parsed);
    }
  }
  return fallback;
}

void PrintBanner(const std::string& experiment, const std::string& claim) {
  std::printf(
      "================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("claim under test: %s\n", claim.c_str());
  std::printf(
      "================================================================\n");
}

std::string Ms(double milliseconds) {
  return StringPrintf("%.3f", milliseconds);
}

}  // namespace bench
}  // namespace amici
