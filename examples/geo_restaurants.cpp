// Geo-social scenario: restaurant check-ins with ratings. "Find top
// italian places near me, preferring spots my friends rated" — the
// geo-social query of the Fig 8 experiment, driven through the
// SearchService API, including the radius-dependent choice between
// geo-driven and social-driven execution (a per-request hint) — and the
// same requests served by a 4-shard service with identical answers.
//
//   ./build/examples/geo_restaurants

#include <cstdio>
#include <memory>
#include <string>

#include "geo/geo_point.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

using namespace amici;

int main() {
  // City-clustered "check-in" dataset: every item has a geo position.
  DatasetConfig config = SmallDataset();
  config.name = "restaurants";
  config.num_users = 4000;
  config.items_per_user = 4.0;
  config.num_tags = 500;  // cuisines & dishes
  config.geo_fraction = 1.0;
  config.num_cities = 4;
  config.city_sigma_km = 4.0;
  auto dataset = GenerateDataset(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // Remember one anchor position ("where I am") before the service takes
  // ownership of the store.
  GeoPoint me{0.0f, 0.0f};
  for (ItemId i = 0; i < dataset.value().store.num_items(); ++i) {
    if (dataset.value().store.has_geo(i)) {
      me = {dataset.value().store.latitude(i),
            dataset.value().store.longitude(i)};
      break;
    }
  }

  ShardedSearchService::Options options;
  options.num_shards = 1;
  auto service_or = ShardedSearchService::Build(
      std::move(dataset.value().graph), std::move(dataset.value().store),
      std::move(options));
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SearchService> service = std::move(service_or).value();

  SearchRequest request;
  request.query.user = 42;
  request.query.tags = {3, 17};  // "italian", "pasta"
  NormalizeQuery(&request.query);
  request.query.k = 5;
  request.query.alpha = 0.5;
  request.query.has_geo_filter = true;
  request.query.latitude = me.latitude;
  request.query.longitude = me.longitude;

  std::printf("user %u searching tags {3,17} around (%.3f, %.3f)\n\n",
              request.query.user, me.latitude, me.longitude);
  auto sweep = [&](SearchService* backend) {
    std::printf("%-10s %-10s %-28s %s\n", "radius km", "strategy", "results",
                "items examined");
    for (const float radius : {1.0f, 5.0f, 25.0f, 100.0f}) {
      request.query.radius_km = radius;
      for (const AlgorithmId id :
           {AlgorithmId::kGeoGrid, AlgorithmId::kHybrid}) {
        request.algorithm = id;
        const auto response = backend->Search(request);
        if (!response.ok()) {
          std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
          continue;
        }
        char results[64] = {0};
        size_t off = 0;
        for (const auto& entry : response.value().items) {
          off += static_cast<size_t>(std::snprintf(
              results + off, sizeof(results) - off, "%u ", entry.item));
          if (off >= sizeof(results) - 8) break;
        }
        std::printf("%-10.0f %-10s %-28s %llu\n", radius,
                    std::string(response.value().algorithm).c_str(), results,
                    static_cast<unsigned long long>(
                        response.value().stats.items_considered +
                        response.value().stats.aggregation.candidates_scored));
      }
    }
  };
  sweep(service.get());
  std::printf("\nsmall radius: geo-grid wins (few candidates in range);\n");
  std::printf("large radius: the social/content indexes win again.\n");

  // The same sweep on 4 shards: identical result ids, with the
  // work spread across 4 partitions (the geo-grid hint is applied per
  // shard, falling back transparently on shards that hold no geo items).
  ShardedSearchService::Options sharded_options;
  sharded_options.num_shards = 4;
  Dataset replica = GenerateDataset(config).value();  // deterministic rebuild
  auto sharded_or = ShardedSearchService::Build(std::move(replica.graph),
                                                std::move(replica.store),
                                                std::move(sharded_options));
  if (!sharded_or.ok()) {
    std::fprintf(stderr, "%s\n", sharded_or.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsame sweep, backend %s:\n",
              std::string(sharded_or.value()->backend_name()).c_str());
  sweep(sharded_or.value().get());
  return 0;
}
