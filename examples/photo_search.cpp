// Photo-sharing scenario: a Flickr-like tagged photo corpus over a
// scale-free social network, driven through the ShardedSearchService API. Shows
// how the alpha blend changes what one user sees for the same keyword
// query, owner-diversified feeds (max_per_owner), the personalized
// thesaurus (SuggestTags), and the engine's execution strategies compared
// on the same workload via the request's algorithm hint.
//
//   ./build/examples/photo_search

#include <cstdio>
#include <memory>

#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

using namespace amici;

int main() {
  // A "photo sharing site": 5k users, ~25k photos, Zipf-popular tags,
  // friends posting similar content (social locality 0.6).
  DatasetConfig config = SmallDataset();
  config.name = "photo-site";
  config.num_users = 5000;
  config.items_per_user = 5.0;
  config.num_tags = 4000;
  config.social_locality = 0.6;
  config.geo_fraction = 0.0;
  auto dataset = GenerateDataset(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("photo corpus: %zu users, %zu photos, %zu tags\n",
              dataset.value().graph.num_users(),
              dataset.value().store.num_items(),
              dataset.value().tags.size());

  Dataset workload_view = GenerateDataset(config).value();  // for queries
  ShardedSearchService::Options options;
  options.num_shards = 1;
  auto service_or = ShardedSearchService::Build(
      std::move(dataset.value().graph), std::move(dataset.value().store),
      std::move(options));
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ShardedSearchService> service = std::move(service_or).value();

  // One user, one tag query, three different blends.
  QueryWorkloadConfig wconfig;
  wconfig.num_queries = 1;
  wconfig.seed = 11;
  SearchRequest request;
  request.query = GenerateQueries(workload_view, wconfig).value()[0];
  request.query.k = 5;

  for (const double alpha : {0.0, 0.5, 1.0}) {
    request.query.alpha = alpha;
    const auto response = service->Search(request);
    if (!response.ok()) continue;
    std::printf("\nalpha = %.1f (%s):\n", alpha,
                alpha == 0.0   ? "pure content relevance"
                : alpha == 1.0 ? "pure social feed"
                               : "blended");
    for (const auto& entry : response.value().items) {
      std::printf("  photo %-6u owner %-5u score %.4f\n", entry.item,
                  service->OwnerOf(entry.item), entry.score);
    }
  }

  // A prolific friend cannot monopolize the page: cap every owner to one
  // photo (exact owner-diversified top-k, one request option away).
  request.query.alpha = 0.8;
  request.max_per_owner = 1;
  const auto diverse = service->Search(request);
  if (diverse.ok()) {
    std::printf("\nmax_per_owner = 1 (every photo from a distinct owner):\n");
    for (const auto& entry : diverse.value().items) {
      std::printf("  photo %-6u owner %-5u score %.4f\n", entry.item,
                  service->OwnerOf(entry.item), entry.score);
    }
  }
  request.max_per_owner = 0;

  // "A little help from my friends" on the query side: expand the query
  // with tags the user's circle co-posts with the seed tags — a
  // personalized thesaurus.
  const auto suggestions = service->SuggestTags(
      request.query.user, request.query.tags,
      QueryExpansionOptions{.max_suggestions = 5});
  if (suggestions.ok()) {
    std::printf("\nsocially-suggested expansion tags for user %u:",
                request.query.user);
    for (const TagSuggestion& s : suggestions.value()) {
      std::printf("  %s(%.2f)", workload_view.tags.Name(s.tag).c_str(),
                  s.weight);
    }
    std::printf("\n");
  }

  // Same workload, every execution strategy: identical answers, very
  // different work. The strategy is a per-request hint on the service.
  wconfig.num_queries = 200;
  wconfig.alpha = 0.5;
  wconfig.seed = 12;
  const auto queries = GenerateQueries(workload_view, wconfig).value();
  std::printf("\nrunning %zu blended queries under each strategy...\n",
              queries.size());
  for (const AlgorithmId id :
       {AlgorithmId::kExhaustive, AlgorithmId::kMergeScan,
        AlgorithmId::kContentFirst, AlgorithmId::kSocialFirst,
        AlgorithmId::kHybrid}) {
    for (const SocialQuery& q : queries) {
      SearchRequest hinted;
      hinted.query = q;
      hinted.algorithm = id;
      (void)service->Search(hinted);
    }
  }
  std::printf("%s\n", service->StatsSummary().c_str());
  std::printf("note: identical result quality; the early-terminating\n"
              "strategies examine a fraction of the catalogue.\n");
  return 0;
}
