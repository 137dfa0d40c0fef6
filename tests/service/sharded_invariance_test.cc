// The acceptance property of the service redesign: a ShardedSearchService
// over ANY shard count (1 included) returns bit-identical top-k (items AND
// scores) to a bare SocialSearchEngine on the same corpus — for plain,
// owner-diversified, geo-filtered and batch requests, across algorithm
// hints, and across mutations (ingest, friendship churn, per-service
// compaction).
//
// Why bit-identical is achievable: the graph is replicated to every
// shard, so proximity vectors — and hence every blended score — are
// computed by the exact same code on the exact same inputs; the merge
// only reorders ScoredItems, never recomputes them.

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 7};

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 350;
  config.items_per_user = 4.0;
  config.num_tags = 200;
  config.geo_fraction = 0.4;
  config.seed = seed;
  return config;
}

std::unique_ptr<SocialSearchEngine> BuildEngine(const DatasetConfig& config) {
  Dataset dataset = GenerateDataset(config).value();
  auto engine = SocialSearchEngine::Build(std::move(dataset.graph),
                                          std::move(dataset.store),
                                          SocialSearchEngine::Options());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::unique_ptr<SearchService> BuildSharded(const DatasetConfig& config,
                                            size_t num_shards) {
  // The generator is deterministic: regenerating yields the identical
  // corpus the reference engine consumed.
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

/// Builds the randomized request mix the property is asserted over:
/// plain, algorithm-hinted, owner-diversified, tag-less pure-social, and
/// geo-filtered requests.
std::vector<SearchRequest> BuildRequests(const DatasetConfig& config) {
  Dataset workload_view = GenerateDataset(config).value();
  std::vector<SearchRequest> requests;

  QueryWorkloadConfig plain;
  plain.num_queries = 10;
  plain.seed = config.seed * 13 + 1;
  const std::vector<SocialQuery> plain_queries =
      GenerateQueries(workload_view, plain).value();
  for (const SocialQuery& query : plain_queries) {
    SearchRequest request;
    request.query = query;
    requests.push_back(request);
  }

  QueryWorkloadConfig geo;
  geo.num_queries = 6;
  geo.with_geo_filter = true;
  geo.radius_km = 25.0;
  geo.seed = config.seed * 13 + 2;
  const std::vector<SocialQuery> geo_queries =
      GenerateQueries(workload_view, geo).value();
  for (const SocialQuery& query : geo_queries) {
    SearchRequest request;
    request.query = query;
    requests.push_back(request);
    request.algorithm = AlgorithmId::kGeoGrid;  // hint must not change results
    requests.push_back(request);
  }

  // Derived variants of the plain mix: hints, diversity, blends. Diverse
  // requests stay on blended (continuous-score) queries — exact score
  // ties are measure-zero there, so the owner-capped selection is unique.
  Rng rng(config.seed * 13 + 3);
  const size_t plain_count = 10;
  for (size_t i = 0; i < plain_count; ++i) {
    SearchRequest request = requests[i];
    request.query.alpha = 0.2 + 0.6 * rng.UniformDouble();
    request.query.k = 1 + rng.UniformIndex(20);
    request.algorithm = rng.Bernoulli(0.5) ? AlgorithmId::kMergeScan
                                           : AlgorithmId::kNra;
    requests.push_back(request);

    SearchRequest diverse = requests[i];
    diverse.max_per_owner = 1 + rng.UniformIndex(3);
    requests.push_back(diverse);
  }

  // Tag-less pure-social feeds (the alpha == 1.0 relaxation). Feeds are
  // tie-heavy (every item of one owner scores the same), which is exactly
  // what the boundary-aware comparison in ExpectSameResponse is for.
  for (const UserId user : {UserId{3}, UserId{42}, UserId{117}}) {
    SearchRequest feed;
    feed.query.user = user;
    feed.query.alpha = 1.0;
    feed.query.k = 8;
    requests.push_back(feed);
  }
  return requests;
}

/// The bit-identity reference: `request` executed directly on one engine
/// over the whole corpus.
Result<QueryResult> EngineSearch(SocialSearchEngine* engine,
                                 const SearchRequest& request) {
  const AlgorithmId algorithm =
      request.algorithm.value_or(AlgorithmId::kHybrid);
  return request.max_per_owner > 0
             ? engine->QueryDiverse(request.query, request.max_per_owner,
                                    algorithm)
             : engine->Query(request.query, algorithm);
}

void ExpectSameResponse(const Result<QueryResult>& expected,
                        const Result<SearchResponse>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << label << ": " << expected.status().ToString() << " vs "
      << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << label;
    return;
  }
  const auto& want = expected.value().items;
  const auto& got = actual.value().items;
  ASSERT_EQ(want.size(), got.size()) << label;
  // Every exact top-k contains ALL items scoring strictly above the k-th
  // score; membership AT the k-th score is algorithm-discretionary when a
  // tie class straddles the boundary, and entries whose FLOAT-rounded
  // scores collide may order/select differently (the engines rank on
  // internal doubles, responses carry floats). So: scores must match
  // bit-for-bit at every rank, and item ids must match wherever the score
  // is unique in the list and above the boundary tie class.
  const float boundary = want.empty() ? 0.0f : want.back().score;
  for (size_t i = 0; i < want.size(); ++i) {
    // Bit-identical, not merely close: same inputs, same code, per shard.
    EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
    const bool tied =
        (i > 0 && want[i - 1].score == want[i].score) ||
        (i + 1 < want.size() && want[i + 1].score == want[i].score);
    if (!tied && want[i].score != boundary) {
      EXPECT_EQ(want[i].item, got[i].item) << label << " rank " << i;
    }
  }
}

void ExpectInvariant(SocialSearchEngine* engine,
                     std::span<const std::unique_ptr<SearchService>> sharded,
                     std::span<const SearchRequest> requests,
                     const std::string& phase) {
  // One request at a time...
  std::vector<Result<QueryResult>> reference;
  for (const SearchRequest& request : requests) {
    reference.push_back(EngineSearch(engine, request));
  }
  for (const auto& service : sharded) {
    const std::string label =
        phase + " " + std::string(service->backend_name());
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectSameResponse(reference[i], service->Search(requests[i]),
                         label + " request " + std::to_string(i));
    }
    // ...and the whole mix as one batch.
    const auto batch = service->SearchBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectSameResponse(reference[i], batch[i],
                         label + " batch slot " + std::to_string(i));
    }
  }
}

TEST(ShardedInvarianceTest, AllShardCountsMatchEngineAcrossMutations) {
  for (const uint64_t seed : {11u, 29u}) {
    SCOPED_TRACE("dataset seed " + std::to_string(seed));
    const DatasetConfig config = TestConfig(seed);
    auto engine = BuildEngine(config);
    std::vector<std::unique_ptr<SearchService>> sharded;
    for (const size_t shards : kShardCounts) {
      sharded.push_back(BuildSharded(config, shards));
    }
    const std::vector<SearchRequest> requests = BuildRequests(config);

    ExpectInvariant(engine.get(), sharded, requests, "fresh");

    // --- Mutations, applied identically to the engine and every service.
    Rng rng(seed * 7 + 5);
    const size_t num_users = engine->snapshot()->graph->num_users();
    std::vector<Item> batch;
    for (int i = 0; i < 40; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(200))};
      if (rng.Bernoulli(0.4)) {
        item.tags.push_back(static_cast<TagId>(rng.UniformIndex(200)));
      }
      item.quality = static_cast<float>(rng.UniformDouble());
      if (rng.Bernoulli(0.3)) {
        item.has_geo = true;
        item.latitude = static_cast<float>(rng.UniformDouble() - 0.5);
        item.longitude = static_cast<float>(rng.UniformDouble() - 0.5);
      }
      batch.push_back(item);
    }
    // Half through the batched path, half one-by-one; global ids must
    // come out dense and identical to the engine's on every service.
    const std::span<const Item> first_half(batch.data(), 20);
    const auto engine_ids = engine->AddItems(first_half);
    ASSERT_TRUE(engine_ids.ok()) << engine_ids.status().ToString();
    for (const auto& service : sharded) {
      const auto ids = service->AddItems(first_half);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(engine_ids.value(), ids.value()) << service->backend_name();
    }
    for (size_t i = 20; i < batch.size(); ++i) {
      const auto engine_id = engine->AddItem(batch[i]);
      ASSERT_TRUE(engine_id.ok());
      for (const auto& service : sharded) {
        const auto id = service->AddItem(batch[i]);
        ASSERT_TRUE(id.ok());
        EXPECT_EQ(engine_id.value(), id.value()) << service->backend_name();
      }
    }
    // A couple of friendship flips.
    for (int flip = 0; flip < 3; ++flip) {
      const UserId u = static_cast<UserId>(rng.UniformIndex(num_users));
      const UserId v = static_cast<UserId>(rng.UniformIndex(num_users));
      if (u == v) continue;
      const Status engine_status = engine->AddFriendship(u, v);
      for (const auto& service : sharded) {
        const Status status = service->AddFriendship(u, v);
        EXPECT_EQ(engine_status.code(), status.code())
            << service->backend_name();
      }
    }

    ExpectInvariant(engine.get(), sharded, requests, "post-ingest");

    // Compact only SOME services: results must not depend on whether a
    // service's tail has been folded into its indexes.
    ASSERT_TRUE(sharded[1]->Compact().ok());
    ASSERT_TRUE(sharded[3]->Compact().ok());
    for (const auto& service : sharded) {
      if (service.get() == sharded[1].get() ||
          service.get() == sharded[3].get()) {
        EXPECT_EQ(service->unindexed_items(), 0u);
      }
    }
    ExpectInvariant(engine.get(), sharded, requests, "post-compact");
  }
}

TEST(ShardedInvarianceTest, SuggestTagsUnionMergeMatchesEngine) {
  const DatasetConfig config = TestConfig(47);
  auto engine = BuildEngine(config);
  auto sharded = BuildSharded(config, 4);

  QueryExpansionOptions options;
  options.max_suggestions = 10000;  // no truncation: compare full sets
  options.min_cooccurrence = 2;     // must be applied on GLOBAL support
  for (const UserId user : {UserId{5}, UserId{80}, UserId{200}}) {
    for (const TagId seed : {TagId{0}, TagId{3}}) {
      const TagId seeds[] = {seed};
      const auto expected = engine->SuggestTags(user, seeds, options);
      const auto actual = sharded->SuggestTags(user, seeds, options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(expected.value().size(), actual.value().size())
          << "user " << user << " seed " << seed;
      // Weights are float-summed per shard, so allow rounding noise; the
      // support counts must match exactly.
      for (size_t i = 0; i < expected.value().size(); ++i) {
        const TagSuggestion& want = expected.value()[i];
        // Near-ties may legally reorder under float rounding; find the
        // matching tag instead of insisting on the position.
        bool found = false;
        for (const TagSuggestion& got : actual.value()) {
          if (got.tag != want.tag) continue;
          EXPECT_NEAR(got.weight, want.weight, 1e-4);
          EXPECT_EQ(got.support, want.support);
          found = true;
          break;
        }
        EXPECT_TRUE(found) << "tag " << want.tag << " missing from sharded";
      }
    }
  }
}

}  // namespace
}  // namespace amici
