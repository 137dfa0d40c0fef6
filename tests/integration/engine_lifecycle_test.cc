// End-to-end lifecycle through the SearchService surface: generate ->
// persist graph -> rebuild service -> query -> incremental ingest (single
// and batched) -> compact -> query again.

#include <cstdio>
#include <string>

#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

Result<std::unique_ptr<ShardedSearchService>> BuildOneShard(SocialGraph graph,
                                                            ItemStore store) {
  ShardedSearchService::Options options;
  options.num_shards = 1;
  return ShardedSearchService::Build(std::move(graph), std::move(store),
                                     std::move(options));
}

TEST(EngineLifecycleTest, PersistRebuildQueryIngestCompact) {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.num_tags = 150;
  Dataset dataset = GenerateDataset(config).value();

  // Persist and reload the graph through the binary format.
  const std::string path =
      std::string(::testing::TempDir()) + "/lifecycle.amig";
  ASSERT_TRUE(SaveGraph(dataset.graph, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  auto service =
      BuildOneShard(std::move(loaded).value(), std::move(dataset.store));
  ASSERT_TRUE(service.ok());

  // Baseline query.
  Dataset dataset2 = GenerateDataset(config).value();
  QueryWorkloadConfig workload;
  workload.num_queries = 10;
  workload.seed = 5;
  const auto queries = GenerateQueries(dataset2, workload);
  ASSERT_TRUE(queries.ok());

  for (const SocialQuery& query : queries.value()) {
    SearchRequest request;
    request.query = query;
    ASSERT_TRUE(service.value()->Search(request).ok());
  }

  // Ingest a burst of items into the tail: half one-by-one, half as one
  // AddItems batch (single publish).
  const size_t before = service.value()->num_items();
  std::vector<Item> batch;
  for (int i = 0; i < 50; ++i) {
    Item item;
    item.owner = static_cast<UserId>(i % service.value()->num_users());
    item.tags = {static_cast<TagId>(i % 20)};
    item.quality = 0.5f;
    if (i < 25) {
      ASSERT_TRUE(service.value()->AddItem(item).ok());
    } else {
      batch.push_back(item);
    }
  }
  ASSERT_TRUE(service.value()->AddItems(batch).ok());
  EXPECT_EQ(service.value()->unindexed_items(), 50u);
  EXPECT_EQ(service.value()->num_items(), before + 50);

  // Tail items participate in queries before compaction; results across
  // compaction must be identical.
  std::vector<std::vector<ScoredItem>> pre_compaction;
  for (const SocialQuery& query : queries.value()) {
    SearchRequest request;
    request.query = query;
    const auto response = service.value()->Search(request);
    ASSERT_TRUE(response.ok());
    pre_compaction.push_back(response.value().items);
  }
  ASSERT_TRUE(service.value()->Compact().ok());
  EXPECT_EQ(service.value()->unindexed_items(), 0u);
  for (size_t q = 0; q < queries.value().size(); ++q) {
    SearchRequest request;
    request.query = queries.value()[q];
    const auto response = service.value()->Search(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().items.size(), pre_compaction[q].size());
    for (size_t i = 0; i < pre_compaction[q].size(); ++i) {
      EXPECT_NEAR(response.value().items[i].score,
                  pre_compaction[q][i].score, 1e-5)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(EngineLifecycleTest, EmptyTailCompactionIsIdempotent) {
  DatasetConfig config = SmallDataset();
  config.num_users = 100;
  Dataset dataset = GenerateDataset(config).value();
  auto service =
      BuildOneShard(std::move(dataset.graph), std::move(dataset.store));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(service.value()->Compact().ok());
  ASSERT_TRUE(service.value()->Compact().ok());
  EXPECT_EQ(service.value()->unindexed_items(), 0u);
}

TEST(EngineLifecycleTest, ManyIngestCompactCycles) {
  DatasetConfig config = SmallDataset();
  config.num_users = 100;
  config.items_per_user = 2.0;
  Dataset dataset = GenerateDataset(config).value();
  auto service =
      BuildOneShard(std::move(dataset.graph), std::move(dataset.store));
  ASSERT_TRUE(service.ok());

  SearchRequest request;
  request.query.user = 1;
  request.query.tags = {0};
  request.query.k = 5;
  request.query.alpha = 0.4;

  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      Item item;
      item.owner = static_cast<UserId>((cycle * 10 + i) % 100);
      item.tags = {static_cast<TagId>(i % 5)};
      item.quality = 0.3f;
      ASSERT_TRUE(service.value()->AddItem(item).ok());
    }
    request.algorithm = AlgorithmId::kExhaustive;
    const auto exhaustive = service.value()->Search(request);
    request.algorithm = AlgorithmId::kHybrid;
    const auto hybrid = service.value()->Search(request);
    ASSERT_TRUE(exhaustive.ok());
    ASSERT_TRUE(hybrid.ok());
    ASSERT_EQ(exhaustive.value().items.size(), hybrid.value().items.size());
    for (size_t i = 0; i < hybrid.value().items.size(); ++i) {
      EXPECT_NEAR(hybrid.value().items[i].score,
                  exhaustive.value().items[i].score, 1e-5);
    }
    ASSERT_TRUE(service.value()->Compact().ok());
  }
  EXPECT_EQ(service.value()->num_items(),
            static_cast<size_t>(100 * 2 + 50));
}

}  // namespace
}  // namespace amici
