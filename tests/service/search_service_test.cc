// Contract tests for the SearchService surface, run at one and at three
// shards: labels, global id assignment, request options (algorithm hint,
// max_per_owner, deadline stub), error propagation, and the
// all-or-nothing AddItems batch.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

DatasetConfig ContractConfig() {
  DatasetConfig config = SmallDataset();
  config.num_users = 200;
  config.items_per_user = 3.0;
  config.num_tags = 80;
  config.geo_fraction = 0.0;
  config.seed = 77;
  return config;
}

std::unique_ptr<SearchService> BuildBackend(size_t num_shards) {
  Dataset dataset = GenerateDataset(ContractConfig()).value();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  return ShardedSearchService::Build(std::move(dataset.graph),
                                     std::move(dataset.store),
                                     std::move(options))
      .value();
}

class SearchServiceContractTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SearchServiceContractTest, BackendIdentity) {
  const auto service = BuildBackend(GetParam());
  EXPECT_EQ(service->backend_name(),
            "sharded/" + std::to_string(GetParam()));
  EXPECT_EQ(service->num_shards(), GetParam());
  EXPECT_EQ(service->num_users(), 200u);
  EXPECT_GT(service->num_items(), 0u);
}

TEST_P(SearchServiceContractTest, SearchCarriesLabelsAndOrdering) {
  const auto service = BuildBackend(GetParam());
  SearchRequest request;
  request.query.user = 7;
  request.query.tags = {0, 1};
  request.query.k = 10;
  const auto response = service->Search(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().backend, service->backend_name());
  EXPECT_EQ(response.value().algorithm, "hybrid");
  EXPECT_EQ(response.value().shards_touched, service->num_shards());
  EXPECT_FALSE(response.value().deadline_exceeded);
  const auto& items = response.value().items;
  ASSERT_FALSE(items.empty());
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_GE(items[i - 1].score, items[i].score) << "rank " << i;
  }
  for (const ScoredItem& item : items) {
    EXPECT_LT(item.item, service->num_items());
  }

  request.algorithm = AlgorithmId::kMergeScan;
  const auto hinted = service->Search(request);
  ASSERT_TRUE(hinted.ok());
  EXPECT_EQ(hinted.value().algorithm, "merge-scan");
}

TEST_P(SearchServiceContractTest, MaxPerOwnerCapsOwners) {
  const auto service = BuildBackend(GetParam());
  SearchRequest request;
  request.query.user = 7;
  request.query.tags = {0};
  request.query.alpha = 0.2;
  request.query.k = 12;
  request.max_per_owner = 1;
  const auto response = service->Search(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  std::vector<UserId> owners;
  for (const ScoredItem& item : response.value().items) {
    owners.push_back(service->OwnerOf(item.item));
  }
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(std::adjacent_find(owners.begin(), owners.end()), owners.end())
      << "an owner appears twice despite max_per_owner = 1";
}

TEST_P(SearchServiceContractTest, DeadlineStubFlagsOverruns) {
  const auto service = BuildBackend(GetParam());
  SearchRequest request;
  request.query.user = 3;
  request.query.tags = {0};
  request.timeout_ms = 1e-9;  // everything overruns this
  const auto overrun = service->Search(request);
  ASSERT_TRUE(overrun.ok());
  EXPECT_TRUE(overrun.value().deadline_exceeded);

  request.timeout_ms = 60000.0;
  const auto relaxed = service->Search(request);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_FALSE(relaxed.value().deadline_exceeded);
}

TEST_P(SearchServiceContractTest, InvalidRequestsPropagateStatus) {
  const auto service = BuildBackend(GetParam());
  SearchRequest request;
  request.query.user = 100000;  // out of range
  request.query.tags = {0};
  EXPECT_EQ(service->Search(request).status().code(),
            StatusCode::kInvalidArgument);

  request.query.user = 1;
  request.query.k = 0;
  EXPECT_EQ(service->Search(request).status().code(),
            StatusCode::kInvalidArgument);

  // Tag-less is only legal as a pure-social feed.
  request.query.k = 5;
  request.query.tags = {};
  request.query.alpha = 0.5;
  EXPECT_EQ(service->Search(request).status().code(),
            StatusCode::kInvalidArgument);
  request.query.alpha = 1.0;
  EXPECT_TRUE(service->Search(request).ok());
}

TEST_P(SearchServiceContractTest, SearchBatchAlignsWithSerialExecution) {
  const auto service = BuildBackend(GetParam());
  std::vector<SearchRequest> requests;
  for (UserId user = 0; user < 12; ++user) {
    SearchRequest request;
    request.query.user = user;
    request.query.tags = {static_cast<TagId>(user % 5)};
    request.query.k = 6;
    if (user % 3 == 0) request.max_per_owner = 2;
    requests.push_back(request);
  }
  requests[4].query.user = 100000;  // one poisoned slot must not sink the rest

  const auto batch = service->SearchBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto serial = service->Search(requests[i]);
    ASSERT_EQ(serial.ok(), batch[i].ok()) << "slot " << i;
    if (!serial.ok()) continue;
    ASSERT_EQ(serial.value().items.size(), batch[i].value().items.size());
    for (size_t r = 0; r < serial.value().items.size(); ++r) {
      EXPECT_EQ(serial.value().items[r].item, batch[i].value().items[r].item);
      EXPECT_EQ(serial.value().items[r].score,
                batch[i].value().items[r].score);
    }
  }
}

TEST_P(SearchServiceContractTest, AddItemsIsAllOrNothing) {
  const auto service = BuildBackend(GetParam());
  const size_t before = service->num_items();

  std::vector<Item> bad(3);
  for (auto& item : bad) {
    item.owner = 1;
    item.tags = {2};
    item.quality = 0.5f;
  }
  bad[2].quality = 2.0f;  // invalid
  const auto rejected = service->AddItems(bad);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->num_items(), before) << "partial batch leaked in";

  bad[2].quality = 0.9f;
  const auto accepted = service->AddItems(bad);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_EQ(accepted.value().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(accepted.value()[i], static_cast<ItemId>(before + i))
        << "global ids must stay dense, in batch order";
    EXPECT_EQ(service->OwnerOf(accepted.value()[i]), 1u);
    EXPECT_EQ(service->TagsOf(accepted.value()[i]), std::vector<TagId>{2});
  }
  EXPECT_EQ(service->num_items(), before + 3);
  EXPECT_GE(service->unindexed_items(), 3u);
  ASSERT_TRUE(service->Compact().ok());
  EXPECT_EQ(service->unindexed_items(), 0u);
}

TEST_P(SearchServiceContractTest, FriendshipEditsFollowEngineSemantics) {
  const auto service = BuildBackend(GetParam());
  // Find a non-edge deterministically.
  UserId u = 0, v = 0;
  for (UserId a = 0; a < 10 && v == 0; ++a) {
    const auto friends = service->FriendsOf(a);
    for (UserId b = a + 1; b < 50; ++b) {
      if (std::find(friends.begin(), friends.end(), b) == friends.end()) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_NE(u, v);
  EXPECT_TRUE(service->AddFriendship(u, v).ok());
  EXPECT_EQ(service->AddFriendship(u, v).code(), StatusCode::kAlreadyExists);
  const auto friends = service->FriendsOf(u);
  EXPECT_NE(std::find(friends.begin(), friends.end(), v), friends.end());
  EXPECT_TRUE(service->RemoveFriendship(u, v).ok());
  EXPECT_EQ(service->RemoveFriendship(u, v).code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SearchServiceContractTest,
                         ::testing::Values(size_t{1}, size_t{3}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace amici
