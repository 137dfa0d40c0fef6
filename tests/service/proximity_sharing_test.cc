// The acceptance property of the shared proximity provider: behind an
// N-shard ShardedSearchService there is exactly ONE SocialGraph instance
// and ONE proximity cache, and a cache-missed user costs exactly ONE
// proximity computation per (user, generation) — not N — even though all
// N shards need the vector concurrently during the fan-out.

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "proximity/hop_decay.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

class CountingModel : public ProximityModel {
 public:
  CountingModel() = default;
  std::string_view name() const override { return "counting"; }
  ProximityVector Compute(const SocialGraph& graph,
                          UserId source) const override {
    computations_.fetch_add(1);
    return inner_.Compute(graph, source);
  }
  int computations() const { return computations_.load(); }

 private:
  HopDecayProximity inner_;
  mutable std::atomic<int> computations_{0};
};

struct Built {
  std::unique_ptr<ShardedSearchService> service;
  std::shared_ptr<CountingModel> model;
};

Built BuildSharded(size_t num_shards) {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.num_tags = 120;
  config.seed = 5;
  Dataset dataset = GenerateDataset(config).value();

  Built built;
  built.model = std::make_shared<CountingModel>();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  options.engine.proximity_model = built.model;
  // Warm-over off: these tests count computations exactly, and the
  // background warmer would add nondeterministic ones.
  options.engine.proximity_warm_top_n = 0;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  built.service = std::move(service).value();
  return built;
}

SearchRequest RequestFor(UserId user) {
  SearchRequest request;
  request.query.user = user;
  request.query.tags = {1, 2};
  request.query.k = 10;
  request.query.alpha = 0.5;
  return request;
}

TEST(ProximitySharingTest, AllShardsPinTheSameGraphInstance) {
  Built built = BuildSharded(4);
  const auto provider_view = built.service->proximity_provider()->Acquire();
  for (size_t s = 0; s < built.service->num_shards(); ++s) {
    const auto snap = built.service->shard_engine(s)->snapshot();
    // Pointer identity, not equality: ONE graph instance, not N replicas.
    EXPECT_EQ(snap->graph.get(), provider_view.graph.get()) << "shard " << s;
    EXPECT_EQ(snap->graph_version, provider_view.generation);
  }
  // ... and the engines all share the service's provider (one cache).
  for (size_t s = 0; s < built.service->num_shards(); ++s) {
    EXPECT_EQ(built.service->shard_engine(s)->shared_proximity().get(),
              built.service->proximity_provider().get());
  }
}

TEST(ProximitySharingTest, ColdUserCostsOneComputationAcrossFourShards) {
  Built built = BuildSharded(4);

  const auto response = built.service->Search(RequestFor(17));
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // 4 shards each needed user 17's vector; exactly ONE computed, the
  // other 3 hit the shared cache or joined the in-flight computation.
  EXPECT_EQ(built.model->computations(), 1);
  EXPECT_EQ(response.value().stats.proximity_computations, 1u);
  EXPECT_EQ(response.value().stats.proximity_cache_hits, 3u);
  const ProximityProviderStats stats = built.service->proximity_stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.cache_hits + stats.inflight_joins, 3u);

  // A repeat is all hits.
  const auto repeat = built.service->Search(RequestFor(17));
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(built.model->computations(), 1);
  EXPECT_EQ(repeat.value().stats.proximity_computations, 0u);
  EXPECT_EQ(repeat.value().stats.proximity_cache_hits, 4u);
}

TEST(ProximitySharingTest, OneComputationPerUniqueUserAndGeneration) {
  Built built = BuildSharded(4);
  const std::vector<UserId> users = {3, 17, 42, 99, 120, 3, 17, 42};

  std::set<std::pair<uint64_t, UserId>> unique_keys;
  for (const UserId user : users) {
    ASSERT_TRUE(built.service->Search(RequestFor(user)).ok());
    unique_keys.insert({0, user});
  }
  EXPECT_EQ(built.model->computations(),
            static_cast<int>(unique_keys.size()));

  // A generation bump starts a fresh key space; repeats within it still
  // cost one computation each.
  UserId other = 1;
  const auto view = built.service->proximity_provider()->Acquire();
  while (view.graph->HasEdge(0, other)) ++other;
  ASSERT_TRUE(built.service->AddFriendship(0, other).ok());
  for (const UserId user : users) {
    ASSERT_TRUE(built.service->Search(RequestFor(user)).ok());
    unique_keys.insert({1, user});
  }
  EXPECT_EQ(built.model->computations(),
            static_cast<int>(unique_keys.size()));
  EXPECT_EQ(built.service->proximity_stats().generations_published, 1u);
}

TEST(ProximitySharingTest, ConcurrentBatchStillComputesOncePerUser) {
  Built built = BuildSharded(4);
  // One batch, every request for the SAME user: 4 shards x 8 requests all
  // race for one vector; single-flight must collapse them to 1.
  std::vector<SearchRequest> requests(8, RequestFor(64));
  const auto responses = built.service->SearchBatch(requests);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  EXPECT_EQ(built.model->computations(), 1);
}

}  // namespace
}  // namespace amici
