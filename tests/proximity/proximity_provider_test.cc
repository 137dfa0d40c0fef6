// The single-node proximity provider — a 1-partition
// ProximityServiceRouter, what SocialSearchEngine::MakeProximityProvider
// builds by default: the one graph + proximity surface behind every
// engine. Covers the RCU-style generation publishes, edge-edit
// validation, single-flight computation de-duplication (the property the
// sharded fan-out relies on: 1 computation per (user, generation), not
// N), and the background warm-over after a generation bump.

#include "proximity_service/proximity_router.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "proximity/hop_decay.h"
#include "util/rng.h"

namespace amici {
namespace {

/// Counts Compute calls; optionally stalls them so a test can force the
/// single-flight race window open.
class CountingModel : public ProximityModel {
 public:
  CountingModel() = default;
  std::string_view name() const override { return "counting"; }
  ProximityVector Compute(const SocialGraph& graph,
                          UserId source) const override {
    computations_.fetch_add(1);
    while (stalled_.load()) {
      std::this_thread::yield();
    }
    return inner_.Compute(graph, source);
  }
  int computations() const { return computations_.load(); }
  void set_stalled(bool stalled) { stalled_.store(stalled); }

 private:
  HopDecayProximity inner_;
  mutable std::atomic<int> computations_{0};
  mutable std::atomic<bool> stalled_{false};
};

ProximityServiceRouter::Options TestOptions(
    std::shared_ptr<const ProximityModel> model, size_t warm_top_n = 0) {
  ProximityServiceRouter::Options options;
  options.num_partitions = 1;
  options.model = std::move(model);
  options.cache_capacity = 64;
  options.warm_top_n = warm_top_n;
  return options;
}

SocialGraph TestGraph(size_t num_users = 100) {
  Rng rng(7);
  return GenerateErdosRenyi(num_users, 5.0, &rng);
}

TEST(ProximityProviderTest, CachesPerUserAndGeneration) {
  auto model = std::make_shared<CountingModel>();
  ProximityServiceRouter provider(TestGraph(), TestOptions(model));

  const auto view = provider.Acquire();
  EXPECT_EQ(view.generation, 0u);

  ProximityOutcome outcome;
  const auto first =
      provider.GetProximity(*view.graph, 3, view.generation, &outcome);
  EXPECT_EQ(outcome, ProximityOutcome::kComputed);
  const auto second =
      provider.GetProximity(*view.graph, 3, view.generation, &outcome);
  EXPECT_EQ(outcome, ProximityOutcome::kCacheHit);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(model->computations(), 1);

  const ProximityProviderStats stats = provider.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.generations_published, 0u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(ProximityProviderTest, EditsPublishNewGenerationsRcuStyle) {
  auto model = std::make_shared<CountingModel>();
  ProximityServiceRouter provider(TestGraph(4), TestOptions(model));
  // A 4-user graph from the generator may have arbitrary edges; work with
  // an explicit pair instead.
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ProximityServiceRouter explicit_provider(builder.Build(),
                                           TestOptions(model));

  const auto before = explicit_provider.Acquire();
  ASSERT_TRUE(explicit_provider.AddFriendship(1, 2).ok());
  const auto after = explicit_provider.Acquire();

  // The old view is pinned and untouched; the new one has the edge.
  EXPECT_FALSE(before.graph->HasEdge(1, 2));
  EXPECT_TRUE(after.graph->HasEdge(1, 2));
  EXPECT_EQ(before.generation, 0u);
  EXPECT_EQ(after.generation, 1u);
  EXPECT_EQ(explicit_provider.stats().generations_published, 1u);

  ASSERT_TRUE(explicit_provider.RemoveFriendship(1, 2).ok());
  EXPECT_EQ(explicit_provider.Acquire().generation, 2u);
  EXPECT_FALSE(explicit_provider.Acquire().graph->HasEdge(1, 2));
}

TEST(ProximityProviderTest, ValidatesEditsWithoutRebuilding) {
  auto model = std::make_shared<CountingModel>();
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ProximityServiceRouter provider(builder.Build(), TestOptions(model));

  EXPECT_EQ(provider.AddFriendship(0, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider.AddFriendship(0, 9).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(provider.AddFriendship(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(provider.AddFriendship(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(provider.RemoveFriendship(0, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(provider.RemoveFriendship(2, 2).code(),
            StatusCode::kInvalidArgument);
  // None of the rejected edits published anything.
  EXPECT_EQ(provider.Acquire().generation, 0u);
  EXPECT_EQ(provider.stats().generations_published, 0u);
}

TEST(ProximityProviderTest, SingleFlightSharesOneComputation) {
  auto model = std::make_shared<CountingModel>();
  ProximityServiceRouter provider(TestGraph(), TestOptions(model));
  const auto view = provider.Acquire();

  // Stall the model so every thread reaches the miss path before the
  // leader can publish, maximizing the chance of a genuine race.
  model->set_stalled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> started{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      (void)provider.GetProximity(*view.graph, 42, view.generation);
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  model->set_stalled(false);
  for (auto& thread : threads) thread.join();

  // The defining property: ONE computation, everyone else either hit the
  // cache or joined the in-flight computation.
  EXPECT_EQ(model->computations(), 1);
  const ProximityProviderStats stats = provider.stats();
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.cache_hits + stats.inflight_joins,
            static_cast<uint64_t>(kThreads - 1));
}

TEST(ProximityProviderTest, WarmOverRecomputesHotUsersInBackground) {
  auto model = std::make_shared<CountingModel>();
  ProximityServiceRouter provider(TestGraph(),
                                  TestOptions(model, /*warm_top_n=*/4));
  const auto view = provider.Acquire();

  // Make users 1..3 hot (3 hottest = the warm candidates), user 9 cold
  // enough to matter less (still within top 4 here).
  for (const UserId user : {UserId{1}, UserId{2}, UserId{3}, UserId{9}}) {
    (void)provider.GetProximity(*view.graph, user, view.generation);
  }
  const int cold_computations = model->computations();
  EXPECT_EQ(cold_computations, 4);

  // Bump the generation via an edge that is definitely absent.
  UserId other = 1;
  while (view.graph->HasEdge(0, other)) ++other;
  ASSERT_TRUE(provider.AddFriendship(0, other).ok());
  provider.WaitForWarmup();

  // The warm-over recomputed the hot users against the NEW generation...
  const ProximityProviderStats stats = provider.stats();
  EXPECT_EQ(stats.warmed, 4u);
  EXPECT_EQ(model->computations(), cold_computations + 4);

  // ... so their next query on that generation is a pure cache hit.
  const auto fresh = provider.Acquire();
  ASSERT_EQ(fresh.generation, 1u);
  ProximityOutcome outcome;
  (void)provider.GetProximity(*fresh.graph, 2, fresh.generation, &outcome);
  EXPECT_EQ(outcome, ProximityOutcome::kCacheHit);
  EXPECT_EQ(model->computations(), cold_computations + 4);
}

}  // namespace
}  // namespace amici
