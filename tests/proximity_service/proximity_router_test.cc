// ProximityServiceRouter: the partitioned service must be observationally
// identical to a 1-partition router (the single shared provider every
// engine builds by default) — same published graphs, same
// generations, same validation verdicts, bit-identical proximity vectors —
// while actually routing queries and edits to per-user partitions and
// keeping its cross-partition traffic on the explicit boundary.

#include "proximity_service/proximity_router.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "proximity/hop_decay.h"
#include "util/rng.h"

namespace amici {
namespace {

SocialGraph TestGraph(size_t num_users = 80, uint64_t seed = 7) {
  Rng rng(seed);
  return GenerateErdosRenyi(num_users, 5.0, &rng);
}

ProximityServiceRouter::Options RouterOptions(size_t partitions) {
  ProximityServiceRouter::Options options;
  options.num_partitions = partitions;
  options.model = std::make_shared<HopDecayProximity>();
  options.cache_capacity = 64;
  options.warm_top_n = 0;  // exact computation counts
  return options;
}

void ExpectSameVector(const std::shared_ptr<const ProximityVector>& got,
                      const std::shared_ptr<const ProximityVector>& want) {
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  const auto& g = got->ranked();
  const auto& w = want->ranked();
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(g[i].user, w[i].user) << "entry " << i;
    ASSERT_EQ(g[i].score, w[i].score) << "entry " << i;
  }
}

class ProximityRouterTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ProximityRouterTest, MirrorsSingleProviderThroughChurn) {
  ProximityServiceRouter reference(TestGraph(), RouterOptions(1));
  ProximityServiceRouter router(TestGraph(), RouterOptions(GetParam()));

  Rng rng(99);
  const size_t kUsers = 80;
  for (int step = 0; step < 60; ++step) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(kUsers));
    UserId v = static_cast<UserId>(rng.UniformIndex(kUsers));
    if (u == v) v = (v + 1) % kUsers;
    const bool adding = !reference.Acquire().graph->HasEdge(u, v);
    const Status ref_status = adding ? reference.AddFriendship(u, v)
                                     : reference.RemoveFriendship(u, v);
    const Status router_status =
        adding ? router.AddFriendship(u, v) : router.RemoveFriendship(u, v);
    ASSERT_EQ(ref_status.code(), router_status.code()) << "step " << step;

    const auto ref_view = reference.Acquire();
    const auto router_view = router.Acquire();
    ASSERT_EQ(ref_view.generation, router_view.generation);
    ASSERT_EQ(ref_view.graph->num_edges(), router_view.graph->num_edges());

    // Probe a few users: adjacency and proximity must agree exactly.
    for (int probe = 0; probe < 3; ++probe) {
      const UserId user = static_cast<UserId>(rng.UniformIndex(kUsers));
      const auto ref_friends = ref_view.graph->Friends(user);
      const auto router_friends = router_view.graph->Friends(user);
      ASSERT_EQ(ref_friends.size(), router_friends.size());
      ASSERT_TRUE(std::equal(ref_friends.begin(), ref_friends.end(),
                             router_friends.begin()));
      ExpectSameVector(
          router.GetProximity(*router_view.graph, user,
                              router_view.generation),
          reference.GetProximity(*ref_view.graph, user, ref_view.generation));
    }
  }
}

TEST_P(ProximityRouterTest, FoldsMidChurnAreInvisible) {
  ProximityServiceRouter::Options single_options = RouterOptions(1);
  single_options.cache_capacity = 4096;
  ProximityServiceRouter reference(TestGraph(60, 3), single_options);

  auto options = RouterOptions(GetParam());
  // Aggressive policy: fold after a handful of patched rows.
  AdaptiveOverlayFoldPolicy::Options fold;
  fold.max_patch_rows = 4;
  options.fold_policy = std::make_shared<AdaptiveOverlayFoldPolicy>(fold);
  ProximityServiceRouter router(TestGraph(60, 3), options);

  Rng rng(5);
  for (int step = 0; step < 40; ++step) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(60));
    UserId v = static_cast<UserId>(rng.UniformIndex(60));
    if (u == v) v = (v + 1) % 60;
    const bool adding = !reference.Acquire().graph->HasEdge(u, v);
    ASSERT_EQ((adding ? reference.AddFriendship(u, v)
                      : reference.RemoveFriendship(u, v))
                  .code(),
              (adding ? router.AddFriendship(u, v)
                      : router.RemoveFriendship(u, v))
                  .code());
    if (step % 7 == 0) router.FoldOverlay();  // explicit fold on top

    const auto ref_view = reference.Acquire();
    const auto router_view = router.Acquire();
    // Folds change representation, NOT the published generation.
    ASSERT_EQ(ref_view.generation, router_view.generation);
    const UserId probe = static_cast<UserId>(rng.UniformIndex(60));
    ExpectSameVector(
        router.GetProximity(*router_view.graph, probe, router_view.generation),
        reference.GetProximity(*ref_view.graph, probe, ref_view.generation));
  }
  EXPECT_GT(router.stats().overlay_folds, 0u);
  // A final quiescent fold leaves no patch behind.
  router.FoldOverlay();
  EXPECT_EQ(router.stats().overlay_rows, 0u);
  EXPECT_FALSE(router.Acquire().graph->has_overlay());
}

TEST_P(ProximityRouterTest, ValidationMatchesSingleProviderRules) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ProximityServiceRouter router(builder.Build(), RouterOptions(GetParam()));

  EXPECT_EQ(router.AddFriendship(0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.AddFriendship(0, 9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.AddFriendship(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(router.AddFriendship(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(router.RemoveFriendship(0, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(router.RemoveFriendship(2, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Acquire().generation, 0u);
  EXPECT_EQ(router.stats().generations_published, 0u);
}

TEST_P(ProximityRouterTest, QueriesLandOnTheOwningPartition) {
  ProximityServiceRouter router(TestGraph(), RouterOptions(GetParam()));
  const auto view = router.Acquire();

  const UserId user = 17;
  const uint32_t owner = router.PartitionOf(user);
  (void)router.GetProximity(*view.graph, user, view.generation);
  (void)router.GetProximity(*view.graph, user, view.generation);

  const auto stats = router.partition_stats();
  ASSERT_EQ(stats.size(), std::max<size_t>(GetParam(), 1));
  for (const auto& p : stats) {
    if (p.partition == owner) {
      EXPECT_EQ(p.computations, 1u);
      EXPECT_EQ(p.cache_hits, 1u);
    } else {
      EXPECT_EQ(p.computations, 0u);
      EXPECT_EQ(p.cache_hits, 0u);
    }
  }
}

TEST(ProximityRouterTest, CrossPartitionEditsCrossTheBoundary) {
  // With 2 partitions and enough random edits, some edge must span
  // partitions; each such edit's remote half is boundary traffic.
  ProximityServiceRouter router(TestGraph(), RouterOptions(2));
  UserId remote = 1;
  while (remote < 80 && router.PartitionOf(remote) == router.PartitionOf(0)) {
    ++remote;
  }
  ASSERT_LT(remote, 80u) << "hash put all 80 users in one partition?";
  UserId local = remote + 1;
  while (local < 80 && router.PartitionOf(local) != router.PartitionOf(0)) {
    ++local;
  }
  ASSERT_LT(local, 80u);

  const auto before = router.stats();
  const auto graph = router.Acquire().graph;

  // A same-partition edit crosses nothing...
  const bool same_adding = !graph->HasEdge(0, local);
  ASSERT_TRUE((same_adding ? router.AddFriendship(0, local)
                           : router.RemoveFriendship(0, local))
                  .ok());
  EXPECT_EQ(router.stats().boundary_crossings, before.boundary_crossings);

  // ... a cross-partition edit crosses exactly once (the remote half).
  const bool cross_adding = !graph->HasEdge(0, remote);
  ASSERT_TRUE((cross_adding ? router.AddFriendship(0, remote)
                            : router.RemoveFriendship(0, remote))
                  .ok());
  EXPECT_EQ(router.stats().boundary_crossings,
            before.boundary_crossings + 1);

  // Frontier sanity: partitions report remote endpoints their residents
  // link to; with cross edges present, some frontier must exist.
  EXPECT_GT(router.stats().frontier_users, 0u);
  uint64_t total_out = 0;
  uint64_t total_in = 0;
  for (const auto& p : router.partition_stats()) {
    total_out += p.boundary_out;
    total_in += p.boundary_in;
  }
  EXPECT_EQ(total_out, total_in);
  EXPECT_EQ(total_out, router.stats().boundary_crossings);
}

TEST(ProximityRouterTest, SinglePartitionRouterReportsNoBoundary) {
  ProximityServiceRouter router(TestGraph(), RouterOptions(1));
  ASSERT_TRUE(router.AddFriendship(0, 1).ok() ||
              router.RemoveFriendship(0, 1).ok());
  const auto stats = router.stats();
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.boundary_crossings, 0u);
  EXPECT_EQ(stats.frontier_users, 0u);
}

TEST_P(ProximityRouterTest, WarmupRecomputesHotUsersPerPartition) {
  auto options = RouterOptions(GetParam());
  options.warm_top_n = 2;
  ProximityServiceRouter router(TestGraph(), options);
  const auto view = router.Acquire();
  for (const UserId user : {UserId{1}, UserId{2}, UserId{3}, UserId{4}}) {
    (void)router.GetProximity(*view.graph, user, view.generation);
  }

  UserId other = 1;
  while (view.graph->HasEdge(0, other)) ++other;
  ASSERT_TRUE(router.AddFriendship(0, other).ok());
  router.WaitForWarmup();

  const auto fresh = router.Acquire();
  ASSERT_EQ(fresh.generation, 1u);
  EXPECT_GT(router.stats().warmed, 0u);
  // Warmed users hit the cache on the new generation without recomputing.
  const auto stats_before = router.stats();
  bool found_warm_hit = false;
  for (const UserId user : {UserId{1}, UserId{2}, UserId{3}, UserId{4}}) {
    ProximityOutcome outcome;
    (void)router.GetProximity(*fresh.graph, user, fresh.generation, &outcome);
    found_warm_hit |= outcome == ProximityOutcome::kCacheHit;
  }
  EXPECT_TRUE(found_warm_hit);
  (void)stats_before;
}

TEST(ProximityRouterTest, OnePartitionRouterEditsAndFolds) {
  // The single-node provider is the 1-partition router: it exposes the
  // service counters through the same stats surface, and its edits patch
  // and fold like any partition's.
  ProximityServiceRouter::Options options = RouterOptions(1);
  options.cache_capacity = 4096;
  ProximityServiceRouter provider(TestGraph(), options);
  EXPECT_EQ(provider.num_partitions(), 1u);
  EXPECT_EQ(provider.stats().partitions, 1u);
  ASSERT_TRUE(provider.AddFriendship(0, 79).ok() ||
              provider.RemoveFriendship(0, 79).ok());
  EXPECT_GT(provider.stats().overlay_rows, 0u);
  EXPECT_EQ(provider.FoldOverlay() > 0, true);
  EXPECT_EQ(provider.stats().overlay_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Partitions, ProximityRouterTest,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace amici
