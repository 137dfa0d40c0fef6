// The graph segment's overlay tail: a snapshot taken while the proximity
// service holds UNFOLDED delta-overlay rows must (a) restore to the same
// adjacency, (b) keep legacy pure-CSR images byte-identical, and (c)
// carry the patch through a service save → reopen round trip without
// forcing a fold.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "persist/snapshot.h"
#include "proximity_service/delta_overlay_graph.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

void ExpectSameAdjacency(const SocialGraph& got, const SocialGraph& want) {
  ASSERT_EQ(got.num_users(), want.num_users());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (UserId u = 0; u < want.num_users(); ++u) {
    const auto g = got.Friends(u);
    const auto w = want.Friends(u);
    ASSERT_EQ(g.size(), w.size()) << "user " << u;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i], w[i]) << "user " << u << " slot " << i;
    }
  }
}

SocialGraph OverlaidGraph(size_t num_users, int edits, uint64_t seed) {
  Rng rng(seed);
  SocialGraph base = GenerateErdosRenyi(num_users, 4.0, &rng);
  DeltaOverlayGraph delta(base, 2);
  for (int i = 0; i < edits; ++i) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(num_users));
    UserId v = static_cast<UserId>(rng.UniformIndex(num_users));
    if (u == v) v = (v + 1) % num_users;
    const bool insert = !delta.Compose().HasEdge(u, v);
    delta.ApplyHalf(u, v, insert);
    delta.ApplyHalf(v, u, insert);
  }
  return delta.Compose();
}

TEST(GraphOverlayPersistTest, CodecRoundTripsOverlayUnfolded) {
  const SocialGraph graph = OverlaidGraph(60, 25, 17);
  ASSERT_TRUE(graph.has_overlay());
  ASSERT_GT(graph.overlay()->num_rows(), 0u);

  const std::string payload = persist::BuildGraphSegmentPayload(graph);
  const auto restored = persist::ParseGraphSegmentPayload(payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // The patch arrives as a patch (not silently flattened) and the
  // composed adjacency is identical.
  EXPECT_TRUE(restored.value().has_overlay());
  EXPECT_EQ(restored.value().overlay()->num_rows(),
            graph.overlay()->num_rows());
  ExpectSameAdjacency(restored.value(), graph);
}

TEST(GraphOverlayPersistTest, PatchFreeImageIsByteIdenticalToLegacy) {
  const SocialGraph graph = OverlaidGraph(60, 25, 29);
  const SocialGraph flat = graph.Flatten();
  ASSERT_FALSE(flat.has_overlay());

  // A patch-free graph writes the legacy pure-CSR image — the flattened
  // twin and a from-scratch CSR of the same adjacency agree byte for
  // byte, and an overlaid graph's payload differs only by the tail.
  const std::string flat_payload = persist::BuildGraphSegmentPayload(flat);
  const std::string overlaid_payload =
      persist::BuildGraphSegmentPayload(graph);
  EXPECT_GT(overlaid_payload.size(), flat_payload.size());

  const auto legacy = persist::ParseGraphSegmentPayload(flat_payload);
  ASSERT_TRUE(legacy.ok());
  EXPECT_FALSE(legacy.value().has_overlay());
  ExpectSameAdjacency(legacy.value(), graph);
}

TEST(GraphOverlayPersistTest, CorruptTailIsRejected) {
  const SocialGraph graph = OverlaidGraph(40, 12, 41);
  ASSERT_TRUE(graph.has_overlay());
  std::string payload = persist::BuildGraphSegmentPayload(graph);

  // Truncating mid-tail or appending trailing junk must fail parsing,
  // not silently produce a graph.
  EXPECT_FALSE(
      persist::ParseGraphSegmentPayload(
          std::string_view(payload.data(), payload.size() - 3))
          .ok());
  std::string padded = payload + std::string(4, '\0');
  EXPECT_FALSE(persist::ParseGraphSegmentPayload(padded).ok());
}

TEST(GraphOverlayPersistTest, ServiceSnapshotCarriesUnfoldedOverlay) {
  DatasetConfig config = SmallDataset();
  config.num_users = 120;
  config.items_per_user = 3.0;
  config.seed = 77;
  Dataset dataset = GenerateDataset(config).value();

  ShardedSearchService::Options options;
  options.num_shards = 1;
  auto live = ShardedSearchService::Build(std::move(dataset.graph),
                                          std::move(dataset.store),
                                          std::move(options));
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Churn friendships so the provider holds an unfolded patch (the
  // default fold policy won't fire at this scale), then snapshot.
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const UserId u = static_cast<UserId>(rng.UniformIndex(config.num_users));
    UserId v = static_cast<UserId>(rng.UniformIndex(config.num_users));
    if (u == v) v = (v + 1) % config.num_users;
    const bool adding = !live.value()->proximity_provider()
                             ->Acquire()
                             .graph->HasEdge(u, v);
    ASSERT_TRUE((adding ? live.value()->AddFriendship(u, v)
                        : live.value()->RemoveFriendship(u, v))
                    .ok());
  }
  ASSERT_GT(live.value()->proximity_stats().overlay_rows, 0u);

  const std::string dir = "/tmp/amici_graph_overlay_persist_test";
  (void)std::system(("rm -rf " + dir).c_str());
  ASSERT_TRUE(live.value()->SaveSnapshot(dir).ok());

  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();

  // The patch survived the round trip unfolded...
  EXPECT_GT(twin.value()->proximity_stats().overlay_rows, 0u);
  // ... and the restored adjacency + queries match the live service.
  for (UserId user = 0; user < 20; ++user) {
    EXPECT_EQ(live.value()->FriendsOf(user), twin.value()->FriendsOf(user))
        << "user " << user;
  }
  for (int i = 0; i < 4; ++i) {
    SearchRequest feed;
    feed.query.user = static_cast<UserId>(rng.UniformIndex(config.num_users));
    feed.query.alpha = 1.0;
    feed.query.k = 8;
    const auto want = live.value()->Search(feed);
    const auto got = twin.value()->Search(feed);
    ASSERT_EQ(want.ok(), got.ok());
    if (!want.ok()) continue;
    ASSERT_EQ(want.value().items.size(), got.value().items.size());
    for (size_t r = 0; r < want.value().items.size(); ++r) {
      EXPECT_EQ(want.value().items[r].item, got.value().items[r].item);
      EXPECT_EQ(want.value().items[r].score, got.value().items[r].score);
    }
  }

  // A fold on the reopened twin is still just a representation change.
  EXPECT_GT(twin.value()->proximity_provider()->FoldOverlay(), 0u);
  EXPECT_EQ(twin.value()->proximity_stats().overlay_rows, 0u);
  for (UserId user = 0; user < 20; ++user) {
    EXPECT_EQ(live.value()->FriendsOf(user), twin.value()->FriendsOf(user));
  }
}

}  // namespace
}  // namespace amici
