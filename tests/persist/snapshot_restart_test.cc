// The acceptance property of the snapshot subsystem: a reopened snapshot
// is the SAME engine, bit for bit. Every query — all six strategies,
// both match modes, plain/diverse/geo/pure-social — must return
// IDENTICAL items and IDENTICAL float scores on the restored twin, for
// bare engines and for 1-, 2- and 4-shard services; fresh after a save,
// after WAL-replayed ingest, and after merge compaction + resave.
//
// Why exact equality (not the tie-tolerant comparison of the sharded
// invariance suite) is the right bar: the twin runs the same algorithm
// code over restored state that is byte-identical where it matters —
// posting images are mapped verbatim, buckets/cells/rows copied exactly
// — so even tie-breaks must reproduce.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

constexpr AlgorithmId kAllStrategies[] = {
    AlgorithmId::kExhaustive,  AlgorithmId::kMergeScan,
    AlgorithmId::kContentFirst, AlgorithmId::kSocialFirst,
    AlgorithmId::kHybrid,       AlgorithmId::kNra,
};

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/amici_restart_test_" + name;
  const std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 250;
  config.items_per_user = 4.0;
  config.num_tags = 150;
  config.geo_fraction = 0.4;
  config.seed = seed;
  return config;
}

/// Base query mix: plain blended, geo-filtered, and pure-social-feed
/// queries (the strategy/mode cross product is applied by the callers).
std::vector<SocialQuery> BaseQueries(const DatasetConfig& config) {
  Dataset view = GenerateDataset(config).value();
  QueryWorkloadConfig plain;
  plain.num_queries = 4;
  plain.seed = config.seed * 31 + 1;
  std::vector<SocialQuery> queries = GenerateQueries(view, plain).value();

  QueryWorkloadConfig geo;
  geo.num_queries = 2;
  geo.with_geo_filter = true;
  geo.radius_km = 30.0;
  geo.seed = config.seed * 31 + 2;
  const std::vector<SocialQuery> geo_queries =
      GenerateQueries(view, geo).value();
  for (const SocialQuery& query : geo_queries) {
    queries.push_back(query);
  }

  SocialQuery feed;
  feed.user = 7;
  feed.alpha = 1.0;
  feed.k = 8;
  queries.push_back(feed);
  return queries;
}

void ExpectIdenticalItems(const std::vector<ScoredItem>& want,
                          const std::vector<ScoredItem>& got,
                          const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].item, got[i].item) << label << " rank " << i;
    EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
  }
}

// --- Bare engine ---------------------------------------------------------

void ExpectEngineTwin(SocialSearchEngine* live, SocialSearchEngine* twin,
                      std::span<const SocialQuery> queries,
                      const std::string& phase) {
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const AlgorithmId algorithm : kAllStrategies) {
      for (const MatchMode mode : {MatchMode::kAny, MatchMode::kAll}) {
        SocialQuery query = queries[q];
        query.mode = mode;
        const std::string label =
            phase + " query " + std::to_string(q) + " algo " +
            std::to_string(static_cast<int>(algorithm)) +
            (mode == MatchMode::kAll ? " all" : " any");
        const auto want = live->Query(query, algorithm);
        const auto got = twin->Query(query, algorithm);
        ASSERT_EQ(want.ok(), got.ok())
            << label << ": " << want.status().ToString() << " vs "
            << got.status().ToString();
        if (!want.ok()) continue;
        ExpectIdenticalItems(want.value().items, got.value().items, label);
      }
    }
    // Owner-diversified variant under the default strategy.
    const auto want = live->QueryDiverse(queries[q], 2, AlgorithmId::kHybrid);
    const auto got = twin->QueryDiverse(queries[q], 2, AlgorithmId::kHybrid);
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      ExpectIdenticalItems(want.value().items, got.value().items,
                           phase + " diverse query " + std::to_string(q));
    }
  }
}

TEST(SnapshotRestartTest, EngineTwinMatchesAcrossStrategiesAndModes) {
  const DatasetConfig config = TestConfig(5);
  Dataset dataset = GenerateDataset(config).value();
  auto live = SocialSearchEngine::Build(std::move(dataset.graph),
                                        std::move(dataset.store),
                                        SocialSearchEngine::Options());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const std::vector<SocialQuery> queries = BaseQueries(config);

  const std::string dir = TempDir("engine");
  const auto report = live.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().incremental);
  EXPECT_GT(report.value().segments_written, 0u);

  auto twin = SocialSearchEngine::OpenSnapshot(
      dir, SocialSearchEngine::Options());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->store().num_items(),
            live.value()->store().num_items());
  ExpectEngineTwin(live.value().get(), twin.value().get(), queries, "fresh");

  // Ingest into BOTH, compact only the twin: queries must still agree
  // (compaction invariance composed with restore equivalence).
  Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    Item item;
    item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
    item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
    item.quality = static_cast<float>(rng.UniformDouble());
    const auto live_id = live.value()->AddItem(item);
    const auto twin_id = twin.value()->AddItem(item);
    ASSERT_TRUE(live_id.ok() && twin_id.ok());
    EXPECT_EQ(live_id.value(), twin_id.value());
  }
  ASSERT_TRUE(twin.value()->Compact().ok());
  ExpectEngineTwin(live.value().get(), twin.value().get(), queries,
                   "post-ingest");
}

TEST(SnapshotRestartTest, EngineRejectsServiceRootDirectory) {
  const DatasetConfig config = TestConfig(6);
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 1;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("engine_vs_service");
  ASSERT_TRUE(service.value()->SaveSnapshot(dir).ok());
  const auto engine = SocialSearchEngine::OpenSnapshot(
      dir, SocialSearchEngine::Options());
  EXPECT_FALSE(engine.ok());
}

// --- Services ------------------------------------------------------------

std::unique_ptr<SearchService> BuildService(const DatasetConfig& config,
                                            size_t num_shards) {
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

std::unique_ptr<SearchService> OpenService(const std::string& dir) {
  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  EXPECT_TRUE(twin.ok()) << twin.status().ToString();
  return twin.ok() ? std::move(twin).value() : nullptr;
}

/// The full request cross product: every base query under every strategy
/// hint and both match modes, plus diverse variants.
std::vector<SearchRequest> BuildRequests(const DatasetConfig& config) {
  std::vector<SearchRequest> requests;
  for (const SocialQuery& base : BaseQueries(config)) {
    for (const MatchMode mode : {MatchMode::kAny, MatchMode::kAll}) {
      for (const AlgorithmId algorithm : kAllStrategies) {
        SearchRequest request;
        request.query = base;
        request.query.mode = mode;
        request.algorithm = algorithm;
        requests.push_back(request);
      }
    }
    SearchRequest diverse;
    diverse.query = base;
    diverse.max_per_owner = 2;
    requests.push_back(diverse);
  }
  return requests;
}

void ExpectServiceTwin(SearchService* live, SearchService* twin,
                       std::span<const SearchRequest> requests,
                       const std::string& phase) {
  ASSERT_EQ(live->num_items(), twin->num_items()) << phase;
  ASSERT_EQ(live->num_users(), twin->num_users()) << phase;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string label = phase + " request " + std::to_string(i);
    const auto want = live->Search(requests[i]);
    const auto got = twin->Search(requests[i]);
    ASSERT_EQ(want.ok(), got.ok())
        << label << ": " << want.status().ToString() << " vs "
        << got.status().ToString();
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << label;
      continue;
    }
    ExpectIdenticalItems(want.value().items, got.value().items, label);
  }
}

TEST(SnapshotRestartTest, ServiceTwinsAcrossShardCounts) {
  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(num_shards));
    const DatasetConfig config = TestConfig(17 + num_shards);
    auto live = BuildService(config, num_shards);
    const std::vector<SearchRequest> requests = BuildRequests(config);
    const std::string dir =
        TempDir("service_" + std::to_string(num_shards));

    // Phase 1: freshly saved snapshot, empty WAL.
    const auto report = live->SaveSnapshot(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    {
      auto twin = OpenService(dir);
      ASSERT_NE(twin, nullptr);
      EXPECT_EQ(twin->num_shards(), num_shards);
      ExpectServiceTwin(live.get(), twin.get(), requests, "fresh");
    }

    // Phase 2: mutate the LIVE service only. The mutations land in the
    // attached WAL, so a twin opened from the same directory must catch
    // up purely by replaying the tail.
    Rng rng(config.seed * 3 + 1);
    std::vector<Item> batch;
    for (int i = 0; i < 30; ++i) {
      Item item;
      item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
      item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
      if (rng.Bernoulli(0.3)) {
        item.tags.push_back(
            static_cast<TagId>(rng.UniformIndex(config.num_tags)));
      }
      item.quality = static_cast<float>(rng.UniformDouble());
      if (rng.Bernoulli(0.4)) {
        item.has_geo = true;
        item.latitude = static_cast<float>(rng.UniformDouble() - 0.5);
        item.longitude = static_cast<float>(rng.UniformDouble() - 0.5);
      }
      batch.push_back(item);
    }
    ASSERT_TRUE(
        live->AddItems(std::span<const Item>(batch.data(), 15)).ok());
    for (size_t i = 15; i < batch.size(); ++i) {
      ASSERT_TRUE(live->AddItem(batch[i]).ok());
    }
    for (int flip = 0; flip < 4; ++flip) {
      const UserId u =
          static_cast<UserId>(rng.UniformIndex(config.num_users));
      const UserId v =
          static_cast<UserId>(rng.UniformIndex(config.num_users));
      if (u == v) continue;
      (void)live->AddFriendship(u, v);
    }
    {
      persist::WalReplayStats stats;
      auto opened = ShardedSearchService::OpenSnapshot(
          dir, ShardedSearchService::Options(),
          persist::SnapshotOpenOptions(), &stats);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const auto twin = std::move(opened).value();
      EXPECT_GT(stats.records_applied, 0u) << "tail was not replayed";
      ExpectServiceTwin(live.get(), twin.get(), requests, "wal-replay");
    }

    // Phase 3: fold the tail into the indexes (merge compaction), save
    // again — the second generation — and reopen.
    ASSERT_TRUE(live->Compact().ok());
    EXPECT_EQ(live->unindexed_items(), 0u);
    const auto second = live->SaveSnapshot(dir);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_GT(second.value().generation, report.value().generation);
    {
      auto twin = OpenService(dir);
      ASSERT_NE(twin, nullptr);
      EXPECT_EQ(twin->unindexed_items(), 0u);
      ExpectServiceTwin(live.get(), twin.get(), requests, "post-compact");
    }
  }
}

TEST(SnapshotRestartTest, ShardCountComesFromTheManifest) {
  const DatasetConfig config = TestConfig(23);
  auto sharded = BuildService(config, 2);
  const std::string dir = TempDir("mismatch");
  ASSERT_TRUE(sharded->SaveSnapshot(dir).ok());

  // The opener takes its shard count from the root manifest, whatever
  // options.num_shards says.
  ShardedSearchService::Options one_shard;
  one_shard.num_shards = 1;
  auto twin = ShardedSearchService::OpenSnapshot(dir, one_shard);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->num_shards(), 2u);

  // The layout is uniform, so a 1-shard root reopens the same way.
  auto single = BuildService(config, 1);
  const std::string single_dir = TempDir("mismatch_single");
  ASSERT_TRUE(single->SaveSnapshot(single_dir).ok());
  auto one = ShardedSearchService::OpenSnapshot(
      single_dir, ShardedSearchService::Options());
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value()->num_shards(), 1u);
  EXPECT_EQ(one.value()->num_items(), single->num_items());
}

TEST(SnapshotRestartTest, ReopenedServiceKeepsLoggingAndReopens) {
  // save -> reopen -> mutate the TWIN -> reopen again: the reopened
  // service's attached WAL must capture the second round of mutations.
  const DatasetConfig config = TestConfig(31);
  auto live = BuildService(config, 2);
  const std::string dir = TempDir("relog");
  ASSERT_TRUE(live->SaveSnapshot(dir).ok());

  auto first = OpenService(dir);
  ASSERT_NE(first, nullptr);
  Item item;
  item.owner = 3;
  item.tags = {TagId{1}, TagId{4}};
  item.quality = 0.75f;
  const auto id = first->AddItem(item);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(first->AddFriendship(2, 9).ok());

  auto second = OpenService(dir);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->num_items(), first->num_items());
  EXPECT_EQ(second->OwnerOf(id.value()), 3u);
  const auto friends = second->FriendsOf(2);
  EXPECT_TRUE(std::find(friends.begin(), friends.end(), UserId{9}) !=
              friends.end());
}

}  // namespace
}  // namespace amici
