// Incremental saves: a resave after compaction must emit ONLY the lists
// the tail actually touched (the compaction horizon delta is the dirty
// set — no dirty-bit bookkeeping anywhere), supersede them via segment
// generations, retire dead files after commit, and still reopen to a
// bit-identical service. A save goes incremental only against the
// snapshot the saving service itself committed or opened — never against
// another corpus that happens to have the same shape.

#include <dirent.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/amici_incremental_test_" + name;
  const std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 200;
  config.items_per_user = 5.0;
  config.num_tags = 120;
  config.geo_fraction = 0.3;
  config.seed = seed;
  return config;
}

std::set<std::string> ListDir(const std::string& dir) {
  std::set<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return names;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.insert(name);
  }
  ::closedir(handle);
  return names;
}

std::unique_ptr<ShardedSearchService> BuildService(
    const DatasetConfig& config, size_t num_shards = 1) {
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = num_shards;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(service).value() : nullptr;
}

/// Reopens `dir` and checks that every item reads back with `live`'s
/// owner and tags, and that a query sample under four strategies returns
/// identical items and scores.
void ExpectTwinEqual(ShardedSearchService* live, const std::string& dir,
                     const DatasetConfig& config, const std::string& label) {
  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_TRUE(twin.ok()) << label << ": " << twin.status().ToString();
  ASSERT_EQ(twin.value()->num_items(), live->num_items()) << label;

  size_t wrong_rows = 0;
  for (ItemId item = 0; item < static_cast<ItemId>(live->num_items());
       ++item) {
    if (twin.value()->OwnerOf(item) != live->OwnerOf(item) ||
        twin.value()->TagsOf(item) != live->TagsOf(item)) {
      ++wrong_rows;
    }
  }
  EXPECT_EQ(wrong_rows, 0u) << label << ": items with another owner/tags";

  Dataset view = GenerateDataset(config).value();
  QueryWorkloadConfig workload;
  workload.num_queries = 6;
  workload.seed = config.seed * 17 + 3;
  const std::vector<SocialQuery> queries =
      GenerateQueries(view, workload).value();
  for (const SocialQuery& query : queries) {
    for (const AlgorithmId algorithm :
         {AlgorithmId::kExhaustive, AlgorithmId::kMergeScan,
          AlgorithmId::kHybrid, AlgorithmId::kNra}) {
      SearchRequest request;
      request.query = query;
      request.algorithm = algorithm;
      const auto want = live->Search(request);
      const auto got = twin.value()->Search(request);
      ASSERT_EQ(want.ok(), got.ok()) << label;
      if (!want.ok()) continue;
      ASSERT_EQ(want.value().items.size(), got.value().items.size())
          << label;
      for (size_t i = 0; i < want.value().items.size(); ++i) {
        EXPECT_EQ(want.value().items[i].item, got.value().items[i].item)
            << label << " rank " << i;
        EXPECT_EQ(want.value().items[i].score, got.value().items[i].score)
            << label << " rank " << i;
      }
    }
  }
}

/// A small tail confined to TWO tags and THREE owners; after compaction
/// folds it in, the dirty set is exactly those keys.
void IngestNarrowTail(ShardedSearchService* service) {
  Rng rng(1);
  for (int i = 0; i < 12; ++i) {
    Item item;
    item.owner = static_cast<UserId>(3 + (i % 3));
    item.tags = {static_cast<TagId>(5 + (i % 2))};
    item.quality = static_cast<float>(rng.UniformDouble());
    ASSERT_TRUE(service->AddItem(item).ok());
  }
  ASSERT_TRUE(service->Compact().ok());
}

TEST(IncrementalSnapshotTest, ResaveEmitsOnlyTouchedLists) {
  const DatasetConfig config = TestConfig(41);
  auto service = BuildService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("touched");

  const auto full = service->SaveSnapshot(dir);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full.value().incremental);
  const uint64_t full_lists = full.value().lists_written;
  ASSERT_GT(full_lists, 10u);

  IngestNarrowTail(service.get());

  const auto incremental = service->SaveSnapshot(dir);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_TRUE(incremental.value().incremental);
  EXPECT_EQ(incremental.value().generation, full.value().generation + 1);
  // 2 posting lists + 3 social buckets — far below a full rewrite. Leave
  // slack for grid cells touched by chance, but the bound must prove the
  // save did not degenerate to full.
  EXPECT_LE(incremental.value().lists_written, 8u);
  EXPECT_LT(incremental.value().bytes_written, full.value().bytes_written);

  ExpectTwinEqual(service.get(), dir, config, "incremental");
}

TEST(IncrementalSnapshotTest, ReopenedServiceResavesIncrementally) {
  // The snapshot a service was opened from is its own base: the first
  // save after a restart must stay incremental.
  const DatasetConfig config = TestConfig(41);
  const std::string dir = TempDir("reopened");
  uint64_t full_bytes = 0;
  {
    auto service = BuildService(config);
    ASSERT_NE(service, nullptr);
    const auto full = service->SaveSnapshot(dir);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    full_bytes = full.value().bytes_written;
  }
  auto reopened = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  IngestNarrowTail(reopened.value().get());

  const auto resave = reopened.value()->SaveSnapshot(dir);
  ASSERT_TRUE(resave.ok()) << resave.status().ToString();
  EXPECT_TRUE(resave.value().incremental);
  EXPECT_LE(resave.value().lists_written, 8u);
  EXPECT_LT(resave.value().bytes_written, full_bytes);

  ExpectTwinEqual(reopened.value().get(), dir, config, "reopened");
}

TEST(IncrementalSnapshotTest, RetirementKeepsExactlyTheLiveFiles) {
  const DatasetConfig config = TestConfig(43);
  auto service = BuildService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("retire");
  const auto first = service->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok());

  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    Item item;
    item.owner = static_cast<UserId>(rng.UniformIndex(config.num_users));
    item.tags = {static_cast<TagId>(rng.UniformIndex(config.num_tags))};
    item.quality = static_cast<float>(rng.UniformDouble());
    ASSERT_TRUE(service->AddItem(item).ok());
  }
  ASSERT_TRUE(service->Compact().ok());
  const auto second = service->SaveSnapshot(dir);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().incremental);

  // Each directory holds exactly its committed manifest's files, nothing
  // else: the root CURRENT + manifest + graph segment + WAL (+ the shard
  // subdirectory), the shard's manifest + live segments. The superseded
  // manifests are gone; generation-1 segments survive only because the
  // live manifests still reference them.
  const auto manifest = persist::LoadCurrentManifest(dir);
  ASSERT_TRUE(manifest.ok());
  std::set<std::string> expected_root = {
      "CURRENT", persist::ManifestFileName(second.value().generation),
      manifest.value().wal_file, "shard-0"};
  for (const auto& info : manifest.value().segments) {
    expected_root.insert(info.file);
  }
  EXPECT_EQ(ListDir(dir), expected_root);
  EXPECT_FALSE(persist::FileExists(persist::JoinPath(
      dir, persist::ManifestFileName(first.value().generation))));

  const std::string shard_dir = ShardDirPath(dir, 0);
  const auto shard_manifest = persist::ReadManifestFile(persist::JoinPath(
      shard_dir, persist::ManifestFileName(second.value().generation)));
  ASSERT_TRUE(shard_manifest.ok());
  std::set<std::string> expected_shard = {
      persist::ManifestFileName(second.value().generation)};
  for (const auto& info : shard_manifest.value().segments) {
    expected_shard.insert(info.file);
  }
  EXPECT_EQ(ListDir(shard_dir), expected_shard);
  EXPECT_FALSE(persist::FileExists(persist::JoinPath(
      shard_dir, persist::ManifestFileName(first.value().generation))));

  // The carried-over generation-1 postings segment must still be listed
  // (only SOME lists were superseded).
  bool has_gen1_postings = false;
  for (const auto& info : shard_manifest.value().segments) {
    if (info.kind == persist::SegmentKind::kPostings &&
        info.generation == first.value().generation) {
      has_gen1_postings = true;
    }
  }
  EXPECT_TRUE(has_gen1_postings);
}

TEST(IncrementalSnapshotTest, UnchangedEngineResavesNothing) {
  const DatasetConfig config = TestConfig(47);
  auto service = BuildService(config);
  ASSERT_NE(service, nullptr);
  const std::string dir = TempDir("nochange");
  ASSERT_TRUE(service->SaveSnapshot(dir).ok());

  const auto resave = service->SaveSnapshot(dir);
  ASSERT_TRUE(resave.ok()) << resave.status().ToString();
  EXPECT_TRUE(resave.value().incremental);
  EXPECT_EQ(resave.value().lists_written, 0u);
  EXPECT_EQ(resave.value().segments_written, 0u);
  EXPECT_EQ(resave.value().bytes_written, 0u);

  ExpectTwinEqual(service.get(), dir, config, "nochange");
}

TEST(IncrementalSnapshotTest, ForeignBaseForcesFullSave) {
  // Saving a DIFFERENT corpus into an existing snapshot directory cannot
  // reuse its segments: the save must fall back to full and the
  // directory must come back as the new service.
  const DatasetConfig config_a = TestConfig(51);
  DatasetConfig config_b = TestConfig(53);
  config_b.num_users = 90;  // different user universe
  auto service_a = BuildService(config_a);
  auto service_b = BuildService(config_b);
  ASSERT_TRUE(service_a != nullptr && service_b != nullptr);

  const std::string dir = TempDir("foreign");
  const auto first = service_a->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok());
  const auto second = service_b->SaveSnapshot(dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().incremental);
  EXPECT_GT(second.value().generation, first.value().generation);

  ExpectTwinEqual(service_b.get(), dir, config_b, "foreign");
}

TEST(IncrementalSnapshotTest, SameShapeForeignBaseForcesFullSave) {
  // The foreign corpus has the SAME shape as the one on disk (users,
  // tags, grid, shard count) — only its rows differ. Nothing in the
  // manifests tells the two apart, so only the saving service's own
  // record of what it committed or opened may license an incremental
  // save; otherwise the first corpus's segments would be carried over
  // as the second's.
  for (const size_t num_shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("shards " + std::to_string(num_shards));
    const DatasetConfig config_a = TestConfig(61);
    DatasetConfig config_b = TestConfig(67);
    config_b.items_per_user = 8.0;  // 1,600 items over A's 1,000
    auto service_a = BuildService(config_a, num_shards);
    auto service_b = BuildService(config_b, num_shards);
    ASSERT_TRUE(service_a != nullptr && service_b != nullptr);

    const std::string dir =
        TempDir("foreign_same_shape_" + std::to_string(num_shards));
    const auto first = service_a->SaveSnapshot(dir);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const auto second = service_b->SaveSnapshot(dir);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_FALSE(second.value().incremental);
    EXPECT_GT(second.value().generation, first.value().generation);

    ExpectTwinEqual(service_b.get(), dir, config_b, "same-shape foreign");
  }
}

}  // namespace
}  // namespace amici
