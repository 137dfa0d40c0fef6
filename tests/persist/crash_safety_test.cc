// Crash and corruption drills for whole snapshot directories: a torn WAL
// tail must reopen to exactly the committed prefix, while ANY flipped bit
// in a segment or manifest must be refused loudly — never absorbed into
// a silently-wrong index.

#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "persist/fs_util.h"
#include "persist/manifest.h"
#include "persist/segment.h"
#include "persist/wal.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = "/tmp/amici_crash_test_" + name;
  const std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 120;
  config.items_per_user = 3.0;
  config.num_tags = 80;
  config.seed = seed;
  return config;
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

uint64_t FileSize(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(file.good()) << path;
  return static_cast<uint64_t>(file.tellg());
}

Result<std::unique_ptr<ShardedSearchService>> BuildOneShard(
    const DatasetConfig& config) {
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 1;
  return ShardedSearchService::Build(std::move(dataset.graph),
                                     std::move(dataset.store),
                                     std::move(options));
}

Item SimpleItem(UserId owner, TagId tag, float quality) {
  Item item;
  item.owner = owner;
  item.tags = {tag};
  item.quality = quality;
  return item;
}

TEST(CrashSafetyTest, TruncatedWalTailReopensToCommittedPrefix) {
  auto live = BuildOneShard(TestConfig(3));
  ASSERT_TRUE(live.ok());
  const size_t base_items = live.value()->num_items();
  const std::string dir = TempDir("torn_wal");
  const auto report = live.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Five committed single-item appends (one WAL record each, fdatasync'd
  // per batch)...
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(live.value()
                    ->AddItem(SimpleItem(static_cast<UserId>(i), 2,
                                         0.25f + 0.1f * i))
                    .ok());
  }
  // ...then the crash: the last record loses its final 3 bytes.
  const std::string wal_path = persist::JoinPath(
      dir, persist::WalFileName(report.value().generation));
  const uint64_t size = FileSize(wal_path);
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(size - 3)), 0);

  persist::WalReplayStats stats;
  auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options(), persist::SnapshotOpenOptions(),
      &stats);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.records_applied, 4u);
  EXPECT_EQ(twin.value()->num_items(), base_items + 4);
  // The restored service is live: the lost item can simply be re-added,
  // and the reattached WAL (truncated past the tear) keeps logging.
  const auto readd = twin.value()->AddItem(SimpleItem(4, 2, 0.65f));
  ASSERT_TRUE(readd.ok()) << readd.status().ToString();
  EXPECT_EQ(readd.value(), base_items + 4);

  auto again = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->num_items(), base_items + 5);
}

TEST(CrashSafetyTest, BitFlippedSegmentPayloadIsRejected) {
  const DatasetConfig config = TestConfig(7);
  Dataset dataset = GenerateDataset(config).value();
  auto engine = SocialSearchEngine::Build(std::move(dataset.graph),
                                          std::move(dataset.store),
                                          SocialSearchEngine::Options());
  ASSERT_TRUE(engine.ok());
  const std::string dir = TempDir("segment_flip");
  ASSERT_TRUE(engine.value()->SaveSnapshot(dir).ok());

  const auto manifest = persist::LoadCurrentManifest(dir);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest.value().segments.empty());
  // Flip one payload byte in EVERY segment kind in turn; each flip alone
  // must fail the open with a Corruption error naming a checksum problem.
  Rng rng(11);
  for (const persist::SegmentInfo& info : manifest.value().segments) {
    const std::string path = persist::JoinPath(dir, info.file);
    const size_t offset = persist::kSegmentHeaderSize +
                          rng.UniformIndex(static_cast<size_t>(
                              std::max<uint64_t>(info.payload_bytes, 1)));
    FlipByte(path, offset);
    const auto twin = SocialSearchEngine::OpenSnapshot(
        dir, SocialSearchEngine::Options());
    ASSERT_FALSE(twin.ok()) << info.file << " flip went undetected";
    EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
        << twin.status().ToString();
    FlipByte(path, offset);  // restore for the next kind
  }
  // Control: with every flip undone the directory opens cleanly.
  EXPECT_TRUE(SocialSearchEngine::OpenSnapshot(
                  dir, SocialSearchEngine::Options())
                  .ok());
}

TEST(CrashSafetyTest, BitFlippedManifestIsRejected) {
  auto service = BuildOneShard(TestConfig(9));
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("manifest_flip");
  const auto report = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok());

  const std::string manifest_path = persist::JoinPath(
      dir, persist::ManifestFileName(report.value().generation));
  FlipByte(manifest_path, FileSize(manifest_path) / 2);
  const auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_FALSE(twin.ok());
  EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
      << twin.status().ToString();
}

TEST(CrashSafetyTest, BitFlippedShardSegmentFailsShardedOpen) {
  const DatasetConfig config = TestConfig(13);
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 2;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDir("shard_flip");
  const auto report = service.value()->SaveSnapshot(dir);
  ASSERT_TRUE(report.ok());

  const std::string shard_dir = persist::JoinPath(dir, "shard-1");
  const auto shard_manifest = persist::ReadManifestFile(persist::JoinPath(
      shard_dir, persist::ManifestFileName(report.value().generation)));
  ASSERT_TRUE(shard_manifest.ok());
  ASSERT_FALSE(shard_manifest.value().segments.empty());
  const persist::SegmentInfo& info = shard_manifest.value().segments[0];
  FlipByte(persist::JoinPath(shard_dir, info.file),
           persist::kSegmentHeaderSize + info.payload_bytes / 2);

  const auto twin = ShardedSearchService::OpenSnapshot(
      dir, ShardedSearchService::Options());
  ASSERT_FALSE(twin.ok());
  EXPECT_EQ(twin.status().code(), StatusCode::kCorruption)
      << twin.status().ToString();
}

TEST(CrashSafetyTest, InterruptedResaveLeavesPreviousSnapshotOpenable) {
  // Simulates a crash between "segments written" and "CURRENT renamed":
  // files of the next generation exist but CURRENT still names the old
  // manifest. Opening must serve the OLD snapshot untouched.
  const DatasetConfig config = TestConfig(15);
  Dataset dataset = GenerateDataset(config).value();
  auto engine = SocialSearchEngine::Build(std::move(dataset.graph),
                                          std::move(dataset.store),
                                          SocialSearchEngine::Options());
  ASSERT_TRUE(engine.ok());
  const std::string dir = TempDir("mid_save");
  const auto first = engine.value()->SaveSnapshot(dir);
  ASSERT_TRUE(first.ok());
  const size_t saved_items = engine.value()->store().num_items();

  // Write generation-2 files WITHOUT committing (the crash window).
  ASSERT_TRUE(engine.value()->AddItem(SimpleItem(1, 3, 0.5f)).ok());
  persist::SnapshotSaveReport report;
  const auto uncommitted = engine.value()->WriteSnapshotFiles(
      dir, first.value().generation + 1, nullptr,
      persist::SnapshotSaveOptions(), &report);
  ASSERT_TRUE(uncommitted.ok()) << uncommitted.status().ToString();

  const auto twin = SocialSearchEngine::OpenSnapshot(
      dir, SocialSearchEngine::Options());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  EXPECT_EQ(twin.value()->store().num_items(), saved_items);
}

TEST(CrashSafetyTest, MissingCurrentIsCleanError) {
  const std::string dir = TempDir("empty");
  ASSERT_TRUE(persist::EnsureDir(dir).ok());
  EXPECT_FALSE(SocialSearchEngine::OpenSnapshot(
                   dir, SocialSearchEngine::Options())
                   .ok());
  EXPECT_FALSE(ShardedSearchService::OpenSnapshot(
                   dir, ShardedSearchService::Options())
                   .ok());
}

}  // namespace
}  // namespace amici
