// CompactionPolicy decision table, CompactionScheduler behaviour against
// a fake target (deterministic via PollOnce), and the end-to-end
// background path against real 1- and 3-shard services: tails fold away
// without anyone calling Compact(), per shard, and the EngineStats
// trigger inputs reset afterwards.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/compaction_policy.h"
#include "ingest/compaction_scheduler.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

TEST(AdaptiveCompactionPolicyTest, DecisionTable) {
  AdaptiveCompactionPolicy::Options options;
  options.max_tail_items = 100;
  options.max_tail_scan_ms = 2.0;
  options.min_tail_items = 10;
  const AdaptiveCompactionPolicy policy(options);

  // An empty tail never triggers, whatever the (stale) latency says.
  EXPECT_FALSE(policy.ShouldCompact({0, 1000, 50.0}));
  // Tail-size trigger, latency irrelevant.
  EXPECT_TRUE(policy.ShouldCompact({100, 1000, 0.0}));
  EXPECT_TRUE(policy.ShouldCompact({5000, 0, 0.0}));
  // Latency trigger requires the minimum tail...
  EXPECT_TRUE(policy.ShouldCompact({10, 1000, 2.5, 10}));
  EXPECT_FALSE(policy.ShouldCompact({9, 1000, 2.5, 9}));
  // ...and an actual overrun.
  EXPECT_FALSE(policy.ShouldCompact({50, 1000, 2.0, 50}));
  // Small quiet tail: leave it alone.
  EXPECT_FALSE(policy.ShouldCompact({50, 1000, 0.1, 50}));
  // A STALE latency observation — taken against a bigger, pre-compaction
  // tail (a query pinned to the old snapshot wrote its measurement after
  // the compaction reset) — must not re-trigger against the small new
  // tail; tail-size still triggers regardless.
  EXPECT_FALSE(policy.ShouldCompact({70, 1000, 50.0, 50000}));
  EXPECT_TRUE(policy.ShouldCompact({100, 1000, 50.0, 50000}));
  // An observation of a PREFIX of the current (grown) tail is live.
  EXPECT_TRUE(policy.ShouldCompact({80, 1000, 2.5, 70}));
}

/// A compactable fleet where the test scripts every shard's signals.
class FakeTarget final : public CompactionTarget {
 public:
  explicit FakeTarget(size_t shards) : signals_(shards), compacted_(shards) {}

  size_t num_shards() const override { return signals_.size(); }
  CompactionSignals ShardSignals(size_t shard) const override {
    return signals_[shard];
  }
  Status CompactShard(size_t shard, CompactionOutcome* outcome) override {
    if (fail_) return Status::Internal("injected failure");
    ++compacted_[shard];
    if (outcome != nullptr) {
      *outcome = CompactionOutcome{};
      outcome->published = true;
      outcome->merged = merge_mode_;
      outcome->items_merged = signals_[shard].tail_items;
    }
    signals_[shard] = CompactionSignals{};  // compaction empties the tail
    return Status::Ok();
  }

  std::vector<CompactionSignals> signals_;
  std::vector<int> compacted_;
  bool fail_ = false;
  bool merge_mode_ = false;  // mode the fake reports to the scheduler
};

TEST(CompactionSchedulerTest, PollOnceCompactsExactlyTheFiringShards) {
  FakeTarget target(3);
  auto policy = std::make_shared<AdaptiveCompactionPolicy>(
      AdaptiveCompactionPolicy::Options{/*max_tail_items=*/100,
                                        /*max_tail_scan_ms=*/2.0,
                                        /*min_tail_items=*/10});
  CompactionScheduler::Options options;
  options.policy = policy;
  options.poll_interval_ms = 1e6;  // effectively: only PollOnce acts
  CompactionScheduler scheduler(&target, options);

  target.signals_[0] = {200, 0, 0.0};  // fires on tail size
  target.signals_[1] = {50, 0, 0.5};   // healthy: stays put
  target.signals_[2] = {20, 0, 9.0};   // fires on scan latency
  EXPECT_EQ(scheduler.PollOnce(), 2u);
  EXPECT_EQ(target.compacted_, (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(scheduler.compactions_triggered(), 2u);
  EXPECT_EQ(scheduler.merge_compactions_triggered(), 0u);
  EXPECT_EQ(scheduler.rebuild_compactions_triggered(), 2u);

  // Signals were reset by the compaction: a second poll is a no-op —
  // per-shard triggering, not fleet-wide drumbeats.
  EXPECT_EQ(scheduler.PollOnce(), 0u);
  EXPECT_EQ(scheduler.compactions_triggered(), 2u);

  // The scheduler records which MODE each triggered compaction took.
  target.merge_mode_ = true;
  target.signals_[1] = {500, 0, 0.0};
  EXPECT_EQ(scheduler.PollOnce(), 1u);
  EXPECT_EQ(scheduler.merge_compactions_triggered(), 1u);
  EXPECT_EQ(scheduler.rebuild_compactions_triggered(), 2u);
  scheduler.Stop();
}

TEST(CompactionSchedulerTest, CountsErrorsAndKeepsGoing) {
  FakeTarget target(2);
  CompactionScheduler::Options options;
  options.poll_interval_ms = 1e6;
  CompactionScheduler scheduler(&target, options);
  target.signals_[0] = {100000, 0, 0.0};
  target.fail_ = true;
  EXPECT_EQ(scheduler.PollOnce(), 0u);
  EXPECT_EQ(scheduler.compaction_errors(), 1u);
  target.fail_ = false;
  EXPECT_EQ(scheduler.PollOnce(), 1u);
  scheduler.Stop();
}

TEST(CompactionSchedulerTest, BackgroundThreadPollsOnItsOwn) {
  FakeTarget target(1);
  // Over the default AdaptiveCompactionPolicy's tail-size threshold.
  target.signals_[0] = {100000, 0, 0.0};
  CompactionScheduler::Options options;
  options.poll_interval_ms = 1.0;
  CompactionScheduler scheduler(&target, options);
  // No PollOnce from the test: the scheduler thread must find the tail.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.compactions_triggered() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Stop();
  EXPECT_GE(scheduler.compactions_triggered(), 1u);
  EXPECT_EQ(target.compacted_[0], 1);  // signals reset: fired exactly once
}

// --- End-to-end against real services ---------------------------------

Item RandomishItem(int i) {
  Item item;
  item.owner = static_cast<UserId>(i % 150);
  item.tags = {static_cast<TagId>(i % 80)};
  item.quality = 0.25f + 0.5f * static_cast<float>(i % 7) / 7.0f;
  return item;
}

std::unique_ptr<ShardedSearchService> BuildRealService(size_t shards) {
  DatasetConfig config = SmallDataset();
  config.num_users = 150;
  config.num_tags = 80;
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = shards;
  return ShardedSearchService::Build(std::move(dataset.graph),
                                     std::move(dataset.store),
                                     std::move(options))
      .value();
}

void RunAutoCompactionScenario(size_t shards) {
  auto service = BuildRealService(shards);
  auto policy = std::make_shared<AdaptiveCompactionPolicy>(
      AdaptiveCompactionPolicy::Options{/*max_tail_items=*/40,
                                        /*max_tail_scan_ms=*/1e9,
                                        /*min_tail_items=*/10});
  CompactionScheduler::Options options;
  options.policy = policy;
  options.poll_interval_ms = 1.0;
  ASSERT_TRUE(service->StartAutoCompaction(options).ok());
  EXPECT_TRUE(service->auto_compaction_running());
  EXPECT_EQ(service->StartAutoCompaction(options).code(),
            StatusCode::kFailedPrecondition);

  // Ingest well past the tail threshold; the scheduler must fold the
  // tails away without any manual Compact() call.
  std::vector<Item> batch;
  for (int i = 0; i < 600; ++i) batch.push_back(RandomishItem(i));
  ASSERT_TRUE(service->AddItems(batch).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    // Every shard's tail must drop below the trigger; with the whole
    // corpus ingested up front it goes to ZERO once each triggered
    // shard's compaction lands.
    size_t worst = 0;
    for (size_t s = 0; s < service->num_shards(); ++s) {
      worst = std::max(worst, service->ShardSignals(s).tail_items);
    }
    if (worst < 40 && service->auto_compactions() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(service->auto_compactions(), 1u);
  size_t worst = 0;
  for (size_t s = 0; s < service->num_shards(); ++s) {
    worst = std::max(worst, service->ShardSignals(s).tail_items);
  }
  EXPECT_LT(worst, 40u);
  ASSERT_TRUE(service->StopAutoCompaction().ok());
  EXPECT_FALSE(service->auto_compaction_running());
  // The counter survives the scheduler's retirement.
  EXPECT_GE(service->auto_compactions(), 1u);

  // Queries still work and agree with the corpus size.
  SearchRequest request;
  request.query.user = 5;
  request.query.tags = {3};
  request.query.k = 10;
  request.query.alpha = 0.5;
  EXPECT_TRUE(service->Search(request).ok());
}

TEST(AutoCompactionTest, OneShardCompactsInTheBackground) {
  RunAutoCompactionScenario(1);
}

TEST(AutoCompactionTest, ShardedBackendCompactsPerShard) {
  RunAutoCompactionScenario(3);
}

}  // namespace
}  // namespace amici
