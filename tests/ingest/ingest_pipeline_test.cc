// IngestPipeline tests: the drain/coalesce logic (driven deterministically
// through ApplyIngestOps with a recording sink), ticket semantics, the
// Flush() read-your-writes barrier against a real service, and error
// routing when a bad batch shares a drain cycle with healthy ones.

#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/ingest_pipeline.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

Item TestItem(UserId owner, TagId tag, float quality = 0.5f) {
  Item item;
  item.owner = owner;
  item.tags = {tag};
  item.quality = quality;
  return item;
}

/// Records every sink call; items are accepted with densely assigned ids
/// unless the owner is >= user_limit (mimicking engine validation).
class RecordingSink final : public IngestSink {
 public:
  explicit RecordingSink(UserId user_limit = 1000) : user_limit_(user_limit) {}

  Result<std::vector<ItemId>> AddItems(std::span<const Item> items) override {
    ++add_calls_;
    for (const Item& item : items) {
      if (item.owner >= user_limit_) {
        return Status::InvalidArgument("owner outside the social graph");
      }
    }
    std::vector<ItemId> ids;
    for (const Item& item : items) {
      ids.push_back(static_cast<ItemId>(accepted_.size()));
      accepted_.push_back(item);
    }
    batch_sizes_.push_back(items.size());
    return ids;
  }

  Status AddFriendship(UserId u, UserId v) override {
    edits_.push_back({u, v});
    return Status::Ok();
  }

  Status RemoveFriendship(UserId /*u*/, UserId /*v*/) override {
    return Status::NotFound("no such friendship");
  }

  int add_calls() const { return add_calls_; }
  const std::vector<Item>& accepted() const { return accepted_; }
  const std::vector<size_t>& batch_sizes() const { return batch_sizes_; }
  const std::vector<std::pair<UserId, UserId>>& edits() const {
    return edits_;
  }

 private:
  UserId user_limit_;
  int add_calls_ = 0;
  std::vector<Item> accepted_;
  std::vector<size_t> batch_sizes_;
  std::vector<std::pair<UserId, UserId>> edits_;
};

std::vector<IngestOp> DrainQueue(IngestQueue* queue) { return queue->PopAll(); }

TEST(ApplyIngestOpsTest, CoalescesAdjacentBatchesIntoOneSinkCall) {
  IngestQueue queue({/*capacity=*/16, BackpressureMode::kBlock});
  const auto t1 = queue.PushItems({TestItem(1, 1), TestItem(1, 2)});
  const auto t2 = queue.PushItems({TestItem(2, 3)});
  const auto t3 = queue.PushItems({TestItem(3, 4), TestItem(3, 5)});
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());

  RecordingSink sink;
  ApplyStats stats;
  ApplyIngestOps(&sink, DrainQueue(&queue), &stats);

  // Three enqueued batches, ONE AddItems call (one snapshot publish).
  EXPECT_EQ(sink.add_calls(), 1);
  EXPECT_EQ(stats.apply_calls, 1u);
  EXPECT_EQ(stats.items_applied, 5u);
  EXPECT_EQ(stats.errors, 0u);
  ASSERT_EQ(sink.batch_sizes().size(), 1u);
  EXPECT_EQ(sink.batch_sizes()[0], 5u);

  // Ids are split back per ticket, in admission order.
  EXPECT_EQ(t1.value().ids(), (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(t2.value().ids(), (std::vector<ItemId>{2}));
  EXPECT_EQ(t3.value().ids(), (std::vector<ItemId>{3, 4}));
  EXPECT_TRUE(t1.value().Wait().ok());
  EXPECT_TRUE(t3.value().Wait().ok());
}

TEST(ApplyIngestOpsTest, EditsSplitTheCoalescingRun) {
  IngestQueue queue({/*capacity=*/16, BackpressureMode::kBlock});
  ASSERT_TRUE(queue.PushItems({TestItem(1, 1)}).ok());
  const auto edit = queue.PushAddFriendship(7, 8);
  ASSERT_TRUE(edit.ok());
  ASSERT_TRUE(queue.PushItems({TestItem(2, 2)}).ok());

  RecordingSink sink;
  ApplyStats stats;
  ApplyIngestOps(&sink, DrainQueue(&queue), &stats);

  // The edit is an ordering barrier: two AddItems calls, edit between.
  EXPECT_EQ(sink.add_calls(), 2);
  EXPECT_EQ(stats.edits_applied, 1u);
  ASSERT_EQ(sink.edits().size(), 1u);
  EXPECT_EQ(sink.edits()[0], (std::pair<UserId, UserId>{7, 8}));
  EXPECT_TRUE(edit.value().Wait().ok());
}

TEST(ApplyIngestOpsTest, BadBatchFailsAloneHealthyNeighboursSurvive) {
  IngestQueue queue({/*capacity=*/16, BackpressureMode::kBlock});
  const auto good1 = queue.PushItems({TestItem(1, 1)});
  const auto bad = queue.PushItems({TestItem(/*owner=*/9999, 2)});
  const auto good2 = queue.PushItems({TestItem(2, 3)});
  ASSERT_TRUE(good1.ok() && bad.ok() && good2.ok());

  RecordingSink sink(/*user_limit=*/100);
  ApplyStats stats;
  ApplyIngestOps(&sink, DrainQueue(&queue), &stats);

  // The combined call is rejected; the per-batch fallback lands the
  // error on the bad ticket only, and the good batches still apply.
  EXPECT_TRUE(good1.value().Wait().ok());
  EXPECT_TRUE(good2.value().Wait().ok());
  const Status bad_status = bad.value().Wait();
  ASSERT_FALSE(bad_status.ok());
  EXPECT_EQ(bad_status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.errors, 1u);
  ASSERT_EQ(sink.accepted().size(), 2u);
  EXPECT_EQ(sink.accepted()[0].owner, 1u);
  EXPECT_EQ(sink.accepted()[1].owner, 2u);
  // Ids stay dense across the skipped batch.
  EXPECT_EQ(good1.value().ids(), (std::vector<ItemId>{0}));
  EXPECT_EQ(good2.value().ids(), (std::vector<ItemId>{1}));
}

TEST(ApplyIngestOpsTest, EditErrorsLandOnTheirTickets) {
  IngestQueue queue({/*capacity=*/16, BackpressureMode::kBlock});
  const auto remove = queue.PushRemoveFriendship(1, 2);
  ASSERT_TRUE(remove.ok());
  RecordingSink sink;
  ApplyStats stats;
  ApplyIngestOps(&sink, DrainQueue(&queue), &stats);
  EXPECT_EQ(remove.value().Wait().code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.errors, 1u);
}

// --- Pipeline-with-writer-thread tests against a real service ----------

std::unique_ptr<ShardedSearchService> BuildService() {
  DatasetConfig config = SmallDataset();
  config.num_users = 200;
  config.num_tags = 100;
  config.items_per_user = 2.0;
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 1;
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

TEST(IngestPipelineTest, FlushIsAReadYourWritesBarrier) {
  auto service = BuildService();
  const size_t initial = service->num_items();
  ASSERT_TRUE(service->StartIngest().ok());
  EXPECT_TRUE(service->ingest_running());

  constexpr TagId kFreshTag = 99;
  std::vector<IngestTicket> tickets;
  for (int b = 0; b < 10; ++b) {
    std::vector<Item> batch;
    for (int i = 0; i < 5; ++i) {
      batch.push_back(TestItem(static_cast<UserId>(b * 5 + i), kFreshTag,
                               0.9f));
    }
    auto ticket = service->EnqueueItems(std::move(batch));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(ticket).value());
  }
  ASSERT_TRUE(service->Flush().ok());

  // Everything enqueued before the Flush is applied and queryable.
  EXPECT_EQ(service->num_items(), initial + 50);
  for (const IngestTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.done());
    EXPECT_TRUE(ticket.Wait().ok());
    EXPECT_EQ(ticket.ids().size(), 5u);
  }
  SearchRequest request;
  request.query.user = 3;
  request.query.tags = {kFreshTag};
  request.query.k = 60;
  request.query.alpha = 0.2;
  const auto response = service->Search(request);
  ASSERT_TRUE(response.ok());
  EXPECT_GE(response.value().items.size(), 50u);
  // The tail scan the fresh items cost is visible in the response stats.
  EXPECT_GT(response.value().stats.tail_items_scanned, 0u);

  const IngestCounters counters = service->ingest_counters();
  EXPECT_EQ(counters.batches_enqueued, 10u);
  EXPECT_EQ(counters.items_applied, 50u);
  EXPECT_GE(counters.drain_cycles, 1u);
  EXPECT_LE(counters.apply_calls, counters.batches_enqueued);
  // Items flowed through the drain, so the ingest-rate EWMA is live (its
  // exact value depends on wall-clock timing; sign is the invariant).
  EXPECT_GT(counters.items_per_sec_ewma, 0.0);
  ASSERT_TRUE(service->StopIngest().ok());
  EXPECT_FALSE(service->ingest_running());
}

TEST(IngestPipelineTest, RateEwmaIsZeroWithoutAppliedItems) {
  auto service = BuildService();
  // No pipeline at all: the zeroed counters include a zero rate.
  EXPECT_EQ(service->ingest_counters().items_per_sec_ewma, 0.0);
  ASSERT_TRUE(service->StartIngest().ok());
  // Running but idle: still zero until a drain cycle applies items.
  EXPECT_EQ(service->ingest_counters().items_per_sec_ewma, 0.0);
  ASSERT_TRUE(service->StopIngest().ok());
}

TEST(IngestPipelineTest, FriendshipEditsFlowThroughTheQueue) {
  auto service = BuildService();
  ASSERT_TRUE(service->StartIngest().ok());

  // Find a non-edge to add.
  UserId u = 0, v = 0;
  [&] {
    for (u = 0; u < 10; ++u) {
      const auto friends = service->FriendsOf(u);
      for (v = u + 1; v < 100; ++v) {
        bool is_friend = false;
        for (const UserId f : friends) is_friend |= (f == v);
        if (!is_friend) return;
      }
    }
  }();
  const auto add = service->EnqueueAddFriendship(u, v);
  ASSERT_TRUE(add.ok());
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_TRUE(add.value().Wait().ok());
  bool now_friends = false;
  for (const UserId f : service->FriendsOf(u)) now_friends |= (f == v);
  EXPECT_TRUE(now_friends);

  // Structural rejections (self-edge, out-of-range endpoint) never reach
  // the queue, pipeline or not — no queued edit could make them valid.
  EXPECT_EQ(service->EnqueueAddFriendship(u, u).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service
                ->EnqueueAddFriendship(
                    u, static_cast<UserId>(service->num_users()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->EnqueueRemoveFriendship(v, v).status().code(),
            StatusCode::kInvalidArgument);
  // With the pipeline RUNNING, a duplicate add's verdict rides the
  // ticket: a queued Remove could legitimately precede it, so the edge
  // cannot reject it against the published graph without breaking the
  // queue's ordering contract...
  const auto dup = service->EnqueueAddFriendship(u, v);
  ASSERT_TRUE(dup.ok());
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_EQ(dup.value().Wait().code(), StatusCode::kAlreadyExists);
  // ... and the ordered sequence the edge must NOT break: Remove then
  // re-Add of the same edge, back to back, both succeed on their tickets.
  const auto ordered_remove = service->EnqueueRemoveFriendship(u, v);
  const auto ordered_re_add = service->EnqueueAddFriendship(u, v);
  ASSERT_TRUE(ordered_remove.ok());
  ASSERT_TRUE(ordered_re_add.ok());
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_TRUE(ordered_remove.value().Wait().ok());
  EXPECT_TRUE(ordered_re_add.value().Wait().ok());

  const auto remove = service->EnqueueRemoveFriendship(u, v);
  ASSERT_TRUE(remove.ok());
  ASSERT_TRUE(service->Flush().ok());
  EXPECT_TRUE(remove.value().Wait().ok());
  ASSERT_TRUE(service->StopIngest().ok());

  // Synchronous path (no pipeline): no queued edit can reorder ahead, so
  // existence verdicts are exact and come back AT THE EDGE — no ticket.
  EXPECT_EQ(service->EnqueueRemoveFriendship(u, v).status().code(),
            StatusCode::kNotFound);
  const auto sync_add = service->EnqueueAddFriendship(u, v);
  ASSERT_TRUE(sync_add.ok());  // applied synchronously
  EXPECT_EQ(service->EnqueueAddFriendship(u, v).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(IngestPipelineTest, SynchronousFallbackWithoutPipeline) {
  auto service = BuildService();
  const size_t initial = service->num_items();
  // No StartIngest: EnqueueItems applies synchronously and the ticket is
  // already complete — callers speak one API in both deployment modes.
  const auto ticket = service->EnqueueItems({TestItem(1, 5), TestItem(2, 6)});
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket.value().done());
  EXPECT_TRUE(ticket.value().Wait().ok());
  EXPECT_EQ(ticket.value().ids().size(), 2u);
  EXPECT_EQ(service->num_items(), initial + 2);
  EXPECT_TRUE(service->Flush().ok());

  const auto bad = service->EnqueueItems({TestItem(kInvalidUserId, 1)});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().Wait().ok());
}

TEST(IngestPipelineTest, StopDrainsEverythingAlreadyQueued) {
  auto service = BuildService();
  const size_t initial = service->num_items();
  ASSERT_TRUE(service->StartIngest().ok());
  std::vector<IngestTicket> tickets;
  for (int b = 0; b < 20; ++b) {
    auto ticket = service->EnqueueItems({TestItem(static_cast<UserId>(b), 7)});
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
  ASSERT_TRUE(service->StopIngest().ok());
  for (const IngestTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.Wait().ok());
  }
  EXPECT_EQ(service->num_items(), initial + 20);
  // Enqueue after stop falls back to the synchronous path.
  EXPECT_TRUE(service->EnqueueItems({TestItem(1, 8)}).ok());
  EXPECT_EQ(service->num_items(), initial + 21);
}

TEST(IngestPipelineTest, StartTwiceIsRejected) {
  auto service = BuildService();
  ASSERT_TRUE(service->StartIngest().ok());
  EXPECT_EQ(service->StartIngest().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service->StopIngest().ok());
  ASSERT_TRUE(service->StartIngest().ok());  // restart after stop is fine
}

}  // namespace
}  // namespace amici
