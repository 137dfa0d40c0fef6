// The ingest subsystem's acceptance property: a corpus ingested through
// the MPSC queue by CONCURRENT producers — with friendship edits in the
// stream and background compaction firing mid-run — yields bit-identical
// query results to the same corpus ingested by serial AddItems calls
// followed by a manual Compact(), on 1/2/4-shard services.
//
// Method: every produced item carries a unique MARKER tag, so after
// Flush() the actual (nondeterministic) interleave the queue admitted can
// be reconstructed from the final catalogue; a baseline service then
// replays exactly that order synchronously. Identical corpus + identical
// ids => identical scores at every rank (ties may legally reorder, which
// the boundary-aware comparison below accounts for).
//
// Run under -fsanitize=thread (tools/run_tier1.sh --tsan): producers,
// the writer thread, the compaction scheduler and a query thread all
// overlap here.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/compaction_policy.h"
#include "service/sharded_search_service.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

constexpr size_t kNumTags = 200;
constexpr TagId kMarkerBase = kNumTags;  // one unique marker per produced item
constexpr size_t kProducers = 4;
constexpr size_t kItemsPerProducer = 120;
constexpr size_t kTotalProduced = kProducers * kItemsPerProducer;
constexpr size_t kEdits = 8;

DatasetConfig TestConfig(uint64_t seed) {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.items_per_user = 3.0;
  config.num_tags = kNumTags;
  config.geo_fraction = 0.3;
  config.seed = seed;
  return config;
}

std::unique_ptr<SearchService> BuildBackend(const DatasetConfig& config,
                                            size_t shards) {
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = shards;
  return ShardedSearchService::Build(std::move(dataset.graph),
                                     std::move(dataset.store),
                                     std::move(options))
      .value();
}

/// The item produced for global marker index `index` — a pure function,
/// so the baseline can regenerate exactly what the producers enqueued.
Item ProducedItem(size_t index, size_t num_users) {
  Rng rng(0xC0FFEE + index);
  Item item;
  item.owner = static_cast<UserId>(rng.UniformIndex(num_users));
  item.tags = {static_cast<TagId>(rng.UniformIndex(kNumTags)),
               static_cast<TagId>(kMarkerBase + index)};
  if (rng.Bernoulli(0.4)) {
    item.tags.push_back(static_cast<TagId>(rng.UniformIndex(kNumTags)));
  }
  item.quality = static_cast<float>(rng.UniformDouble());
  if (rng.Bernoulli(0.25)) {
    item.has_geo = true;
    item.latitude = static_cast<float>(rng.UniformDouble() - 0.5);
    item.longitude = static_cast<float>(rng.UniformDouble() - 0.5);
  }
  return item;
}

/// Disjoint, not-initially-present edges: deterministic, so the baseline
/// applies the exact same set.
std::vector<std::pair<UserId, UserId>> EditList(const SearchService& service) {
  std::vector<std::pair<UserId, UserId>> edits;
  const size_t num_users = service.num_users();
  for (UserId u = 1; edits.size() < kEdits && u + 1 < num_users; u += 2) {
    const UserId v = static_cast<UserId>(u + 1);
    bool exists = false;
    for (const UserId f : service.FriendsOf(u)) exists |= (f == v);
    if (!exists) edits.push_back({u, v});
  }
  return edits;
}

/// Same boundary-aware comparison as the sharded invariance test: scores
/// must match bit-for-bit at every rank; item ids must match wherever the
/// score is untied and above the k-th-score tie class (membership and
/// order WITHIN an exact tie class are algorithm-discretionary).
void ExpectSameResponse(const Result<SearchResponse>& expected,
                        const Result<SearchResponse>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << label << ": " << expected.status().ToString() << " vs "
      << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << label;
    return;
  }
  const auto& want = expected.value().items;
  const auto& got = actual.value().items;
  ASSERT_EQ(want.size(), got.size()) << label;
  const float boundary = want.empty() ? 0.0f : want.back().score;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].score, got[i].score) << label << " rank " << i;
    const bool tied =
        (i > 0 && want[i - 1].score == want[i].score) ||
        (i + 1 < want.size() && want[i + 1].score == want[i].score);
    if (!tied && want[i].score != boundary) {
      EXPECT_EQ(want[i].item, got[i].item) << label << " rank " << i;
    }
  }
}

std::vector<SearchRequest> BuildRequests(const DatasetConfig& config) {
  Dataset workload_view = GenerateDataset(config).value();
  QueryWorkloadConfig workload;
  workload.num_queries = 12;
  workload.k = 10;
  workload.seed = config.seed * 31 + 7;
  const std::vector<SocialQuery> queries =
      GenerateQueries(workload_view, workload).value();

  std::vector<SearchRequest> requests;
  Rng rng(config.seed * 31 + 8);
  for (const SocialQuery& query : queries) {
    SearchRequest request;
    request.query = query;
    request.query.alpha = 0.2 + 0.6 * rng.UniformDouble();
    requests.push_back(request);
    if (rng.Bernoulli(0.3)) {
      SearchRequest diverse = request;
      diverse.max_per_owner = 1 + rng.UniformIndex(2);
      requests.push_back(diverse);
    }
  }
  // A couple of tag-less pure-social feeds.
  for (const UserId user : {UserId{2}, UserId{77}}) {
    SearchRequest feed;
    feed.query.user = user;
    feed.query.alpha = 1.0;
    feed.query.k = 8;
    requests.push_back(feed);
  }
  return requests;
}

void RunScenario(size_t shards, BackpressureMode mode, uint64_t seed) {
  const DatasetConfig config = TestConfig(seed);
  auto service = BuildBackend(config, shards);
  const size_t initial_items = service->num_items();
  const size_t num_users = service->num_users();
  const auto edits = EditList(*service);
  ASSERT_GE(edits.size(), 4u);

  // Queued ingest + aggressive background compaction, so compactions
  // actually land WHILE producers and queries run.
  IngestPipeline::Options pipeline_options;
  pipeline_options.queue.capacity = 8;  // small: exercises backpressure
  pipeline_options.queue.backpressure = mode;
  ASSERT_TRUE(service->StartIngest(pipeline_options).ok());
  CompactionScheduler::Options compaction_options;
  compaction_options.policy = std::make_shared<AdaptiveCompactionPolicy>(
      AdaptiveCompactionPolicy::Options{/*max_tail_items=*/60,
                                        /*max_tail_scan_ms=*/1e9,
                                        /*min_tail_items=*/10});
  compaction_options.poll_interval_ms = 1.0;
  ASSERT_TRUE(service->StartAutoCompaction(compaction_options).ok());

  // Producers enqueue their disjoint marker ranges in random-size
  // batches; one of them interleaves the friendship edits.
  std::atomic<bool> done{false};
  std::atomic<int> enqueue_errors{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(seed * 97 + p);
      std::vector<IngestTicket> tickets;
      size_t next = p * kItemsPerProducer;
      const size_t end = next + kItemsPerProducer;
      size_t edit = 0;
      while (next < end) {
        const size_t batch_size = std::min<size_t>(
            end - next, static_cast<size_t>(1 + rng.UniformIndex(12)));
        std::vector<Item> batch;
        for (size_t i = 0; i < batch_size; ++i) {
          batch.push_back(ProducedItem(next++, num_users));
        }
        auto ticket = service->EnqueueItems(std::move(batch));
        if (!ticket.ok()) {
          enqueue_errors.fetch_add(1);
        } else {
          tickets.push_back(std::move(ticket).value());
        }
        if (p == 0 && edit < edits.size() && rng.Bernoulli(0.3)) {
          const auto edit_ticket = service->EnqueueAddFriendship(
              edits[edit].first, edits[edit].second);
          if (!edit_ticket.ok()) enqueue_errors.fetch_add(1);
          ++edit;
        }
      }
      // Producer 0 flushes any edits it did not get to probabilistically.
      if (p == 0) {
        for (; edit < edits.size(); ++edit) {
          const auto edit_ticket = service->EnqueueAddFriendship(
              edits[edit].first, edits[edit].second);
          if (!edit_ticket.ok()) enqueue_errors.fetch_add(1);
        }
      }
      // Every batch this producer enqueued must eventually apply cleanly.
      for (const IngestTicket& ticket : tickets) {
        if (!ticket.Wait().ok()) enqueue_errors.fetch_add(1);
      }
    });
  }
  // A reader hammers the query path throughout (mid-run results are
  // checked for well-formedness only; exactness is asserted post-hoc).
  std::thread reader([&] {
    SearchRequest request;
    request.query.user = 11;
    request.query.tags = {5};
    request.query.k = 10;
    request.query.alpha = 0.5;
    while (!done.load(std::memory_order_acquire)) {
      const auto response = service->Search(request);
      if (!response.ok()) {
        enqueue_errors.fetch_add(1);
        continue;
      }
      EXPECT_LE(response.value().items.size(), 10u);
    }
  });

  for (auto& producer : producers) producer.join();
  ASSERT_TRUE(service->Flush().ok());
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(enqueue_errors.load(), 0);
  ASSERT_EQ(service->num_items(), initial_items + kTotalProduced);

  // Reconstruct the admitted interleave from the markers: catalogue
  // position -> which produced item landed there. Every marker must
  // appear exactly once.
  std::vector<size_t> order;
  std::vector<char> seen(kTotalProduced, 0);
  order.reserve(kTotalProduced);
  for (size_t id = initial_items; id < initial_items + kTotalProduced;
       ++id) {
    size_t marker = kTotalProduced;  // invalid
    for (const TagId tag : service->TagsOf(static_cast<ItemId>(id))) {
      if (tag >= kMarkerBase) marker = tag - kMarkerBase;
    }
    ASSERT_LT(marker, kTotalProduced) << "item " << id << " has no marker";
    ASSERT_FALSE(seen[marker]) << "marker " << marker << " appears twice";
    seen[marker] = 1;
    order.push_back(marker);
  }

  // Baseline: the same corpus ingested SERIALLY in exactly that order,
  // same edges, manual Compact() — the reference semantics.
  auto baseline = BuildBackend(config, shards);
  std::vector<Item> replay;
  replay.reserve(kTotalProduced);
  for (const size_t marker : order) {
    replay.push_back(ProducedItem(marker, num_users));
  }
  const auto replay_ids = baseline->AddItems(replay);
  ASSERT_TRUE(replay_ids.ok()) << replay_ids.status().ToString();
  for (const auto& [u, v] : edits) {
    ASSERT_TRUE(baseline->AddFriendship(u, v).ok());
  }
  ASSERT_TRUE(baseline->Compact().ok());

  // Quiesce the pipeline (keeps the comparison free of in-flight state;
  // the background compactor may have compacted SOME shards of `service`
  // — results must not depend on that).
  ASSERT_TRUE(service->StopAutoCompaction().ok());
  ASSERT_TRUE(service->StopIngest().ok());

  const std::string label = "shards=" + std::to_string(shards) +
                            " mode=" + std::to_string(static_cast<int>(mode));
  const std::vector<SearchRequest> requests = BuildRequests(config);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(baseline->Search(requests[i]),
                       service->Search(requests[i]),
                       label + " request " + std::to_string(i));
  }
  // And once more after the queued service compacts fully: still
  // identical, now with zero tail everywhere.
  ASSERT_TRUE(service->Compact().ok());
  EXPECT_EQ(service->unindexed_items(), 0u);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(baseline->Search(requests[i]),
                       service->Search(requests[i]),
                       label + " post-compact request " + std::to_string(i));
  }
}

TEST(IngestInvarianceTest, OneShardBlockingQueue) {
  RunScenario(/*shards=*/1, BackpressureMode::kBlock, /*seed=*/21);
}

TEST(IngestInvarianceTest, OneShardCoalescingQueue) {
  RunScenario(/*shards=*/1, BackpressureMode::kCoalesce, /*seed=*/22);
}

TEST(IngestInvarianceTest, TwoShardsBlockingQueue) {
  RunScenario(/*shards=*/2, BackpressureMode::kBlock, /*seed=*/23);
}

TEST(IngestInvarianceTest, FourShardsCoalescingQueue) {
  RunScenario(/*shards=*/4, BackpressureMode::kCoalesce, /*seed=*/24);
}

}  // namespace
}  // namespace amici
