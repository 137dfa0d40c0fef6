#include "storage/item_store.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace amici {
namespace {

Item MakeItem(UserId owner, std::vector<TagId> tags, float quality) {
  Item item;
  item.owner = owner;
  item.tags = std::move(tags);
  item.quality = quality;
  return item;
}

TEST(ItemStoreTest, AddAssignsSequentialIds) {
  ItemStore store;
  const auto a = store.Add(MakeItem(1, {0}, 0.5f));
  const auto b = store.Add(MakeItem(2, {1}, 0.6f));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(store.num_items(), 2u);
}

TEST(ItemStoreTest, ColumnsRoundTrip) {
  ItemStore store;
  Item item = MakeItem(7, {3, 1, 2}, 0.75f);
  item.has_geo = true;
  item.latitude = 37.5f;
  item.longitude = -122.0f;
  const auto id = store.Add(item);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store.owner(id.value()), 7u);
  EXPECT_FLOAT_EQ(store.quality(id.value()), 0.75f);
  EXPECT_TRUE(store.has_geo(id.value()));
  EXPECT_FLOAT_EQ(store.latitude(id.value()), 37.5f);
  EXPECT_FLOAT_EQ(store.longitude(id.value()), -122.0f);
}

TEST(ItemStoreTest, TagsSortedAndDeduplicated) {
  ItemStore store;
  const auto id = store.Add(MakeItem(1, {5, 2, 5, 9, 2}, 0.1f));
  ASSERT_TRUE(id.ok());
  const auto tags = store.tags(id.value());
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], 2u);
  EXPECT_EQ(tags[1], 5u);
  EXPECT_EQ(tags[2], 9u);
}

TEST(ItemStoreTest, HasTagBinarySearch) {
  ItemStore store;
  const auto id = store.Add(MakeItem(1, {10, 20, 30}, 0.2f));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store.HasTag(id.value(), 10));
  EXPECT_TRUE(store.HasTag(id.value(), 30));
  EXPECT_FALSE(store.HasTag(id.value(), 15));
  EXPECT_FALSE(store.HasTag(id.value(), 31));
}

TEST(ItemStoreTest, RejectsInvalidOwner) {
  ItemStore store;
  Item item = MakeItem(kInvalidUserId, {1}, 0.5f);
  EXPECT_EQ(store.Add(item).status().code(), StatusCode::kInvalidArgument);
}

TEST(ItemStoreTest, RejectsEmptyTagList) {
  ItemStore store;
  EXPECT_EQ(store.Add(MakeItem(1, {}, 0.5f)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ItemStoreTest, RejectsQualityOutOfRange) {
  ItemStore store;
  EXPECT_FALSE(store.Add(MakeItem(1, {0}, -0.1f)).ok());
  EXPECT_FALSE(store.Add(MakeItem(1, {0}, 1.1f)).ok());
  EXPECT_TRUE(store.Add(MakeItem(1, {0}, 0.0f)).ok());
  EXPECT_TRUE(store.Add(MakeItem(1, {0}, 1.0f)).ok());
}

TEST(ItemStoreTest, FailedAddLeavesStoreUnchanged) {
  ItemStore store;
  ASSERT_TRUE(store.Add(MakeItem(1, {0}, 0.5f)).ok());
  ASSERT_FALSE(store.Add(MakeItem(1, {}, 0.5f)).ok());
  EXPECT_EQ(store.num_items(), 1u);
  EXPECT_EQ(store.tags(0).size(), 1u);
}

TEST(ItemStoreTest, TagUniverseTracksMaxTag) {
  ItemStore store;
  EXPECT_EQ(store.TagUniverseSize(), 0u);
  ASSERT_TRUE(store.Add(MakeItem(1, {41}, 0.5f)).ok());
  EXPECT_EQ(store.TagUniverseSize(), 42u);
  ASSERT_TRUE(store.Add(MakeItem(1, {7}, 0.5f)).ok());
  EXPECT_EQ(store.TagUniverseSize(), 42u);
}

TEST(ItemStoreTest, MemoryGrowsWithItems) {
  ItemStore small;
  ASSERT_TRUE(small.Add(MakeItem(0, {0}, 0.1f)).ok());
  ItemStore big;
  // Storage is chunked (StableColumn), so growth is only observable once
  // the item count crosses a chunk boundary.
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        big.Add(MakeItem(static_cast<UserId>(i % 10),
                         {static_cast<TagId>(i % 100)}, 0.5f))
            .ok());
  }
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(ItemStoreTest, ViewPinsAPrefix) {
  ItemStore store;
  ASSERT_TRUE(store.Add(MakeItem(1, {5}, 0.5f)).ok());
  ASSERT_TRUE(store.Add(MakeItem(2, {9}, 0.6f)).ok());
  const ItemStoreView view(store);
  EXPECT_EQ(view.num_items(), 2u);
  EXPECT_EQ(view.TagUniverseSize(), 10u);

  // Appends past the view's bound do not change what the view exposes.
  ASSERT_TRUE(store.Add(MakeItem(3, {100}, 0.7f)).ok());
  EXPECT_EQ(view.num_items(), 2u);
  EXPECT_EQ(view.TagUniverseSize(), 10u);
  EXPECT_EQ(view.owner(1), 2u);
  EXPECT_TRUE(view.HasTag(0, 5));
  EXPECT_EQ(store.num_items(), 3u);
}

// The single-writer / many-readers contract: readers bounded by an
// observed num_items() must see fully-written, immutable items while the
// writer keeps appending. Run under -fsanitize=thread to verify the
// release/acquire publication (tools/run_tier1.sh --tsan does this).
TEST(ItemStoreTest, ConcurrentReadersSeePublishedPrefix) {
  constexpr size_t kItems = 20000;
  constexpr int kReaders = 4;
  ItemStore store;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &done, &violations] {
      while (!done.load(std::memory_order_acquire)) {
        const size_t bound = store.num_items();
        for (size_t i = 0; i < bound; ++i) {
          const ItemId item = static_cast<ItemId>(i);
          const bool ok = store.owner(item) == i % 10 &&
                          store.quality(item) == 0.5f &&
                          store.tags(item).size() == 1 &&
                          store.tags(item)[0] == static_cast<TagId>(i % 97);
          if (!ok) violations.fetch_add(1);
        }
      }
    });
  }

  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(store
                    .Add(MakeItem(static_cast<UserId>(i % 10),
                                  {static_cast<TagId>(i % 97)}, 0.5f))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(store.num_items(), kItems);
}

TEST(ItemStoreTest, ValidateForAddMatchesAddVerdicts) {
  ItemStore store;
  const Item good = MakeItem(1, {3, 1, 3}, 0.5f);  // dup tags are fine
  EXPECT_TRUE(store.ValidateForAdd(good).ok());
  EXPECT_TRUE(store.Add(good).ok());

  Item bad_quality = good;
  bad_quality.quality = 1.5f;
  EXPECT_EQ(store.ValidateForAdd(bad_quality).code(),
            StatusCode::kInvalidArgument);
  Item no_tags = good;
  no_tags.tags.clear();
  EXPECT_EQ(store.ValidateForAdd(no_tags).code(),
            StatusCode::kInvalidArgument);
}

TEST(ItemStoreTest, TagLimitCountsDistinctTagsInAnyOrder) {
  constexpr size_t kMaxRun = StableColumn<TagId>::kMaxRun;
  std::vector<TagId> ascending(kMaxRun + 1);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<TagId>(i);
  }
  std::vector<TagId> descending(ascending.rbegin(), ascending.rend());
  // kMaxRun + 1 entries but only kMaxRun distinct tags.
  std::vector<TagId> duplicated = ascending;
  duplicated.back() = duplicated.front();

  ItemStore store;
  for (const auto& tags : {ascending, descending}) {
    const Item item = MakeItem(1, tags, 0.5f);
    EXPECT_EQ(store.ValidateForAdd(item).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(store.ValidateForAddAll({&item, 1}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(store.Add(item).ok());
  }
  EXPECT_EQ(store.num_items(), 0u);

  const Item item = MakeItem(1, duplicated, 0.5f);
  EXPECT_TRUE(store.ValidateForAdd(item).ok());
  EXPECT_TRUE(store.ValidateForAddAll({&item, 1}).ok());
  const auto id = store.Add(item);
  ASSERT_TRUE(id.ok());
  const auto stored = store.tags(id.value());
  ASSERT_EQ(stored.size(), kMaxRun);
  EXPECT_TRUE(std::is_sorted(stored.begin(), stored.end()));
}

TEST(ItemStoreTest, ValidateForAddAllAcceptsLargeBatches) {
  ItemStore store;
  // The cumulative capacity bound must stay proportional to the batch's
  // real footprint: a bulk-load-sized batch of small items is nowhere
  // near the 268M-element column capacity and must pass.
  std::vector<Item> batch(40000, MakeItem(1, {2}, 0.5f));
  EXPECT_TRUE(store.ValidateForAddAll(batch).ok());

  batch[12345].quality = -1.0f;
  const Status status = store.ValidateForAddAll(batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("batch item 12345"), std::string::npos)
      << status.message();
  EXPECT_EQ(store.num_items(), 0u) << "validation must not mutate";
}

}  // namespace
}  // namespace amici
