#include "storage/item_store.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace amici {

namespace {

/// Sorted, deduplicated copy of the tag list (the stored form).
std::vector<TagId> NormalizedTags(const Item& item) {
  std::vector<TagId> tags = item.tags;
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  return tags;
}

/// True when the tag list is already in stored form (strictly ascending).
bool TagsNormalized(const std::vector<TagId>& tags) {
  return std::adjacent_find(tags.begin(), tags.end(),
                            [](TagId a, TagId b) { return a >= b; }) ==
         tags.end();
}

/// Number of distinct tags; allocates only when the list is not already
/// sorted and unique.
size_t DistinctTagCount(const Item& item) {
  return TagsNormalized(item.tags) ? item.tags.size()
                                   : NormalizedTags(item).size();
}

/// Item validity checks shared by Add and the ValidateForAdd* family;
/// `distinct_tags` counts the normalized list. Capacity is checked
/// separately.
Status ValidateItemShape(const Item& item, size_t distinct_tags) {
  if (item.owner == kInvalidUserId) {
    return Status::InvalidArgument("item owner must be a valid user");
  }
  if (item.tags.empty()) {
    return Status::InvalidArgument("item must carry at least one tag");
  }
  if (item.quality < 0.0f || item.quality > 1.0f) {
    return Status::InvalidArgument(
        StringPrintf("quality %.3f outside [0, 1]", item.quality));
  }
  if (distinct_tags > StableColumn<TagId>::kMaxRun) {
    return Status::InvalidArgument("item carries too many tags");
  }
  return Status::Ok();
}

}  // namespace

Status ItemStore::ValidateForAdd(const Item& item) const {
  const size_t distinct_tags = DistinctTagCount(item);
  AMICI_RETURN_IF_ERROR(ValidateItemShape(item, distinct_tags));
  if (!owner_.CanAppend(1) || !tag_data_.CanAppend(distinct_tags)) {
    return Status::ResourceExhausted("item store is at capacity");
  }
  return Status::Ok();
}

Status ItemStore::ValidateForAddAll(std::span<const Item> items) const {
  // Cumulative capacity. An AppendRun pads only when the run would
  // straddle a chunk boundary, and the padding (kChunkSize - used) is
  // then strictly less than the run length — so 2x the run length is a
  // conservative per-run bound that stays proportional to the batch.
  size_t tag_slots = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    const size_t distinct_tags = DistinctTagCount(items[i]);
    const Status status = ValidateItemShape(items[i], distinct_tags);
    if (!status.ok()) {
      return Status(status.code(), StringPrintf("batch item %zu: %s", i,
                                                status.message().c_str()));
    }
    tag_slots += 2 * distinct_tags;
  }
  // Mirror CanAppend's full-chunk slack per column so that after Ok()
  // every per-item CanAppend along the batch is guaranteed to pass.
  if (owner_.size() + items.size() + StableColumn<UserId>::kChunkSize >
          StableColumn<UserId>::kMaxElements ||
      tag_data_.size() + tag_slots + StableColumn<TagId>::kChunkSize >
          StableColumn<TagId>::kMaxElements) {
    return Status::ResourceExhausted(
        "batch does not fit: item store is near capacity");
  }
  return Status::Ok();
}

Result<ItemId> ItemStore::Add(const Item& item) {
  // Store the caller's list as is when it is already sorted and unique.
  const bool in_stored_form = TagsNormalized(item.tags);
  std::vector<TagId> sorted;
  if (!in_stored_form) sorted = NormalizedTags(item);
  const std::vector<TagId>& tags = in_stored_form ? item.tags : sorted;
  AMICI_RETURN_IF_ERROR(ValidateItemShape(item, tags.size()));
  if (!owner_.CanAppend(1) || !tag_data_.CanAppend(tags.size())) {
    return Status::ResourceExhausted("item store is at capacity");
  }

  const size_t id = num_items_.load(std::memory_order_relaxed);
  owner_.push_back(item.owner);
  quality_.push_back(item.quality);
  has_geo_.push_back(item.has_geo ? 1 : 0);
  latitude_.push_back(item.latitude);
  longitude_.push_back(item.longitude);
  const size_t start = tag_data_.AppendRun(tags.data(), tags.size());
  tag_starts_.push_back(start);
  tag_counts_.push_back(static_cast<uint32_t>(tags.size()));

  size_t universe = tag_universe_.load(std::memory_order_relaxed);
  for (const TagId tag : tags) {
    universe = std::max(universe, static_cast<size_t>(tag) + 1);
  }
  tag_universe_.store(universe, std::memory_order_release);

  // Publish last: readers that observe num_items() > id are guaranteed to
  // see every column of item `id` (release/acquire on num_items_).
  num_items_.store(id + 1, std::memory_order_release);
  return static_cast<ItemId>(id);
}

Status ItemStore::AppendColumnarBlock(
    size_t count, const UserId* owner, const float* quality,
    const uint8_t* has_geo, const float* latitude, const float* longitude,
    const uint32_t* tag_counts, const TagId* tag_data, size_t total_tags) {
  // Validate the whole block up front so it appends entirely or not at
  // all (the all-or-nothing contract Add gives per row). The checks run
  // branchless — violation bits accumulate over whole columns, which the
  // compiler vectorizes — and only on failure does the precise per-row
  // loop rerun to name the offending row (restart-latency hot path).
  size_t universe = tag_universe_.load(std::memory_order_relaxed);
  bool bad_row = false;
  for (size_t i = 0; i < count; ++i) {
    bad_row |= owner[i] == kInvalidUserId;
    bad_row |= !(quality[i] >= 0.0f && quality[i] <= 1.0f);
    bad_row |= tag_counts[i] - 1 >= StableColumn<TagId>::kMaxRun;  // run==0 too
  }
  // Tag runs: each must be strictly ascending. Equivalent global form —
  // every adjacent descent in the concatenated tag data must coincide
  // with a run boundary, and the runs must cover total_tags exactly.
  // The same pass tracks the block's max tag (runs are ascending, so
  // the max anywhere is the max of some run's last element).
  size_t descents = 0;
  TagId max_tag = total_tags > 0 ? tag_data[0] : 0;
  for (size_t t = 1; t < total_tags; ++t) {
    descents += tag_data[t] <= tag_data[t - 1];
    max_tag = std::max(max_tag, tag_data[t]);
  }
  if (total_tags > 0) {
    universe = std::max(universe, static_cast<size_t>(max_tag) + 1);
  }
  size_t boundary_descents = 0;
  size_t tags_seen = 0;
  bool bad_cover = bad_row;
  for (size_t i = 0; i < count && !bad_cover; ++i) {
    tags_seen += tag_counts[i];
    bad_cover = tags_seen > total_tags;
    boundary_descents += tags_seen < total_tags &&
                         tag_data[tags_seen] <= tag_data[tags_seen - 1];
  }
  if (bad_cover || tags_seen != total_tags || descents != boundary_descents) {
    // Precise pass, cold: name the first offending row.
    tags_seen = 0;
    for (size_t i = 0; i < count; ++i) {
      if (owner[i] == kInvalidUserId) {
        return Status::InvalidArgument(
            StringPrintf("block row %zu: owner must be a valid user", i));
      }
      if (quality[i] < 0.0f || quality[i] > 1.0f) {
        return Status::InvalidArgument(StringPrintf(
            "block row %zu: quality %.3f outside [0, 1]", i, quality[i]));
      }
      const size_t run = tag_counts[i];
      if (run == 0) {
        return Status::InvalidArgument(
            StringPrintf("block row %zu: item must carry at least one tag", i));
      }
      if (run > StableColumn<TagId>::kMaxRun) {
        return Status::InvalidArgument(
            StringPrintf("block row %zu: item carries too many tags", i));
      }
      if (run > total_tags - tags_seen) {
        return Status::InvalidArgument("block tag runs overflow the tag data");
      }
      const TagId* tags = tag_data + tags_seen;
      for (size_t t = 1; t < run; ++t) {
        if (tags[t] <= tags[t - 1]) {
          return Status::InvalidArgument(StringPrintf(
              "block row %zu: tags are not sorted and unique", i));
        }
      }
      tags_seen += run;
    }
    return Status::InvalidArgument("block tag runs underflow the tag data");
  }
  // Capacity: 2x per-run length conservatively covers AppendRun padding
  // (see ValidateForAddAll), plus CanAppend's full-chunk slack.
  if (!owner_.CanAppendAll(count + StableColumn<UserId>::kChunkSize) ||
      !tag_data_.CanAppendAll(2 * total_tags +
                              StableColumn<TagId>::kChunkSize)) {
    return Status::ResourceExhausted(
        "block does not fit: item store is near capacity");
  }

  const size_t id = num_items_.load(std::memory_order_relaxed);
  owner_.AppendAll(owner, count);
  quality_.AppendAll(quality, count);
  has_geo_.AppendAll(has_geo, count);
  latitude_.AppendAll(latitude, count);
  longitude_.AppendAll(longitude, count);
  tag_counts_.AppendAll(tag_counts, count);
  std::vector<uint64_t> starts(count);
  tag_data_.AppendRuns(tag_data, tag_counts, count, starts.data());
  tag_starts_.AppendAll(starts.data(), count);
  tag_universe_.store(universe, std::memory_order_release);
  // Publish last, as in Add: the release store covers every column.
  num_items_.store(id + count, std::memory_order_release);
  return Status::Ok();
}

bool ItemStore::HasTag(ItemId item, TagId tag) const {
  const auto item_tags = tags(item);
  return std::binary_search(item_tags.begin(), item_tags.end(), tag);
}

size_t ItemStore::MemoryBytes() const {
  return owner_.AllocatedBytes() + quality_.AllocatedBytes() +
         has_geo_.AllocatedBytes() + latitude_.AllocatedBytes() +
         longitude_.AllocatedBytes() + tag_starts_.AllocatedBytes() +
         tag_counts_.AllocatedBytes() + tag_data_.AllocatedBytes();
}

void ItemStore::CopyFrom(const ItemStore& other) {
  owner_ = other.owner_;
  quality_ = other.quality_;
  has_geo_ = other.has_geo_;
  latitude_ = other.latitude_;
  longitude_ = other.longitude_;
  tag_starts_ = other.tag_starts_;
  tag_counts_ = other.tag_counts_;
  tag_data_ = other.tag_data_;
  num_items_.store(other.num_items_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  tag_universe_.store(other.tag_universe_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

void ItemStore::MoveFrom(ItemStore&& other) noexcept {
  owner_ = std::move(other.owner_);
  quality_ = std::move(other.quality_);
  has_geo_ = std::move(other.has_geo_);
  latitude_ = std::move(other.latitude_);
  longitude_ = std::move(other.longitude_);
  tag_starts_ = std::move(other.tag_starts_);
  tag_counts_ = std::move(other.tag_counts_);
  tag_data_ = std::move(other.tag_data_);
  num_items_.store(other.num_items_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  tag_universe_.store(other.tag_universe_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  other.num_items_.store(0, std::memory_order_relaxed);
  other.tag_universe_.store(0, std::memory_order_relaxed);
}

}  // namespace amici
