#ifndef AMICI_PROXIMITY_PROXIMITY_CACHE_H_
#define AMICI_PROXIMITY_PROXIMITY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/social_graph.h"
#include "proximity/proximity_model.h"
#include "util/ids.h"

namespace amici {

/// Thread-safe LRU cache of proximity vectors keyed by source user. Query
/// workloads are heavily skewed towards active users, so caching the
/// per-user proximity vector amortizes the dominant query-time cost; the
/// ablation in Table 3 quantifies the effect.
///
/// Two usage styles:
///  * the classic compute-through Get() (requires a model), and
///  * the split TryGet()/Put() surface a proximity partition uses to wrap
///    the cache in single-flight computation de-duplication.
class ProximityCache {
 public:
  /// Wraps `model` (not owned; must outlive the cache; may be null when
  /// only the TryGet/Put surface is used). Holds at most `capacity`
  /// vectors.
  ProximityCache(const ProximityModel* model, size_t capacity);

  ProximityCache(const ProximityCache&) = delete;
  ProximityCache& operator=(const ProximityCache&) = delete;

  /// Returns the (possibly cached) proximity vector of `source`. The
  /// shared_ptr keeps the vector alive even if it is evicted while in use.
  ///
  /// `graph_version` tags the entry with the graph generation it was
  /// computed from: a cached entry only hits when the caller's version
  /// matches, so a reader racing a friendship mutation can never be served
  /// (or poison the cache with) a vector from the wrong graph generation.
  /// Callers with an unversioned graph may leave it 0.
  std::shared_ptr<const ProximityVector> Get(const SocialGraph& graph,
                                             UserId source,
                                             uint64_t graph_version = 0);

  /// Lookup-only: the cached vector of `source` for exactly
  /// `graph_version`, or null on miss. Counts a hit/miss and touches the
  /// LRU position on hit. Never computes.
  std::shared_ptr<const ProximityVector> TryGet(UserId source,
                                                uint64_t graph_version);

  /// Inserts a computed vector. An existing entry for `source` is
  /// replaced only when it is from an OLDER generation (a newer cached
  /// generation is never clobbered by a straggler); the LRU evicts when
  /// over capacity. Does not count a hit or miss.
  void Put(UserId source, uint64_t graph_version,
           std::shared_ptr<const ProximityVector> vector);

  /// The `n` most-recently-used cached users, hottest first — the
  /// warm-over candidate set a provider recomputes after a generation
  /// bump.
  std::vector<UserId> HottestUsers(size_t n) const;

  /// Drops all cached entries.
  void Clear();

  /// Counter reads are safe concurrently with lookups (atomic: stats
  /// surfaces poll them while queries run).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  using LruList = std::list<UserId>;

  struct Entry {
    std::shared_ptr<const ProximityVector> vector;
    LruList::iterator lru_position;
    uint64_t graph_version = 0;
  };

  const ProximityModel* model_;
  size_t capacity_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recent
  std::unordered_map<UserId, Entry> entries_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace amici

#endif  // AMICI_PROXIMITY_PROXIMITY_CACHE_H_
