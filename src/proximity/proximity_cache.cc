#include "proximity/proximity_cache.h"

#include <utility>

#include "util/logging.h"

namespace amici {

ProximityCache::ProximityCache(const ProximityModel* model, size_t capacity)
    : model_(model), capacity_(capacity) {
  AMICI_CHECK(capacity >= 1);
}

std::shared_ptr<const ProximityVector> ProximityCache::TryGet(
    UserId source, uint64_t graph_version) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(source);
  if (it != entries_.end() && it->second.graph_version == graph_version) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    return it->second.vector;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ProximityCache::Put(UserId source, uint64_t graph_version,
                         std::shared_ptr<const ProximityVector> vector) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(source);
  if (it != entries_.end()) {
    if (it->second.graph_version < graph_version) {
      // The cached entry is from an older generation: replace in place.
      it->second.vector = std::move(vector);
      it->second.graph_version = graph_version;
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    }
    // Same or newer generation already cached: keep it (a straggler
    // pinned to an old generation must not clobber fresher state).
    return;
  }
  lru_.push_front(source);
  entries_.emplace(source,
                   Entry{std::move(vector), lru_.begin(), graph_version});
  if (entries_.size() > capacity_) {
    const UserId victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
  }
}

std::vector<UserId> ProximityCache::HottestUsers(size_t n) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<UserId> users;
  users.reserve(std::min(n, entries_.size()));
  for (const UserId user : lru_) {
    if (users.size() >= n) break;
    users.push_back(user);
  }
  return users;
}

std::shared_ptr<const ProximityVector> ProximityCache::Get(
    const SocialGraph& graph, UserId source, uint64_t graph_version) {
  AMICI_CHECK(model_ != nullptr)
      << "compute-through Get requires a model; use TryGet/Put otherwise";
  if (auto cached = TryGet(source, graph_version)) return cached;

  // Compute outside the lock: concurrent misses may duplicate work for the
  // same user, but never block each other on a long PPR computation.
  // (Proximity partitions add single-flight de-duplication on top.)
  auto vector = std::make_shared<const ProximityVector>(
      model_->Compute(graph, source));
  Put(source, graph_version, vector);
  return vector;
}

void ProximityCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  entries_.clear();
}

size_t ProximityCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace amici
