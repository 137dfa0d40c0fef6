#include "proximity/ppr_forward_push.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"

namespace amici {

namespace {

/// One touched user's push state.
struct PushRecord {
  double estimate;
  double residual;
  double threshold;  // epsilon · max(deg, 1), computed on first touch
  UserId user;
  bool queued;
};

/// Per-thread push state, reused across calls. A user's record is live
/// only when stamp_[u] equals the current epoch, so starting a new push
/// is O(1) instead of O(num_users). Nothing carries over between calls:
/// every record a push reads was created by that same push.
class PushScratch {
 public:
  /// Forgets the previous push and sizes the stamp arrays for `num_users`.
  void Reset(size_t num_users) {
    if (stamp_.size() < num_users) {
      stamp_.resize(num_users, 0);
      slot_.resize(num_users);
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    records_.clear();
    head_ = 0;
    queued_count_ = 0;
  }

  /// Index of u's record, creating it (zero mass) on first touch.
  uint32_t Touch(const SocialGraph& graph, UserId u, double epsilon) {
    if (stamp_[u] == epoch_) return slot_[u];
    const size_t degree = graph.Degree(u);
    const auto index = static_cast<uint32_t>(records_.size());
    records_.push_back(
        {0.0, 0.0, epsilon * static_cast<double>(degree == 0 ? 1 : degree),
         u, false});
    stamp_[u] = epoch_;
    slot_[u] = index;
    return index;
  }

  PushRecord& record(uint32_t index) { return records_[index]; }
  const std::vector<PushRecord>& records() const { return records_; }

  /// FIFO of record indices. A record is queued at most once at a time,
  /// so the ring never holds more entries than there are records.
  bool QueueEmpty() const { return queued_count_ == 0; }
  void Enqueue(uint32_t index) {
    records_[index].queued = true;
    if (queued_count_ == ring_.size()) GrowRing();
    ring_[(head_ + queued_count_) & (ring_.size() - 1)] = index;
    ++queued_count_;
  }
  uint32_t Dequeue() {
    const uint32_t index = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --queued_count_;
    records_[index].queued = false;
    return index;
  }

 private:
  /// Doubles the ring (a power of two), unwrapping it to start at 0.
  void GrowRing() {
    std::vector<uint32_t> grown(std::max<size_t>(64, 2 * ring_.size()));
    for (size_t i = 0; i < queued_count_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }

  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> slot_;
  uint32_t epoch_ = 0;
  std::vector<PushRecord> records_;
  std::vector<uint32_t> ring_;
  size_t head_ = 0;
  size_t queued_count_ = 0;
};

}  // namespace

PprForwardPush::PprForwardPush(double restart_prob, double epsilon)
    : restart_prob_(restart_prob), epsilon_(epsilon) {
  AMICI_CHECK(restart_prob > 0.0 && restart_prob < 1.0);
  AMICI_CHECK(epsilon > 0.0);
}

ProximityVector PprForwardPush::Compute(const SocialGraph& graph,
                                        UserId source) const {
  AMICI_CHECK(source < graph.num_users());
  thread_local PushScratch scratch;
  scratch.Reset(graph.num_users());
  const uint32_t source_index = scratch.Touch(graph, source, epsilon_);
  scratch.record(source_index).residual = 1.0;
  scratch.Enqueue(source_index);

  while (!scratch.QueueEmpty()) {
    const uint32_t index = scratch.Dequeue();
    PushRecord& rec = scratch.record(index);
    const double r = rec.residual;
    if (r < rec.threshold) continue;

    rec.residual = 0.0;
    rec.estimate += restart_prob_ * r;
    const std::span<const UserId> friends = graph.Friends(rec.user);
    if (friends.empty()) {
      // Dangling user: the walk restarts, residual returns to the source.
      PushRecord& src = scratch.record(source_index);
      src.residual += (1.0 - restart_prob_) * r;
      if (!src.queued) scratch.Enqueue(source_index);
      continue;
    }
    const double share =
        (1.0 - restart_prob_) * r / static_cast<double>(friends.size());
    for (const UserId v : friends) {
      // Touch may grow the record array, so `rec` is not used past here.
      const uint32_t v_index = scratch.Touch(graph, v, epsilon_);
      PushRecord& neighbor = scratch.record(v_index);
      neighbor.residual += share;
      if (neighbor.residual >= neighbor.threshold && !neighbor.queued) {
        scratch.Enqueue(v_index);
      }
    }
  }

  // Records never pushed hold estimate 0; the source is excluded.
  const auto emitted = [source](const PushRecord& rec) {
    return rec.user != source && rec.estimate > 0.0;
  };
  std::vector<ProximityEntry> entries;
  entries.reserve(static_cast<size_t>(std::count_if(
      scratch.records().begin(), scratch.records().end(), emitted)));
  for (const PushRecord& rec : scratch.records()) {
    if (emitted(rec)) {
      entries.push_back({rec.user, static_cast<float>(rec.estimate)});
    }
  }
  return ProximityVector::FromUnnormalized(std::move(entries));
}

}  // namespace amici
