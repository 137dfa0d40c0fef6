#ifndef AMICI_INGEST_INGEST_QUEUE_H_
#define AMICI_INGEST_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/item_store.h"
#include "util/ids.h"
#include "util/status.h"

namespace amici {

namespace internal {

/// Shared completion state behind one IngestTicket. Resolved exactly once
/// by the writer thread (or synchronously on the fallback path).
struct TicketState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Status status;
  /// Global ids assigned to the ticket's items, in enqueue order. Empty
  /// for friendship edits and failed batches.
  std::vector<ItemId> ids;
  /// Queue admission sequence number (monotonic per queue).
  uint64_t sequence = 0;
};

}  // namespace internal

/// A handle to one enqueued ingest operation. Cheap to copy; all copies
/// observe the same completion. Default-constructed tickets are invalid.
class IngestTicket {
 public:
  IngestTicket() = default;
  explicit IngestTicket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  /// Builds an already-completed ticket (the service's synchronous
  /// fallback when no pipeline is running).
  static IngestTicket Resolved(Status status, std::vector<ItemId> ids);

  bool valid() const { return state_ != nullptr; }

  /// Queue admission order; later tickets have larger sequences.
  uint64_t sequence() const;

  /// True once the writer thread has applied (or rejected) the operation.
  bool done() const;

  /// Blocks until the operation is applied; returns its final status.
  Status Wait() const;

  /// Ids assigned to the ticket's items. Only meaningful after Wait()
  /// returned Ok; empty for friendship edits.
  std::vector<ItemId> ids() const;

 private:
  std::shared_ptr<internal::TicketState> state_;
};

/// What a producer experiences when the queue is at capacity.
enum class BackpressureMode {
  /// Producers wait until the writer thread frees a slot.
  kBlock,
  /// Producers get ResourceExhausted immediately (shed load upstream).
  kReject,
  /// Item batches are folded into the newest queued batch instead of
  /// occupying a new slot, so bursts absorb without waiting while BOTH
  /// bounds hold: at most `capacity` ops, each at most
  /// `max_coalesced_items` items. When folding is impossible — the
  /// newest op is a friendship edit (folding past it would reorder), or
  /// the tail batch is at its size cap — the producer blocks like
  /// kBlock.
  kCoalesce,
};

/// One queued operation, as handed to the writer thread by PopAll().
struct IngestOp {
  enum class Kind { kItems, kAddFriendship, kRemoveFriendship };

  /// One enqueued batch inside a (possibly coalesced) items op: `count`
  /// consecutive items belong to `ticket`.
  struct Slice {
    std::shared_ptr<internal::TicketState> ticket;
    size_t count = 0;
  };

  Kind kind = Kind::kItems;
  /// kItems: the concatenated batches, slice by slice.
  std::vector<Item> items;
  std::vector<Slice> slices;
  /// Friendship edits.
  UserId u = 0;
  UserId v = 0;
  std::shared_ptr<internal::TicketState> ticket;  // edits only
};

/// Producer-side counters (drain-side counters live in IngestPipeline;
/// IngestPipeline::counters() merges both into one snapshot).
struct IngestCounters {
  uint64_t batches_enqueued = 0;
  uint64_t items_enqueued = 0;
  uint64_t edits_enqueued = 0;
  /// Batches folded into an earlier queued batch (kCoalesce at capacity).
  uint64_t batches_coalesced = 0;
  /// Batches/edits refused (kReject at capacity, or queue closed).
  uint64_t rejected = 0;
  /// Times a producer had to wait for a slot (kBlock at capacity).
  uint64_t producer_waits = 0;
  uint64_t max_queue_depth = 0;
  // --- drain side (filled in by IngestPipeline::counters()) ------------
  /// Writer wake-ups that applied at least one op.
  uint64_t drain_cycles = 0;
  /// AddItems calls issued; < batches_enqueued when drains coalesced
  /// adjacent batches into one call (one snapshot publish each).
  uint64_t apply_calls = 0;
  uint64_t items_applied = 0;
  uint64_t edits_applied = 0;
  uint64_t apply_errors = 0;
  /// Exponentially-weighted items/s over the drain side (time constant
  /// ~1s), updated once per drain cycle. 0 until the first cycle applies
  /// items; decays towards the recent rate, so a stalled pipeline reads
  /// low instead of reporting its lifetime average forever.
  double items_per_sec_ewma = 0.0;
};

/// Bounded multi-producer single-consumer queue of ingest operations.
///
/// Thread-safety: any number of producers may Push* concurrently with one
/// consumer calling PopAll. Close() may be called from any thread;
/// afterwards producers are rejected and PopAll drains what is left, then
/// returns empty.
class IngestQueue {
 public:
  struct Options {
    /// Maximum queued ops before backpressure applies; >= 1.
    size_t capacity = 1024;
    BackpressureMode backpressure = BackpressureMode::kBlock;
    /// kCoalesce only: a coalesced batch stops absorbing further batches
    /// at this many items (the producer then blocks), which caps the
    /// buffered backlog at capacity * max_coalesced_items items.
    size_t max_coalesced_items = 65536;
  };

  explicit IngestQueue(Options options);

  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  /// Enqueues a batch of items (one ticket covering the whole batch).
  /// Empty batches complete immediately without occupying a slot.
  Result<IngestTicket> PushItems(std::vector<Item> items);

  /// Enqueues one friendship edit.
  Result<IngestTicket> PushAddFriendship(UserId u, UserId v);
  Result<IngestTicket> PushRemoveFriendship(UserId u, UserId v);

  /// Consumer side: blocks until at least one op is queued (or the queue
  /// is closed), then returns everything queued, in admission order. An
  /// empty result means closed-and-drained — the consumer should exit.
  std::vector<IngestOp> PopAll();

  /// Rejects future producers and wakes everyone (blocked producers get
  /// ResourceExhausted; the consumer drains the remainder).
  void Close();

  /// Sequence number of the newest admitted operation (0 when none yet).
  /// The Flush() barrier waits for the applied sequence to reach this.
  uint64_t last_sequence() const;

  size_t pending_ops() const;

  /// Producer-side counter snapshot.
  IngestCounters counters() const;

 private:
  Result<IngestTicket> PushEdit(IngestOp::Kind kind, UserId u, UserId v);

  /// Waits for a slot (kBlock) or reports how the caller must proceed.
  /// Returns Ok with *coalesce set when the op should be folded into the
  /// queue tail instead of appended. Callers hold `mutex_`.
  Status AdmitLocked(bool coalescible, bool* coalesce,
                     std::unique_lock<std::mutex>& lock);

  const Options options_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;  // consumer waits
  std::condition_variable space_available_;  // blocked producers wait
  std::vector<IngestOp> ops_;
  bool closed_ = false;
  uint64_t last_sequence_ = 0;
  IngestCounters counters_;
};

}  // namespace amici

#endif  // AMICI_INGEST_INGEST_QUEUE_H_
