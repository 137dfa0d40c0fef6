#include "service/search_service.h"

#include <mutex>
#include <utility>

namespace amici {

void MergeSearchStats(const SearchStats& from, SearchStats* into) {
  into->aggregation.sorted_accesses += from.aggregation.sorted_accesses;
  into->aggregation.random_accesses += from.aggregation.random_accesses;
  into->aggregation.candidates_scored += from.aggregation.candidates_scored;
  into->aggregation.blocks_decoded += from.aggregation.blocks_decoded;
  into->aggregation.blocks_skipped += from.aggregation.blocks_skipped;
  into->items_considered += from.items_considered;
  into->tail_items_scanned += from.tail_items_scanned;
  into->proximity_computations += from.proximity_computations;
  into->proximity_cache_hits += from.proximity_cache_hits;
  into->compactions_merge += from.compactions_merge;
  into->compactions_rebuild += from.compactions_rebuild;
  into->compaction_items_merged += from.compaction_items_merged;
  into->compaction_lists_touched += from.compaction_lists_touched;
  // Any truncated shard makes the merged result best-effort.
  into->truncated = into->truncated || from.truncated;
}

// --- Query QoS edge ----------------------------------------------------

std::shared_ptr<AdmissionController> SearchService::admission() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  return admission_;
}

void SearchService::EnableAdmissionControl(
    AdmissionController::Options options) {
  auto controller = std::make_shared<AdmissionController>(std::move(options));
  std::lock_guard<std::mutex> lock(background_mutex_);
  admission_ = std::move(controller);
}

void SearchService::DisableAdmissionControl() {
  std::lock_guard<std::mutex> lock(background_mutex_);
  admission_ = nullptr;
}

SearchResponse SearchService::MakeShedResponse(
    const SearchRequest& request) const {
  SearchResponse response;
  response.shed = true;
  response.backend = backend_name();
  response.algorithm =
      AlgorithmName(request.algorithm.value_or(AlgorithmId::kHybrid));
  response.shards_touched = 0;
  return response;
}

SearchRequest SearchService::ApplyDegrade(
    const SearchRequest& request, const AdmissionController::Options& opts) {
  SearchRequest degraded = request;
  degraded.algorithm = opts.degrade_algorithm;
  if (opts.degrade_k_cap > 0 && degraded.query.k > opts.degrade_k_cap) {
    degraded.query.k = opts.degrade_k_cap;
  }
  if (opts.degrade_timeout_ms > 0.0 &&
      (degraded.timeout_ms <= 0.0 ||
       degraded.timeout_ms > opts.degrade_timeout_ms)) {
    degraded.timeout_ms = opts.degrade_timeout_ms;
  }
  return degraded;
}

void SearchService::AccountResponse(const Result<SearchResponse>& response) {
  if (!response.ok()) return;
  const SearchResponse& r = response.value();
  if (r.stats.truncated) {
    qos_truncated_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r.deadline_exceeded) {
    qos_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  qos_shards_abandoned_.fetch_add(r.shards_abandoned,
                                  std::memory_order_relaxed);
  qos_shards_failed_.fetch_add(r.shards_failed, std::memory_order_relaxed);
}

Result<SearchResponse> SearchService::RunOneRequest(
    const SearchRequest& request,
    const std::shared_ptr<AdmissionController>& admission) {
  if (admission == nullptr) {
    // QoS edge disabled: pure pass-through, bit-identical to the
    // pre-admission behaviour (only the cumulative counters observe).
    qos_admitted_.fetch_add(1, std::memory_order_relaxed);
    Result<SearchResponse> response = SearchImpl(request);
    AccountResponse(response);
    return response;
  }
  const AdmissionController::Ticket ticket =
      admission->Admit(EstimateQueryCost(request.query));
  if (ticket.decision == AdmissionController::Decision::kShed) {
    qos_shed_.fetch_add(1, std::memory_order_relaxed);
    return MakeShedResponse(request);
  }
  const bool degrade =
      ticket.decision == AdmissionController::Decision::kDegrade;
  Result<SearchResponse> response =
      degrade ? SearchImpl(ApplyDegrade(request, admission->options()))
              : SearchImpl(request);
  admission->Release();
  if (degrade) {
    qos_degraded_.fetch_add(1, std::memory_order_relaxed);
    if (response.ok()) response.value().degraded = true;
  } else {
    qos_admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  AccountResponse(response);
  return response;
}

Result<SearchResponse> SearchService::Search(const SearchRequest& request) {
  return RunOneRequest(request, admission());
}

std::vector<Result<SearchResponse>> SearchService::SearchBatch(
    std::span<const SearchRequest> requests) {
  const std::shared_ptr<AdmissionController> controller = admission();
  if (controller == nullptr) {
    // Pass-through: hand the whole batch to the backend (it parallelizes
    // internally); account each row.
    qos_admitted_.fetch_add(requests.size(), std::memory_order_relaxed);
    std::vector<Result<SearchResponse>> responses =
        SearchBatchImpl(requests);
    for (const auto& response : responses) AccountResponse(response);
    return responses;
  }

  // Per-row admission BEFORE dispatch: shed rows answer immediately
  // (their slot in the batch is a well-formed shed response), the rest
  // run as one backend batch with degrade overrides already applied.
  std::vector<Result<SearchResponse>> responses(
      requests.size(), Status::Internal("batch slot never executed"));
  std::vector<SearchRequest> to_run;
  std::vector<size_t> to_run_slot;
  std::vector<char> row_degraded;
  size_t slots_held = 0;
  to_run.reserve(requests.size());
  to_run_slot.reserve(requests.size());
  row_degraded.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const AdmissionController::Ticket ticket =
        controller->Admit(EstimateQueryCost(requests[i].query));
    if (ticket.decision == AdmissionController::Decision::kShed) {
      qos_shed_.fetch_add(1, std::memory_order_relaxed);
      responses[i] = MakeShedResponse(requests[i]);
      continue;
    }
    ++slots_held;
    const bool degrade =
        ticket.decision == AdmissionController::Decision::kDegrade;
    to_run.push_back(degrade
                         ? ApplyDegrade(requests[i], controller->options())
                         : requests[i]);
    to_run_slot.push_back(i);
    row_degraded.push_back(degrade ? 1 : 0);
  }
  if (!to_run.empty()) {
    std::vector<Result<SearchResponse>> ran = SearchBatchImpl(to_run);
    for (size_t j = 0; j < ran.size(); ++j) {
      if (row_degraded[j]) {
        qos_degraded_.fetch_add(1, std::memory_order_relaxed);
        if (ran[j].ok()) ran[j].value().degraded = true;
      } else {
        qos_admitted_.fetch_add(1, std::memory_order_relaxed);
      }
      AccountResponse(ran[j]);
      responses[to_run_slot[j]] = std::move(ran[j]);
    }
  }
  for (size_t s = 0; s < slots_held; ++s) controller->Release();
  return responses;
}

SearchService::QosCounters SearchService::qos_counters() const {
  QosCounters counters;
  counters.admitted = qos_admitted_.load(std::memory_order_relaxed);
  counters.degraded = qos_degraded_.load(std::memory_order_relaxed);
  counters.shed = qos_shed_.load(std::memory_order_relaxed);
  counters.truncated = qos_truncated_.load(std::memory_order_relaxed);
  counters.deadline_exceeded =
      qos_deadline_exceeded_.load(std::memory_order_relaxed);
  counters.shards_abandoned =
      qos_shards_abandoned_.load(std::memory_order_relaxed);
  counters.shards_failed =
      qos_shards_failed_.load(std::memory_order_relaxed);
  return counters;
}

std::string SearchService::QosSummaryLine() const {
  const QosCounters c = qos_counters();
  const std::shared_ptr<AdmissionController> controller = admission();
  std::string line =
      "[qos] admitted=" + std::to_string(c.admitted) +
      " degraded=" + std::to_string(c.degraded) +
      " shed=" + std::to_string(c.shed) +
      " truncated=" + std::to_string(c.truncated) +
      " deadline_exceeded=" + std::to_string(c.deadline_exceeded) +
      " shards_abandoned=" + std::to_string(c.shards_abandoned) +
      " shards_failed=" + std::to_string(c.shards_failed);
  if (controller != nullptr) {
    const AdmissionController::Counters a = controller->counters();
    line += " inflight=" + std::to_string(controller->inflight()) +
            " peak_inflight=" + std::to_string(a.peak_inflight);
  }
  line += "\n";
  return line;
}

// --- Background ingest / compaction plumbing ---------------------------

std::shared_ptr<IngestPipeline> SearchService::pipeline() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  return pipeline_;
}

std::shared_ptr<CompactionScheduler> SearchService::scheduler() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  return scheduler_;
}

Status SearchService::StartIngest(const IngestPipeline::Options& options) {
  std::lock_guard<std::mutex> lock(background_mutex_);
  if (pipeline_ != nullptr) {
    return Status::FailedPrecondition("ingest pipeline already running");
  }
  pipeline_ = std::make_shared<IngestPipeline>(this, options);
  return Status::Ok();
}

Status SearchService::StopIngest() {
  // shutdown_mutex_ spans the whole drain: a second concurrent caller
  // blocks here until the first caller's writer thread is joined, so
  // Stop's return always means "no writer thread is running".
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::shared_ptr<IngestPipeline> stopping = pipeline();
  if (stopping == nullptr) return Status::Ok();
  // Outside background_mutex_: Stop() drains the queue through this
  // service's mutators and unblocks producers waiting on backpressure.
  // The pipeline stays registered until the drain completes, so Flush()
  // issued concurrently still waits for queued work instead of
  // short-circuiting through the no-pipeline path.
  stopping->Stop();
  {
    std::lock_guard<std::mutex> lock(background_mutex_);
    pipeline_ = nullptr;
  }
  return Status::Ok();
}

bool SearchService::ingest_running() const { return pipeline() != nullptr; }

Result<IngestTicket> SearchService::EnqueueItems(std::vector<Item> items) {
  if (const auto active = pipeline(); active != nullptr) {
    return active->EnqueueItems(std::move(items));
  }
  // Synchronous fallback: apply now, hand back a completed ticket. Lets
  // callers write Enqueue + Flush once and run with or without the
  // pipeline (the ticket's status carries any rejection).
  Result<std::vector<ItemId>> ids = AddItems(items);
  if (!ids.ok()) return IngestTicket::Resolved(ids.status(), {});
  return IngestTicket::Resolved(Status::Ok(), std::move(ids).value());
}

Result<IngestTicket> SearchService::EnqueueFriendshipEdit(UserId u, UserId v,
                                                          bool adding) {
  // ONE pipeline snapshot decides both the validation mode and the
  // dispatch path — two separate reads could straddle a concurrent
  // Start/StopIngest and judge the edit under the wrong mode.
  const auto active = pipeline();
  // The provider is the single validation authority (the same rules the
  // edit itself will apply). Structural rejections (range, self-edge)
  // are always final at the edge; edge-EXISTENCE checks are only exact
  // when writes are synchronous — with a pipeline running, a still-
  // queued edit may legitimately change the edge's state before this
  // one applies (Add immediately followed by Remove is a valid ordered
  // sequence), so there the existence verdict rides the ticket instead.
  AMICI_RETURN_IF_ERROR(proximity_provider()->ValidateEdit(
      u, v, adding, /*check_existence=*/active == nullptr));
  if (active != nullptr) {
    return adding ? active->EnqueueAddFriendship(u, v)
                  : active->EnqueueRemoveFriendship(u, v);
  }
  return IngestTicket::Resolved(
      adding ? AddFriendship(u, v) : RemoveFriendship(u, v), {});
}

Result<IngestTicket> SearchService::EnqueueAddFriendship(UserId u, UserId v) {
  return EnqueueFriendshipEdit(u, v, /*adding=*/true);
}

Result<IngestTicket> SearchService::EnqueueRemoveFriendship(UserId u,
                                                            UserId v) {
  return EnqueueFriendshipEdit(u, v, /*adding=*/false);
}

Status SearchService::Flush() {
  if (const auto active = pipeline(); active != nullptr) {
    return active->Flush();
  }
  return Status::Ok();  // synchronous writes are always visible
}

IngestCounters SearchService::ingest_counters() const {
  if (const auto active = pipeline(); active != nullptr) {
    return active->counters();
  }
  return IngestCounters{};
}

Status SearchService::StartAutoCompaction(
    const CompactionScheduler::Options& options) {
  std::lock_guard<std::mutex> lock(background_mutex_);
  if (scheduler_ != nullptr) {
    return Status::FailedPrecondition("compaction scheduler already running");
  }
  scheduler_ = std::make_shared<CompactionScheduler>(this, options);
  return Status::Ok();
}

Status SearchService::StopAutoCompaction() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::shared_ptr<CompactionScheduler> stopping = scheduler();
  if (stopping == nullptr) return Status::Ok();
  stopping->Stop();  // outside background_mutex_: joins the poll thread
  {
    // Retire the count and unregister ATOMICALLY (one critical section):
    // auto_compactions() readers see either live-scheduler or
    // retired-count state, never a window with neither.
    std::lock_guard<std::mutex> lock(background_mutex_);
    retired_auto_compactions_ += stopping->compactions_triggered();
    scheduler_ = nullptr;
  }
  return Status::Ok();
}

bool SearchService::auto_compaction_running() const {
  return scheduler() != nullptr;
}

uint64_t SearchService::auto_compactions() const {
  std::lock_guard<std::mutex> lock(background_mutex_);
  uint64_t total = retired_auto_compactions_;
  if (scheduler_ != nullptr) total += scheduler_->compactions_triggered();
  return total;
}

void SearchService::ShutdownBackgroundWork() {
  // Scheduler first (no new compactions), then the pipeline (drains the
  // remaining queue synchronously through this service's mutators).
  StopAutoCompaction();
  StopIngest();
}

}  // namespace amici
