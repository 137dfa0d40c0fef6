#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "service/sharded_search_service.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amibench {
namespace {

using amici::AlgorithmId;
using amici::Item;
using amici::SearchRequest;
using amici::SearchResponse;
using amici::ShardedSearchService;
using amici::SocialQuery;
using amici::UserId;
using Service = ShardedSearchService;

// --- workload definitions ------------------------------------------------

/// One traffic mix over the medium dataset on 4 shards. Rates are fixed
/// absolute values (about a quarter of the closed-loop capacity on a
/// 4-core machine), not fractions of a capacity measured at run time, so
/// two commits receive the same load.
struct Spec {
  std::string name;
  double open_qps = 0.0;
  /// Open-loop senders, and clients of the closed loop.
  size_t threads = 4;
  /// A writer thread runs beside the readers (mixed_ingest).
  bool ingest = false;
};

/// read_hot / mixed_ingest query pool. Large enough that the ~200 costly
/// AND queries in it average out across seeds; small enough that its
/// users fit the 4,096-entry proximity cache.
constexpr size_t kPoolSize = 2048;
constexpr size_t kShards = 4;
/// Every request's deadline. It keeps the service's cancellation ticker
/// armed, as real callers do, and is far above any p99 seen on a busy
/// shared 4-core host (about 30 ms), so it cuts no request.
constexpr double kDeadlineMs = 1000.0;
/// mixed_ingest's writer: a 100-item batch per 20 reads and a friendship
/// edit per 8 batches. At the ~650 reads/s a quiet 4-core machine serves,
/// that is about 3,200 items/s and 4 edits/s. Inputs are generated for up
/// to kMaxReadsPerSecond on average, which no run has come near.
constexpr size_t kItemsPerBatch = 100;
constexpr uint64_t kReadsPerBatch = 20;
constexpr size_t kBatchesPerEdit = 8;
constexpr double kMaxReadsPerSecond = 1200.0;
/// The writer samples the unindexed tail before every this many batches.
constexpr size_t kUnindexedEvery = 4;
/// read_hot's write probe after its read phases: many small
/// sequential batches, so each window's p99 rests on enough samples.
constexpr size_t kProbeItemsPerBatch = 20;
constexpr size_t kProbeBatches = 3000;
constexpr size_t kProbeEdits = 6;
/// Setups and restarts per run; their medians are reported.
constexpr size_t kSetups = 5;
constexpr size_t kRestarts = 15;
/// Queries checked against the oracle after a restart.
constexpr size_t kRestartSample = 64;
/// Share of the run given to the open loop. The rest alternates
/// one-client and closed-loop slices of kSliceS (untraced) or replays
/// requests (traced).
constexpr double kOpenShare = 0.25;
constexpr double kSliceS = 1.0;
/// Open-loop percentiles are read per window of this many seconds and
/// the median window is reported (see WindowedPercentile).
constexpr double kLatencyWindowS = 1.0;
/// Write latency percentiles are read in this many equal windows.
constexpr double kWriteWindows = 5.0;
constexpr size_t kMaxTracedRequests = 4000;

Spec SpecFor(const std::string& name) {
  Spec spec;
  spec.name = name;
  if (name == "read_hot") {
    spec.open_qps = 1200.0;
  } else if (name == "mixed_ingest") {
    spec.open_qps = 250.0;
    spec.threads = 3;
    spec.ingest = true;
  } else {
    spec.name.clear();
  }
  return spec;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return amici::HashCombine(amici::Mix64(seed), stream);
}

// --- inputs ----------------------------------------------------------------

/// Everything generated from the seed before any timing starts. The
/// service only ever sees copies of these.
struct Inputs {
  amici::Dataset data;
  /// The query pool.
  std::vector<SocialQuery> queries;
  /// Open-loop request i asks queries[open_pick[i]].
  std::vector<uint32_t> open_pick;
  std::vector<double> open_schedule;
  std::vector<std::vector<Item>> batches;
  std::vector<std::pair<UserId, UserId>> edits;
};

bool GenerateQueryMix(const amici::Dataset& data, size_t count,
                      amici::MatchMode mode, bool geo, uint64_t seed,
                      std::vector<SocialQuery>* out, std::string* error) {
  amici::QueryWorkloadConfig config;
  config.num_queries = count;
  config.k = 10;
  config.alpha = 0.5;
  config.mode = mode;
  config.with_geo_filter = geo;
  config.seed = seed;
  auto queries = amici::GenerateQueries(data, config);
  if (!queries.ok()) {
    *error = "query generation: " + queries.status().ToString();
    return false;
  }
  out->insert(out->end(), queries.value().begin(), queries.value().end());
  return true;
}

/// New items shaped like the catalogue: a random owner, and the tags,
/// quality and position of a random existing item.
std::vector<Item> MakeBatch(const amici::Dataset& data, size_t size,
                            amici::Rng* rng) {
  std::vector<Item> batch;
  batch.reserve(size);
  const auto& store = data.store;
  for (size_t i = 0; i < size; ++i) {
    const auto like = static_cast<amici::ItemId>(rng->UniformIndex(store.num_items()));
    Item item;
    item.owner = static_cast<UserId>(rng->UniformIndex(data.graph.num_users()));
    const auto tags = store.tags(like);
    item.tags.assign(tags.begin(), tags.end());
    item.quality = static_cast<float>(rng->UniformDouble());
    item.has_geo = store.has_geo(like);
    item.latitude = store.latitude(like);
    item.longitude = store.longitude(like);
    batch.push_back(std::move(item));
  }
  return batch;
}

bool MakeInputs(const Spec& spec, const RunArgs& args, Inputs* in,
                std::string* error) {
  amici::DatasetConfig config = amici::MediumDataset();
  config.seed = SubSeed(args.seed, 1);
  auto data = amici::GenerateDataset(config);
  if (!data.ok()) {
    *error = "dataset generation: " + data.status().ToString();
    return false;
  }
  in->data = std::move(data).value();
  const double open_s = args.seconds * kOpenShare;
  in->open_schedule = PoissonSchedule(spec.open_qps, open_s, SubSeed(args.seed, 2));
  amici::Rng rng(SubSeed(args.seed, 3));
  // 80% OR, 10% AND, 10% geo-filtered, alpha 0.5.
  const size_t and_count = kPoolSize / 10;
  const size_t geo_count = kPoolSize / 10;
  const size_t or_count = kPoolSize - and_count - geo_count;
  if (!GenerateQueryMix(in->data, or_count, amici::MatchMode::kAny, false,
                        SubSeed(args.seed, 4), &in->queries, error) ||
      !GenerateQueryMix(in->data, and_count, amici::MatchMode::kAll, false,
                        SubSeed(args.seed, 5), &in->queries, error) ||
      !GenerateQueryMix(in->data, geo_count, amici::MatchMode::kAny, true,
                        SubSeed(args.seed, 6), &in->queries, error)) {
    return false;
  }
  rng.Shuffle(&in->queries);
  in->open_pick.resize(in->open_schedule.size());
  for (auto& pick : in->open_pick) {
    pick = static_cast<uint32_t>(rng.UniformIndex(in->queries.size()));
  }
  const size_t batches =
      spec.ingest ? static_cast<size_t>(kMaxReadsPerSecond * args.seconds) /
                            kReadsPerBatch + 1
                  : kProbeBatches;
  const size_t edits = spec.ingest ? batches / kBatchesPerEdit + 1 : kProbeEdits;
  const size_t batch_size = spec.ingest ? kItemsPerBatch : kProbeItemsPerBatch;
  for (size_t b = 0; b < batches; ++b) {
    in->batches.push_back(MakeBatch(in->data, batch_size, &rng));
  }
  // Distinct new friendships, so every edit is accepted.
  std::set<std::pair<UserId, UserId>> chosen;
  const size_t users = in->data.graph.num_users();
  while (in->edits.size() < edits) {
    auto u = static_cast<UserId>(rng.UniformIndex(users));
    auto v = static_cast<UserId>(rng.UniformIndex(users));
    if (u == v || in->data.graph.HasEdge(u, v)) continue;
    if (!chosen.insert({std::min(u, v), std::max(u, v)}).second) continue;
    in->edits.emplace_back(u, v);
  }
  return true;
}

// --- request accounting ----------------------------------------------------

std::vector<Ranked> ToRanked(const std::vector<amici::ScoredItem>& items) {
  std::vector<Ranked> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back({item.item, item.score});
  return out;
}

/// Counts what the timed phases sent and what of it failed.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  /// Deadline exceeded, truncated, shed or partial responses.
  std::atomic<uint64_t> degraded{0};
  /// Requests that returned an error status.
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> write_failures{0};
  std::atomic<uint64_t> missing_writes{0};

  /// Folds one response in; true when it is a complete, healthy answer.
  bool Account(const amici::Result<SearchResponse>& r) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!r.ok()) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const SearchResponse& resp = r.value();
    if (resp.deadline_exceeded || resp.stats.truncated || resp.shed ||
        resp.shards_abandoned > 0 || resp.shards_failed > 0) {
      degraded.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

SearchRequest MakeRequest(const SocialQuery& query, double deadline_ms) {
  SearchRequest request;
  request.query = query;
  request.timeout_ms = deadline_ms;
  return request;
}

/// The first few things that went wrong, for the report, plus summary
/// lines that are always kept. Thread-safe.
class Problems {
 public:
  void Add(std::string problem, bool summary = false) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (summary || ++details_ <= 8) list_.push_back(std::move(problem));
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(list_);
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> list_;  // guarded by mutex_
  size_t details_ = 0;             // guarded by mutex_
};

/// Runs fn(0..count) on `threads` threads.
void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < count; i = next++) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

/// Checks `got` against the exhaustive oracle on `service`; counts a
/// mismatch as a wrong answer.
void CheckAgainstOracle(Service* service, const SearchRequest& request,
                        const std::vector<Ranked>& got, Tally* tally,
                        Problems* problems) {
  SearchRequest oracle = request;
  oracle.algorithm = AlgorithmId::kExhaustive;
  oracle.timeout_ms = 0.0;
  auto want = service->Search(oracle);
  tally->attempted.fetch_add(1, std::memory_order_relaxed);
  if (!want.ok() || !SameRanking(ToRanked(want.value().items), got)) {
    tally->wrong.fetch_add(1, std::memory_order_relaxed);
    problems->Add("answer differs from the exhaustive oracle for user " +
                  std::to_string(request.query.user));
  }
}

// --- the traced replay -------------------------------------------------------

/// Per-request work the traced replays observed (sums over requests).
struct TraceAccum {
  double requests = 0;
  double items_considered = 0;
  double tail_items = 0;
  double sorted = 0;
  double random = 0;
  double candidates = 0;
  double results = 0;
  double blocks_decoded = 0;
  double blocks_skipped = 0;
  std::vector<double> tail_scan_ms;
  std::vector<double> self_ms;
  std::vector<double> traced_search_ms;
  std::vector<double> untraced_search_ms;
};

const char* OutcomeName(amici::ProximityOutcome outcome) {
  switch (outcome) {
    case amici::ProximityOutcome::kCacheHit: return "hit";
    case amici::ProximityOutcome::kComputed: return "computed";
    case amici::ProximityOutcome::kJoinedInFlight: return "joined";
  }
  return "unknown";
}

/// Replays one request layer by layer under spans: the proximity lookup
/// on the pinned graph view, each shard engine's query (proximity now
/// cached), then the service Search itself; plus the same Search without
/// spans, for the tracing overhead.
void TraceRequest(Service* service, const SearchRequest& request,
                  uint64_t id, Tracer* tracer, TraceAccum* acc,
                  Tally* tally) {
  const int64_t root = tracer->Open("request", Span::kNoParent, id);
  auto provider = service->proximity_provider();
  const auto view = provider->Acquire();
  amici::ProximityOutcome outcome = amici::ProximityOutcome::kComputed;
  double t0 = tracer->NowMs();
  provider->GetProximity(*view.graph, request.query.user, view.generation,
                         &outcome);
  tracer->Record("proximity.get", t0, tracer->NowMs(), root, id,
                 OutcomeName(outcome));
  double slowest_shard = 0.0;
  for (size_t s = 0; s < service->num_shards(); ++s) {
    amici::SocialSearchEngine* engine = service->shard_engine(s);
    t0 = tracer->NowMs();
    auto result = engine->Query(request.query, AlgorithmId::kHybrid);
    const double t1 = tracer->NowMs();
    tracer->Record("core.query", t0, t1, root, id);
    slowest_shard = std::max(slowest_shard, t1 - t0);
    if (!result.ok()) {
      tally->errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const amici::SearchStats& st = result.value().stats;
    acc->items_considered += static_cast<double>(st.items_considered);
    acc->tail_items += static_cast<double>(st.tail_items_scanned);
    acc->sorted += static_cast<double>(st.aggregation.sorted_accesses);
    acc->random += static_cast<double>(st.aggregation.random_accesses);
    acc->candidates += static_cast<double>(st.aggregation.candidates_scored);
    acc->blocks_decoded += static_cast<double>(st.aggregation.blocks_decoded);
    acc->blocks_skipped += static_cast<double>(st.aggregation.blocks_skipped);
    acc->results += static_cast<double>(result.value().items.size());
    if (st.tail_items_scanned > 0) {
      // The engine keeps its most recent query's tail observation; only
      // trust it when it is this query's (same tail size).
      const auto seen = engine->stats().last_tail_scan();
      if (seen.items == st.tail_items_scanned) {
        acc->tail_scan_ms.push_back(seen.elapsed_ms);
      }
    }
  }
  // The untraced twin runs before the traced Search on every other
  // request, so neither side always gets the warmer caches.
  // Its span is recorded only after it finished, so no tracing work
  // falls inside its timing.
  auto untraced = [&] {
    const double u0 = tracer->NowMs();
    const Clock::time_point c0 = Clock::now();
    tally->Account(service->Search(request));
    acc->untraced_search_ms.push_back(MsBetween(c0, Clock::now()));
    tracer->Record("harness.untraced_search", u0, tracer->NowMs(), root, id);
  };
  if (id % 2 == 1) untraced();
  t0 = tracer->NowMs();
  auto response = service->Search(request);
  const double search_ms = tracer->NowMs() - t0;
  tracer->Record("service.search", t0, t0 + search_ms, root, id);
  tally->Account(response);
  acc->requests += 1;
  acc->traced_search_ms.push_back(search_ms);
  acc->self_ms.push_back(search_ms - slowest_shard);
  if (id % 2 == 0) untraced();
  tracer->Close(root);
}

// --- the writer ---------------------------------------------------------------

/// An acknowledged write, kept to prove it survives the restart.
struct AckedBatch {
  size_t batch = 0;
  std::vector<amici::ItemId> ids;
};

struct WriteLog {
  std::vector<double> write_ms;    // item batches: enqueue -> applied
  std::vector<double> write_at_s;  // when each of them was sent
  double span_s = 0.0;             // how long the writes went on
  std::vector<double> edit_ms;     // friendship edits: enqueue -> applied
  std::vector<double> enqueue_ms;  // the EnqueueItems call itself
  std::vector<double> unindexed;   // periodic samples of the tail size
  std::vector<AckedBatch> acked;
  std::vector<size_t> acked_edits;
};

/// Counts the reads of the timed phases. mixed_ingest's writer paces
/// itself on this count, so writes keep a fixed ratio to reads however
/// much CPU the host gives the run.
class ReadPacer {
 public:
  void Read() {
    if (reads_.fetch_add(1, std::memory_order_relaxed) % kReadsPerBatch ==
        kReadsPerBatch - 1) {
      cv_.notify_one();
    }
  }
  /// Blocks until `reads` reads happened (true) or Stop() (false).
  bool WaitFor(uint64_t reads) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
      if (reads_.load(std::memory_order_relaxed) >= reads) return true;
      // Read() notifies without the lock, so a wakeup can be missed;
      // the timeout bounds how late that makes a write.
      cv_.wait_for(lock, std::chrono::milliseconds(2));
    }
    return false;
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<uint64_t> reads_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;  // guarded by mutex_
};

/// One write in flight between the writer and the acknowledger.
struct Pending {
  amici::IngestTicket ticket;
  Clock::time_point sent;
  double enqueued_ms = 0.0;  // tracer clock, end of the enqueue call
  bool edit = false;
  size_t index = 0;
};

/// mixed_ingest's writer beside the readers: item batch b goes out once
/// (b + 1) * kReadsPerBatch reads were served, and a friendship edit after
/// every kBatchesPerEdit batches, until the pacer stops or the inputs run
/// out. A second thread waits for each ticket in order and stamps when it
/// was applied.
void RunWriter(Service* service, const Inputs& in, ReadPacer* pacer,
               Tracer* tracer, WriteLog* log, Tally* tally) {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mutex
  bool closed = false;        // guarded by mutex
  const Clock::time_point start = Clock::now();
  std::thread acknowledger([&] {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      const amici::Status status = p.ticket.Wait();
      const double ms = MsBetween(p.sent, Clock::now());
      tracer->Record(p.edit ? "proximity_service.edit" : "ingest.wait",
                     p.enqueued_ms, tracer->NowMs(), Span::kNoParent,
                     p.index);
      if (!status.ok()) {
        tally->write_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (p.edit) {
        log->edit_ms.push_back(ms);
        log->acked_edits.push_back(p.index);
      } else {
        log->write_ms.push_back(ms);
        log->write_at_s.push_back(MsBetween(start, p.sent) / 1000.0);
        log->acked.push_back({p.index, p.ticket.ids()});
      }
    }
  });
  auto send = [&](bool edit, size_t index) {
    Pending p;
    p.sent = Clock::now();
    p.edit = edit;
    p.index = index;
    tally->attempted.fetch_add(1, std::memory_order_relaxed);
    const double enq0 = tracer->NowMs();
    auto ticket = edit ? service->EnqueueAddFriendship(in.edits[index].first,
                                                       in.edits[index].second)
                       : service->EnqueueItems(in.batches[index]);
    p.enqueued_ms = tracer->NowMs();
    if (!edit) {
      log->enqueue_ms.push_back(MsBetween(p.sent, Clock::now()));
      tracer->Record("ingest.enqueue", enq0, p.enqueued_ms, Span::kNoParent,
                     index);
    }
    if (!ticket.ok()) {
      tally->write_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    p.ticket = std::move(ticket).value();
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  };
  for (size_t b = 0; b < in.batches.size() && pacer->WaitFor((b + 1) * kReadsPerBatch);
       ++b) {
    if (b % kUnindexedEvery == 0) {
      log->unindexed.push_back(static_cast<double>(service->unindexed_items()));
    }
    send(false, b);
    const size_t e = (b + 1) / kBatchesPerEdit;
    if ((b + 1) % kBatchesPerEdit == 0 && e <= in.edits.size()) send(true, e - 1);
  }
  log->span_s = MsBetween(start, Clock::now()) / 1000.0;
  {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  cv.notify_one();
  acknowledger.join();
}

/// read_hot's write probe: sequential batches and edits on the
/// otherwise idle service, each waited for before the next.
void RunProbe(Service* service, const Inputs& in, Tracer* tracer,
              WriteLog* log, Tally* tally) {
  const Clock::time_point start = Clock::now();
  auto write = [&](bool edit, size_t index) {
    tally->attempted.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    const double s0 = tracer->NowMs();
    auto ticket = edit ? service->EnqueueAddFriendship(in.edits[index].first,
                                                       in.edits[index].second)
                       : service->EnqueueItems(in.batches[index]);
    const double s1 = tracer->NowMs();
    if (!edit) {
      log->enqueue_ms.push_back(MsBetween(t0, Clock::now()));
      tracer->Record("ingest.enqueue", s0, s1, Span::kNoParent, index);
    }
    if (!ticket.ok() || !ticket.value().Wait().ok()) {
      tally->write_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const double ms = MsBetween(t0, Clock::now());
    tracer->Record(edit ? "proximity_service.edit" : "ingest.wait", s1,
                   tracer->NowMs(), Span::kNoParent, index);
    if (edit) {
      log->edit_ms.push_back(ms);
      log->acked_edits.push_back(index);
    } else {
      log->write_ms.push_back(ms);
      log->write_at_s.push_back(MsBetween(start, t0) / 1000.0);
      log->acked.push_back({index, ticket.value().ids()});
      log->unindexed.push_back(static_cast<double>(service->unindexed_items()));
    }
  };
  for (size_t b = 0; b < in.batches.size(); ++b) {
    write(false, b);
    // Spread the edits through the probe.
    const size_t every = in.batches.size() / (in.edits.size() + 1);
    if (every > 0 && (b + 1) % every == 0 && (b + 1) / every <= in.edits.size()) {
      write(true, (b + 1) / every - 1);
    }
  }
  log->span_s = MsBetween(start, Clock::now()) / 1000.0;
}

/// Counts acknowledged writes (batches or edits) that a reopened service
/// does not fully hold.
uint64_t MissingWrites(Service* service, const Inputs& in,
                       const WriteLog& log) {
  uint64_t missing = 0;
  const size_t items = service->num_items();
  for (const AckedBatch& acked : log.acked) {
    const auto& batch = in.batches[acked.batch];
    bool whole = acked.ids.size() == batch.size();
    for (size_t k = 0; whole && k < batch.size(); ++k) {
      const amici::ItemId id = acked.ids[k];
      std::vector<amici::TagId> want = batch[k].tags;
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      whole = id < items && service->OwnerOf(id) == batch[k].owner &&
              service->TagsOf(id) == want;
    }
    if (!whole) ++missing;
  }
  for (size_t e : log.acked_edits) {
    const auto [u, v] = in.edits[e];
    const auto friends = service->FriendsOf(u);
    if (std::find(friends.begin(), friends.end(), v) == friends.end()) {
      ++missing;
    }
  }
  return missing;
}

// --- closed loop ------------------------------------------------------------

struct ClosedLoopResult {
  uint64_t completed = 0;
  /// From the start to the last completion.
  double elapsed_s = 0.0;
};

/// `clients` threads each send their next request as soon as the last
/// one returned, for `seconds`.
ClosedLoopResult RunClosedLoop(size_t clients, double seconds,
                               const std::function<void(size_t)>& send) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> completed{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> last(clients, start);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      while (Clock::now() < end) {
        send(next.fetch_add(1, std::memory_order_relaxed));
        completed.fetch_add(1, std::memory_order_relaxed);
        last[c] = Clock::now();
      }
    });
  }
  for (auto& t : pool) t.join();
  ClosedLoopResult r;
  r.completed = completed.load();
  r.elapsed_s = std::chrono::duration<double>(
                    *std::max_element(last.begin(), last.end()) - start)
                    .count();
  return r;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Time the host took from this VM: the steal column of /proc/stat,
/// summed over CPUs, in seconds (0 where it cannot be read).
double HostStealS() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

/// What an interval used: wall time, process CPU time (all threads) and
/// the host's steal.
struct Usage {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Share of the VM's CPU time the host stole over the interval.
  double steal_share = 0.0;
};

/// Wall clock, process CPU time and host steal at one instant; Since()
/// gives the interval from then to now.
class UsageMark {
 public:
  UsageMark() : wall_(Clock::now()), cpu_ms_(ProcessCpuMs()), steal_s_(HostStealS()) {}
  Usage Since() const {
    Usage u;
    u.wall_s = std::chrono::duration<double>(Clock::now() - wall_).count();
    u.cpu_s = (ProcessCpuMs() - cpu_ms_) / 1e3;
    const double cpus = std::max(1u, std::thread::hardware_concurrency());
    u.steal_share = u.wall_s > 0 ? (HostStealS() - steal_s_) / (cpus * u.wall_s) : 0.0;
    u.steal_share = std::clamp(u.steal_share, 0.0, 0.99);
    return u;
  }

 private:
  Clock::time_point wall_;
  double cpu_ms_;
  double steal_s_;
};

/// One client sending its next request as soon as the last one returned,
/// for `seconds`: the latency a caller sees with no queue in front of it.
std::vector<double> RunSerial(double seconds,
                              const std::function<void(size_t)>& send) {
  std::vector<double> latency_ms;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (size_t j = 0;; ++j) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= end) break;
    send(j);
    latency_ms.push_back(MsBetween(t0, Clock::now()));
  }
  return latency_ms;
}

// --- helpers ----------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0).value;
}

std::string Describe(const Quantile& q, const char* what) {
  return std::string(what) + " of " + std::to_string(q.samples) + " (" +
         std::to_string(q.beyond) + " above)";
}

/// "q1..q3" of `values`, the spread behind a reported median.
std::string Quartiles(const std::vector<double>& values) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.4g..%.4g", Percentile(values, 25).value,
                Percentile(values, 75).value);
  return text;
}

std::string Describe(const WindowedQuantile& q, const char* what) {
  return std::string("median over ") + std::to_string(q.windows) +
         " windows of the " + what + ", >= " +
         std::to_string(q.min_window_samples) + " samples each; windows " +
         Quartiles(q.readings);
}

struct Counters {
  amici::ProximityProviderStats proximity;
  amici::IngestCounters ingest;
  uint64_t compactions = 0;
  uint64_t lists_touched = 0;
};

Counters ReadCounters(Service* service) {
  Counters c;
  c.proximity = service->proximity_stats();
  c.ingest = service->ingest_counters();
  for (size_t s = 0; s < service->num_shards(); ++s) {
    c.compactions += service->shard_engine(s)->stats().compactions();
    c.lists_touched +=
        service->shard_engine(s)->stats().compaction_lists_touched();
  }
  return c;
}

ShardedSearchService::Options ServiceOptions() {
  ShardedSearchService::Options options;
  options.num_shards = kShards;
  return options;
}

/// Searches every query once from 4 threads.
void Warm(Service* service, const std::vector<SocialQuery>& queries,
          Tally* tally) {
  ParallelFor(queries.size(), 4, [&](size_t i) {
    if (!service->Search(MakeRequest(queries[i], 0.0)).ok()) {
      tally->errors.fetch_add(1, std::memory_order_relaxed);
    }
  });
  service->proximity_provider()->WaitForWarmup();
}

}  // namespace

bool RunWorkload(const RunArgs& args, RunOutcome* out, std::string* error) {
  const Spec spec = SpecFor(args.workload);
  if (spec.name.empty()) {
    *error = "unknown workload '" + args.workload + "'";
    return false;
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path work_dir = fs::path(args.out_dir) /
                            ("state-" + spec.name + "-" + std::to_string(args.seed));
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  if (ec) {
    *error = "cannot create " + work_dir.string() + ": " + ec.message();
    return false;
  }

  // Wall time of each phase, for the report.
  Clock::time_point phase_start = Clock::now();
  auto phase_done = [&](const char* phase) {
    const Clock::time_point now = Clock::now();
    out->info.emplace_back(std::string("wall_") + phase + "_s",
                           FullDigits(std::chrono::duration<double>(now - phase_start).count()));
    phase_start = now;
  };

  Inputs in;
  if (!MakeInputs(spec, args, &in, error)) return false;
  phase_done("inputs");
  const size_t base_items = in.data.store.num_items();
  out->info.emplace_back("users", std::to_string(in.data.graph.num_users()));
  out->info.emplace_back("items", std::to_string(base_items));
  out->info.emplace_back("shards", std::to_string(kShards));
  out->info.emplace_back("open_loop_qps", FullDigits(spec.open_qps));
  out->info.emplace_back("open_loop_requests",
                         std::to_string(in.open_schedule.size()));
  out->info.emplace_back("deadline_ms", FullDigits(kDeadlineMs));

  Tracer tracer(args.trace);
  Tally tally;
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> save_ms;
  uint64_t save_bytes = 0;

  // --- setup, several times; the last service is kept -------------------
  std::unique_ptr<Service> service;
  std::string snapshot_dir;
  for (size_t r = 0; r < kSetups; ++r) {
    service.reset();
    amici::SocialGraph graph = in.data.graph;
    amici::ItemStore store = in.data.store;
    const UsageMark mark;
    const double s0 = tracer.NowMs();
    auto built = Service::Build(std::move(graph), std::move(store),
                                ServiceOptions());
    if (!built.ok()) {
      *error = "service build: " + built.status().ToString();
      return false;
    }
    service = std::move(built).value();
    Warm(service.get(), in.queries, &tally);
    if (spec.ingest) {
      snapshot_dir = (work_dir / ("setup-" + std::to_string(r))).string();
      const double p0 = tracer.NowMs();
      auto saved = service->SaveSnapshot(snapshot_dir);
      const double p1 = tracer.NowMs();
      if (!saved.ok()) {
        *error = "snapshot save: " + saved.status().ToString();
        return false;
      }
      tracer.Record("persist.save", p0, p1, Span::kNoParent, r);
      save_ms.push_back(p1 - p0);
      save_bytes = saved.value().bytes_written;
      if (!service->StartIngest().ok() || !service->StartAutoCompaction().ok()) {
        *error = "cannot start ingest / compaction";
        return false;
      }
    }
    const Usage used = mark.Since();
    setup_s.push_back(used.wall_s);
    setup_cpu_s.push_back(used.cpu_s);
    tracer.Record("setup", s0, tracer.NowMs(), Span::kNoParent, r);
    if (spec.ingest && r + 1 < kSetups) {
      service.reset();
      fs::remove_all(snapshot_dir, ec);
    }
  }
  Service* svc = service.get();
  phase_done("setups");
  const Counters before = ReadCounters(svc);

  // --- the read phases (with the writer beside them on mixed_ingest) --------
  WriteLog writes;
  ReadPacer pacer;
  std::thread writer;
  if (spec.ingest) {
    writer = std::thread(RunWriter, svc, std::cref(in), &pacer, &tracer,
                         &writes, &tally);
  }
  const bool check_timed = !spec.ingest;
  std::vector<std::optional<std::vector<Ranked>>> seen(in.queries.size());
  std::vector<std::atomic<bool>> claimed(seen.size());

  const OpenLoopResult open = RunOpenLoop(
      in.open_schedule, spec.threads, [&](size_t i) {
        const SearchRequest request =
            MakeRequest(in.queries[in.open_pick[i]], kDeadlineMs);
        auto response = svc->Search(request);
        pacer.Read();
        if (!tally.Account(response) || !check_timed) return;
        const size_t slot = in.open_pick[i];
        if (!claimed[slot].exchange(true)) {
          seen[slot] = ToRanked(response.value().items);
        }
      });
  const Counters after_open = ReadCounters(svc);

  // Untraced, the rest of the run alternates one-client and closed-loop
  // slices, so both sample the whole stretch of time; each slice gives
  // one reading. Both walk the pool in order from where the last left off.
  std::vector<StealReading> slice_cpu_ms;  // CPU per query, one-client slices
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  std::vector<StealReading> slice_qps;  // closed-loop slices, steal removed
  std::vector<double> slice_raw_qps;
  std::vector<double> slice_steal;
  uint64_t serial_queries = 0;
  uint64_t closed_queries = 0;
  TraceAccum traced;
  const Clock::time_point rest_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds * (1.0 - kOpenShare)));
  size_t next_query = 0;
  auto ask = [&](size_t j) {
    const size_t slot = (next_query + j) % in.queries.size();
    auto response = svc->Search(MakeRequest(in.queries[slot], kDeadlineMs));
    pacer.Read();
    if (!tally.Account(response) || !check_timed) return;
    if (!claimed[slot].exchange(true)) {
      seen[slot] = ToRanked(response.value().items);
    }
  };
  if (!args.trace) {
    for (size_t slice = 0; Clock::now() < rest_end; ++slice) {
      const UsageMark mark;
      if (slice % 2 == 0) {
        const std::vector<double> latency_ms = RunSerial(kSliceS, ask);
        const Usage u = mark.Since();
        next_query += latency_ms.size();
        serial_queries += latency_ms.size();
        slice_cpu_ms.push_back(
            {u.steal_share, u.cpu_s * 1e3 / static_cast<double>(latency_ms.size())});
        slice_p50.push_back(Percentile(latency_ms, 50).value);
        slice_p99.push_back(Percentile(latency_ms, 99).value);
        slice_steal.push_back(u.steal_share);
      } else {
        const ClosedLoopResult r = RunClosedLoop(spec.threads, kSliceS, ask);
        const Usage u = mark.Since();
        next_query += r.completed;
        closed_queries += r.completed;
        const double done = static_cast<double>(r.completed);
        slice_raw_qps.push_back(done / u.wall_s);
        slice_qps.push_back({u.steal_share, done / (u.wall_s * (1.0 - u.steal_share))});
        slice_steal.push_back(u.steal_share);
      }
    }
  } else {
    for (size_t j = 0; j < kMaxTracedRequests && Clock::now() < rest_end; ++j) {
      TraceRequest(svc, MakeRequest(in.queries[j % in.queries.size()], kDeadlineMs),
                   j, &tracer, &traced, &tally);
      // It served the request twice: traced and untraced.
      pacer.Read();
      pacer.Read();
    }
  }
  pacer.Stop();
  if (writer.joinable()) writer.join();
  if (spec.ingest && writes.write_ms.size() + tally.write_failures.load() >=
                         in.batches.size()) {
    out->info.emplace_back("write_inputs", "ran out before the reads ended");
  }

  phase_done("timed");

  // --- oracle check of what the timed phases answered -----------------------
  // read_hot checks its whole pool (entries the timed phases never drew
  // are asked fresh).
  Problems problems;
  if (check_timed) {
    ParallelFor(seen.size(), 4, [&](size_t slot) {
      const SearchRequest request = MakeRequest(in.queries[slot], kDeadlineMs);
      if (!seen[slot]) {
        auto response = svc->Search(request);
        if (!tally.Account(response)) return;
        seen[slot] = ToRanked(response.value().items);
      }
      CheckAgainstOracle(svc, request, *seen[slot], &tally, &problems);
    });
  }

  phase_done("oracle");

  // --- writes on read_hot: save (attaches the WAL), then probe ------------
  if (!spec.ingest) {
    snapshot_dir = (work_dir / "probe").string();
    const double p0 = tracer.NowMs();
    auto saved = svc->SaveSnapshot(snapshot_dir);
    const double p1 = tracer.NowMs();
    if (!saved.ok()) {
      *error = "snapshot save: " + saved.status().ToString();
      return false;
    }
    tracer.Record("persist.save", p0, p1, Span::kNoParent, 0);
    save_ms.push_back(p1 - p0);
    save_bytes = saved.value().bytes_written;
    if (!svc->StartIngest().ok()) {
      *error = "cannot start ingest";
      return false;
    }
    RunProbe(svc, in, &tracer, &writes, &tally);
  }
  if (!svc->Flush().ok()) tally.write_failures.fetch_add(1);
  const Counters after_writes = ReadCounters(svc);

  phase_done("writes");

  // --- restart: the sample must answer identically, every write survive -----
  std::vector<SearchRequest> sample;
  for (size_t i = 0; i < kRestartSample && i < in.queries.size(); ++i) {
    sample.push_back(MakeRequest(in.queries[i], kDeadlineMs));
  }
  std::vector<std::vector<Ranked>> before_restart;
  for (const SearchRequest& request : sample) {
    auto response = svc->Search(request);
    std::vector<Ranked> ranked;
    if (tally.Account(response)) ranked = ToRanked(response.value().items);
    CheckAgainstOracle(svc, request, ranked, &tally, &problems);
    before_restart.push_back(std::move(ranked));
  }
  svc->StopAutoCompaction();
  svc->StopIngest();
  service.reset();
  svc = nullptr;
  // The high-water mark of setup, serving and writes. Reopening churns
  // the allocator (the old heap's freed pages may or may not have been
  // returned yet), which made a peak taken after it bimodal across seeds.
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> restart_s;
  std::vector<StealReading> restart_cpu_s;
  std::vector<double> open_ms;
  amici::persist::WalReplayStats replay;
  TraceAccum restarted;
  for (size_t r = 0; r < kRestarts; ++r) {
    amici::persist::WalReplayStats stats;
    const UsageMark mark;
    const double s0 = tracer.NowMs();
    auto reopened = Service::OpenSnapshot(snapshot_dir, ServiceOptions(),
                                          amici::persist::SnapshotOpenOptions(),
                                          &stats);
    const double s1 = tracer.NowMs();
    if (!reopened.ok()) {
      *error = "snapshot open: " + reopened.status().ToString();
      return false;
    }
    tracer.Record("persist.open", s0, s1, Span::kNoParent, r);
    open_ms.push_back(s1 - s0);
    Service* back = reopened.value().get();
    auto first = back->Search(sample.front());
    const Usage used = mark.Since();
    restart_s.push_back(used.wall_s);
    restart_cpu_s.push_back({used.steal_share, used.cpu_s});
    tally.Account(first);
    if (r != 0) continue;
    replay = stats;
    for (size_t i = 0; i < sample.size(); ++i) {
      if (args.trace) {
        TraceRequest(back, sample[i], 1000000 + i, &tracer, &restarted, &tally);
      }
      auto response = back->Search(sample[i]);
      tally.Account(response);
      const bool same = response.ok() && SameRanking(before_restart[i],
                                                     ToRanked(response.value().items));
      tally.attempted.fetch_add(1, std::memory_order_relaxed);
      if (!same) {
        tally.wrong.fetch_add(1, std::memory_order_relaxed);
        problems.Add("answer changed across the restart");
      }
    }
    const uint64_t missing = MissingWrites(back, in, writes);
    tally.missing_writes.fetch_add(missing);
    if (missing > 0) {
      problems.Add(std::to_string(missing) +
                       " acknowledged writes missing after the restart",
                   true);
    }
  }
  fs::remove_all(work_dir, ec);
  phase_done("restarts");

  // --- the harness floor: the same open loop calling a no-op ----------------
  std::vector<double> floor_ms;
  if (args.trace) {
    const OpenLoopResult noop = RunOpenLoop(
        PoissonSchedule(spec.open_qps, 1.0, SubSeed(args.seed, 7)),
        spec.threads, [](size_t) {});
    floor_ms = noop.latency_ms;
  }

  // --- accounting ------------------------------------------------------------
  out->attempted = tally.attempted.load();
  out->failed = tally.degraded.load() + tally.errors.load() +
                tally.wrong.load() + tally.write_failures.load() +
                tally.missing_writes.load();
  out->correct = tally.wrong.load() == 0 && tally.errors.load() == 0 &&
                 tally.missing_writes.load() == 0 &&
                 tally.write_failures.load() == 0;
  if (tally.errors.load() > 0) {
    problems.Add(std::to_string(tally.errors.load()) + " requests returned an error",
                 true);
  }
  if (tally.write_failures.load() > 0) {
    problems.Add(std::to_string(tally.write_failures.load()) + " writes failed",
                 true);
  }
  if (tally.wrong.load() > 0) {
    problems.Add(std::to_string(tally.wrong.load()) + " wrong answers", true);
  }
  out->problems = problems.Take();

  // --- end-to-end metrics -----------------------------------------------------
  std::vector<Metric> e2e;
  const double open_s = args.seconds * kOpenShare;
  const WindowedQuantile q50 = WindowedPercentile(
      open.latency_ms, in.open_schedule, open_s, kLatencyWindowS, 50);
  const WindowedQuantile q90 = WindowedPercentile(
      open.latency_ms, in.open_schedule, open_s, kLatencyWindowS, 90);
  const WindowedQuantile q99 = WindowedPercentile(
      open.latency_ms, in.open_schedule, open_s, kLatencyWindowS, 99);
  const double write_window_s = writes.span_s / kWriteWindows;
  const WindowedQuantile w50 = WindowedPercentile(
      writes.write_ms, writes.write_at_s, writes.span_s, write_window_s, 50);
  const WindowedQuantile w99 = WindowedPercentile(
      writes.write_ms, writes.write_at_s, writes.span_s, write_window_s, 99);
  e2e.push_back({"setup_s", Median(setup_cpu_s), "s",
                 "CPU time, median of " + std::to_string(setup_cpu_s.size()) +
                     " setups (" + Quartiles(setup_cpu_s) + ")"});
  auto quiet = [](const std::vector<StealReading>& readings, const char* what) {
    std::vector<double> values;
    for (const StealReading& r : readings) values.push_back(r.value);
    return std::string("median of the ") + std::to_string(QuietCount(readings)) +
           " least-stolen of " + std::to_string(readings.size()) + " " + what + " (all: " +
           Quartiles(values) + ")";
  };
  if (!args.trace) {
    e2e.push_back({"query_cpu_ms", QuietMedian(slice_cpu_ms), "ms",
                   "process CPU time per query, " +
                       quiet(slice_cpu_ms, "one-client slices") + "; " +
                       std::to_string(serial_queries) + " queries"});
    e2e.push_back({"throughput_qps", QuietMedian(slice_qps), "1/s",
                   "per second the host did not steal, " +
                       quiet(slice_qps, "closed-loop slices") + "; " +
                       std::to_string(closed_queries) + " queries, " +
                       std::to_string(spec.threads) + " clients"});
  }
  e2e.push_back({"restart_cpu_s", QuietMedian(restart_cpu_s), "s",
                 "CPU time, " + quiet(restart_cpu_s, "reopens")});
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB",
                 "getrusage ru_maxrss before the restarts"});
  // Wall-clock figures, printed but not bounded: on a shared 4-vCPU VM
  // they follow how much CPU the host steals (at times a third of it)
  // more than they follow the program.
  out->extra.push_back({"setup_wall_s", Median(setup_s), "s",
                        "median of " + std::to_string(setup_s.size()) + " setups (" +
                            Quartiles(setup_s) + ")"});
  out->extra.push_back({"restart_s", Median(restart_s), "s",
                        "wall time, median of " + std::to_string(restart_s.size()) +
                            " reopens (" + Quartiles(restart_s) + ")"});
  if (!args.trace) {
    out->extra.push_back({"query_p50_ms", Median(slice_p50), "ms",
                          "median of the one-client slices' p50 (" +
                              Quartiles(slice_p50) + ")"});
    out->extra.push_back({"query_p99_ms", Median(slice_p99), "ms",
                          "median of the one-client slices' p99 (" +
                              Quartiles(slice_p99) + ")"});
    out->extra.push_back({"throughput_wall_qps", Median(slice_raw_qps), "1/s",
                          "median of the closed-loop slices (" +
                              Quartiles(slice_raw_qps) + ")"});
    out->extra.push_back({"host_steal_ratio", Median(slice_steal), "ratio",
                          "share of the VM's CPU time the host stole, median of the "
                          "slices (" + Quartiles(slice_steal) + ")"});
  }
  out->extra.push_back({"open_p50_ms", q50.value, "ms", Describe(q50, "open-loop p50")});
  out->extra.push_back({"open_p90_ms", q90.value, "ms", Describe(q90, "open-loop p90")});
  out->extra.push_back({"open_p99_ms", q99.value, "ms", Describe(q99, "open-loop p99")});
  out->extra.push_back({"write_p50_ms", w50.value, "ms",
                        Describe(w50, spec.ingest ? "p50 beside reads" : "probe p50")});
  out->extra.push_back({"write_p99_ms", w99.value, "ms",
                        Describe(w99, spec.ingest ? "p99 beside reads" : "probe p99")});
  const double failed_frac =
      out->attempted > 0 ? static_cast<double>(out->failed) / out->attempted : 0.0;

  // --- per-layer metrics --------------------------------------------------------
  std::vector<Metric> layer;
  const std::vector<Span> spans = tracer.Snapshot();
  const double n = std::max(1.0, traced.requests);
  auto p50 = [](const std::vector<double>& v, const char* what) {
    const Quantile q = Percentile(v, 50);
    return std::make_pair(q.value, Describe(q, what));
  };
  auto add_p50 = [&](const char* name, const std::vector<double>& v) {
    const auto [value, detail] = p50(v, "p50");
    layer.push_back({name, value, "ms", detail});
  };
  auto add_count = [&](const char* name, double value, const char* unit,
                       std::string detail) {
    layer.push_back({name, value, unit, std::move(detail)});
  };
  const std::string per_req =
      "mean per traced request, " + std::to_string(static_cast<uint64_t>(traced.requests));
  add_p50("service.search_ms", SpanDurations(spans, "service.search"));
  add_p50("service.self_ms", traced.self_ms);
  add_p50("core.query_ms", SpanDurations(spans, "core.query"));
  add_count("core.items_considered", traced.items_considered / n, "count", per_req);
  std::vector<double> tail_ms = traced.tail_scan_ms;
  tail_ms.insert(tail_ms.end(), restarted.tail_scan_ms.begin(),
                 restarted.tail_scan_ms.end());
  add_p50("core.tail_scan_ms", tail_ms);
  add_count("core.tail_items_scanned", traced.tail_items / n, "count", per_req);
  add_count("topk.sorted_accesses", traced.sorted / n, "count", per_req);
  add_count("topk.random_accesses", traced.random / n, "count", per_req);
  add_count("topk.candidates_scored", traced.candidates / n, "count", per_req);
  add_count("topk.useful_ratio",
            traced.candidates > 0 ? traced.results / traced.candidates : 0.0,
            "ratio", "results / candidates scored");
  add_count("storage.blocks_decoded", traced.blocks_decoded / n, "count", per_req);
  add_count("storage.blocks_skipped", traced.blocks_skipped / n, "count", per_req);
  const double blocks = traced.blocks_decoded + traced.blocks_skipped;
  add_count("storage.block_skip_ratio",
            blocks > 0 ? traced.blocks_skipped / blocks : 0.0, "ratio",
            "skipped / (decoded + skipped)");
  add_p50("proximity.get_ms", SpanDurations(spans, "proximity.get", "computed"));
  add_p50("proximity.hit_ms", SpanDurations(spans, "proximity.get", "hit"));
  // Proximity outcomes over the open-loop phase: untraced traffic only
  // (the replays look the same user up several times on purpose).
  const auto& p0 = before.proximity;
  const auto& p1 = after_open.proximity;
  const double queries_served = static_cast<double>(open.latency_ms.size());
  const double lookups = static_cast<double>(
      (p1.cache_hits - p0.cache_hits) + (p1.computations - p0.computations) +
      (p1.inflight_joins - p0.inflight_joins));
  add_count("proximity.hit_ratio",
            lookups > 0 ? (p1.cache_hits - p0.cache_hits) / lookups : 0.0,
            "ratio", "open loop, " + FullDigits(lookups) + " lookups");
  add_count("proximity.computations_per_query",
            static_cast<double>(p1.computations - p0.computations) /
                std::max(1.0, queries_served),
            "count", "open loop, " + FullDigits(queries_served) + " queries");
  add_count("proximity.inflight_joins",
            static_cast<double>(p1.inflight_joins - p0.inflight_joins), "count",
            "open loop");
  add_count("proximity.warmed", static_cast<double>(p1.warmed - p0.warmed),
            "count", "open loop");
  const auto& pw = after_writes.proximity;
  add_count("proximity_service.generations",
            static_cast<double>(pw.generations_published - p0.generations_published),
            "count", "after setup");
  add_count("proximity_service.overlay_rows", static_cast<double>(pw.overlay_rows),
            "count", "at the end");
  add_count("proximity_service.overlay_folds",
            static_cast<double>(pw.overlay_folds - p0.overlay_folds), "count",
            "after setup");
  add_p50("proximity_service.edit_ms", writes.edit_ms);
  add_p50("ingest.enqueue_ms", writes.enqueue_ms);
  const auto& ic = after_writes.ingest;
  add_count("ingest.coalesce_ratio",
            ic.apply_calls > 0
                ? static_cast<double>(ic.batches_enqueued) / ic.apply_calls
                : 0.0,
            "ratio", "batches enqueued / apply calls");
  add_count("ingest.max_queue_depth", static_cast<double>(ic.max_queue_depth),
            "count", "");
  add_count("ingest.producer_waits", static_cast<double>(ic.producer_waits),
            "count", "");
  add_count("ingest.compactions",
            static_cast<double>(after_writes.compactions - before.compactions),
            "count",
            FullDigits(static_cast<double>(after_writes.compactions -
                                           before.compactions) /
                       kShards) +
                " per shard");
  add_count("ingest.compaction_lists_touched",
            static_cast<double>(after_writes.lists_touched - before.lists_touched),
            "count", "");
  const Quantile tail = Percentile(writes.unindexed, 99);
  add_count("ingest.unindexed_items", tail.value, "count",
            Describe(tail, "p99 of samples"));
  add_p50("persist.save_ms", save_ms);
  add_count("persist.save_bytes", static_cast<double>(save_bytes), "bytes", "");
  add_p50("persist.open_ms", open_ms);
  add_count("persist.wal_records_replayed", static_cast<double>(replay.records_applied),
            "count", "");
  add_count("persist.wal_bytes", static_cast<double>(replay.committed_bytes),
            "bytes", "");
  const Quantile late = Percentile(open.late_ms, 99);
  add_count("harness.late_ms", late.value, "ms", Describe(late, "p99"));
  const Quantile floor = Percentile(floor_ms, 99);
  add_count("harness.floor_ms", floor.value, "ms", Describe(floor, "no-op p99"));
  const double untraced = Median(traced.untraced_search_ms);
  add_count("harness.trace_overhead_ratio",
            untraced > 0 ? Median(traced.traced_search_ms) / untraced : 0.0,
            "ratio", "traced / untraced Search p50");

  const auto [self_value, self_detail] =
      p50(SpanSelfTimes(spans, "request"), "p50");
  out->extra.push_back({"trace.request_self_ms", self_value, "ms",
                        self_detail + "; replay time outside its layer spans"});
  out->extra.push_back({"failed_frac", failed_frac, "ratio",
                        std::to_string(out->failed) + " of " +
                            std::to_string(out->attempted)});
  out->extra.push_back({"degraded_responses", static_cast<double>(tally.degraded.load()),
                        "count", "deadline exceeded, truncated, shed or partial"});
  if (args.trace) {
    out->metrics = std::move(layer);
    out->extra.insert(out->extra.end(), e2e.begin(), e2e.end());
    const std::string path = (fs::path(args.out_dir) /
                              ("spans-" + spec.name + "-" + std::to_string(args.seed) +
                               ".json")).string();
    if (!tracer.WriteJson(path)) {
      *error = "cannot write " + path;
      return false;
    }
    out->info.emplace_back("spans", path);
  } else {
    out->metrics = std::move(e2e);
    out->extra.insert(out->extra.end(), layer.begin(), layer.end());
  }
  return true;
}

}  // namespace amibench
