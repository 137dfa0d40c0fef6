#ifndef AMIBENCH_HARNESS_H_
#define AMIBENCH_HARNESS_H_

// The benchmark's own arithmetic and plumbing, kept apart from the
// workloads so the self-tests can exercise it: percentiles with their
// sample counts, the open-loop generator (timed from each request's
// scheduled send), in-memory spans with self time, and metric output.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace amibench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock instants.
inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// --- percentiles --------------------------------------------------------

/// A percentile read from a sample, with what backs it.
struct Quantile {
  double value = 0.0;
  /// Samples the percentile was read from.
  size_t samples = 0;
  /// Samples strictly above the chosen rank (how many observations the
  /// tail reading rests on).
  size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the sample is <= it (rank ceil(pct/100 * n)). An
/// empty sample gives value 0 with samples 0. `pct` is in (0, 100].
Quantile Percentile(std::vector<double> values, double pct);

/// A percentile read window by window: the median over fixed time
/// windows of each window's percentile, so one stall of the machine
/// moves one window, not the whole reading.
struct WindowedQuantile {
  double value = 0.0;
  size_t windows = 0;
  /// Samples in the emptiest window (what each window's reading rests on).
  size_t min_window_samples = 0;
  /// Each window's reading, in time order.
  std::vector<double> readings;
};

/// `values[i]` was observed at `times_s[i]` (seconds from the start of a
/// phase lasting `duration_s`). The phase is cut into
/// max(1, round(duration_s / window_s)) equal windows; a time past the
/// end falls into the last one. Empty windows are skipped.
WindowedQuantile WindowedPercentile(const std::vector<double>& values,
                                    const std::vector<double>& times_s,
                                    double duration_s, double window_s,
                                    double pct);

/// One reading of a repeated measurement and the share of the VM's CPU
/// time the host stole while it was taken.
struct StealReading {
  double steal = 0.0;
  double value = 0.0;
};

/// Steal above the least-stolen reading's that still counts as quiet.
inline constexpr double kQuietStealSlack = 0.05;

/// The median value of the quiet readings: those taken under at most
/// kQuietStealSlack more steal than the least-stolen one, or, when fewer
/// than half qualify, the half (rounded up) taken under the least steal.
/// On a quiet host that is every reading; on a busy one, the host's worst
/// stretches are left out. A change to the program moves every reading,
/// so it moves this one too. An empty input gives 0.
double QuietMedian(std::vector<StealReading> readings);

/// How many readings QuietMedian uses.
size_t QuietCount(const std::vector<StealReading>& readings);

// --- open loop ------------------------------------------------------------

/// Send offsets (seconds from the start) of a Poisson arrival process at
/// `rate_per_s` over `duration_s`, drawn from `seed`: independent users,
/// each request sent on schedule whether or not earlier ones finished.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// What one open-loop run observed, per scheduled request.
struct OpenLoopResult {
  /// Completion minus scheduled send: includes any wait a stall of the
  /// generator or of earlier requests imposed on this one.
  std::vector<double> latency_ms;
  /// Actual send minus scheduled send: how late the generator ran.
  std::vector<double> late_ms;
};

/// Sends request i at start + schedule[i] from a pool of `threads`
/// synchronous senders (a free sender takes the next due request).
/// `send(i)` runs the request and returns when it completed.
OpenLoopResult RunOpenLoop(const std::vector<double>& schedule_s,
                           size_t threads,
                           const std::function<void(size_t)>& send);

// --- spans ----------------------------------------------------------------

/// One recorded interval. `parent` indexes the span that caused it
/// (kNoParent for a root); spans of one request share `request`.
struct Span {
  static constexpr int64_t kNoParent = -1;
  std::string name;
  double start_ms = 0.0;  // from the tracer's epoch
  double end_ms = 0.0;
  int64_t parent = kNoParent;
  uint64_t request = 0;
  /// Free-form annotation (e.g. the proximity outcome).
  std::string note;

  double duration_ms() const { return end_ms - start_ms; }
};

/// A span's duration minus the part of its interval that its children
/// cover (overlapping children are counted once; the parts of children
/// outside the span are ignored).
double SelfTimeMs(const Span& span, const std::vector<Span>& children);

/// Spans kept in memory and written out at the end. Thread-safe. A
/// disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  double NowMs() const { return MsBetween(epoch_, Clock::now()); }

  /// Records a finished span; returns its index (kNoParent when off).
  int64_t Record(std::string name, double start_ms, double end_ms,
                 int64_t parent, uint64_t request, std::string note = "");
  /// Opens a span whose end is filled in by Close (for parents that must
  /// exist before their children are recorded).
  int64_t Open(std::string name, int64_t parent, uint64_t request);
  void Close(int64_t span);

  /// Copy of every span so far.
  std::vector<Span> Snapshot() const;

  /// Writes the spans as a JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Durations of every span named `name` (optionally only those whose
/// note equals `note`).
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  std::string_view name,
                                  std::string_view note = {});

/// Self times (SelfTimeMs against their recorded children) of every span
/// named `name`.
std::vector<double> SpanSelfTimes(const std::vector<Span>& spans,
                                  std::string_view name);

// --- correctness ----------------------------------------------------------

/// One ranked result, as the service returns it.
struct Ranked {
  uint32_t item = 0;
  float score = 0.0f;
};

/// True when `got` is the same exact top-k as `want`: equal length, the
/// score bit-identical at every rank, and the same item ids in every tie
/// class of equal scores except the one at the k-th score, whose
/// membership an exact algorithm may choose (the service's own
/// exactness contract).
bool SameRanking(const std::vector<Ranked>& want,
                 const std::vector<Ranked>& got);

// --- metrics --------------------------------------------------------------

/// True when `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);
/// True when `unit` is at most 16 of [A-Za-z0-9_/%.-], non-empty.
bool ValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Human-readable provenance ("p50 of 48211", ...); report only.
  std::string detail;
};

/// Formats a double with all its digits (round-trips exactly).
std::string FullDigits(double value);

/// `{"name": {"value": v, "unit": "u"}, ...}` for `metrics`.
std::string MetricsJson(const std::vector<Metric>& metrics);

/// Escapes `text` as a JSON string literal (with quotes).
std::string JsonString(std::string_view text);

}  // namespace amibench

#endif  // AMIBENCH_HARNESS_H_
