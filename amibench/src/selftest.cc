// Self-tests for the benchmark's own arithmetic: percentiles and their
// sample counts, self-time subtraction, open-loop timing from the
// scheduled send, the oracle comparison and the metric-name charset.
// Exits non-zero on the first failed check; run.py runs it before every
// benchmark run.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestPercentiles() {
  using amibench::Percentile;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const auto p50 = Percentile(hundred, 50);
  Check(p50.value == 50 && p50.samples == 100 && p50.beyond == 50,
        "p50 of 1..100 is 50 with 50 above");
  const auto p99 = Percentile(hundred, 99);
  Check(p99.value == 99 && p99.beyond == 1, "p99 of 1..100 is 99, 1 above");
  const auto p100 = Percentile(hundred, 100);
  Check(p100.value == 100 && p100.beyond == 0, "p100 is the maximum");
  const auto small = Percentile({7.0, 3.0, 5.0}, 50);
  Check(small.value == 5 && small.samples == 3, "median of three");
  const auto tail = Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99);
  Check(tail.value == 10 && tail.beyond == 0,
        "p99 of ten samples is the maximum, nothing above");
  const auto empty = Percentile({}, 99);
  Check(empty.value == 0 && empty.samples == 0, "empty sample reads 0 of 0");

  // Three 1 s windows; the middle one holds a stall. The windowed p99
  // is the median of the three window readings, so the stall moves only
  // its own window.
  std::vector<double> values;
  std::vector<double> times;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) {
      values.push_back(w == 1 ? 1000.0 + i : i);
      times.push_back(w + i / 101.0);
    }
  }
  const auto windowed = amibench::WindowedPercentile(values, times, 3.0, 1.0, 99);
  Check(windowed.windows == 3 && windowed.min_window_samples == 100,
        "three full windows");
  Check(windowed.value == 99, "a stall in one window does not move the median");
  const auto late = amibench::WindowedPercentile({5.0}, {7.5}, 3.0, 1.0, 50);
  Check(late.windows == 1 && late.value == 5, "late samples join the last window");
}

void TestQuietMedian() {
  using amibench::QuietCount;
  using amibench::QuietMedian;
  // Steal within 0.05 of the least everywhere: every reading counts.
  const std::vector<amibench::StealReading> calm = {
      {0.01, 5}, {0.03, 1}, {0.00, 4}, {0.05, 2}, {0.02, 3}};
  Check(QuietCount(calm) == 5 && QuietMedian(calm) == 3, "a calm host keeps all");
  // Two quiet readings of five: the three least-stolen count (1, 2, 3).
  const std::vector<amibench::StealReading> busy = {
      {0.30, 9}, {0.01, 1}, {0.20, 3}, {0.50, 8}, {0.00, 2}};
  Check(QuietCount(busy) == 3 && QuietMedian(busy) == 2,
        "a busy host keeps at least the quieter half");
  // Three of five within the slack (0.10, 0.12, 0.14): 7, 6, 5.
  const std::vector<amibench::StealReading> mixed = {
      {0.10, 7}, {0.40, 1}, {0.14, 5}, {0.12, 6}, {0.35, 2}};
  Check(QuietCount(mixed) == 3 && QuietMedian(mixed) == 6,
        "the slack is measured from the least-stolen reading");
  Check(QuietMedian({}) == 0 && QuietCount({}) == 0, "no readings give 0");
}

void TestSelfTime() {
  using amibench::Span;
  Span parent{"request", 0.0, 10.0, Span::kNoParent, 1, ""};
  std::vector<Span> children = {
      {"a", 1.0, 3.0, 0, 1, ""},
      {"b", 2.0, 4.0, 0, 1, ""},   // overlaps a: counted once
      {"c", 8.0, 12.0, 0, 1, ""},  // runs past the parent: clipped
  };
  Check(Near(amibench::SelfTimeMs(parent, children), 10.0 - 3.0 - 2.0, 1e-12),
        "self time subtracts the union of clipped children");
  Check(Near(amibench::SelfTimeMs(parent, {}), 10.0, 1e-12),
        "no children: self time is the duration");
  Span outside{"d", 20.0, 30.0, 0, 1, ""};
  Check(Near(amibench::SelfTimeMs(parent, {outside}), 10.0, 1e-12),
        "a child outside the span covers nothing");
  // The same request as recorded spans: children found by parent index.
  std::vector<amibench::Span> recorded = {parent};
  recorded.insert(recorded.end(), children.begin(), children.end());
  recorded.push_back({"other", 0.0, 10.0, Span::kNoParent, 2, ""});
  const auto selfs = amibench::SpanSelfTimes(recorded, "request");
  Check(selfs.size() == 1 && Near(selfs[0], 5.0, 1e-12),
        "span self times find their children by parent");
}

void TestOpenLoopTiming() {
  // One sender, three requests due at 0, 1 and 2 ms, each taking 20 ms:
  // the later ones wait for the sender, and that wait is part of their
  // latency because it is timed from the scheduled send.
  const std::vector<double> schedule = {0.0, 0.001, 0.002};
  const auto result = amibench::RunOpenLoop(schedule, 1, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  Check(result.latency_ms.size() == 3, "one latency per request");
  Check(result.latency_ms[0] >= 20.0, "first request: its own 20 ms");
  Check(result.latency_ms[1] >= 39.0, "second request waited for the first");
  Check(result.latency_ms[2] >= 58.0, "third request waited for both");
  Check(result.late_ms[2] >= 38.0, "the generator reports how late it sent");

  // With enough senders nothing queues: latency stays near service time.
  const auto parallel = amibench::RunOpenLoop(schedule, 3, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  Check(parallel.latency_ms[2] < 39.0, "free senders take due requests");

  const auto a = amibench::PoissonSchedule(1000.0, 2.0, 7);
  const auto b = amibench::PoissonSchedule(1000.0, 2.0, 7);
  Check(a == b, "the schedule is a function of the seed");
  Check(a.size() > 1800 && a.size() < 2200, "about rate x duration sends");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] >= a[i - 1];
  Check(sorted && a.back() < 2.0, "sends are ordered and inside the run");
}

void TestSameRanking() {
  using amibench::Ranked;
  const std::vector<Ranked> want = {{1, 0.9f}, {2, 0.8f}, {3, 0.8f}, {4, 0.5f},
                                    {5, 0.4f}};
  Check(amibench::SameRanking(want, want), "identical rankings match");
  std::vector<Ranked> swapped = want;
  std::swap(swapped[1].item, swapped[2].item);
  Check(amibench::SameRanking(want, swapped), "order inside a tie class is free");
  std::vector<Ranked> other = want;
  other[0].item = 9;
  Check(!amibench::SameRanking(want, other), "a different item is a mismatch");
  std::vector<Ranked> boundary = want;
  boundary[4].item = 42;
  Check(amibench::SameRanking(want, boundary),
        "membership at the k-th score is the algorithm's choice");
  std::vector<Ranked> score = want;
  score[3].score = std::nextafter(0.5f, 1.0f);
  Check(!amibench::SameRanking(want, score), "scores must match bit for bit");
  Check(!amibench::SameRanking(want, {want.begin(), want.end() - 1}),
        "lengths must match");
}

void TestNames() {
  Check(amibench::ValidMetricName("service.self_ms"), "dotted name");
  Check(amibench::ValidMetricName("p99-latency_ms.2"), "all allowed chars");
  Check(amibench::ValidMetricName("9lives"), "may start with a digit");
  Check(!amibench::ValidMetricName("_x"), "must not start with _");
  Check(!amibench::ValidMetricName(".x"), "must not start with .");
  Check(!amibench::ValidMetricName(""), "must not be empty");
  Check(!amibench::ValidMetricName("a b"), "no spaces");
  Check(!amibench::ValidMetricName("a/b"), "no slash in names");
  Check(!amibench::ValidMetricName(std::string(65, 'a')), "at most 64 chars");
  Check(amibench::ValidMetricName(std::string(64, 'a')), "64 chars is fine");
  Check(amibench::ValidUnit("1/s") && amibench::ValidUnit("%") &&
            amibench::ValidUnit("ms"),
        "units");
  Check(!amibench::ValidUnit("") && !amibench::ValidUnit("m s") &&
            !amibench::ValidUnit(std::string(17, 'x')),
        "bad units");
  Check(amibench::FullDigits(0.1) == "0.10000000000000001",
        "values keep all their digits");
  Check(amibench::JsonString("a\"b\\") == "\"a\\\"b\\\\\"", "JSON escaping");
  Check(amibench::MetricsJson({{"x", 1.5, "ms", ""}}) ==
            "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}",
        "metrics object shape");
}

}  // namespace

int main() {
  TestPercentiles();
  TestQuietMedian();
  TestSelfTime();
  TestOpenLoopTiming();
  TestSameRanking();
  TestNames();
  if (failures > 0) return 1;
  std::fprintf(stderr, "amibench selftest: all checks passed\n");
  return 0;
}
