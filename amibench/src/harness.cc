#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>
#include <utility>

namespace amibench {

Quantile Percentile(std::vector<double> values, double pct) {
  Quantile q;
  q.samples = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const double exact_rank = pct / 100.0 * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(exact_rank - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  q.value = values[rank - 1];
  q.beyond = values.size() - rank;
  return q;
}

namespace {

size_t WindowCount(double duration_s, double window_s) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(duration_s / window_s)));
}

size_t WindowOf(double t, double duration_s, size_t windows) {
  const double width = duration_s / static_cast<double>(windows);
  const double slot = std::floor(std::max(0.0, t) / width);
  return std::min(windows - 1, static_cast<size_t>(slot));
}

}  // namespace

WindowedQuantile WindowedPercentile(const std::vector<double>& values,
                                    const std::vector<double>& times_s,
                                    double duration_s, double window_s,
                                    double pct) {
  const size_t windows = WindowCount(duration_s, window_s);
  std::vector<std::vector<double>> split(windows);
  for (size_t i = 0; i < values.size() && i < times_s.size(); ++i) {
    split[WindowOf(times_s[i], duration_s, windows)].push_back(values[i]);
  }
  WindowedQuantile out;
  std::vector<double> readings;
  for (auto& window : split) {
    if (window.empty()) continue;
    out.min_window_samples = readings.empty()
                                 ? window.size()
                                 : std::min(out.min_window_samples, window.size());
    readings.push_back(Percentile(std::move(window), pct).value);
  }
  out.windows = readings.size();
  out.value = Percentile(readings, 50).value;
  out.readings = std::move(readings);
  return out;
}

size_t QuietCount(const std::vector<StealReading>& readings) {
  if (readings.empty()) return 0;
  double least = readings.front().steal;
  for (const StealReading& r : readings) least = std::min(least, r.steal);
  size_t quiet = 0;
  for (const StealReading& r : readings) {
    if (r.steal <= least + kQuietStealSlack) ++quiet;
  }
  return std::max(quiet, (readings.size() + 1) / 2);
}

double QuietMedian(std::vector<StealReading> readings) {
  const size_t keep = QuietCount(readings);
  std::stable_sort(readings.begin(), readings.end(),
                   [](const StealReading& a, const StealReading& b) {
                     return a.steal < b.steal;
                   });
  std::vector<double> values;
  for (size_t i = 0; i < keep; ++i) values.push_back(readings[i].value);
  return Percentile(std::move(values), 50).value;
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  std::vector<double> schedule;
  std::mt19937_64 rng(seed);
  double t = 0.0;
  while (true) {
    // Inverse-CDF exponential gap from 53 uniform bits: the same stream
    // on every standard library.
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate_per_s;
    if (t >= duration_s) break;
    schedule.push_back(t);
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(const std::vector<double>& schedule_s,
                           size_t threads,
                           const std::function<void(size_t)>& send) {
  OpenLoopResult result;
  const size_t n = schedule_s.size();
  result.latency_ms.assign(n, 0.0);
  result.late_ms.assign(n, 0.0);
  std::atomic<size_t> next{0};
  // A short lead so every sender is parked before the first send is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto sender = [&] {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule_s[i]));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      send(i);
      const Clock::time_point done = Clock::now();
      result.latency_ms[i] = MsBetween(due, done);
      result.late_ms[i] = MsBetween(due, sent);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(sender);
  for (auto& thread : pool) thread.join();
  return result;
}

double SelfTimeMs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : children) {
    const double lo = std::max(child.start_ms, span.start_ms);
    const double hi = std::min(child.end_ms, span.end_ms);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double total = 0.0;
  double run_lo = 0.0;
  double run_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) total += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) total += run_hi - run_lo;
  return span.duration_ms() - total;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

int64_t Tracer::Record(std::string name, double start_ms, double end_ms,
                       int64_t parent, uint64_t request, std::string note) {
  if (!enabled_) return Span::kNoParent;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, request,
                        std::move(note)});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(std::string name, int64_t parent, uint64_t request) {
  const double now = NowMs();
  return Record(std::move(name), now, now, parent, request);
}

void Tracer::Close(int64_t span) {
  if (!enabled_ || span < 0) return;
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(span)].end_ms = now;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << FullDigits(s.start_ms)
        << ", \"end_ms\": " << FullDigits(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"note\": " << JsonString(s.note) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  std::string_view name,
                                  std::string_view note) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (!note.empty() && s.note != note) continue;
    out.push_back(s.duration_ms());
  }
  return out;
}

std::vector<double> SpanSelfTimes(const std::vector<Span>& spans,
                                  std::string_view name) {
  std::vector<std::vector<Span>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back(s);
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) out.push_back(SelfTimeMs(spans[i], children[i]));
  }
  return out;
}

bool SameRanking(const std::vector<Ranked>& want,
                 const std::vector<Ranked>& got) {
  if (want.size() != got.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want[i].score, &got[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  if (want.empty()) return true;
  const float boundary = want.back().score;
  size_t begin = 0;
  while (begin < want.size()) {
    size_t end = begin + 1;
    while (end < want.size() && want[end].score == want[begin].score) ++end;
    if (want[begin].score != boundary) {
      std::vector<uint32_t> a;
      std::vector<uint32_t> b;
      for (size_t i = begin; i < end; ++i) {
        a.push_back(want[i].item);
        b.push_back(got[i].item);
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) return false;
    }
    begin = end;
  }
  return true;
}

namespace {

bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), NameChar);
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return NameChar(c) || c == '/' || c == '%';
  });
}

std::string FullDigits(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           FullDigits(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}";
  return out;
}

}  // namespace amibench
