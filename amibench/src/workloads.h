#ifndef AMIBENCH_WORKLOADS_H_
#define AMIBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace amibench {

/// Command-line settings of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the report and spans go (created if missing).
  std::string out_dir = ".bench_out";
  /// Identifies the program under test in the report.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// What one run produced: the printed metrics (end-to-end with tracing
/// off, per-layer with tracing on), every other figure it measured, and
/// the accounting of what it attempted.
struct RunOutcome {
  std::vector<Metric> metrics;
  /// Figures printed in the report but not in the result line.
  std::vector<Metric> extra;
  /// Key/value description of the inputs and the build.
  std::vector<std::pair<std::string, std::string>> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an answer differed from the exhaustive oracle, a
  /// request errored, or an acknowledged write was missing.
  bool correct = true;
  std::vector<std::string> problems;
};

/// Runs one workload; false with `error` set when it could not run at
/// all (unknown workload, unusable output directory, setup failure).
bool RunWorkload(const RunArgs& args, RunOutcome* outcome,
                 std::string* error);

}  // namespace amibench

#endif  // AMIBENCH_WORKLOADS_H_
