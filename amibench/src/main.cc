// amibench: drives the amici SearchService with one generated workload
// and prints its metrics. Normally started through run.py, which builds
// it first:
//
//   amibench --workload read_hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer split of a
// separate traced run (--trace 1). Everything else measured goes to the
// lines before it and to <out-dir>/report-<workload>-<seed>-<trace>.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef AMIBENCH_BUILD_TYPE
#define AMIBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "amibench: %s\nusage: amibench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, amibench::RunArgs* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amibench;
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) return Usage("cannot create the output directory");

  RunOutcome outcome;
  outcome.info.emplace_back("workload", args.workload);
  outcome.info.emplace_back("seed", std::to_string(args.seed));
  outcome.info.emplace_back("seconds", FullDigits(args.seconds));
  outcome.info.emplace_back("trace", args.trace ? "1" : "0");
  outcome.info.emplace_back("nproc",
                            std::to_string(std::thread::hardware_concurrency()));
  outcome.info.emplace_back("compiler", __VERSION__);
  outcome.info.emplace_back("build_type", AMIBENCH_BUILD_TYPE);
  outcome.info.emplace_back("commit", args.commit);
  outcome.info.emplace_back("source_digest", args.source_digest);
  std::string error;
  if (!RunWorkload(args, &outcome, &error)) {
    std::fprintf(stderr, "amibench: %s\n", error.c_str());
    return 2;
  }
  for (const Metric& m : outcome.metrics) {
    if (!ValidMetricName(m.name) || !ValidUnit(m.unit) ||
        !std::isfinite(m.value)) {
      std::fprintf(stderr, "amibench: bad metric '%s'\n", m.name.c_str());
      return 2;
    }
  }

  for (const auto& [key, value] : outcome.info) {
    std::printf("# %-20s %s\n", key.c_str(), value.c_str());
  }
  auto print = [](const Metric& m) {
    std::printf("%-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  };
  std::printf("# %s metrics\n", args.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : outcome.metrics) print(m);
  std::printf("# other figures of this run\n");
  for (const Metric& m : outcome.extra) print(m);
  for (const std::string& problem : outcome.problems) {
    std::printf("# problem: %s\n", problem.c_str());
  }

  std::string report = "{\"info\": {";
  for (size_t i = 0; i < outcome.info.size(); ++i) {
    report += (i ? ", " : "") + JsonString(outcome.info[i].first) + ": " +
              JsonString(outcome.info[i].second);
  }
  std::vector<Metric> all = outcome.metrics;
  all.insert(all.end(), outcome.extra.begin(), outcome.extra.end());
  report += "}, \"metrics\": " + MetricsJson(all) + "}\n";
  const std::string report_path =
      args.out_dir + "/report-" + args.workload + "-" +
      std::to_string(args.seed) + "-" + (args.trace ? "1" : "0") + ".json";
  std::ofstream(report_path) << report;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              MetricsJson(outcome.metrics).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
