// Fig 6 — the proximity-model trade-off: each model's per-user
// computation latency, the resulting end-to-end hybrid query latency, and
// the ranking quality (precision@10 against the engine running exact
// PPR).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "proximity/common_neighbors.h"
#include "proximity/hop_decay.h"
#include "proximity/katz.h"
#include "proximity/ppr_forward_push.h"
#include "proximity/ppr_monte_carlo.h"
#include "proximity/ppr_power_iteration.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/metrics.h"

using namespace amici;

int main() {
  bench::PrintBanner(
      "Fig 6: proximity models — cost vs ranking quality "
      "[medium dataset, alpha=0.7, k=10]",
      "cheap structural models trade precision for latency; forward-push "
      "PPR (eps=1e-4) costs under a tenth of power iteration per user. At "
      "that eps it is not near-exact: its precision@10 is reported, not "
      "claimed");

  const DatasetConfig config = MediumDataset();

  // Ground truth engine: exact PPR (slow, used only as the reference).
  SocialSearchEngine::Options exact_options;
  exact_options.proximity_model =
      std::make_shared<PprPowerIteration>(0.15, 60, 1e-8, 1e-7);
  bench::EngineBundle truth = bench::BuildEngine(config, exact_options);

  QueryWorkloadConfig workload;
  workload.num_queries = 25;  // exact PPR is O(V+E) per distinct user
  workload.k = 10;
  workload.alpha = 0.7;
  workload.seed = 66;
  const auto queries = GenerateQueries(truth.workload_view, workload);
  if (!queries.ok()) return 1;

  std::fprintf(stderr, "[bench] computing exact-PPR ground truth...\n");
  std::vector<std::vector<ScoredItem>> truth_results;
  for (const SocialQuery& query : queries.value()) {
    const auto result = truth.engine->Query(query, AlgorithmId::kHybrid);
    if (!result.ok()) return 1;
    truth_results.push_back(result.value().items);
  }

  struct Candidate {
    const char* label;
    std::shared_ptr<const ProximityModel> model;
  };
  const std::vector<Candidate> candidates = {
      {"hop-decay", std::make_shared<HopDecayProximity>(0.5, 2)},
      {"common-neighbors", std::make_shared<CommonNeighborsProximity>()},
      {"adamic-adar",
       std::make_shared<CommonNeighborsProximity>(
           CommonNeighborsProximity::Weighting::kAdamicAdar)},
      {"katz(l=3)", std::make_shared<KatzProximity>(0.05, 3)},
      {"ppr-push(1e-4)", std::make_shared<PprForwardPush>(0.15, 1e-4)},
      {"ppr-mc(2048)", std::make_shared<PprMonteCarlo>(0.15, 2048, 9)},
      {"ppr-exact",
       std::make_shared<PprPowerIteration>(0.15, 60, 1e-8, 1e-7)},
  };

  TablePrinter table({"model", "proximity ms/user", "query ms (hybrid)",
                      "precision@10 vs exact"});
  double push_ms = 0.0;
  double exact_ms = 0.0;
  for (const Candidate& candidate : candidates) {
    // Raw proximity cost over the distinct query users.
    Stopwatch watch;
    size_t computed = 0;
    for (const SocialQuery& query : queries.value()) {
      (void)candidate.model->Compute(truth.workload_view.graph, query.user);
      ++computed;
    }
    const double proximity_ms = watch.ElapsedMillis() /
                                static_cast<double>(computed);
    if (candidate.model->name() == "ppr-push") push_ms = proximity_ms;
    if (candidate.model->name() == "ppr-exact") exact_ms = proximity_ms;

    SocialSearchEngine::Options options;
    options.proximity_model = candidate.model;
    options.proximity_cache_capacity = 1;  // force recomputation per user
    bench::EngineBundle bundle = bench::BuildEngine(config, options);

    double total_precision = 0.0;
    LatencyRecorder latency;
    for (size_t q = 0; q < queries.value().size(); ++q) {
      Stopwatch query_watch;
      const auto result =
          bundle.engine->Query(queries.value()[q], AlgorithmId::kHybrid);
      latency.Record(query_watch.ElapsedMillis());
      if (!result.ok()) return 1;
      total_precision +=
          PrecisionAtK(truth_results[q], result.value().items, 10);
    }
    table.AddRow({candidate.label, StringPrintf("%.3f", proximity_ms),
                  bench::Ms(latency.Summarize().mean),
                  StringPrintf("%.3f", total_precision /
                                           static_cast<double>(
                                               queries.value().size()))});
    std::fprintf(stderr, "[bench] %s done\n", candidate.label);
  }
  std::printf("%s", table.ToString().c_str());
  const double cost_ratio = push_ms / exact_ms;
  std::printf("ppr-push / ppr-exact cost per user: %.3f (claim < 0.1: %s)\n",
              cost_ratio, cost_ratio < 0.1 ? "holds" : "FAILS");
  return 0;
}
