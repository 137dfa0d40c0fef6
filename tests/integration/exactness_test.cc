// The central correctness property of the whole system: every
// early-terminating algorithm returns exactly the same top-k score
// profile as the exhaustive oracle, for every proximity model, blend
// parameter, match mode, and graph topology — exercised through the
// SearchService surface (the algorithm under test is the request's
// execution hint).

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "proximity/common_neighbors.h"
#include "proximity/hop_decay.h"
#include "proximity/katz.h"
#include "proximity/ppr_forward_push.h"
#include "proximity/ppr_monte_carlo.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace amici {
namespace {

struct ExactnessParam {
  GraphKind graph_kind;
  double alpha;
  MatchMode mode;
  int proximity_kind;  // 0 hop-decay, 1 common-neighbors, 2 katz,
                       // 3 ppr-push, 4 ppr-mc
  uint64_t seed;
  bool with_geo = false;  // attach a radius filter to every query
  size_t k = 8;
};

std::string ParamName(const ::testing::TestParamInfo<ExactnessParam>& info) {
  const auto& p = info.param;
  std::string name;
  switch (p.graph_kind) {
    case GraphKind::kErdosRenyi: name = "er"; break;
    case GraphKind::kBarabasiAlbert: name = "ba"; break;
    case GraphKind::kWattsStrogatz: name = "ws"; break;
    case GraphKind::kPlantedPartition: name = "pp"; break;
  }
  name += "_a" + std::to_string(static_cast<int>(p.alpha * 100));
  name += p.mode == MatchMode::kAny ? "_any" : "_all";
  name += "_m" + std::to_string(p.proximity_kind);
  if (p.with_geo) name += "_geo";
  name += "_k" + std::to_string(p.k);
  return name;
}

std::shared_ptr<const ProximityModel> MakeModel(int kind) {
  switch (kind) {
    case 0:
      return std::make_shared<HopDecayProximity>(0.5, 2);
    case 1:
      return std::make_shared<CommonNeighborsProximity>();
    case 2:
      return std::make_shared<KatzProximity>(0.05, 3);
    case 3:
      return std::make_shared<PprForwardPush>(0.15, 1e-5);
    default:
      return std::make_shared<PprMonteCarlo>(0.15, 1024, 7);
  }
}

class ExactnessTest : public ::testing::TestWithParam<ExactnessParam> {};

TEST_P(ExactnessTest, AllAlgorithmsMatchOracle) {
  const ExactnessParam param = GetParam();

  DatasetConfig config = SmallDataset();
  config.num_users = 400;
  config.items_per_user = 4.0;
  config.num_tags = 250;
  config.graph_kind = param.graph_kind;
  config.geo_fraction = 0.3;
  config.seed = param.seed;
  Dataset dataset = GenerateDataset(config).value();

  ShardedSearchService::Options options;
  options.num_shards = 1;
  options.engine.proximity_model = MakeModel(param.proximity_kind);
  auto service = ShardedSearchService::Build(std::move(dataset.graph),
                                             std::move(dataset.store),
                                             std::move(options));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  QueryWorkloadConfig workload;
  workload.num_queries = 15;
  workload.alpha = param.alpha;
  workload.mode = param.mode;
  workload.k = param.k;
  workload.with_geo_filter = param.with_geo;
  workload.radius_km = 20.0;
  workload.seed = param.seed * 31 + 1;
  // The engine consumed the dataset; regenerate an identical copy (the
  // generator is deterministic) for workload synthesis.
  Dataset dataset2 = GenerateDataset(config).value();
  const auto queries = GenerateQueries(dataset2, workload);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  std::vector<AlgorithmId> candidates{
      AlgorithmId::kMergeScan, AlgorithmId::kContentFirst,
      AlgorithmId::kSocialFirst, AlgorithmId::kHybrid, AlgorithmId::kNra};
  if (param.with_geo) candidates.push_back(AlgorithmId::kGeoGrid);

  for (const SocialQuery& query : queries.value()) {
    SearchRequest request;
    request.query = query;
    request.algorithm = AlgorithmId::kExhaustive;
    const auto expected = service.value()->Search(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const AlgorithmId id : candidates) {
      request.algorithm = id;
      const auto actual = service.value()->Search(request);
      ASSERT_TRUE(actual.ok()) << AlgorithmName(id);
      EXPECT_EQ(actual.value().algorithm, AlgorithmName(id));
      ASSERT_EQ(actual.value().items.size(), expected.value().items.size())
          << AlgorithmName(id);
      for (size_t i = 0; i < actual.value().items.size(); ++i) {
        EXPECT_NEAR(actual.value().items[i].score,
                    expected.value().items[i].score, 1e-5)
            << AlgorithmName(id) << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactnessTest,
    ::testing::Values(
        ExactnessParam{GraphKind::kBarabasiAlbert, 0.0, MatchMode::kAny, 3, 1},
        ExactnessParam{GraphKind::kBarabasiAlbert, 0.5, MatchMode::kAny, 3, 2},
        ExactnessParam{GraphKind::kBarabasiAlbert, 1.0, MatchMode::kAny, 3, 3},
        ExactnessParam{GraphKind::kErdosRenyi, 0.3, MatchMode::kAny, 0, 4},
        ExactnessParam{GraphKind::kErdosRenyi, 0.7, MatchMode::kAll, 0, 5},
        ExactnessParam{GraphKind::kWattsStrogatz, 0.5, MatchMode::kAny, 1, 6},
        ExactnessParam{GraphKind::kWattsStrogatz, 0.9, MatchMode::kAll, 2, 7},
        ExactnessParam{GraphKind::kPlantedPartition, 0.5, MatchMode::kAny, 4,
                       8},
        ExactnessParam{GraphKind::kPlantedPartition, 0.2, MatchMode::kAll, 3,
                       9},
        ExactnessParam{GraphKind::kBarabasiAlbert, 0.5, MatchMode::kAll, 4,
                       10},
        // Geo-filtered sweeps (every strategy incl. geo-grid).
        ExactnessParam{GraphKind::kBarabasiAlbert, 0.4, MatchMode::kAny, 3,
                       11, /*with_geo=*/true},
        ExactnessParam{GraphKind::kWattsStrogatz, 0.8, MatchMode::kAll, 0,
                       12, /*with_geo=*/true},
        // Result-size extremes.
        ExactnessParam{GraphKind::kBarabasiAlbert, 0.6, MatchMode::kAny, 3,
                       13, /*with_geo=*/false, /*k=*/1},
        ExactnessParam{GraphKind::kErdosRenyi, 0.5, MatchMode::kAny, 0, 14,
                       /*with_geo=*/false, /*k=*/200}),
    ParamName);

}  // namespace
}  // namespace amici
