// Admission control at the SearchService edge: the gate order, the token
// bucket under a FAKE clock (no timing luck — every verdict here is a
// pure function of controller state), and the honest-response contract
// (shed = well-formed empty response, degrade = cheaper run, both
// reported in the response and the QoS counters — never a silent drop).

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "service/sharded_search_service.h"
#include "workload/dataset_generator.h"

namespace amici {
namespace {

AdmissionController::Options BaseOptions() {
  AdmissionController::Options options;
  // Gates off unless a test arms them.
  options.max_inflight = 1024;
  return options;
}

TEST(AdmissionControllerTest, InflightGateShedsAndReleases) {
  auto options = BaseOptions();
  options.max_inflight = 2;
  AdmissionController controller(options);

  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);
  const auto shed = controller.Admit(1);
  EXPECT_EQ(shed.decision, AdmissionController::Decision::kShed);
  EXPECT_STREQ(shed.reason, "inflight");
  EXPECT_EQ(controller.inflight(), 2u);

  controller.Release();
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);

  const auto counters = controller.counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.peak_inflight, 2u);
}

TEST(AdmissionControllerTest, RateGateIsDeterministicUnderFakeClock) {
  double now_s = 0.0;
  auto options = BaseOptions();
  options.max_admitted_per_sec = 1.0;
  options.burst = 2.0;
  options.clock = [&now_s] { return now_s; };
  AdmissionController controller(options);

  // The bucket primes full: exactly `burst` admissions at t=0.
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);
  const auto shed = controller.Admit(1);
  EXPECT_EQ(shed.decision, AdmissionController::Decision::kShed);
  EXPECT_STREQ(shed.reason, "rate");

  // One second refills exactly one token — no more, no less.
  now_s = 1.0;
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kShed);
}

TEST(AdmissionControllerTest, CostGatesDegradeThenShed) {
  auto options = BaseOptions();
  options.degrade_cost = 100;
  options.shed_cost = 1000;
  AdmissionController controller(options);

  EXPECT_EQ(controller.Admit(50).decision,
            AdmissionController::Decision::kAdmit);
  const auto degrade = controller.Admit(500);
  EXPECT_EQ(degrade.decision, AdmissionController::Decision::kDegrade);
  EXPECT_STREQ(degrade.reason, "cost");
  const auto shed = controller.Admit(5000);
  EXPECT_EQ(shed.decision, AdmissionController::Decision::kShed);
  EXPECT_STREQ(shed.reason, "cost");

  const auto counters = controller.counters();
  EXPECT_EQ(counters.admitted, 1u);
  EXPECT_EQ(counters.degraded, 1u);
  EXPECT_EQ(counters.shed, 1u);
  // Degrades hold a slot like admits; sheds do not.
  EXPECT_EQ(controller.inflight(), 2u);
}

TEST(AdmissionControllerTest, PressureDegradesBeforeInflightSheds) {
  auto options = BaseOptions();
  options.max_inflight = 3;
  options.degrade_inflight = 1;
  AdmissionController controller(options);

  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kAdmit);
  const auto pressured = controller.Admit(1);
  EXPECT_EQ(pressured.decision, AdmissionController::Decision::kDegrade);
  EXPECT_STREQ(pressured.reason, "pressure");
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kDegrade);
  // Hard gate still wins once full.
  EXPECT_EQ(controller.Admit(1).decision,
            AdmissionController::Decision::kShed);
}

// --- Service-level: the QoS edge applies verdicts honestly --------------

std::unique_ptr<ShardedSearchService> BuildService() {
  DatasetConfig config = SmallDataset();
  config.num_users = 300;
  config.num_tags = 60;
  config.seed = 11;
  Dataset dataset = GenerateDataset(config).value();
  ShardedSearchService::Options options;
  options.num_shards = 1;
  return ShardedSearchService::Build(std::move(dataset.graph),
                                     std::move(dataset.store),
                                     std::move(options))
      .value();
}

SearchRequest TestRequest(UserId user) {
  SearchRequest request;
  request.query.user = user;
  request.query.tags = {2};
  request.query.k = 10;
  request.query.alpha = 0.5;
  return request;
}

TEST(AdmissionServiceTest, ShedResponseIsWellFormedAndCounted) {
  auto service = BuildService();
  const auto baseline = service->Search(TestRequest(7));
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline.value().items.empty());

  // Every query costs more than one candidate, so shed_cost = 1 sheds
  // everything — deterministically, no clock involved.
  auto options = BaseOptions();
  options.shed_cost = 1;
  service->EnableAdmissionControl(options);

  const auto shed = service->Search(TestRequest(7));
  ASSERT_TRUE(shed.ok()) << "shed must be a response, not an error";
  EXPECT_TRUE(shed.value().shed);
  EXPECT_TRUE(shed.value().items.empty());
  EXPECT_EQ(shed.value().shards_touched, 0u);
  EXPECT_EQ(shed.value().backend, "sharded/1");
  EXPECT_FALSE(shed.value().degraded);

  const auto qos = service->qos_counters();
  EXPECT_EQ(qos.shed, 1u);
  EXPECT_EQ(qos.admitted, 1u);  // the baseline ran pre-enable

  // Disabling restores pass-through, bit-identically.
  service->DisableAdmissionControl();
  const auto again = service->Search(TestRequest(7));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().items.size(), baseline.value().items.size());
  for (size_t i = 0; i < again.value().items.size(); ++i) {
    EXPECT_EQ(again.value().items[i].item, baseline.value().items[i].item);
    EXPECT_EQ(again.value().items[i].score, baseline.value().items[i].score);
  }
}

TEST(AdmissionServiceTest, DegradeRunsCheaperAndSaysSo) {
  auto service = BuildService();
  const auto baseline = service->Search(TestRequest(7));
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline.value().items.size(), 3u);

  auto options = BaseOptions();
  options.degrade_cost = 1;  // degrade everything
  options.degrade_algorithm = AlgorithmId::kMergeScan;
  options.degrade_k_cap = 3;
  service->EnableAdmissionControl(options);

  const auto degraded = service->Search(TestRequest(7));
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.value().degraded);
  EXPECT_FALSE(degraded.value().shed);
  EXPECT_EQ(degraded.value().algorithm, "merge-scan");
  ASSERT_EQ(degraded.value().items.size(), 3u);
  // Exact for WHAT RAN: merge-scan's top-3 is the true top-3, i.e. the
  // baseline's first three entries.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(degraded.value().items[i].item, baseline.value().items[i].item);
    EXPECT_EQ(degraded.value().items[i].score,
              baseline.value().items[i].score);
  }
  EXPECT_EQ(service->qos_counters().degraded, 1u);
}

TEST(AdmissionServiceTest, BatchAdmitsPerRow) {
  auto service = BuildService();

  // Fixed fake clock + burst 1: exactly one row of the batch runs, the
  // rest shed — deterministically, whatever the thread interleaving.
  double now_s = 0.0;
  auto options = BaseOptions();
  options.max_admitted_per_sec = 1.0;
  options.burst = 1.0;
  options.clock = [&now_s] { return now_s; };
  service->EnableAdmissionControl(options);

  std::vector<SearchRequest> requests = {TestRequest(5), TestRequest(6),
                                         TestRequest(7)};
  const auto responses = service->SearchBatch(requests);
  ASSERT_EQ(responses.size(), 3u);
  size_t ran = 0;
  size_t shed = 0;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok());
    if (response.value().shed) {
      EXPECT_TRUE(response.value().items.empty());
      ++shed;
    } else {
      EXPECT_FALSE(response.value().items.empty());
      ++ran;
    }
  }
  EXPECT_EQ(ran, 1u);   // admission is per-row, in batch order
  EXPECT_EQ(shed, 2u);
  // The admitted row is the FIRST one (verdicts are taken in order,
  // before any dispatch).
  EXPECT_FALSE(responses[0].value().shed);

  const auto qos = service->qos_counters();
  EXPECT_EQ(qos.admitted, 1u);
  EXPECT_EQ(qos.shed, 2u);
}

TEST(AdmissionServiceTest, OpenGatesLeaveResponsesIdentical) {
  auto service = BuildService();
  const auto baseline = service->Search(TestRequest(9));
  ASSERT_TRUE(baseline.ok());

  // Controller installed but no gate can fire: the edge must be a
  // pass-through (the unshed/undegraded invariance half of the honest-
  // response contract).
  service->EnableAdmissionControl(BaseOptions());
  const auto gated = service->Search(TestRequest(9));
  ASSERT_TRUE(gated.ok());
  EXPECT_FALSE(gated.value().shed);
  EXPECT_FALSE(gated.value().degraded);
  ASSERT_EQ(gated.value().items.size(), baseline.value().items.size());
  for (size_t i = 0; i < gated.value().items.size(); ++i) {
    EXPECT_EQ(gated.value().items[i].item, baseline.value().items[i].item);
    EXPECT_EQ(gated.value().items[i].score, baseline.value().items[i].score);
  }
  EXPECT_EQ(gated.value().algorithm, baseline.value().algorithm);
}

TEST(AdmissionServiceTest, CostEstimateTracksTagFrequency) {
  auto service = BuildService();
  // A Zipf vocabulary: tag 0 is the most frequent. The estimate must
  // reflect that (kAny sums document frequencies).
  SocialQuery rare;
  rare.user = 1;
  rare.tags = {55};
  SocialQuery common;
  common.user = 1;
  common.tags = {0};
  EXPECT_GT(service->EstimateQueryCost(common),
            service->EstimateQueryCost(rare));
}

}  // namespace
}  // namespace amici
