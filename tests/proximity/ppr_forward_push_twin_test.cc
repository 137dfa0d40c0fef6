// Twin test for PprForwardPush: the dense, epoch-stamped push must give
// a bytewise-identical ranked() (user ids and float bits) to the
// straightforward hash-map push it replaced, which is kept below as the
// reference. Covered: randomized small-world and power-law graphs,
// dangling users, an isolated source, overlaid graphs, several epsilons,
// scratch regrowth across graph sizes, and concurrent callers.

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "gtest/gtest.h"
#include "proximity/ppr_forward_push.h"
#include "proximity_service/delta_overlay_graph.h"
#include "util/rng.h"

namespace amici {
namespace {

constexpr double kRestart = 0.15;
constexpr double kEpsilons[] = {1e-3, 1e-4, 1e-6};

/// The hash-map forward push as it stood before the dense rewrite.
ProximityVector ReferencePush(const SocialGraph& graph, UserId source,
                              double restart_prob, double epsilon) {
  std::unordered_map<UserId, double> estimate;
  std::unordered_map<UserId, double> residual;
  residual[source] = 1.0;
  std::deque<UserId> queue{source};
  std::unordered_map<UserId, bool> queued;
  queued[source] = true;

  while (!queue.empty()) {
    const UserId u = queue.front();
    queue.pop_front();
    queued[u] = false;
    const double r = residual[u];
    const size_t degree = graph.Degree(u);
    const double threshold =
        epsilon * static_cast<double>(degree == 0 ? 1 : degree);
    if (r < threshold) continue;

    residual[u] = 0.0;
    estimate[u] += restart_prob * r;
    if (degree == 0) {
      residual[source] += (1.0 - restart_prob) * r;
      if (!queued[source]) {
        queue.push_back(source);
        queued[source] = true;
      }
      continue;
    }
    const double share = (1.0 - restart_prob) * r / static_cast<double>(degree);
    for (const UserId v : graph.Friends(u)) {
      residual[v] += share;
      const size_t deg_v = graph.Degree(v);
      if (residual[v] >= epsilon * static_cast<double>(deg_v == 0 ? 1 : deg_v)
          && !queued[v]) {
        queue.push_back(v);
        queued[v] = true;
      }
    }
  }

  std::vector<ProximityEntry> entries;
  entries.reserve(estimate.size());
  for (const auto& [user, score] : estimate) {
    if (user == source) continue;
    entries.push_back({user, static_cast<float>(score)});
  }
  return ProximityVector::FromUnnormalized(std::move(entries));
}

/// Empty when identical; otherwise a description of the first difference.
std::string Diff(const ProximityVector& expected,
                 const ProximityVector& actual) {
  if (expected.size() != actual.size()) {
    return "size " + std::to_string(expected.size()) + " vs " +
           std::to_string(actual.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const ProximityEntry& e = expected.ranked()[i];
    const ProximityEntry& a = actual.ranked()[i];
    uint32_t e_bits = 0;
    uint32_t a_bits = 0;
    std::memcpy(&e_bits, &e.score, sizeof(e_bits));
    std::memcpy(&a_bits, &a.score, sizeof(a_bits));
    if (e.user != a.user || e_bits != a_bits) {
      return "rank " + std::to_string(i) + ": user " + std::to_string(e.user) +
             " vs " + std::to_string(a.user) + ", score bits " +
             std::to_string(e_bits) + " vs " + std::to_string(a_bits);
    }
  }
  return "";
}

/// Compares the model to the reference for `num_sources` random sources
/// (plus user 0) at every epsilon in kEpsilons.
void ExpectTwins(const SocialGraph& graph, size_t num_sources, uint64_t seed) {
  Rng rng(seed);
  std::vector<UserId> sources{0};
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<UserId>(rng.UniformIndex(graph.num_users())));
  }
  for (const double epsilon : kEpsilons) {
    const PprForwardPush push(kRestart, epsilon);
    for (const UserId source : sources) {
      const ProximityVector expected =
          ReferencePush(graph, source, kRestart, epsilon);
      EXPECT_EQ(Diff(expected, push.Compute(graph, source)), "")
          << "source " << source << ", epsilon " << epsilon;
    }
  }
}

/// `graph` with ~`edits` random friendship insertions and deletions
/// applied through the delta overlay (base CSR + row patch).
SocialGraph WithOverlay(const SocialGraph& graph, size_t edits, uint64_t seed) {
  DeltaOverlayGraph delta(graph, 4);
  Rng rng(seed);
  SocialGraph current = graph;
  for (size_t i = 0; i < edits; ++i) {
    const auto u = static_cast<UserId>(rng.UniformIndex(graph.num_users()));
    const auto v = static_cast<UserId>(rng.UniformIndex(graph.num_users()));
    if (u == v) continue;
    const bool insert = !current.HasEdge(u, v);
    delta.ApplyHalf(u, v, insert);
    delta.ApplyHalf(v, u, insert);
    current = delta.Compose();
  }
  EXPECT_TRUE(current.has_overlay());
  return current;
}

/// `graph` overlaid with EMPTY rows for `dangling` users while their
/// friends still list them, so pushes reach them and hit the dangling
/// path (mass returns to the source).
SocialGraph WithDanglingRows(const SocialGraph& graph,
                             const std::vector<UserId>& dangling) {
  auto rows = std::make_shared<GraphOverlay::RowMap>();
  int64_t slot_delta = 0;
  for (const UserId u : dangling) {
    (*rows)[u] = std::make_shared<const GraphOverlay::Row>();
    slot_delta -= static_cast<int64_t>(graph.Degree(u));
  }
  return SocialGraph(graph, std::make_shared<const GraphOverlay>(
                                std::vector<std::shared_ptr<
                                    const GraphOverlay::RowMap>>{rows},
                                slot_delta));
}

TEST(PprForwardPushTwinTest, WattsStrogatz) {
  for (const uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    const size_t n = 200 + rng.UniformIndex(800);
    const SocialGraph graph =
        GenerateWattsStrogatz(n, 2 * (2 + rng.UniformIndex(4)),
                              rng.UniformDouble(0.05, 0.5), &rng);
    ExpectTwins(graph, 6, seed);
  }
}

TEST(PprForwardPushTwinTest, PowerLaw) {
  for (const uint64_t seed : {4, 5, 6}) {
    Rng rng(seed);
    const size_t n = 300 + rng.UniformIndex(1200);
    const SocialGraph graph =
        GenerateBarabasiAlbert(n, 1 + rng.UniformIndex(6), &rng);
    ExpectTwins(graph, 6, seed);
  }
}

TEST(PprForwardPushTwinTest, DanglingUsersAndIsolatedSource) {
  Rng rng(7);
  const SocialGraph base = GenerateBarabasiAlbert(400, 3, &rng);
  std::vector<UserId> dangling;
  for (UserId u = 1; u < 400; u += 17) dangling.push_back(u);
  const SocialGraph graph = WithDanglingRows(base, dangling);
  ExpectTwins(graph, 8, 7);
  for (const double epsilon : kEpsilons) {
    const PprForwardPush push(kRestart, epsilon);
    // A dangling source: all of its mass cycles back to itself.
    EXPECT_EQ(Diff(ReferencePush(graph, dangling[0], kRestart, epsilon),
                   push.Compute(graph, dangling[0])),
              "");
    // Neighbours of dangling users push mass back to the source.
    for (const UserId source : {dangling[1] + 1, dangling[2] - 1}) {
      EXPECT_EQ(Diff(ReferencePush(graph, source, kRestart, epsilon),
                     push.Compute(graph, source)),
                "")
          << "source " << source << ", epsilon " << epsilon;
    }
  }

  GraphBuilder builder(6);
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3).ok());
  const SocialGraph sparse = builder.Build();
  for (const double epsilon : kEpsilons) {
    const PprForwardPush push(kRestart, epsilon);
    for (const UserId source : {0u, 5u}) {  // isolated users
      const ProximityVector vector = push.Compute(sparse, source);
      EXPECT_TRUE(vector.empty());
      EXPECT_EQ(Diff(ReferencePush(sparse, source, kRestart, epsilon), vector),
                "");
    }
    EXPECT_EQ(Diff(ReferencePush(sparse, 2, kRestart, epsilon),
                   push.Compute(sparse, 2)),
              "");
  }
}

TEST(PprForwardPushTwinTest, ResidualExactlyAtThresholdIsPushed) {
  // One edge, and epsilon equal to the share the source hands its single
  // friend: that friend's residual lands exactly on its threshold, so it
  // is enqueued (>=) and then pushed (the pop skips only r < threshold).
  GraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  const SocialGraph graph = builder.Build();
  const double epsilon = (1.0 - kRestart) * 1.0 / 1.0;
  const PprForwardPush push(kRestart, epsilon);
  const ProximityVector vector = push.Compute(graph, 0);
  ASSERT_EQ(vector.size(), 1u);
  EXPECT_EQ(vector.ranked()[0].user, 1u);
  EXPECT_EQ(Diff(ReferencePush(graph, 0, kRestart, epsilon), vector), "");
}

TEST(PprForwardPushTwinTest, OverlaidGraphs) {
  for (const uint64_t seed : {8, 9}) {
    Rng rng(seed);
    const SocialGraph base = seed % 2 == 0
                                 ? GenerateBarabasiAlbert(1000, 4, &rng)
                                 : GenerateWattsStrogatz(1000, 8, 0.2, &rng);
    const SocialGraph overlaid = WithOverlay(base, 60, seed);
    ExpectTwins(overlaid, 6, seed);
    // The overlaid graph and its flattened twin give the same vectors.
    const SocialGraph flat = overlaid.Flatten();
    const PprForwardPush push(kRestart, 1e-4);
    for (UserId source = 0; source < 1000; source += 97) {
      EXPECT_EQ(Diff(push.Compute(flat, source),
                     push.Compute(overlaid, source)),
                "")
          << "source " << source;
    }
  }
}

TEST(PprForwardPushTwinTest, ScratchRegrowsAcrossGraphSizes) {
  Rng rng(10);
  const SocialGraph small = GenerateWattsStrogatz(40, 4, 0.3, &rng);
  const SocialGraph large = GenerateBarabasiAlbert(3000, 3, &rng);
  const SocialGraph medium = GenerateBarabasiAlbert(700, 2, &rng);
  const PprForwardPush push(kRestart, 1e-4);
  // One thread alternates sizes: the scratch grows for `large`, then a
  // smaller graph reuses the oversized stamp arrays.
  for (int round = 0; round < 3; ++round) {
    for (const SocialGraph* graph : {&small, &large, &medium, &small}) {
      const auto source = static_cast<UserId>(
          rng.UniformIndex(graph->num_users()));
      EXPECT_EQ(Diff(ReferencePush(*graph, source, kRestart, 1e-4),
                     push.Compute(*graph, source)),
                "")
          << "round " << round << ", users " << graph->num_users()
          << ", source " << source;
    }
  }
  // The highest user id of the largest graph, after it shrank back.
  const auto last = static_cast<UserId>(large.num_users() - 1);
  EXPECT_EQ(Diff(ReferencePush(large, last, kRestart, 1e-4),
                 push.Compute(large, last)),
            "");
}

TEST(PprForwardPushTwinTest, ConcurrentCallersMatchReference) {
  Rng rng(11);
  std::vector<SocialGraph> graphs;
  graphs.push_back(GenerateBarabasiAlbert(1500, 3, &rng));
  graphs.push_back(GenerateWattsStrogatz(300, 6, 0.1, &rng));
  graphs.push_back(WithOverlay(graphs[0], 30, 12));
  const PprForwardPush push(kRestart, 1e-4);

  struct Case {
    size_t graph;
    UserId source;
    ProximityVector expected;
  };
  std::vector<Case> cases;
  for (size_t i = 0; i < 24; ++i) {
    const size_t g = i % graphs.size();
    const auto source =
        static_cast<UserId>(rng.UniformIndex(graphs[g].num_users()));
    cases.push_back(
        {g, source, ReferencePush(graphs[g], source, kRestart, 1e-4)});
  }

  constexpr size_t kThreads = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = t; i < cases.size() + t; ++i) {
          const Case& c = cases[i % cases.size()];
          const std::string diff =
              Diff(c.expected, push.Compute(graphs[c.graph], c.source));
          if (!diff.empty() && failures[t].empty()) failures[t] = diff;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
}

}  // namespace
}  // namespace amici
