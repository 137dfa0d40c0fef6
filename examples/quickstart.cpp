// Quickstart: build a tiny social network by hand, index a handful of
// items, and run one social top-k query end to end — through the
// backend-agnostic SearchService API. The same request is then served by
// a 2-shard service to show that the shard count is a deployment choice,
// not a code change.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "graph/graph_builder.h"
#include "service/sharded_search_service.h"
#include "storage/tag_dictionary.h"

using amici::GraphBuilder;
using amici::Item;
using amici::ItemStore;
using amici::SearchRequest;
using amici::SearchService;
using amici::ShardedSearchService;
using amici::TagDictionary;
using amici::UserId;

int main() {
  // --- 1. The social graph: alice(0) - bob(1) - carol(2), dave(3) apart.
  const char* names[] = {"alice", "bob", "carol", "dave"};
  auto build_graph = [] {
    GraphBuilder graph_builder(4);
    (void)graph_builder.AddEdge(0, 1);  // alice - bob
    (void)graph_builder.AddEdge(1, 2);  // bob - carol
    (void)graph_builder.AddEdge(2, 3);  // carol - dave
    return graph_builder.Build();
  };

  // --- 2. The catalogue: photos described by tags. Intern is
  // idempotent, so rebuilding the store (once per service below) through
  // the one shared dictionary assigns identical ids each time.
  TagDictionary tags;
  auto build_store = [&tags] {
    ItemStore store;
    auto post = [&](UserId owner, std::initializer_list<const char*> words,
                    float quality) {
      Item item;
      item.owner = owner;
      for (const char* w : words) item.tags.push_back(tags.Intern(w));
      item.quality = quality;
      const auto id = store.Add(item);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      }
    };
    post(1, {"sunset", "beach"}, 0.9f);      // item 0, bob
    post(2, {"sunset", "city"}, 0.8f);       // item 1, carol
    post(3, {"sunset", "mountain"}, 0.95f);  // item 2, dave
    post(0, {"coffee"}, 0.7f);               // item 3, alice herself
    post(1, {"beach", "surf"}, 0.6f);        // item 4, bob
    return store;
  };

  // --- 3. Build the service (engine + indexes behind one query surface),
  // one shard: the whole catalogue in a single engine.
  ShardedSearchService::Options options;
  options.num_shards = 1;
  auto service_or = ShardedSearchService::Build(build_graph(), build_store(),
                                                std::move(options));
  if (!service_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SearchService> service = std::move(service_or).value();

  // --- 4. Alice searches "sunset", blending content with friendship.
  SearchRequest request;
  request.query.user = 0;  // alice
  request.query.tags = {tags.Lookup("sunset")};
  request.query.k = 3;
  request.query.alpha = 0.6;  // lean social: friends' photos first

  auto show = [&](SearchService* backend) {
    const auto response = backend->Search(request);
    if (!response.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   response.status().ToString().c_str());
      return;
    }
    std::printf("alice searches \"sunset\" (k=%zu, alpha=%.1f) on %s:\n",
                request.query.k, request.query.alpha,
                std::string(response.value().backend).c_str());
    for (const auto& entry : response.value().items) {
      const UserId owner = backend->OwnerOf(entry.item);
      std::printf("  item %u by %-6s score %.3f  tags:", entry.item,
                  names[owner], entry.score);
      for (const auto tag : backend->TagsOf(entry.item)) {
        std::printf(" %s", tags.Name(tag).c_str());
      }
      std::printf("\n");
    }
  };
  show(service.get());
  std::printf(
      "\nexpectation: bob (direct friend) outranks carol (2 hops), and\n"
      "dave's higher-quality photo (3 hops away) does not even place;\n"
      "alice's own unrelated post sneaks in purely through self-proximity.\n");

  // --- 5. The same request against two shards: the 5 items are
  // hash-partitioned across 2 engines, the graph is replicated, and the
  // per-shard top-k lists are merged exactly — identical answers.
  ShardedSearchService::Options sharded_options;
  sharded_options.num_shards = 2;
  auto sharded_or = ShardedSearchService::Build(build_graph(), build_store(),
                                                std::move(sharded_options));
  if (!sharded_or.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 sharded_or.status().ToString().c_str());
    return 1;
  }
  std::printf("\n");
  show(sharded_or.value().get());
  std::printf("\nsame items, same scores: sharding is invisible to callers.\n");
  return 0;
}
