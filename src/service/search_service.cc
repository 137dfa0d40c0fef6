#include "service/search_service.h"

namespace amici {

void MergeSearchStats(const SearchStats& from, SearchStats* into) {
  into->aggregation.sorted_accesses += from.aggregation.sorted_accesses;
  into->aggregation.random_accesses += from.aggregation.random_accesses;
  into->aggregation.candidates_scored += from.aggregation.candidates_scored;
  into->aggregation.blocks_decoded += from.aggregation.blocks_decoded;
  into->aggregation.blocks_skipped += from.aggregation.blocks_skipped;
  into->items_considered += from.items_considered;
  into->tail_items_scanned += from.tail_items_scanned;
  into->proximity_computations += from.proximity_computations;
  into->proximity_cache_hits += from.proximity_cache_hits;
  // Any truncated shard makes the merged result best-effort.
  into->truncated = into->truncated || from.truncated;
}

}  // namespace amici
