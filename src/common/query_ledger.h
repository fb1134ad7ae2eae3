#pragma once

#include <cstddef>
#include <cstdint>

namespace blendhouse::common {

/// Per-query resource ledger (DESIGN.md §15).
///
/// The one record of what a query's execution did. Each segment task of the
/// executor fills its own ledger (per-thread scan-counter deltas, iterator
/// stats, cache outcomes, filter-cache traffic); the attempt folds those
/// with Merge, and the query-history layer drains the query's total into
/// its `system.query_log` record at query end. It lives in common/ so the
/// SQL and core layers share it without a dependency on cluster/.
///
/// Latency fields are micros. The three breakdown fields are summed over
/// all segment tasks of the query, so overlapped tasks sum past the wall
/// time; with a single in-flight task they add up to ~exec time.
struct QueryLedger {
  // ---- Latency breakdown ----
  double queue_wait_micros = 0;
  double compute_micros = 0;
  double sim_io_micros = 0;

  // ---- Scan work ----
  /// Rows whose distance to the query was actually computed, across all
  /// tiers (brute-force survivors, index scan visits, graph hops, reranks).
  uint64_t rows_scanned = 0;
  /// Distance computations per storage-precision tier: fp32, fp16, int8
  /// (vecindex::scanstats::TierSlot).
  uint64_t distance_comps[3] = {0, 0, 0};
  /// Exact-tier rerank rows of the two-tier quantized scan (DESIGN.md §13).
  uint64_t fp32_rerank_rows = 0;

  // ---- Iterator work (post-filter resumable iterators, DESIGN.md §14) ----
  uint64_t iter_batches = 0;
  uint64_t iter_rows_visited = 0;
  uint64_t iter_recompute_rounds = 0;

  // ---- Cache traffic ----
  /// How each scanned segment got its index, indexed by
  /// cluster::CacheOutcome (memory hit, disk hit, remote load, remote
  /// serving, brute force).
  uint64_t cache_outcomes[5] = {0, 0, 0, 0, 0};
  uint64_t filter_cache_hits = 0;
  uint64_t filter_cache_misses = 0;

  // ---- Fan-out / control flow ----
  uint64_t segments_scanned = 0;
  /// Distinct workers the winning attempt dispatched segment tasks to.
  uint64_t workers_fanout = 0;
  uint64_t retries = 0;

  uint64_t total_distance_comps() const {
    return distance_comps[0] + distance_comps[1] + distance_comps[2];
  }

  /// Folds another ledger's tallies into this one (per-segment results).
  void Merge(const QueryLedger& o) {
    queue_wait_micros += o.queue_wait_micros;
    compute_micros += o.compute_micros;
    sim_io_micros += o.sim_io_micros;
    rows_scanned += o.rows_scanned;
    for (size_t i = 0; i < 3; ++i) distance_comps[i] += o.distance_comps[i];
    fp32_rerank_rows += o.fp32_rerank_rows;
    iter_batches += o.iter_batches;
    iter_rows_visited += o.iter_rows_visited;
    iter_recompute_rounds += o.iter_recompute_rounds;
    for (size_t i = 0; i < 5; ++i) cache_outcomes[i] += o.cache_outcomes[i];
    filter_cache_hits += o.filter_cache_hits;
    filter_cache_misses += o.filter_cache_misses;
    segments_scanned += o.segments_scanned;
    workers_fanout += o.workers_fanout;
    retries += o.retries;
  }
};

}  // namespace blendhouse::common
