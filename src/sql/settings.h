#pragma once

#include <cstddef>
#include <optional>

#include "cluster/worker.h"
#include "sql/cost_model.h"
#include "vecindex/types.h"

namespace blendhouse::sql {

/// Session-level query settings. Every optimization the paper evaluates can
/// be toggled here, which is what the ablation benches flip.
struct QuerySettings {
  // ---- ANN search knobs ----
  int ef_search = 64;
  int nprobe = 8;
  int refine_factor = 2;

  // ---- Reduced-precision pipeline (DESIGN.md §13) ----
  /// Default storage precision injected into CREATE TABLE index specs that
  /// don't set PRECISION themselves (`SET distance_precision = 'int8'`).
  /// A reduced-precision segment's first pass keeps k * refine_factor
  /// survivors for the exact fp32 rerank.
  vecindex::Precision distance_precision = vecindex::Precision::kFp32;

  // ---- Cost-based optimization (Fig. 15) ----
  bool use_cbo = true;
  /// Strategy used when the CBO is disabled (the paper's CBO-off default).
  ExecStrategy default_strategy = ExecStrategy::kPreFilter;
  /// Hard override for experiments.
  std::optional<ExecStrategy> forced_strategy;

  // ---- Segment pruning (Fig. 16) ----
  bool scalar_pruning = true;
  bool semantic_pruning = true;
  /// Buckets probed initially under semantic pruning.
  size_t semantic_probe_buckets = 2;
  /// Expand probed buckets at runtime when results come up short.
  bool adaptive_semantic = true;

  // ---- Workload-aware read optimizations (Fig. 17, READ_Opt) ----
  bool use_column_cache = true;
  bool use_granule_pruning = true;
  /// Reuse pre-filter bitmaps across queries via the worker-level cache
  /// keyed by (segment, predicate fingerprint, delete epoch).
  bool use_filter_bitmap_cache = true;

  // ---- Workload-aware plan optimizations (Fig. 17, Query_Opt) ----
  bool use_plan_cache = true;
  bool short_circuit = true;

  // ---- Disaggregation behaviour (Fig. 11/18) ----
  cluster::AcquireOptions acquire;

  /// Query-level retries on worker/scheduling failures (fault tolerance).
  size_t max_query_retries = 1;

  /// Tail-based trace retention floor (DESIGN.md §15): any query slower
  /// than this many milliseconds keeps its trace, regardless of its
  /// fingerprint's rolling p99. 0 leaves only the adaptive p99 rule (and
  /// the always-keep-errors rule) active. `SET slow_query_threshold_ms`.
  double slow_query_threshold_ms = 0;
};

}  // namespace blendhouse::sql
