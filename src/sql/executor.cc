#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>

#include "common/assert.h"
#include "common/future.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "vecindex/distance.h"
#include "vecindex/scan_counters.h"

namespace blendhouse::sql {

namespace {

/// Scalar prune callback: numeric min/max ranges plus string-equality
/// checks against partition key parts.
bool SegmentMayMatch(const Expr& expr, const storage::SegmentMeta& meta,
                     const storage::TableSchema& schema) {
  if (!MayMatchSegment(expr, meta)) return false;
  // String equality on a partition column prunes by the encoded key parts.
  if (expr.kind == Expr::Kind::kAnd)
    return SegmentMayMatch(*expr.children[0], meta, schema) &&
           SegmentMayMatch(*expr.children[1], meta, schema);
  if (expr.kind == Expr::Kind::kCompare && expr.op == Expr::CmpOp::kEq &&
      expr.children[0]->kind == Expr::Kind::kColumn &&
      expr.children[1]->kind == Expr::Kind::kLiteral) {
    const std::string* want =
        std::get_if<std::string>(&expr.children[1]->literal);
    if (want == nullptr || meta.partition_key.empty()) return true;
    int col = schema.FindColumn(expr.children[0]->column);
    // Is this column part of the partition key?
    for (size_t i = 0; i < schema.partition_columns.size(); ++i) {
      if (schema.partition_columns[i] != col) continue;
      // Extract the i-th '|'-separated part of the key.
      std::string_view key = meta.partition_key;
      size_t part = 0, begin = 0;
      for (size_t j = 0; j <= key.size(); ++j) {
        if (j == key.size() || key[j] == '|') {
          if (part == i)
            return key.substr(begin, j - begin) == *want;
          ++part;
          begin = j + 1;
        }
      }
    }
  }
  return true;
}

float OutputDistance(vecindex::Metric metric, float internal) {
  // IP is internally negated so smaller = more similar; report the raw dot.
  return metric == vecindex::Metric::kInnerProduct ? -internal : internal;
}

/// Deep copy of a bound query: the predicate tree is cloned so the copy
/// shares nothing with the caller's stack.
BoundQuery CopyBoundQuery(const BoundQuery& b) {
  BoundQuery c;
  c.table = b.table;
  if (b.filter != nullptr) c.filter = b.filter->Clone();
  c.has_ann = b.has_ann;
  c.vector_column = b.vector_column;
  c.query_vector = b.query_vector;
  c.metric = b.metric;
  c.k = b.k;
  c.offset = b.offset;
  c.range = b.range;
  c.range_exclusive = b.range_exclusive;
  c.output_columns = b.output_columns;
  c.distance_alias = b.distance_alias;
  c.read_vector_column = b.read_vector_column;
  c.scalar_limit = b.scalar_limit;
  c.scalar_offset = b.scalar_offset;
  return c;
}

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Runs one sub-stage of a segment task under its own child span, with the
/// stage's simulated I/O attributed to that span. The nested
/// DeferredChargeScope captures the stage's charges (innermost scope wins),
/// so the I/O is handed back to the enclosing worker-level scope afterwards —
/// without the re-charge the task's AsyncTaskStats would lose it.
template <typename Fn>
auto TracedStage(const trace::TracePtr& trace, const trace::SpanPtr& parent,
                 const char* name, Fn&& fn) {
  if (trace == nullptr) return fn(static_cast<trace::Span*>(nullptr));
  trace::SpanPtr span = trace->StartSpan(name, parent);
  auto start = std::chrono::steady_clock::now();
  uint64_t sim = 0;
  auto result = [&] {
    common::DeferredChargeScope scope;
    auto r = fn(span.get());
    sim = scope.accumulated_micros();
    return r;
  }();
  span->SetBreakdown(static_cast<double>(ElapsedMicros(start)),
                     static_cast<double>(sim), 0);
  span->End();
  if (sim > 0) common::ChargeSimLatency(sim);
  return result;
}

}  // namespace

struct Executor::QueryContext {
  trace::TracePtr trace;
  BoundQuery bound;
  /// Compiled once per query (regexes, LIKE shapes, literal conversions);
  /// every segment task binds against this shared immutable form. Null when
  /// the query has no filter.
  CompiledPredicatePtr compiled_filter;
  ExecStrategy strategy;
  storage::TableSchema schema;
  storage::TableSnapshot snapshot;
  QuerySettings settings;
};

struct Executor::AttemptState {
  explicit AttemptState(size_t k) : k(k) {}

  const size_t k;
  /// Pins the workers this attempt resolved: every task closure captures the
  /// state, so the lease is released by the attempt's last straggler — not at
  /// query return — and a concurrent scale-down cannot destroy a Worker the
  /// attempt still touches.
  cluster::VirtualWarehouse::QueryLease lease;
  /// Read by segment tasks before doing work; set on first failure and on
  /// retry so stragglers of a dead attempt short-circuit instead of running.
  std::atomic<bool> cancelled{false};

  common::Mutex mu{common::lockrank::kQueryFanIn};
  /// Bounded streaming top-k: max-heap by distance of at most k candidates,
  /// folded as partial results complete.
  std::vector<Candidate> heap GUARDED_BY(mu);
  size_t outstanding GUARDED_BY(mu) = 0;
  /// The completion promise fired — either on the first failure (so retry
  /// starts without draining stragglers) or when the last task folded.
  bool completed GUARDED_BY(mu) = false;
  common::Status first_error GUARDED_BY(mu);
  /// Fold of the segment tasks' ledgers and their scheduler time
  /// breakdowns; merged into ExecStats::ledger when the attempt wins.
  common::QueryLedger ledger GUARDED_BY(mu);
  /// Latest due time of a folded task (its end plus its simulated I/O);
  /// the caller pays up to it once the attempt completes.
  std::chrono::steady_clock::time_point ready_at GUARDED_BY(mu);
  common::Promise<common::Status> done;

  void FoldCandidate(Candidate c) REQUIRES(mu) {
    auto worse = [](const Candidate& a, const Candidate& b) {
      return a.dist < b.dist;
    };
    if (heap.size() < k) {
      heap.push_back(std::move(c));
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (!heap.empty() && c.dist < heap.front().dist) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = std::move(c);
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
};

common::Result<QueryResult> Executor::Execute(const OptimizedQuery& query,
                                              storage::LsmEngine& engine,
                                              ExecStats* stats) {
  stats->strategy = query.choice.strategy;
  stats->rules_fired = query.rules_fired;
  // Every execution traces; callers that never attached one simply drop the
  // private trace on return. The span's wall clock doubles as exec_micros,
  // so there is no separate ad-hoc timer to keep consistent with the spans.
  if (trace_ == nullptr) trace_ = trace::Trace::Make("query");
  exec_span_ = trace_->StartSpan("execute", parent_span_);
  exec_span_->SetTag("strategy", ExecStrategyName(query.choice.strategy));
  auto result = query.bound.has_ann ? ExecuteAnn(query, engine, stats)
                                    : ExecuteScalar(query, engine, stats);
  const common::QueryLedger& ledger = stats->ledger;
  stats->exec_micros = exec_span_->ElapsedMicros();
  exec_span_->SetBreakdown(ledger.compute_micros, ledger.sim_io_micros,
                           ledger.queue_wait_micros);
  exec_span_->End();
  exec_span_ = nullptr;
  static common::metrics::HistogramMetric* exec_hist =
      common::metrics::MetricsRegistry::Instance().GetHistogram(
          "bh_sql_exec_micros");
  exec_hist->Record(stats->exec_micros);
  // The mirrors perfbench/blendbench.cc reads by name.
  stats->queue_wait_micros = ledger.queue_wait_micros;
  stats->sim_io_micros = ledger.sim_io_micros;
  std::copy(std::begin(ledger.cache_outcomes), std::end(ledger.cache_outcomes),
            stats->cache_outcomes.begin());
  if (!result.ok()) return result.status();
  result->stats = *stats;
  return result;
}

// ---------------------------------------------------------------------------
// ANN path
// ---------------------------------------------------------------------------

common::Result<QueryResult> Executor::ExecuteAnn(const OptimizedQuery& query,
                                                 storage::LsmEngine& engine,
                                                 ExecStats* stats) {
  const BoundQuery& bound = query.bound;
  const storage::TableSchema& schema = engine.schema();
  storage::TableSnapshot snapshot = engine.Snapshot();
  stats->segments_total = snapshot.segments.size();

  // Scalar segment pruning (partition keys + numeric ranges).
  std::vector<storage::SegmentMeta> segments = snapshot.segments;
  if (settings_.scalar_pruning && bound.filter != nullptr) {
    segments = cluster::Scheduler::PruneScalar(
        segments, [&](const storage::SegmentMeta& m) {
          return SegmentMayMatch(*bound.filter, m, schema);
        });
  }
  stats->segments_after_scalar_prune = segments.size();

  // Compile the predicate once per query: regexes, LIKE shape analysis,
  // and literal conversions are shared by every segment task of every
  // adaptive round (a bad regex also fails here, once, instead of once per
  // segment).
  CompiledPredicatePtr compiled_filter;
  if (bound.filter != nullptr) {
    auto compiled = CompiledPredicate::Compile(*bound.filter);
    if (!compiled.ok()) return compiled.status();
    compiled_filter = std::move(compiled).value();
  }

  // Semantic pruning with runtime-adaptive expansion: probe the nearest
  // buckets first; if too few results qualify, widen and scan only the
  // segments not yet covered.
  // Immutable snapshot: a concurrent first flush may publish the trained
  // partitioner mid-query, but this query keeps pruning with one view.
  std::shared_ptr<const storage::SemanticPartitioner> partitioner =
      engine.semantic_partitioner();
  size_t probe = settings_.semantic_probe_buckets;
  bool semantic = settings_.semantic_pruning && partitioner != nullptr &&
                  partitioner->trained() && schema.semantic_buckets > 0;

  std::vector<Candidate> all_candidates;
  std::vector<std::string> scanned_ids;
  for (;;) {
    std::vector<storage::SegmentMeta> round_segments =
        semantic ? cluster::Scheduler::PruneSemantic(
                       segments, *partitioner, bound.query_vector.data(), probe)
                 : segments;
    if (stats->segments_after_semantic_prune == 0)
      stats->segments_after_semantic_prune = round_segments.size();
    // Skip what earlier rounds already scanned.
    round_segments.erase(
        std::remove_if(round_segments.begin(), round_segments.end(),
                       [&](const storage::SegmentMeta& m) {
                         return std::find(scanned_ids.begin(),
                                          scanned_ids.end(),
                                          m.segment_id) != scanned_ids.end();
                       }),
        round_segments.end());

    auto candidates =
        RunOnWorkers(bound, compiled_filter, query.choice.strategy, schema,
                     round_segments, snapshot, stats);
    if (!candidates.ok()) return candidates.status();
    for (const Candidate& c : *candidates) all_candidates.push_back(c);
    for (const storage::SegmentMeta& m : round_segments)
      scanned_ids.push_back(m.segment_id);

    if (!semantic || !settings_.adaptive_semantic) break;
    if (all_candidates.size() >= bound.k + bound.offset) break;
    if (probe >= partitioner->num_buckets()) break;
    probe = std::min(partitioner->num_buckets(), probe * 2);
    ++stats->adaptive_expansions;
  }

  // Global top-(k+offset) merge of the streamed per-round top-k sets, then
  // pagination: the first `offset` rows of the global order belong to
  // earlier pages and are dropped only here, after the merge — a segment
  // cannot know which of its candidates the global order skips.
  std::sort(all_candidates.begin(), all_candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.dist < b.dist;
            });
  if (all_candidates.size() > bound.k + bound.offset)
    all_candidates.resize(bound.k + bound.offset);
  if (bound.offset > 0)
    all_candidates.erase(
        all_candidates.begin(),
        all_candidates.begin() + static_cast<ptrdiff_t>(std::min(
                                     bound.offset, all_candidates.size())));

  // Materialization runs on the caller thread; account its time in the
  // breakdown (sim charges deferred, then paid once below) so queue-wait +
  // compute + sim-I/O covers the whole execution, not just segment tasks.
  trace::SpanPtr mat_span = trace_->StartSpan("materialize", exec_span_);
  auto mat_start = std::chrono::steady_clock::now();
  uint64_t mat_sim = 0;
  common::Result<QueryResult> out = [&] {
    common::DeferredChargeScope scope;
    auto r = Materialize(bound, schema, std::move(all_candidates));
    mat_sim = scope.accumulated_micros();
    return r;
  }();
  double mat_compute = static_cast<double>(ElapsedMicros(mat_start));
  stats->ledger.compute_micros += mat_compute;
  stats->ledger.sim_io_micros += static_cast<double>(mat_sim);
  mat_span->SetTag("rows", std::to_string(out.ok() ? out->rows.size() : 0));
  mat_span->SetBreakdown(mat_compute, static_cast<double>(mat_sim), 0);
  mat_span->End();
  if (mat_sim > 0) common::ChargeSimLatency(mat_sim);
  return out;
}

common::Result<std::vector<Executor::Candidate>> Executor::RunOnWorkers(
    const BoundQuery& bound, const CompiledPredicatePtr& compiled_filter,
    ExecStrategy strategy, const storage::TableSchema& schema,
    const std::vector<storage::SegmentMeta>& segments,
    const storage::TableSnapshot& snapshot, ExecStats* stats) {
  if (segments.empty()) return std::vector<Candidate>{};

  // Shared immutable query context: segment tasks capture this (and only
  // this) by shared_ptr, so a straggler from a cancelled attempt keeps the
  // data it reads alive instead of dangling into our stack frame.
  auto ctx = std::make_shared<const QueryContext>(
      QueryContext{trace_, CopyBoundQuery(bound), compiled_filter, strategy,
                   schema, snapshot, settings_});

  for (size_t attempt = 0;; ++attempt) {
    auto assignment =
        cluster::Scheduler::Assign(*vw_, schema.table_name, segments);
    if (topology_hook_for_test_) topology_hook_for_test_(attempt);

    // Leased from resolution onward (after the hook: the hook may scale down,
    // and RemoveWorker waits for leases — taking ours first would self-
    // deadlock). Moved into AttemptState below so the attempt's stragglers
    // keep their workers alive past our return.
    cluster::VirtualWarehouse::QueryLease lease = vw_->AcquireQueryLease();

    // Resolve the whole assignment before dispatching anything, so a stale
    // placement (topology changed mid-planning) costs no task churn.
    std::vector<std::pair<cluster::Worker*,
                          const std::vector<storage::SegmentMeta>*>>
        resolved;
    bool assignment_failed = false;
    for (auto& [worker_id, metas] : assignment) {
      cluster::Worker* worker = vw_->worker(worker_id);
      if (worker == nullptr) {
        assignment_failed = true;
        break;
      }
      resolved.emplace_back(worker, &metas);
    }

    common::Status failure;
    if (!assignment_failed) {
      auto state = std::make_shared<AttemptState>(bound.k + bound.offset);
      state->lease = std::move(lease);
      {
        common::MutexLock lock(state->mu);
        state->outstanding = segments.size();
      }
      common::Future<common::Status> done = state->done.GetFuture();

      // One task per *segment*: fine granularity keeps every pool thread of
      // every owning worker busy, and the merge streams below as results
      // complete instead of barriering per worker.
      for (auto& [worker, metas] : resolved) {
        for (const storage::SegmentMeta& meta : *metas) {
          auto slot = std::make_shared<SegmentTaskResult>();
          cluster::Worker* w = worker;
          // Span opened at dispatch so it covers pool queueing; both
          // callbacks share the SpanPtr, so it survives the hop onto the
          // worker pool, and is closed exactly once in `done` (which runs for
          // every dispatched task — success, failure, skip).
          trace::SpanPtr span = trace_->StartSpan("segment_scan", exec_span_);
          span->SetTag("segment", meta.segment_id);
          span->SetTag("worker", w->id());
          if (attempt > 0) span->SetTag("attempt", std::to_string(attempt));
          worker->SearchSegmentAsync(
              /*search=*/
              [ctx, state, slot, w, meta, span] {
                if (state->cancelled.load(std::memory_order_acquire)) {
                  slot->skipped = true;
                  return;
                }
                *slot = RunSegment(w, *ctx, meta, span);
              },
              /*done=*/
              [state, slot, span](const cluster::AsyncTaskStats& ts) {
                span->SetBreakdown(static_cast<double>(ts.compute_micros),
                                   static_cast<double>(ts.sim_io_micros),
                                   static_cast<double>(ts.queue_wait_micros));
                if (slot->skipped) span->SetTag("skipped", "true");
                if (!slot->skipped && !slot->status.ok())
                  span->SetTag("error", slot->status.ToString());
                span->End();
                const auto due =
                    std::chrono::steady_clock::now() +
                    std::chrono::microseconds(ts.sim_io_micros);
                bool fire = false;
                common::Status outcome;
                {
                  common::MutexLock lock(state->mu);
                  state->ready_at = std::max(state->ready_at, due);
                  common::QueryLedger& ledger = state->ledger;
                  ledger.queue_wait_micros +=
                      static_cast<double>(ts.queue_wait_micros);
                  ledger.compute_micros +=
                      static_cast<double>(ts.compute_micros);
                  ledger.sim_io_micros += static_cast<double>(ts.sim_io_micros);
                  if (!slot->skipped) {
                    if (!slot->status.ok()) {
                      // First failure completes the attempt immediately (the
                      // caller retries without draining stragglers) and flags
                      // the rest to short-circuit.
                      state->cancelled.store(true, std::memory_order_release);
                      if (state->first_error.ok())
                        state->first_error = slot->status;
                      if (!state->completed) {
                        state->completed = true;
                        fire = true;
                        outcome = state->first_error;
                      }
                    } else {
                      ledger.Merge(slot->ledger);
                      for (Candidate& c : slot->candidates)
                        state->FoldCandidate(std::move(c));
                    }
                  }
                  if (--state->outstanding == 0 && !state->completed) {
                    state->completed = true;
                    fire = true;
                    outcome = state->first_error;
                  }
                }
                // Fire the completion promise only after releasing state->mu:
                // the woken waiter takes it next (lockgraph.py flags SetValue
                // under a held lock as callback-under-lock).
                if (fire) state->done.SetValue(std::move(outcome));
              });
        }
      }

      // Sync bridge at the executor API boundary: park this caller until the
      // streaming merge completes (or fails fast), then pay the simulated
      // I/O the folded tasks still owe — on failure too, before the retry.
      common::Status status = done.Get();
      std::chrono::steady_clock::time_point ready_at;
      {
        common::MutexLock lock(state->mu);
        ready_at = state->ready_at;
      }
      common::ChargeSimLatencyUntil(ready_at);
      if (status.ok()) {
        common::MutexLock lock(state->mu);
        stats->ledger.Merge(state->ledger);
        // Winning attempt's fan-out width (workers tasks were dispatched to).
        stats->ledger.workers_fanout += resolved.size();
        std::sort(state->heap.begin(), state->heap.end(),
                  [](const Candidate& a, const Candidate& b) {
                    return a.dist < b.dist;
                  });
        return std::move(state->heap);
      }
      failure = status;
      // The failed attempt's stragglers drain in the background against the
      // shared context; cancelled is already set, so they no-op.
      state->cancelled.store(true, std::memory_order_release);
    }

    // Query-level retry (fault tolerance, §II-E): re-snapshot the topology
    // and re-run once, without blocking on the dead attempt.
    if (attempt >= settings_.max_query_retries) {
      return assignment_failed
                 ? common::Status::Aborted("worker set changed during query")
                 : failure;
    }
    ++stats->ledger.retries;
  }
}

Executor::SegmentTaskResult Executor::RunSegment(
    cluster::Worker* worker, const QueryContext& ctx,
    const storage::SegmentMeta& meta, const trace::SpanPtr& span) {
  const BoundQuery& bound = ctx.bound;
  const storage::TableSchema& schema = ctx.schema;
  const QuerySettings& settings = ctx.settings;
  SegmentTaskResult result;
  // The whole segment task runs on this one pool thread, so the scope's
  // delta at return is exactly this task's distance work, per precision
  // tier — attributed to the query's ledger without the kernels knowing.
  vecindex::scanstats::ScanCounterScope scan_scope;
  const common::Bitset* deletes = ctx.snapshot.DeletesFor(meta.segment_id);
  // Pagination widens the per-segment fetch: any of this segment's first
  // k+offset rows may survive the global merge's offset drop.
  size_t k = bound.k + bound.offset;

  vecindex::SearchParams params;
  params.k = static_cast<int>(k);
  params.ef_search = settings.ef_search;
  params.nprobe = settings.nprobe;
  params.refine_factor = settings.refine_factor;

  // Two-tier quantized scan (DESIGN.md §13): when the acquired index stores
  // reduced-precision codes, its first pass returns approximate distances
  // for k * refine_factor survivors (the sigma * k of the cost model and of
  // IVFPQ's refine), and this task reranks them in fp32 from the segment's
  // vector column below. The range bound is deferred to the exact
  // distances.
  const size_t refine_k = k * static_cast<size_t>(
                                  std::max(1, settings.refine_factor));
  bool rerank_fp32 = false;
  auto widen_for_rerank = [&](const vecindex::VectorIndex& index) {
    if (index.StoragePrecision() == vecindex::Precision::kFp32) return;
    params.k = static_cast<int>(refine_k);
    rerank_fp32 = true;
  };

  auto push_candidates = [&](const std::vector<vecindex::Neighbor>& hits) {
    for (const vecindex::Neighbor& n : hits) {
      if (!rerank_fp32 && !bound.InRange(n.distance)) continue;
      result.candidates.push_back({n.distance, n.id, {}});
    }
  };

  switch (ctx.strategy) {
    case ExecStrategy::kBruteForce: {
      // Plan A: scalar filter first, exact distances on survivors only.
      auto segment = TracedStage(
          ctx.trace, span, "fetch_segment", [&](trace::Span*) {
            return worker->GetSegment(schema, meta.segment_id,
                                      settings.use_column_cache);
          });
      if (!segment.ok()) {
        result.status = segment.status();
        return result;
      }
      result.ledger.cache_outcomes[static_cast<size_t>(
          cluster::CacheOutcome::kBruteForce)]++;
      const storage::Column* vec_col =
          (*segment)->FindColumn(bound.vector_column);
      if (vec_col == nullptr) {
        result.status = common::Status::Internal("vector column missing");
        return result;
      }
      // Survivor bitmap built vectorized (deletes folded word-level), then
      // exact distances only on set bits.
      common::Bitset bitmap;
      if (bound.filter != nullptr) {
        auto bind =
            PredicateEvaluator::Bind(ctx.compiled_filter, **segment);
        if (!bind.ok()) {
          result.status = bind.status();
          return result;
        }
        bitmap = bind->BuildBitmap(deletes, settings.use_granule_pruning);
      } else {
        bitmap = common::Bitset((*segment)->num_rows(), /*initial=*/true);
        if (deletes != nullptr) {
          if (deletes->size() == bitmap.size()) {
            bitmap.AndNot(*deletes);
          } else {
            // Defensive: snapshot invariants size deletes to num_rows.
            deletes->ForEachSetBit([&](size_t i) {
              if (i < bitmap.size()) bitmap.Clear(i);
            });
          }
        }
      }
      // Top-k max-heap over qualifying rows.
      std::priority_queue<vecindex::Neighbor> heap;
      const float* qv = bound.query_vector.data();
      bitmap.ForEachSetBit([&](size_t i) {
        float d = vecindex::Distance(bound.metric, qv, vec_col->GetVector(i),
                                     vec_col->vector_dim());
        if (!bound.InRange(d)) return;
        if (heap.size() < k) {
          heap.push({static_cast<vecindex::IdType>(i), d});
        } else if (d < heap.top().distance) {
          heap.pop();
          heap.push({static_cast<vecindex::IdType>(i), d});
        }
      });
      while (!heap.empty()) {
        result.candidates.push_back({heap.top().distance, heap.top().id, {}});
        heap.pop();
      }
      break;
    }

    case ExecStrategy::kPreFilter: {
      // Plan B: build the qualifying-row bitmap, then a bitmap ANN scan.
      common::Bitset bitmap;
      std::shared_ptr<const common::Bitset> cached;  // keeps a hit alive
      if (bound.filter != nullptr) {
        // Worker-level bitmap reuse: keyed by segment identity, predicate
        // fingerprint, and the segment's delete epoch (a MarkDeleted commit
        // bumps the epoch, so stale bitmaps are never looked up again).
        std::string cache_key;
        if (settings.use_filter_bitmap_cache &&
            ctx.compiled_filter != nullptr) {
          cache_key = schema.table_name + '/' + meta.segment_id + '@' +
                      std::to_string(
                          ctx.snapshot.DeleteEpochFor(meta.segment_id)) +
                      '#' + ctx.compiled_filter->fingerprint();
          cached = worker->GetCachedFilterBitmap(cache_key);
          if (cached != nullptr) {
            ++result.ledger.filter_cache_hits;
            if (span != nullptr) span->SetTag("filter_cache", "hit");
          }
        }
        if (cached == nullptr) {
          auto fresh = TracedStage(
              ctx.trace, span, "build_filter_bitmap",
              [&](trace::Span* sp)
                  -> common::Result<std::shared_ptr<common::Bitset>> {
                if (sp != nullptr) sp->SetTag("filter_cache", "miss");
                auto segment = worker->GetSegment(schema, meta.segment_id,
                                                  settings.use_column_cache);
                if (!segment.ok()) return segment.status();
                auto bind =
                    PredicateEvaluator::Bind(ctx.compiled_filter, **segment);
                if (!bind.ok()) return bind.status();
                return std::make_shared<common::Bitset>(
                    bind->BuildBitmap(deletes, settings.use_granule_pruning));
              });
          if (!fresh.ok()) {
            result.status = fresh.status();
            return result;
          }
          if (!cache_key.empty()) {
            ++result.ledger.filter_cache_misses;
            worker->PutFilterBitmap(cache_key, *fresh);
          }
          cached = std::move(*fresh);
        }
        if (!cached->Any()) break;  // nothing qualifies in this segment
        params.filter = cached.get();
      } else if (deletes != nullptr) {
        // Deletes-only: one word-level AndNot over a full bitmap instead of
        // a per-row Test/Clear loop.
        bitmap = common::Bitset(meta.num_rows, /*initial=*/true);
        if (deletes->size() == bitmap.size()) {
          bitmap.AndNot(*deletes);
        } else {
          // Defensive: snapshot invariants size deletes to num_rows.
          deletes->ForEachSetBit([&](size_t i) {
            if (i < bitmap.size()) bitmap.Clear(i);
          });
        }
        if (!bitmap.Any()) break;
        params.filter = &bitmap;
      }
      auto acquired = TracedStage(
          ctx.trace, span, "acquire_index", [&](trace::Span* sp) {
            auto r = worker->AcquireIndex(schema, meta, settings.acquire);
            if (sp != nullptr && r.ok())
              sp->SetTag("outcome", cluster::CacheOutcomeName(r->outcome));
            return r;
          });
      if (!acquired.ok()) {
        result.status = acquired.status();
        return result;
      }
      result.ledger.cache_outcomes[static_cast<size_t>(acquired->outcome)]++;
      widen_for_rerank(*acquired->index);
      common::Result<std::vector<vecindex::Neighbor>> hits =
          bound.range >= 0
              ? acquired->index->SearchWithRange(
                    bound.query_vector.data(),
                    static_cast<float>(bound.range), params)
              : acquired->index->SearchWithFilter(bound.query_vector.data(),
                                                  params);
      if (!hits.ok()) {
        result.status = hits.status();
        return result;
      }
      push_candidates(*hits);
      break;
    }

    case ExecStrategy::kPostFilter: {
      // Plan C: iterator ANN scan first, filter candidates, refill until k
      // qualify (partial top-k pushed below the scalar filter).
      auto acquired = TracedStage(
          ctx.trace, span, "acquire_index", [&](trace::Span* sp) {
            auto r = worker->AcquireIndex(schema, meta, settings.acquire);
            if (sp != nullptr && r.ok())
              sp->SetTag("outcome", cluster::CacheOutcomeName(r->outcome));
            return r;
          });
      if (!acquired.ok()) {
        result.status = acquired.status();
        return result;
      }
      result.ledger.cache_outcomes[static_cast<size_t>(acquired->outcome)]++;
      widen_for_rerank(*acquired->index);
      if (bound.filter == nullptr && bound.range < 0 && deletes == nullptr) {
        // Nothing to post-filter (no predicate, no range, no delete bitmap):
        // a plain top-k index search is cheaper than an incremental
        // iterator.
        auto hits =
            acquired->index->SearchWithFilter(bound.query_vector.data(),
                                              params);
        if (!hits.ok()) {
          result.status = hits.status();
          return result;
        }
        push_candidates(*hits);
        break;
      }
      // Native resumable iterators retain search state across Next() calls
      // (cached score array / probe cursor / beam frontier), so refills
      // extend the search instead of restarting it; indexes without one
      // hand back the generic restart wrapper.
      const bool native = acquired->index->HasNativeIterator();
      auto iter = acquired->index->MakeIterator(bound.query_vector.data(),
                                                params);
      if (!iter.ok()) {
        result.status = iter.status();
        return result;
      }
      if (span != nullptr)
        span->SetTag("iterator", native ? "native" : "generic");
      storage::SegmentPtr segment;  // fetched lazily, only if needed
      std::optional<PredicateEvaluator> eval;
      const size_t batch_size = refine_k;
      size_t found = 0;
      // A native iterator only moves forward, so exhaustion (empty batch)
      // is its natural stop and no round cap is needed. The restart wrapper
      // re-searches from scratch every refill, so its refills are bounded.
      constexpr size_t kMaxGenericIteratorRounds = 16;
      const size_t max_rounds = native ? std::numeric_limits<size_t>::max()
                                       : kMaxGenericIteratorRounds;
      for (size_t round = 0; round < max_rounds; ++round) {
        std::vector<vecindex::Neighbor> batch = (*iter)->Next(batch_size);
        if (batch.empty()) break;
        BH_DCHECK(vecindex::IsSortedBatch(batch));
        for (const vecindex::Neighbor& n : batch) {
          size_t row = static_cast<size_t>(n.id);
          if (deletes != nullptr && deletes->Test(row)) continue;
          if (!rerank_fp32 && !bound.InRange(n.distance)) continue;
          if (bound.filter != nullptr) {
            if (segment == nullptr) {
              auto fetched = worker->GetSegment(schema, meta.segment_id,
                                                settings.use_column_cache);
              if (!fetched.ok()) {
                result.status = fetched.status();
                return result;
              }
              segment = *fetched;
              auto bind =
                  PredicateEvaluator::Bind(ctx.compiled_filter, *segment);
              if (!bind.ok()) {
                result.status = bind.status();
                return result;
              }
              eval = std::move(*bind);
            }
            if (!eval->EvalRow(row)) continue;
          }
          result.candidates.push_back({n.distance, n.id, {}});
          ++found;
        }
        if (found >= k) break;
        // Distances grew past the range: no point iterating further. Sound
        // because of the sorted-batch contract — batch.back() is the worst
        // hit in this batch, so the whole batch is past the radius.
        if (bound.range >= 0 && !batch.empty() &&
            batch.back().distance > bound.range)
          break;
      }
      vecindex::SearchIterator::Stats istats = (*iter)->GetStats();
      static common::metrics::Counter* iter_batches =
          common::metrics::MetricsRegistry::Instance().GetCounter(
              "bh_iter_batches");
      static common::metrics::Counter* iter_rows =
          common::metrics::MetricsRegistry::Instance().GetCounter(
              "bh_iter_rows_visited");
      static common::metrics::Counter* iter_recompute =
          common::metrics::MetricsRegistry::Instance().GetCounter(
              "bh_iter_recompute_rounds");
      iter_batches->Add(istats.batches);
      iter_rows->Add(istats.rows_visited);
      iter_recompute->Add(istats.recompute_rounds);
      result.ledger.iter_batches += istats.batches;
      result.ledger.iter_rows_visited += istats.rows_visited;
      result.ledger.iter_recompute_rounds += istats.recompute_rounds;
      if (span != nullptr)
        span->SetTag("iter_rows_visited",
                     std::to_string(istats.rows_visited));
      break;
    }
  }

  if (rerank_fp32 && !result.candidates.empty()) {
    // Second tier: exact fp32 distances for the quantized first pass's
    // survivors, straight from the segment's vector column (candidate ids
    // are row offsets). The deferred range bound applies to the exact
    // distances, and the sort below re-ranks before the top-k truncation.
    common::Status reranked = TracedStage(
        ctx.trace, span, "fp32_rerank", [&](trace::Span* sp) {
          auto segment = worker->GetSegment(schema, meta.segment_id,
                                            settings.use_column_cache);
          if (!segment.ok()) return segment.status();
          const storage::Column* vec_col =
              (*segment)->FindColumn(bound.vector_column);
          if (vec_col == nullptr)
            return common::Status::Internal("vector column missing");
          const float* qv = bound.query_vector.data();
          for (Candidate& c : result.candidates)
            c.dist = vecindex::Distance(
                bound.metric, qv,
                vec_col->GetVector(static_cast<size_t>(c.row)),
                vec_col->vector_dim());
          if (sp != nullptr)
            sp->SetTag("rows", std::to_string(result.candidates.size()));
          static common::metrics::Counter* rerank_rows =
              common::metrics::MetricsRegistry::Instance().GetCounter(
                  "bh_exec_fp32_rerank_rows");
          rerank_rows->Add(result.candidates.size());
          result.ledger.fp32_rerank_rows += result.candidates.size();
          return common::Status::Ok();
        });
    if (!reranked.ok()) {
      result.status = reranked;
      return result;
    }
    if (bound.range >= 0) {
      result.candidates.erase(
          std::remove_if(result.candidates.begin(), result.candidates.end(),
                         [&](const Candidate& c) {
                           return !bound.InRange(c.dist);
                         }),
          result.candidates.end());
    }
  }

  // Keep only this segment's partial top-k, tagged with its identity.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.dist < b.dist;
            });
  if (result.candidates.size() > k) result.candidates.resize(k);
  for (Candidate& c : result.candidates) c.segment_id = meta.segment_id;

  vecindex::scanstats::TierCounts scans = scan_scope.Delta();
  for (size_t i = 0; i < vecindex::scanstats::kNumTiers; ++i)
    result.ledger.distance_comps[i] += scans.dist[i];
  result.ledger.rows_scanned += scans.total();
  result.ledger.segments_scanned += 1;
  if (span != nullptr && scans.total() > 0)
    span->SetTag("distance_comps", std::to_string(scans.total()));
  return result;
}

common::Result<QueryResult> Executor::Materialize(
    const BoundQuery& bound, const storage::TableSchema& schema,
    std::vector<Candidate> candidates) {
  QueryResult out;
  out.column_names = bound.output_columns;

  // Group winning rows by segment for one fetch per segment (reduces the
  // read amplification of scattered ANN results).
  std::map<std::string, std::vector<size_t>> by_segment;  // -> candidate idx
  for (size_t i = 0; i < candidates.size(); ++i)
    by_segment[candidates[i].segment_id].push_back(i);

  std::vector<storage::Row> rows(candidates.size());
  for (auto& [segment_id, idxs] : by_segment) {
    auto segment = FetchForMaterialize(schema, segment_id);
    if (!segment.ok()) return segment.status();
    for (size_t idx : idxs) {
      const Candidate& c = candidates[idx];
      storage::Row row;
      row.values.reserve(bound.output_columns.size());
      for (const std::string& col_name : bound.output_columns) {
        if (col_name == bound.distance_alias && bound.has_ann) {
          row.values.push_back(static_cast<double>(
              OutputDistance(bound.metric, c.dist)));
          continue;
        }
        const storage::Column* col = (*segment)->FindColumn(col_name);
        if (col == nullptr)
          return common::Status::Internal("output column missing: " +
                                          col_name);
        row.values.push_back(col->GetValue(static_cast<size_t>(c.row)));
      }
      rows[idx] = std::move(row);
    }
  }
  out.rows = std::move(rows);
  return out;
}

common::Result<storage::SegmentPtr> Executor::FetchForMaterialize(
    const storage::TableSchema& schema, const std::string& segment_id) {
  cluster::VirtualWarehouse::QueryLease lease = vw_->AcquireQueryLease();
  cluster::Worker* owner = vw_->OwnerOf(
      storage::SegmentKeys::Index(schema.table_name, segment_id));
  if (owner == nullptr) return common::Status::Aborted("no worker available");
  if (!settings_.use_column_cache)
    return owner->GetSegment(schema, segment_id, /*use_cache=*/false);
  if (owner->PeekCachedSegment(schema, segment_id) != nullptr)
    return owner->GetSegment(schema, segment_id, /*use_cache=*/true);
  // Column data is stateless: any worker holding the segment hot can hand
  // the needed rows over for one RPC hop, sparing a cold remote read right
  // after scaling.
  for (cluster::Worker* peer : vw_->workers()) {
    if (peer == owner) continue;
    storage::SegmentPtr cached = peer->PeekCachedSegment(schema, segment_id);
    if (cached != nullptr) {
      return cached;
    }
  }
  return owner->GetSegment(schema, segment_id, /*use_cache=*/true);
}

// ---------------------------------------------------------------------------
// Scalar path (no ANN clause)
// ---------------------------------------------------------------------------

common::Result<QueryResult> Executor::ExecuteScalar(
    const OptimizedQuery& query, storage::LsmEngine& engine,
    ExecStats* stats) {
  const BoundQuery& bound = query.bound;
  const storage::TableSchema& schema = engine.schema();
  storage::TableSnapshot snapshot = engine.Snapshot();
  stats->segments_total = snapshot.segments.size();

  std::vector<storage::SegmentMeta> segments = snapshot.segments;
  if (settings_.scalar_pruning && bound.filter != nullptr) {
    segments = cluster::Scheduler::PruneScalar(
        segments, [&](const storage::SegmentMeta& m) {
          return SegmentMayMatch(*bound.filter, m, schema);
        });
  }
  stats->segments_after_scalar_prune = segments.size();

  QueryResult out;
  out.column_names = bound.output_columns;
  size_t limit = bound.scalar_limit.value_or(
      std::numeric_limits<size_t>::max());
  // OFFSET skips the first qualifying rows in scan order (pagination for
  // non-ANN queries).
  size_t to_skip = bound.scalar_offset.value_or(0);

  CompiledPredicatePtr compiled_filter;
  if (bound.filter != nullptr) {
    auto compiled = CompiledPredicate::Compile(*bound.filter);
    if (!compiled.ok()) return compiled.status();
    compiled_filter = std::move(compiled).value();
  }

  cluster::VirtualWarehouse::QueryLease lease = vw_->AcquireQueryLease();
  for (const storage::SegmentMeta& meta : segments) {
    if (out.rows.size() >= limit) break;
    cluster::Worker* owner = vw_->OwnerOf(
        storage::SegmentKeys::Index(schema.table_name, meta.segment_id));
    if (owner == nullptr)
      return common::Status::Aborted("no worker available");
    auto segment = owner->GetSegment(schema, meta.segment_id,
                                     settings_.use_column_cache);
    if (!segment.ok()) return segment.status();
    ++stats->ledger.segments_scanned;
    const common::Bitset* deletes = snapshot.DeletesFor(meta.segment_id);

    std::optional<PredicateEvaluator> eval;
    if (compiled_filter != nullptr) {
      auto bind = PredicateEvaluator::Bind(compiled_filter, **segment);
      if (!bind.ok()) return bind.status();
      eval = std::move(*bind);
    }
    for (size_t i = 0; i < (*segment)->num_rows() && out.rows.size() < limit;
         ++i) {
      ++stats->ledger.rows_scanned;
      if (deletes != nullptr && deletes->Test(i)) continue;
      if (eval.has_value() && !eval->EvalRow(i)) continue;
      if (to_skip > 0) {
        --to_skip;
        continue;
      }
      storage::Row row;
      row.values.reserve(bound.output_columns.size());
      for (const std::string& col_name : bound.output_columns) {
        const storage::Column* col = (*segment)->FindColumn(col_name);
        if (col == nullptr)
          return common::Status::InvalidArgument("unknown column: " +
                                                 col_name);
        row.values.push_back(col->GetValue(i));
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE support
// ---------------------------------------------------------------------------

common::Result<std::vector<std::pair<std::string, std::vector<uint64_t>>>>
Executor::FindMatchingRows(storage::LsmEngine& engine, const Expr* filter) {
  storage::TableSnapshot snapshot = engine.Snapshot();
  std::vector<std::pair<std::string, std::vector<uint64_t>>> matches;
  CompiledPredicatePtr compiled_filter;
  if (filter != nullptr) {
    auto compiled = CompiledPredicate::Compile(*filter);
    if (!compiled.ok()) return compiled.status();
    compiled_filter = std::move(compiled).value();
  }
  for (const storage::SegmentMeta& meta : snapshot.segments) {
    if (filter != nullptr &&
        !SegmentMayMatch(*filter, meta, engine.schema()))
      continue;
    auto segment = engine.FetchSegment(meta.segment_id);
    if (!segment.ok()) return segment.status();
    const common::Bitset* deletes = snapshot.DeletesFor(meta.segment_id);

    std::optional<PredicateEvaluator> eval;
    if (compiled_filter != nullptr) {
      auto bind = PredicateEvaluator::Bind(compiled_filter, **segment);
      if (!bind.ok()) return bind.status();
      eval = std::move(*bind);
    }
    std::vector<uint64_t> offsets;
    if (eval.has_value()) {
      // Vectorized: the bitmap already folds deletes word-level; compact
      // surviving offsets via set-bit iteration.
      common::Bitset bitmap = eval->BuildBitmap(deletes, true);
      offsets.reserve(bitmap.Count());
      bitmap.ForEachSetBit(
          [&](size_t i) { offsets.push_back(static_cast<uint64_t>(i)); });
    } else {
      for (size_t i = 0; i < (*segment)->num_rows(); ++i) {
        if (deletes != nullptr && deletes->Test(i)) continue;
        offsets.push_back(i);
      }
    }
    if (!offsets.empty())
      matches.emplace_back(meta.segment_id, std::move(offsets));
  }
  return matches;
}

}  // namespace blendhouse::sql
