#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/scheduler.h"
#include "cluster/virtual_warehouse.h"
#include "common/query_ledger.h"
#include "common/result.h"
#include "common/trace.h"
#include "sql/optimizer.h"
#include "sql/settings.h"
#include "storage/lsm_engine.h"

namespace blendhouse::sql {

/// What one query's execution did: the plan facts, and the ledger of the
/// work its segment tasks and the caller thread performed (DESIGN.md §15).
/// Execute fills it on success and on failure alike.
struct ExecStats {
  ExecStrategy strategy = ExecStrategy::kPostFilter;
  size_t segments_total = 0;
  size_t segments_after_scalar_prune = 0;
  size_t segments_after_semantic_prune = 0;
  size_t adaptive_expansions = 0;
  bool used_plan_cache = false;
  bool used_short_circuit = false;
  int rules_fired = 0;
  double plan_micros = 0;
  /// Wall time of the query's "execute" span.
  double exec_micros = 0;
  /// The one record of the execution's work: latency breakdown, scan and
  /// iterator counts, cache outcomes and traffic, fan-out, retries. Segment
  /// tallies are those of the winning attempt, so a query whose retries
  /// all failed reports none. RunSelect drains it into system.query_log.
  common::QueryLedger ledger;

  /// Copies of ledger fields under the names perfbench/blendbench.cc reads;
  /// assigned at the end of Execute. Nothing in the engine reads them.
  double queue_wait_micros = 0;
  double sim_io_micros = 0;
  std::array<size_t, 5> cache_outcomes{};
};

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<storage::Row> rows;
  ExecStats stats;
};

/// Distributed query executor: schedules pruned segments onto the read VW's
/// workers via the consistent-hash ring, runs the chosen physical strategy
/// per segment on the owning worker's pool, merges partial top-k results,
/// and late-materializes output columns (paper §II-C "Plan execution").
class Executor {
 public:
  Executor(cluster::VirtualWarehouse* read_vw, const QuerySettings& settings)
      : vw_(read_vw), settings_(settings) {}

  /// Attaches a per-query trace: execution spans parent under `parent`.
  /// Without this, Execute creates a private trace so span bookkeeping is
  /// identical on every path (the trace is simply never retained).
  void SetTrace(trace::TracePtr trace, trace::SpanPtr parent) {
    trace_ = std::move(trace);
    parent_span_ = std::move(parent);
  }

  /// Runs an optimized SELECT against one table's engine. `*stats` may
  /// already hold the planning facts; Execute adds the execution's, and
  /// leaves them there on failure too. A successful result carries a copy.
  common::Result<QueryResult> Execute(const OptimizedQuery& query,
                                      storage::LsmEngine& engine,
                                      ExecStats* stats);

  /// UPDATE/DELETE support: (segment_id, row offsets) of all committed rows
  /// matching `filter` (deleted rows excluded). Null filter matches all.
  common::Result<std::vector<std::pair<std::string, std::vector<uint64_t>>>>
  FindMatchingRows(storage::LsmEngine& engine, const Expr* filter);

  /// Test-only: invoked after each attempt's placement with the attempt
  /// number, before workers are resolved — lets retry tests mutate the VW
  /// topology at the exact moment a real scaling event would race a query.
  void SetTopologyHookForTest(std::function<void(size_t attempt)> hook) {
    topology_hook_for_test_ = std::move(hook);
  }

 private:
  /// One ANN candidate before materialization.
  struct Candidate {
    float dist;
    vecindex::IdType row;
    std::string segment_id;
  };

  struct SegmentTaskResult {
    std::vector<Candidate> candidates;
    /// Ledger slice this task produced: per-tier distance computations from
    /// the thread-local scan counters (a segment task runs start-to-finish
    /// on one pool thread), iterator stats, fp32-rerank rows, the cache
    /// outcome of its index and its filter-cache traffic.
    common::QueryLedger ledger;
    common::Status status;
    /// True when the task observed its attempt's cancel flag and did no
    /// work; the merge skips it without treating it as a failure.
    bool skipped = false;
  };

  /// Immutable query context shared by every segment task of one query.
  /// Deep copies of the bound query (predicate cloned), schema, and
  /// snapshot live here behind a shared_ptr, so a straggler task from a
  /// cancelled attempt can never dangle into the caller's stack frame.
  struct QueryContext;
  /// Per-attempt streaming merge state: bounded top-k heap, outstanding
  /// counter, cancel flag, the fold of its tasks' ledgers, completion
  /// promise.
  struct AttemptState;

  common::Result<QueryResult> ExecuteAnn(const OptimizedQuery& query,
                                         storage::LsmEngine& engine,
                                         ExecStats* stats);
  common::Result<QueryResult> ExecuteScalar(const OptimizedQuery& query,
                                            storage::LsmEngine& engine,
                                            ExecStats* stats);

  /// Runs the physical strategy over `segments` on their owning workers and
  /// returns the merged candidate set. `compiled_filter` is the per-query
  /// compiled predicate (null when the query has no filter), compiled once
  /// in ExecuteAnn so segment binds share its regexes and LIKE shapes.
  common::Result<std::vector<Candidate>> RunOnWorkers(
      const BoundQuery& bound, const CompiledPredicatePtr& compiled_filter,
      ExecStrategy strategy, const storage::TableSchema& schema,
      const std::vector<storage::SegmentMeta>& segments,
      const storage::TableSnapshot& snapshot, ExecStats* stats);

  /// Static on purpose: segment tasks run on worker pools and may outlive
  /// this Executor (cancelled-attempt stragglers), so they must not capture
  /// `this` — everything they need lives in the shared QueryContext.
  /// `span` is the task's segment_scan span (sub-stage spans parent there).
  static SegmentTaskResult RunSegment(cluster::Worker* worker,
                                      const QueryContext& ctx,
                                      const storage::SegmentMeta& meta,
                                      const trace::SpanPtr& span);

  common::Result<QueryResult> Materialize(const BoundQuery& bound,
                                          const storage::TableSchema& schema,
                                          std::vector<Candidate> candidates);

  /// Segment fetch with cache affinity: current owner's cache, then any
  /// worker's cache (one RPC hop), then remote storage via the owner.
  common::Result<storage::SegmentPtr> FetchForMaterialize(
      const storage::TableSchema& schema, const std::string& segment_id);

  cluster::VirtualWarehouse* vw_;
  QuerySettings settings_;
  trace::TracePtr trace_;
  trace::SpanPtr parent_span_;
  /// The query's "execute" span; segment_scan spans parent here.
  trace::SpanPtr exec_span_;
  std::function<void(size_t attempt)> topology_hook_for_test_;
};

}  // namespace blendhouse::sql
