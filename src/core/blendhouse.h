#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/virtual_warehouse.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/options.h"
#include "core/query_log.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/plan_cache.h"
#include "storage/lsm_engine.h"

namespace blendhouse::core {

/// The BlendHouse database: a cloud-native generalized vector database over
/// disaggregated storage and compute.
///
/// Quickstart:
///
///   core::BlendHouse db;
///   db.ExecuteSql("CREATE TABLE images (id Int64, label String,"
///                 " embedding Array(Float32),"
///                 " INDEX ann embedding TYPE HNSW('DIM=96'))"
///                 " PARTITION BY (label)"
///                 " CLUSTER BY embedding INTO 8 BUCKETS;");
///   db.ExecuteSql("INSERT INTO images VALUES (1, 'cat', [ ... ]);");
///   auto r = db.Query("SELECT id, dist FROM images WHERE label = 'cat'"
///                     " ORDER BY L2Distance(embedding, [ ... ])"
///                     " LIMIT 10;");
///
/// All entry points are thread-safe; benches drive Query() from many client
/// threads concurrently. catalog_mu_ only guards the table map itself —
/// TableState objects are never destroyed while the database lives, so a
/// pointer handed out by FindTable stays valid without the lock.
class BlendHouse {
 public:
  explicit BlendHouse(BlendHouseOptions options = BlendHouseOptions());
  ~BlendHouse();

  BlendHouse(const BlendHouse&) = delete;
  BlendHouse& operator=(const BlendHouse&) = delete;

  // ---- SQL surface ---------------------------------------------------------

  /// Executes any statement. SELECT results are returned; DDL/DML return an
  /// empty result on success.
  common::Result<sql::QueryResult> ExecuteSql(const std::string& sql);

  /// SELECT with the session default settings.
  common::Result<sql::QueryResult> Query(const std::string& sql) {
    return QueryWithSettings(sql, options_.settings);
  }
  /// SELECT with per-query settings (benches flip optimizations here).
  common::Result<sql::QueryResult> QueryWithSettings(
      const std::string& sql, const sql::QuerySettings& settings);

  /// Optimizer report for a SELECT: plan tree, rewrite rules fired, plan
  /// costs, chosen strategy.
  common::Result<std::string> Explain(const std::string& sql);

  /// EXPLAIN ANALYZE: executes the SELECT and returns its rendered trace
  /// span tree (per-span wall/compute/sim-I/O times, cache-hit tags).
  common::Result<std::string> ExplainAnalyze(const std::string& sql);

  // ---- Programmatic surface ------------------------------------------------

  common::Status CreateTable(storage::TableSchema schema);
  common::Status Insert(const std::string& table,
                        std::vector<storage::Row> rows);
  /// Commits buffered rows so queries see them.
  common::Status Flush(const std::string& table);
  /// Synchronous full compaction (merges small segments, drops deleted
  /// rows, rebuilds indexes).
  common::Result<size_t> Compact(const std::string& table);
  /// Triggered compaction using the configured thresholds.
  common::Result<size_t> CompactIfNeeded(const std::string& table);

  /// Pushes every committed index into its owning worker's caches.
  common::Status PreloadTable(const std::string& table);

  // ---- Elasticity ----------------------------------------------------------

  cluster::Worker* AddReadWorker();
  common::Status RemoveReadWorker(const std::string& worker_id);

  // ---- Introspection (benches, tests) ---------------------------------------

  storage::LsmEngine* engine(const std::string& table);
  cluster::VirtualWarehouse& read_vw() { return *read_vw_; }
  storage::ObjectStore& object_store() { return store_; }
  cluster::RpcFabric& rpc() { return rpc_; }
  sql::PlanCache& plan_cache() { return plan_cache_; }
  /// Retained per-query traces (see BlendHouseOptions::trace). Retention is
  /// tail-based: error traces and slower-than-p99 traces always, a sampled
  /// residual of the rest.
  trace::TraceSink& trace_sink() { return trace_sink_; }
  /// Finished-query history behind `SELECT * FROM system.query_log` /
  /// `system.query_profile` (DESIGN.md §15).
  QueryLog& query_log() { return query_log_; }
  BlendHouseOptions& mutable_options() { return options_; }
  const BlendHouseOptions& options() const { return options_; }

  std::vector<std::string> TableNames() const EXCLUDES(catalog_mu_);

  /// Test-only: installed on every query executor this instance constructs;
  /// lets retry tests mutate the read VW topology between a query's
  /// placement and its dispatch. See Executor::SetTopologyHookForTest.
  void SetExecutorTopologyHookForTest(std::function<void(size_t)> hook) {
    executor_topology_hook_for_test_ = std::move(hook);
  }

 private:
  struct TableState {
    storage::TableSchema schema;
    std::unique_ptr<storage::LsmEngine> engine;
    common::Mutex stats_mu{common::lockrank::kTableStats};
    /// Immutable statistics snapshot: queries copy the shared_ptr under
    /// stats_mu and keep using it while refreshes swap in new snapshots.
    std::shared_ptr<const sql::TableStatistics> stats GUARDED_BY(stats_mu);
  };

  TableState* FindTable(const std::string& name) EXCLUDES(catalog_mu_);
  /// Returns the current (possibly refreshed) statistics snapshot; null when
  /// statistics cannot be built.
  std::shared_ptr<const sql::TableStatistics> RefreshStatistics(
      TableState* table);
  std::vector<common::TaskScheduler*> IndexBuildPools();

  common::Result<sql::OptimizedQuery> Plan(const std::string& sql,
                                           const sql::SelectStmt& stmt,
                                           TableState* table,
                                           const sql::QuerySettings& settings,
                                           sql::ExecStats* stats);

  /// Shared SELECT path: plans + executes `select` under a fresh trace.
  /// When `out_trace` is non-null the finished trace is handed back (EXPLAIN
  /// ANALYZE), independent of the sink's sampling decision.
  common::Result<sql::QueryResult> RunSelect(
      const std::string& sql, const sql::SelectStmt& select,
      const sql::QuerySettings& settings, trace::TracePtr* out_trace);

  /// Dispatch for the system.* virtual tables (metrics, query_log,
  /// query_profile, query_trace(<id>)): in-memory snapshots scanned through
  /// the real predicate engine with WHERE pushdown and projection. These
  /// queries are never recorded into system.query_log.
  common::Result<sql::QueryResult> QuerySystemTable(
      const sql::SelectStmt& select);

  /// Optimizer report for an already-parsed SELECT (plain EXPLAIN body).
  common::Result<std::string> ExplainSelect(const sql::SelectStmt& select);

  common::Status ApplySetting(const sql::SetStmt& stmt);
  common::Status ExecuteInsert(const sql::InsertStmt& stmt);
  common::Status ExecuteUpdate(const sql::UpdateStmt& stmt);
  common::Status ExecuteDelete(const sql::DeleteStmt& stmt);

  BlendHouseOptions options_;
  storage::ObjectStore store_;
  cluster::RpcFabric rpc_;
  std::unique_ptr<cluster::VirtualWarehouse> read_vw_;
  std::function<void(size_t)> executor_topology_hook_for_test_;
  std::unique_ptr<common::TaskScheduler> build_pool_;
  sql::PlanCache plan_cache_;
  trace::TraceSink trace_sink_;
  QueryLog query_log_;

  mutable common::Mutex catalog_mu_{common::lockrank::kCatalog};
  std::map<std::string, std::unique_ptr<TableState>> tables_
      GUARDED_BY(catalog_mu_);
};

}  // namespace blendhouse::core
