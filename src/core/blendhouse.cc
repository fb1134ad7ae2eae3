#include "core/blendhouse.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>

#include "cluster/scheduler.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "storage/segment.h"

namespace blendhouse::core {

namespace {

/// Per-query SQL-layer metrics: query counts by type and per-stage latency
/// histograms. Resolved once; the per-query cost is a few relaxed RMWs.
struct SqlMetrics {
  common::metrics::Counter* queries_ann;
  common::metrics::Counter* queries_scalar;
  common::metrics::Counter* query_failures;
  common::metrics::HistogramMetric* plan_micros;
  common::metrics::HistogramMetric* query_micros;
};

const SqlMetrics& QueryMetrics() {
  auto& reg = common::metrics::MetricsRegistry::Instance();
  static const SqlMetrics m{
      reg.GetCounter("bh_sql_queries_ann_total"),
      reg.GetCounter("bh_sql_queries_scalar_total"),
      reg.GetCounter("bh_sql_query_failures_total"),
      reg.GetHistogram("bh_sql_plan_micros"),
      reg.GetHistogram("bh_sql_query_micros"),
  };
  return m;
}

std::string HexFingerprint(uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

/// Builds a synthetic single-use table schema for a system.* virtual table.
storage::TableSchema VirtualSchema(
    std::string name,
    std::initializer_list<std::pair<const char*, storage::ColumnType>> cols) {
  storage::TableSchema schema;
  schema.table_name = std::move(name);
  for (const auto& [col, type] : cols)
    schema.columns.push_back({col, type});
  return schema;
}

/// Scans an in-memory row snapshot through the real query machinery: rows
/// are frozen into a columnar Segment (granule marks included) and WHERE is
/// compiled once and pushed down as a vectorized bitmap — the same
/// CompiledPredicate/BuildBitmap path regular segments use — then the
/// projection and LIMIT/OFFSET apply over the surviving bits.
common::Result<sql::QueryResult> ScanVirtualTable(
    const sql::SelectStmt& select, const storage::TableSchema& schema,
    const std::vector<storage::Row>& rows) {
  if (select.ann.has_value())
    return common::Status::InvalidArgument(schema.table_name +
                                           " does not support ANN clauses");
  sql::QueryResult out;
  if (select.select_star) {
    for (const storage::ColumnDef& c : schema.columns)
      out.column_names.push_back(c.name);
  } else {
    for (const std::string& c : select.select_columns) {
      if (schema.FindColumn(c) < 0)
        return common::Status::InvalidArgument("unknown column: " + c +
                                               " in " + schema.table_name);
      out.column_names.push_back(c);
    }
  }
  if (rows.empty()) return out;

  storage::SegmentBuilder builder(schema, "virtual");
  for (const storage::Row& r : rows) BH_RETURN_IF_ERROR(builder.AppendRow(r));
  auto segment = builder.Finish();
  if (!segment.ok()) return segment.status();

  common::Bitset bitmap((*segment)->num_rows(), /*initial=*/true);
  if (select.where != nullptr) {
    auto compiled = sql::CompiledPredicate::Compile(*select.where);
    if (!compiled.ok()) return compiled.status();
    auto bound = sql::PredicateEvaluator::Bind(std::move(*compiled), **segment);
    if (!bound.ok()) return bound.status();
    bitmap = bound->BuildBitmap(/*deletes=*/nullptr,
                                /*use_granule_pruning=*/true);
  }

  std::vector<const storage::Column*> cols;
  cols.reserve(out.column_names.size());
  for (const std::string& name : out.column_names)
    cols.push_back((*segment)->FindColumn(name));
  size_t limit =
      select.scalar_limit.value_or(std::numeric_limits<size_t>::max());
  size_t to_skip = select.scalar_offset.value_or(0);
  bitmap.ForEachSetBit([&](size_t i) {
    if (out.rows.size() >= limit) return;
    if (to_skip > 0) {
      --to_skip;
      return;
    }
    storage::Row row;
    row.values.reserve(cols.size());
    for (const storage::Column* c : cols) row.values.push_back(c->GetValue(i));
    out.rows.push_back(std::move(row));
  });
  return out;
}

}  // namespace

BlendHouse::BlendHouse(BlendHouseOptions options)
    : options_(std::move(options)),
      store_(options_.remote_cost),
      rpc_(options_.rpc_cost),
      trace_sink_(options_.trace),
      query_log_(options_.query_log) {
  cluster::WorkerOptions worker_options = options_.worker;
  worker_options.threads = options_.worker_threads;
  read_vw_ = std::make_unique<cluster::VirtualWarehouse>(
      "read", options_.read_workers, &store_, &rpc_, worker_options);
  if (options_.separate_write_vw)
    build_pool_ =
        std::make_unique<common::TaskScheduler>(options_.build_threads);
}

BlendHouse::~BlendHouse() = default;

std::vector<common::TaskScheduler*> BlendHouse::IndexBuildPools() {
  if (options_.separate_write_vw) return {build_pool_.get()};
  // Mixed configuration: index builds contend with queries for the read
  // VW's worker threads (Fig. 12).
  std::vector<common::TaskScheduler*> pools;
  for (cluster::Worker* w : read_vw_->workers()) pools.push_back(&w->pool());
  return pools;
}

BlendHouse::TableState* BlendHouse::FindTable(const std::string& name) {
  common::MutexLock lock(catalog_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> BlendHouse::TableNames() const {
  common::MutexLock lock(catalog_mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

storage::LsmEngine* BlendHouse::engine(const std::string& table) {
  TableState* t = FindTable(table);
  return t == nullptr ? nullptr : t->engine.get();
}

common::Status BlendHouse::CreateTable(storage::TableSchema schema) {
  if (schema.table_name.empty())
    return common::Status::InvalidArgument("table needs a name");
  if (schema.index_spec.has_value() && schema.index_spec->dim == 0)
    return common::Status::InvalidArgument(
        "vector index needs DIM, e.g. HNSW('DIM=96')");
  // Session default storage precision: injected into index specs that don't
  // pin PRECISION themselves, so `SET distance_precision = 'int8'` covers
  // every subsequently created table (DESIGN.md §13).
  if (schema.index_spec.has_value() &&
      options_.settings.distance_precision != vecindex::Precision::kFp32 &&
      schema.index_spec->params.count("PRECISION") == 0) {
    schema.index_spec->params["PRECISION"] =
        vecindex::PrecisionName(options_.settings.distance_precision);
  }
  common::MutexLock lock(catalog_mu_);
  if (tables_.count(schema.table_name) > 0)
    return common::Status::AlreadyExists("table: " + schema.table_name);
  auto state = std::make_unique<TableState>();
  state->schema = schema;
  state->engine = std::make_unique<storage::LsmEngine>(
      std::move(schema), &store_, IndexBuildPools(), options_.ingest);
  tables_[state->schema.table_name] = std::move(state);
  plan_cache_.Invalidate();
  return common::Status::Ok();
}

common::Status BlendHouse::Insert(const std::string& table,
                                  std::vector<storage::Row> rows) {
  TableState* t = FindTable(table);
  if (t == nullptr) return common::Status::NotFound("table: " + table);
  BH_RETURN_IF_ERROR(t->engine->Insert(std::move(rows)));
  return common::Status::Ok();
}

common::Status BlendHouse::Flush(const std::string& table) {
  TableState* t = FindTable(table);
  if (t == nullptr) return common::Status::NotFound("table: " + table);
  BH_RETURN_IF_ERROR(t->engine->Flush());
  if (options_.preload_after_flush) BH_RETURN_IF_ERROR(PreloadTable(table));
  return common::Status::Ok();
}

common::Result<size_t> BlendHouse::Compact(const std::string& table) {
  TableState* t = FindTable(table);
  if (t == nullptr) return common::Status::NotFound("table: " + table);
  auto jobs = t->engine->Compact();
  if (!jobs.ok()) return jobs.status();
  if (options_.preload_after_flush) BH_RETURN_IF_ERROR(PreloadTable(table));
  return jobs;
}

common::Result<size_t> BlendHouse::CompactIfNeeded(const std::string& table) {
  TableState* t = FindTable(table);
  if (t == nullptr) return common::Status::NotFound("table: " + table);
  return t->engine->CompactIfNeeded();
}

common::Status BlendHouse::PreloadTable(const std::string& table) {
  TableState* t = FindTable(table);
  if (t == nullptr) return common::Status::NotFound("table: " + table);
  return cluster::PreloadIndexes(*read_vw_, t->schema,
                                 t->engine->Snapshot());
}

cluster::Worker* BlendHouse::AddReadWorker() { return read_vw_->AddWorker(); }

common::Status BlendHouse::RemoveReadWorker(const std::string& worker_id) {
  return read_vw_->RemoveWorker(worker_id);
}

std::shared_ptr<const sql::TableStatistics> BlendHouse::RefreshStatistics(
    TableState* table) {
  storage::TableSnapshot snapshot = table->engine->Snapshot();
  // stats_mu also serializes concurrent refreshes so only one thread pays
  // the sampling cost.
  common::MutexLock lock(table->stats_mu);
  if (table->stats != nullptr && table->stats->version() == snapshot.version)
    return table->stats;
  // Sample a bounded number of segments (largest first for coverage).
  std::vector<storage::SegmentMeta> metas = snapshot.segments;
  std::sort(metas.begin(), metas.end(),
            [](const storage::SegmentMeta& a, const storage::SegmentMeta& b) {
              return a.num_rows > b.num_rows;
            });
  if (metas.size() > options_.statistics_sample_segments)
    metas.resize(options_.statistics_sample_segments);
  std::vector<storage::SegmentPtr> segments;
  for (const storage::SegmentMeta& m : metas) {
    auto segment = table->engine->FetchSegment(m.segment_id);
    if (!segment.ok()) return table->stats;  // keep serving the old snapshot
    segments.push_back(*segment);
  }
  auto fresh = std::make_shared<sql::TableStatistics>(
      sql::TableStatistics::Build(segments));
  fresh->set_version(snapshot.version);
  table->stats = fresh;
  return table->stats;
}

common::Result<sql::OptimizedQuery> BlendHouse::Plan(
    const std::string& sql, const sql::SelectStmt& stmt, TableState* table,
    const sql::QuerySettings& settings, sql::ExecStats* stats) {
  // Plan cache: parameterized signature -> previously chosen strategy; a
  // hit takes the short-circuit path and skips stats + rules + costing.
  std::string signature;
  if (settings.use_plan_cache) {
    auto sig = sql::ParameterizedSignature(sql);
    if (sig.ok()) {
      signature = std::move(*sig);
      if (auto cached = plan_cache_.Get(signature)) {
        // Extended plan matching: a cached strategy is only valid while the
        // new parameters land in a similar selectivity regime — the same
        // query shape with a 1%-pass range must not reuse a plan chosen for
        // a 99%-pass range. The histogram lookup is far cheaper than the
        // full rule + costing pipeline this hit skips.
        bool selectivity_compatible = true;
        if (stmt.where != nullptr) {
          std::shared_ptr<const sql::TableStatistics> snapshot;
          {
            common::MutexLock lock(table->stats_mu);
            snapshot = table->stats;
          }
          if (snapshot != nullptr) {
            double s = snapshot->EstimateSelectivity(*stmt.where);
            double cached_s = std::max(1e-4, cached->estimated_selectivity);
            double ratio = std::max(s, 1e-4) / cached_s;
            selectivity_compatible = ratio > 0.25 && ratio < 4.0;
          }
        }
        if (selectivity_compatible) {
          auto quick = sql::ShortCircuitOptimize(stmt, table->schema,
                                                 cached->strategy);
          if (quick.ok()) {
            stats->used_plan_cache = true;
            stats->used_short_circuit = true;
            quick->estimated_selectivity = cached->estimated_selectivity;
            quick->rules_fired = cached->rules_fired;
            return quick;
          }
        }
      }
    }
  }

  // Full pipeline: refresh stats, build + rewrite the plan, cost it. The
  // shared_ptr keeps this snapshot alive even if a concurrent flush swaps
  // in fresher statistics mid-optimization.
  std::shared_ptr<const sql::TableStatistics> stats_snapshot;
  if (options_.auto_refresh_statistics)
    stats_snapshot = RefreshStatistics(table);
  auto optimized =
      sql::Optimize(stmt, table->schema, stats_snapshot.get(), settings);
  if (!optimized.ok()) return optimized.status();

  if (settings.use_plan_cache && !signature.empty()) {
    sql::CachedPlan entry;
    entry.strategy = optimized->choice.strategy;
    entry.estimated_selectivity = optimized->estimated_selectivity;
    entry.rules_fired = optimized->rules_fired;
    plan_cache_.Put(signature, entry);
  }
  return optimized;
}

common::Result<sql::QueryResult> BlendHouse::QuerySystemTable(
    const sql::SelectStmt& select) {
  using storage::ColumnType;

  if (select.table == "system.metrics") {
    storage::TableSchema schema =
        VirtualSchema("system.metrics", {{"name", ColumnType::kString},
                                         {"value", ColumnType::kFloat64}});
    std::vector<storage::Row> rows;
    for (const common::metrics::MetricSample& s :
         common::metrics::MetricsRegistry::Instance().Snapshot()) {
      storage::Row row;
      row.values.emplace_back(s.name);
      row.values.emplace_back(s.value);
      rows.push_back(std::move(row));
    }
    return ScanVirtualTable(select, schema, rows);
  }

  if (select.table == "system.query_log") {
    storage::TableSchema schema = VirtualSchema(
        "system.query_log",
        {{"query_id", ColumnType::kInt64},
         {"query", ColumnType::kString},
         {"fingerprint", ColumnType::kString},
         {"fingerprint_hash", ColumnType::kString},
         {"type", ColumnType::kString},
         {"status", ColumnType::kString},
         {"error", ColumnType::kString},
         {"trace_id", ColumnType::kInt64},
         {"trace_retention", ColumnType::kString},
         {"latency_micros", ColumnType::kFloat64},
         {"plan_micros", ColumnType::kFloat64},
         {"exec_micros", ColumnType::kFloat64},
         {"queue_wait_micros", ColumnType::kFloat64},
         {"compute_micros", ColumnType::kFloat64},
         {"sim_io_micros", ColumnType::kFloat64},
         {"rows_scanned", ColumnType::kInt64},
         {"dist_fp32", ColumnType::kInt64},
         {"dist_fp16", ColumnType::kInt64},
         {"dist_int8", ColumnType::kInt64},
         {"fp32_rerank_rows", ColumnType::kInt64},
         {"iter_batches", ColumnType::kInt64},
         {"iter_rows_visited", ColumnType::kInt64},
         {"iter_recompute_rounds", ColumnType::kInt64},
         {"filter_cache_hits", ColumnType::kInt64},
         {"filter_cache_misses", ColumnType::kInt64},
         {"segments_scanned", ColumnType::kInt64},
         {"workers_fanout", ColumnType::kInt64},
         {"retries", ColumnType::kInt64}});
    std::vector<storage::Row> rows;
    for (const QueryLogRecord& r : query_log_.Records()) {
      const common::QueryLedger& l = r.ledger;
      storage::Row row;
      row.values = {static_cast<int64_t>(r.query_id),
                    r.sql,
                    r.fingerprint,
                    HexFingerprint(r.fingerprint_hash),
                    r.type,
                    r.status,
                    r.error,
                    static_cast<int64_t>(r.trace_id),
                    r.trace_retention,
                    r.latency_micros,
                    r.plan_micros,
                    r.exec_micros,
                    l.queue_wait_micros,
                    l.compute_micros,
                    l.sim_io_micros,
                    static_cast<int64_t>(l.rows_scanned),
                    static_cast<int64_t>(l.distance_comps[0]),
                    static_cast<int64_t>(l.distance_comps[1]),
                    static_cast<int64_t>(l.distance_comps[2]),
                    static_cast<int64_t>(l.fp32_rerank_rows),
                    static_cast<int64_t>(l.iter_batches),
                    static_cast<int64_t>(l.iter_rows_visited),
                    static_cast<int64_t>(l.iter_recompute_rounds),
                    static_cast<int64_t>(l.filter_cache_hits),
                    static_cast<int64_t>(l.filter_cache_misses),
                    static_cast<int64_t>(l.segments_scanned),
                    static_cast<int64_t>(l.workers_fanout),
                    static_cast<int64_t>(l.retries)};
      rows.push_back(std::move(row));
    }
    return ScanVirtualTable(select, schema, rows);
  }

  if (select.table == "system.query_profile") {
    storage::TableSchema schema = VirtualSchema(
        "system.query_profile",
        {{"fingerprint", ColumnType::kString},
         {"fingerprint_hash", ColumnType::kString},
         {"count", ColumnType::kInt64},
         {"errors", ColumnType::kInt64},
         {"p50_micros", ColumnType::kFloat64},
         {"p95_micros", ColumnType::kFloat64},
         {"p99_micros", ColumnType::kFloat64},
         {"max_micros", ColumnType::kFloat64}});
    std::vector<storage::Row> rows;
    for (const QueryProfileRow& p : query_log_.Profiles()) {
      storage::Row row;
      row.values = {p.fingerprint,
                    HexFingerprint(p.fingerprint_hash),
                    static_cast<int64_t>(p.count),
                    static_cast<int64_t>(p.errors),
                    p.p50_micros,
                    p.p95_micros,
                    p.p99_micros,
                    p.max_micros};
      rows.push_back(std::move(row));
    }
    return ScanVirtualTable(select, schema, rows);
  }

  if (select.table == "system.query_trace") {
    // EXPLAIN-ANALYZE-style rendering of a retained historical trace:
    // `SELECT * FROM system.query_trace(<trace_id>)`.
    if (!select.table_arg.has_value())
      return common::Status::InvalidArgument(
          "system.query_trace needs a trace id: system.query_trace(42)");
    auto found = trace_sink_.FindTrace(*select.table_arg);
    if (!found.has_value())
      return common::Status::NotFound(
          "trace " + std::to_string(*select.table_arg) +
          " not retained (evicted, dropped by sampling, or never existed)");
    char head[160];
    std::snprintf(head, sizeof(head),
                  "trace_id=%llu retention=%s latency=%.0fus",
                  static_cast<unsigned long long>(found->trace_id),
                  trace::RetentionName(found->retention),
                  found->latency_micros);
    std::string text = head;
    if (!found->fingerprint.empty())
      text += " fingerprint=" + found->fingerprint;
    text += "\n" + trace::RenderSpanTree(found->spans);
    sql::QueryResult out;
    out.column_names = {"explain"};
    size_t begin = 0;
    while (begin <= text.size()) {
      size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      if (end > begin) {
        storage::Row row;
        row.values.emplace_back(text.substr(begin, end - begin));
        out.rows.push_back(std::move(row));
      }
      begin = end + 1;
    }
    return out;
  }

  return common::Status::NotFound("unknown system table: " + select.table);
}

common::Result<sql::QueryResult> BlendHouse::QueryWithSettings(
    const std::string& sql, const sql::QuerySettings& settings) {
  auto stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  if (stmt->kind != sql::Statement::Kind::kSelect)
    return common::Status::InvalidArgument("Query() expects SELECT");
  return RunSelect(sql, *stmt->select, settings, /*out_trace=*/nullptr);
}

common::Result<sql::QueryResult> BlendHouse::RunSelect(
    const std::string& sql, const sql::SelectStmt& select,
    const sql::QuerySettings& settings, trace::TracePtr* out_trace) {
  // system.* introspection is answered from snapshots and never recorded
  // into the query log (reading history must not grow history).
  if (select.table.rfind("system.", 0) == 0) return QuerySystemTable(select);
  TableState* table = FindTable(select.table);
  if (table == nullptr)
    return common::Status::NotFound("table: " + select.table);

  const SqlMetrics& m = QueryMetrics();
  const bool is_ann = select.ann.has_value();
  (is_ann ? m.queries_ann : m.queries_scalar)->Add(1);

  // Fingerprint at plan time: the normalized parameterized signature, so
  // identical-shape queries share one profile row and one retention
  // threshold. Unparseable input (shouldn't happen — we parsed it already)
  // degrades to the raw SQL as its own shape.
  std::string fingerprint;
  if (auto sig = sql::ParameterizedSignature(sql); sig.ok())
    fingerprint = std::move(*sig);
  else
    fingerprint = sql;
  const uint64_t fingerprint_hash = QueryLog::Hash(fingerprint);

  trace::TracePtr trace = trace::Trace::Make("query");
  trace::SpanPtr root = trace->StartSpan("query");
  root->SetTag("table", select.table);
  root->SetTag("type", is_ann ? "ann" : "scalar");
  root->SetTag("fingerprint", HexFingerprint(fingerprint_hash));

  // Plan and execution facts of this query. Plan fills the plan-cache flags
  // and Execute the rest, on failure too.
  sql::ExecStats stats;

  // Runs at every exit — success and both failure paths — so every finished
  // query gets exactly one tail-retention decision and one query-log record.
  auto finish = [&](const common::Status& status) {
    double latency = root->ElapsedMicros();
    m.query_micros->Record(latency);
    root->End();
    if (out_trace != nullptr) *out_trace = trace;

    // Tail-based retention at trace completion (DESIGN.md §15): the verdict
    // compares the root latency against the fingerprint's rolling p99 —
    // read *before* this query is appended, so a query is never judged
    // against itself — floored by `SET slow_query_threshold_ms` when set.
    double threshold = query_log_.SlowThresholdMicros(fingerprint_hash);
    double floor_micros = settings.slow_query_threshold_ms * 1000.0;
    if (floor_micros > 0)
      threshold =
          threshold > 0 ? std::min(threshold, floor_micros) : floor_micros;
    trace::TraceSink::Completion completion;
    completion.error = !status.ok();
    completion.latency_micros = latency;
    completion.slow_threshold_micros = threshold;
    completion.fingerprint = fingerprint;
    trace::Retention verdict = trace_sink_.Offer(*trace, completion);

    QueryLogRecord rec;
    rec.sql = sql;
    rec.fingerprint = fingerprint;
    rec.fingerprint_hash = fingerprint_hash;
    rec.type = is_ann ? "ann" : "scalar";
    rec.status = status.ok() ? "ok" : "error";
    if (!status.ok()) rec.error = status.ToString();
    rec.trace_id = trace->trace_id();
    rec.trace_retention = trace::RetentionName(verdict);
    rec.latency_micros = latency;
    rec.plan_micros = stats.plan_micros;
    rec.exec_micros = stats.exec_micros;
    rec.ledger = stats.ledger;
    // An empty breakdown means no segment task ran: a scalar scan, a query
    // that failed before execution or one whose attempts all failed. Its
    // wall time was inline work on this thread.
    if (rec.ledger.compute_micros + rec.ledger.sim_io_micros +
            rec.ledger.queue_wait_micros ==
        0)
      rec.ledger.compute_micros = latency;
    query_log_.Append(std::move(rec));
  };

  // Planning (which may refresh statistics with real object-store reads)
  // runs under a deferred scope so its simulated I/O is attributed to the
  // plan span, then paid once afterwards — total latency is unchanged, but
  // EXPLAIN ANALYZE can reconcile span I/O against the store's counters.
  trace::SpanPtr plan_span = trace->StartSpan("plan", root);
  uint64_t plan_sim = 0;
  auto plan = [&] {
    common::DeferredChargeScope scope;
    auto p = Plan(sql, select, table, settings, &stats);
    plan_sim = scope.accumulated_micros();
    return p;
  }();
  double plan_micros = plan_span->ElapsedMicros();
  plan_span->SetBreakdown(plan_micros, static_cast<double>(plan_sim), 0);
  plan_span->SetTag("plan_cache", stats.used_plan_cache ? "hit" : "miss");
  plan_span->End();
  if (plan_sim > 0) common::ChargeSimLatency(plan_sim);
  m.plan_micros->Record(plan_micros);
  stats.plan_micros = plan_micros;
  if (!plan.ok()) {
    m.query_failures->Add(1);
    finish(plan.status());
    return plan.status();
  }

  sql::Executor executor(read_vw_.get(), settings);
  executor.SetTrace(trace, root);
  if (executor_topology_hook_for_test_)
    executor.SetTopologyHookForTest(executor_topology_hook_for_test_);
  auto result = executor.Execute(*plan, *table->engine, &stats);
  if (!result.ok()) m.query_failures->Add(1);
  finish(result.status());
  return result;
}

common::Result<std::string> BlendHouse::Explain(const std::string& sql) {
  auto stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  // Accept both "SELECT ..." and "EXPLAIN [ANALYZE] SELECT ..." spellings.
  if (stmt->kind == sql::Statement::Kind::kExplain)
    return stmt->explain->analyze ? ExplainAnalyze(sql)
                                  : ExplainSelect(stmt->explain->select);
  if (stmt->kind != sql::Statement::Kind::kSelect)
    return common::Status::InvalidArgument("EXPLAIN expects SELECT");
  return ExplainSelect(*stmt->select);
}

common::Result<std::string> BlendHouse::ExplainSelect(
    const sql::SelectStmt& select) {
  TableState* table = FindTable(select.table);
  if (table == nullptr)
    return common::Status::NotFound("table: " + select.table);
  std::shared_ptr<const sql::TableStatistics> stats =
      RefreshStatistics(table);
  auto optimized =
      sql::Optimize(select, table->schema, stats.get(), options_.settings);
  if (!optimized.ok()) return optimized.status();

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "strategy=%s selectivity=%.4f rules_fired=%d\n"
                "cost A=%.0f B=%.0f C=%.0f\n",
                sql::ExecStrategyName(optimized->choice.strategy),
                optimized->estimated_selectivity, optimized->rules_fired,
                optimized->choice.cost_a, optimized->choice.cost_b,
                optimized->choice.cost_c);
  return std::string(buf) + optimized->explain;
}

common::Result<std::string> BlendHouse::ExplainAnalyze(
    const std::string& sql) {
  auto stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  const sql::SelectStmt* select = nullptr;
  if (stmt->kind == sql::Statement::Kind::kExplain)
    select = &stmt->explain->select;
  else if (stmt->kind == sql::Statement::Kind::kSelect)
    select = &*stmt->select;
  else
    return common::Status::InvalidArgument("EXPLAIN ANALYZE expects SELECT");

  trace::TracePtr trace;
  auto result = RunSelect(sql, *select, options_.settings, &trace);
  if (!result.ok()) return result.status();
  if (trace == nullptr)
    return common::Status::Internal("query produced no trace");

  char buf[128];
  std::snprintf(buf, sizeof(buf), "rows=%zu plan_micros=%.0f\n",
                result->rows.size(), result->stats.plan_micros);
  return std::string(buf) + trace::RenderSpanTree(trace->Collect());
}

common::Status BlendHouse::ApplySetting(const sql::SetStmt& stmt) {
  sql::QuerySettings& s = options_.settings;
  auto as_int = [&]() -> common::Result<int64_t> {
    if (const int64_t* i = std::get_if<int64_t>(&stmt.value)) return *i;
    if (const double* d = std::get_if<double>(&stmt.value))
      return static_cast<int64_t>(*d);
    return common::Status::InvalidArgument("SET " + stmt.name +
                                           " expects a number");
  };
  std::string name = stmt.name;
  std::transform(name.begin(), name.end(), name.begin(), ::tolower);

  // ANN search knobs (the paper's ef_search / nprobe session settings).
  std::map<std::string, int*> int_knobs = {
      {"ef_search", &s.ef_search},
      {"nprobe", &s.nprobe},
      {"refine_factor", &s.refine_factor},
  };
  if (auto it = int_knobs.find(name); it != int_knobs.end()) {
    auto v = as_int();
    if (!v.ok()) return v.status();
    if (*v <= 0)
      return common::Status::InvalidArgument("SET " + stmt.name + " > 0");
    *it->second = static_cast<int>(*v);
    return common::Status::Ok();
  }
  if (name == "semantic_probe_buckets") {
    auto v = as_int();
    if (!v.ok()) return v.status();
    if (*v <= 0)
      return common::Status::InvalidArgument("SET " + stmt.name + " > 0");
    s.semantic_probe_buckets = static_cast<size_t>(*v);
    return common::Status::Ok();
  }
  std::map<std::string, bool*> bool_knobs = {
      {"use_cbo", &s.use_cbo},
      {"scalar_pruning", &s.scalar_pruning},
      {"semantic_pruning", &s.semantic_pruning},
      {"adaptive_semantic", &s.adaptive_semantic},
      {"use_column_cache", &s.use_column_cache},
      {"use_granule_pruning", &s.use_granule_pruning},
      {"use_plan_cache", &s.use_plan_cache},
      {"short_circuit", &s.short_circuit},
  };
  if (auto it = bool_knobs.find(name); it != bool_knobs.end()) {
    auto v = as_int();
    if (!v.ok()) return v.status();
    *it->second = *v != 0;
    if (name == "use_plan_cache" && !*it->second) plan_cache_.Invalidate();
    return common::Status::Ok();
  }
  if (name == "slow_query_threshold_ms") {
    // Fractional milliseconds are meaningful here (a sim-latency-off unit
    // test's queries run in microseconds), so this knob keeps the double.
    double v;
    if (const int64_t* i = std::get_if<int64_t>(&stmt.value))
      v = static_cast<double>(*i);
    else if (const double* d = std::get_if<double>(&stmt.value))
      v = *d;
    else
      return common::Status::InvalidArgument(
          "SET slow_query_threshold_ms expects a number");
    if (v < 0)
      return common::Status::InvalidArgument(
          "SET slow_query_threshold_ms >= 0");
    s.slow_query_threshold_ms = v;
    return common::Status::Ok();
  }
  if (name == "distance_precision") {
    // String knob: the default storage precision for indexes created after
    // this point (DESIGN.md §13). `SET distance_precision = 'int8'`.
    const std::string* v = std::get_if<std::string>(&stmt.value);
    if (v == nullptr)
      return common::Status::InvalidArgument(
          "SET distance_precision expects a name (fp32/fp16/int8)");
    vecindex::Precision p;
    if (!vecindex::ParsePrecision(*v, &p))
      return common::Status::InvalidArgument("unknown precision: " + *v);
    s.distance_precision = p;
    return common::Status::Ok();
  }
  return common::Status::NotFound("unknown setting: " + stmt.name);
}

common::Status BlendHouse::ExecuteInsert(const sql::InsertStmt& stmt) {
  TableState* table = FindTable(stmt.table);
  if (table == nullptr) return common::Status::NotFound("table: " + stmt.table);
  if (!stmt.rows.empty() &&
      stmt.rows[0].values.size() != table->schema.columns.size())
    return common::Status::InvalidArgument(
        "INSERT arity mismatch: expected " +
        std::to_string(table->schema.columns.size()) + " values");
  return table->engine->Insert(stmt.rows);
}

common::Status BlendHouse::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  TableState* table = FindTable(stmt.table);
  if (table == nullptr) return common::Status::NotFound("table: " + stmt.table);
  storage::LsmEngine& engine = *table->engine;

  // Resolve assignment targets once.
  std::vector<std::pair<int, storage::Value>> assigns;
  for (const auto& [col, value] : stmt.assignments) {
    int idx = table->schema.FindColumn(col);
    if (idx < 0) return common::Status::NotFound("column: " + col);
    assigns.emplace_back(idx, value);
  }

  // Fig. 6 realtime update: locate matching rows, write updated copies as a
  // new version, and mark the old rows in delete bitmaps. The old segments
  // and their indexes are never touched.
  sql::Executor executor(read_vw_.get(), options_.settings);
  auto matches = executor.FindMatchingRows(engine, stmt.where.get());
  if (!matches.ok()) return matches.status();

  std::vector<storage::Row> new_rows;
  for (const auto& [segment_id, offsets] : *matches) {
    auto segment = engine.FetchSegment(segment_id);
    if (!segment.ok()) return segment.status();
    for (uint64_t row : offsets) {
      storage::Row updated =
          storage::RowFromSegment(**segment, static_cast<size_t>(row));
      for (const auto& [idx, value] : assigns) updated.values[idx] = value;
      new_rows.push_back(std::move(updated));
    }
    BH_RETURN_IF_ERROR(engine.DeleteRows(segment_id, offsets));
  }
  if (!new_rows.empty()) {
    BH_RETURN_IF_ERROR(engine.Insert(std::move(new_rows)));
    BH_RETURN_IF_ERROR(engine.Flush());
  }
  return common::Status::Ok();
}

common::Status BlendHouse::ExecuteDelete(const sql::DeleteStmt& stmt) {
  TableState* table = FindTable(stmt.table);
  if (table == nullptr) return common::Status::NotFound("table: " + stmt.table);
  sql::Executor executor(read_vw_.get(), options_.settings);
  auto matches = executor.FindMatchingRows(*table->engine, stmt.where.get());
  if (!matches.ok()) return matches.status();
  for (const auto& [segment_id, offsets] : *matches)
    BH_RETURN_IF_ERROR(table->engine->DeleteRows(segment_id, offsets));
  return common::Status::Ok();
}

common::Result<sql::QueryResult> BlendHouse::ExecuteSql(
    const std::string& sql) {
  auto stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  switch (stmt->kind) {
    case sql::Statement::Kind::kSelect:
      return Query(sql);
    case sql::Statement::Kind::kExplain: {
      // EXPLAIN → the optimizer report; EXPLAIN ANALYZE → execute and render
      // the trace span tree. Either way the text comes back one row per
      // line in a single "explain" column.
      auto text = stmt->explain->analyze ? ExplainAnalyze(sql)
                                         : ExplainSelect(stmt->explain->select);
      if (!text.ok()) return text.status();
      sql::QueryResult out;
      out.column_names = {"explain"};
      size_t begin = 0;
      const std::string& s = *text;
      while (begin <= s.size()) {
        size_t end = s.find('\n', begin);
        if (end == std::string::npos) end = s.size();
        if (end > begin) {
          storage::Row row;
          row.values.emplace_back(s.substr(begin, end - begin));
          out.rows.push_back(std::move(row));
        }
        begin = end + 1;
      }
      return out;
    }
    case sql::Statement::Kind::kCreateTable:
      BH_RETURN_IF_ERROR(CreateTable(stmt->create_table->schema));
      return sql::QueryResult{};
    case sql::Statement::Kind::kInsert:
      BH_RETURN_IF_ERROR(ExecuteInsert(*stmt->insert));
      return sql::QueryResult{};
    case sql::Statement::Kind::kUpdate:
      BH_RETURN_IF_ERROR(ExecuteUpdate(*stmt->update));
      return sql::QueryResult{};
    case sql::Statement::Kind::kDelete:
      BH_RETURN_IF_ERROR(ExecuteDelete(*stmt->del));
      return sql::QueryResult{};
    case sql::Statement::Kind::kOptimize: {
      auto jobs = Compact(stmt->optimize->table);
      if (!jobs.ok()) return jobs.status();
      return sql::QueryResult{};
    }
    case sql::Statement::Kind::kSet:
      BH_RETURN_IF_ERROR(ApplySetting(*stmt->set));
      return sql::QueryResult{};
  }
  return common::Status::Internal("unreachable");
}

}  // namespace blendhouse::core
