#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/worker.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "common/trace.h"
#include "core/blendhouse.h"
#include "tests/test_util.h"

namespace blendhouse {
namespace {

using common::metrics::Counter;
using common::metrics::HistogramMetric;
using common::metrics::MetricsRegistry;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterIsExactUnderConcurrency) {
  Counter* c = MetricsRegistry::Instance().GetCounter("bh_test_conc_total");
  c->ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Add(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  auto& reg = MetricsRegistry::Instance();
  EXPECT_EQ(reg.GetCounter("bh_test_stable_total"),
            reg.GetCounter("bh_test_stable_total"));
  EXPECT_EQ(reg.GetGauge("bh_test_stable_gauge"),
            reg.GetGauge("bh_test_stable_gauge"));
  EXPECT_EQ(reg.GetHistogram("bh_test_stable_micros"),
            reg.GetHistogram("bh_test_stable_micros"));
}

TEST(MetricsTest, GaugeTracksInstantaneousValue) {
  auto* g = MetricsRegistry::Instance().GetGauge("bh_test_depth");
  g->Set(0);
  g->Add(5);
  g->Sub(2);
  EXPECT_EQ(g->Value(), 3);
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);
}

TEST(MetricsTest, HistogramMetricSnapshotHasPercentiles) {
  HistogramMetric hist({10.0, 100.0, 1000.0});
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.Count(), 100u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 5050.0);
  common::BucketedHistogram snap = hist.Snapshot();
  EXPECT_EQ(snap.Count(), 100u);
  // 10% of samples land in (0,10], 90% in (10,100]; the median falls in the
  // second bucket.
  double p50 = snap.Percentile(50);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
}

TEST(MetricsTest, SnapshotAndExportersIncludeRegisteredMetrics) {
  auto& reg = MetricsRegistry::Instance();
  reg.GetCounter("bh_test_export_total")->ResetForTest();
  reg.GetCounter("bh_test_export_total")->Add(7);
  reg.GetHistogram("bh_test_export_micros")->Record(33.0);

  bool found = false;
  for (const auto& sample : reg.Snapshot()) {
    if (sample.name == "bh_test_export_total") {
      found = true;
      EXPECT_DOUBLE_EQ(sample.value, 7.0);
    }
  }
  EXPECT_TRUE(found);

  std::string prom = reg.ExportPrometheus();
  EXPECT_NE(prom.find("bh_test_export_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bh_test_export_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("bh_test_export_micros"), std::string::npos);

  std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"bh_test_export_total\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsTest, CounterShardCountIsFrozenProcessWide) {
  // By the time any test runs, counters exist, so the shard count is frozen:
  // a power of two, at least the historical 16, shared by every counter.
  size_t shards = common::metrics::CounterShardCount();
  EXPECT_GE(shards, 16u);
  EXPECT_EQ(shards & (shards - 1), 0u) << shards << " is not a power of two";
  Counter* c = MetricsRegistry::Instance().GetCounter("bh_test_shards_total");
  EXPECT_EQ(c->shard_count(), shards);
  // Reconfiguration after the freeze is refused and changes nothing.
  EXPECT_FALSE(common::metrics::ConfigureCounterShards(8));
  EXPECT_EQ(common::metrics::CounterShardCount(), shards);
}

TEST(MetricsTest, CounterIsExactWithMoreThreadsThanLegacyShards) {
  // ROADMAP item-5 leftover: sharding now scales with the host instead of
  // the historical fixed 16. Drive well past 16 concurrent writers and
  // require an exact total — extra threads may share shards but never lose
  // increments.
  Counter* c = MetricsRegistry::Instance().GetCounter("bh_test_wide_total");
  c->ResetForTest();
  constexpr int kThreads = 48;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Add(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(MetricsTest, PrometheusNameSanitization) {
  using common::metrics::PrometheusSanitizeName;
  EXPECT_EQ(PrometheusSanitizeName("bh_ok_total"), "bh_ok_total");
  EXPECT_EQ(PrometheusSanitizeName("a:b"), "a:b");  // colon is legal
  EXPECT_EQ(PrometheusSanitizeName("bh.dots-and spaces"),
            "bh_dots_and_spaces");
  EXPECT_EQ(PrometheusSanitizeName("9leading_digit"), "_9leading_digit");
  EXPECT_EQ(PrometheusSanitizeName(""), "_");  // never an empty name
}

TEST(MetricsTest, PrometheusLabelEscaping) {
  using common::metrics::PrometheusEscapeLabel;
  EXPECT_EQ(PrometheusEscapeLabel("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabel("a\nb"), "a\\nb");
}

TEST(MetricsTest, ExporterSanitizesAdHocMetricNames) {
  auto& reg = MetricsRegistry::Instance();
  reg.GetCounter("bh test bad.name")->Add(1);
  std::string prom = reg.ExportPrometheus();
  EXPECT_NE(prom.find("bh_test_bad_name 1"), std::string::npos);
  EXPECT_EQ(prom.find("bh test bad.name"), std::string::npos);
}

TEST(MetricsTest, HistogramQuantileEdges) {
  // Empty histogram: percentiles report 0, not garbage.
  HistogramMetric h({10.0, 100.0});
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(99), 0.0);

  // Single sample: every percentile falls inside the sample's bucket.
  h.Record(42.0);
  common::BucketedHistogram one = h.Snapshot();
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GT(one.Percentile(p), 10.0) << "p=" << p;
    EXPECT_LE(one.Percentile(p), 100.0) << "p=" << p;
  }

  // All samples in one bucket: the full percentile range stays within that
  // bucket's edges.
  h.ResetForTest();
  for (int i = 0; i < 1000; ++i) h.Record(50.0);
  common::BucketedHistogram packed = h.Snapshot();
  EXPECT_GT(packed.Percentile(1), 10.0);
  EXPECT_LE(packed.Percentile(1), 100.0);
  EXPECT_GT(packed.Percentile(99), 10.0);
  EXPECT_LE(packed.Percentile(99), 100.0);

  // Overflow bucket has no finite edge; percentiles report the last bound.
  h.ResetForTest();
  h.Record(1e9);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(50), 100.0);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanTreeRecordsParentLinks) {
  trace::TracePtr trace = trace::Trace::Make("q");
  trace::SpanPtr root = trace->StartSpan("query");
  trace::SpanPtr child = trace->StartSpan("execute", root);
  trace::SpanPtr leaf = trace->StartSpan("segment_scan", child);
  EXPECT_EQ(trace->open_spans(), 3);
  leaf->SetBreakdown(10, 20, 30);
  leaf->End();
  child->End();
  root->End();
  EXPECT_EQ(trace->open_spans(), 0);

  auto spans = trace->Collect();
  ASSERT_EQ(spans.size(), 3u);
  // Collect() is in End() order: leaf, child, root.
  EXPECT_EQ(spans[0].name, "segment_scan");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_id, spans[2].span_id);
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_DOUBLE_EQ(spans[0].sim_io_micros, 20.0);
}

TEST(TraceTest, EndIsExactlyOnce) {
  trace::TracePtr trace = trace::Trace::Make("q");
  trace::SpanPtr span = trace->StartSpan("s");
  span->End();
  span->End();     // no-op
  span.reset();    // destructor after End(): also a no-op
  EXPECT_EQ(trace->open_spans(), 0);
  EXPECT_EQ(trace->Collect().size(), 1u);
}

TEST(TraceTest, AbandonedSpanSelfClosesOnLastRelease) {
  trace::TracePtr trace = trace::Trace::Make("q");
  trace->StartSpan("forgotten");  // SpanPtr dropped immediately, never End()ed
  EXPECT_EQ(trace->open_spans(), 0);
  ASSERT_EQ(trace->Collect().size(), 1u);
  EXPECT_EQ(trace->Collect()[0].name, "forgotten");
}

// Every SearchSegmentAsync callback closes its span exactly once, even
// for tasks that short-circuit (a cancelled attempt's stragglers): `done`
// runs for every dispatched task, so the executor ends spans there.
TEST(TraceTest, AsyncSegmentTasksCloseSpansExactlyOnce) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  cluster::RpcFabric rpc(cluster::RpcFabric::CostModel{0, 1e12, false});
  cluster::WorkerOptions wopts;
  wopts.cache.disk_cost = storage::StorageCostModel::Instant();
  cluster::Worker worker("w0", &store, &rpc, wopts);

  trace::TracePtr trace = trace::Trace::Make("q");
  trace::SpanPtr root = trace->StartSpan("execute");
  constexpr int kTasks = 24;
  std::atomic<int> done_count{0};
  std::atomic<bool> cancelled{false};
  for (int i = 0; i < kTasks; ++i) {
    trace::SpanPtr span = trace->StartSpan("segment_scan", root);
    worker.SearchSegmentAsync(
        /*search=*/
        [i, &cancelled] {
          if (i == kTasks / 2) cancelled.store(true);  // mid-flight failure
          if (cancelled.load()) return;                // straggler short-circuit
          common::ChargeSimLatency(100);
        },
        /*done=*/
        [span, &done_count](const cluster::AsyncTaskStats& ts) {
          span->SetBreakdown(static_cast<double>(ts.compute_micros),
                             static_cast<double>(ts.sim_io_micros),
                             static_cast<double>(ts.queue_wait_micros));
          span->End();
          done_count.fetch_add(1);
        });
  }

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done_count.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(done_count.load(), kTasks);
  root->End();
  EXPECT_EQ(trace->open_spans(), 0);

  auto spans = trace->Collect();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kTasks) + 1);
  std::set<uint64_t> ids;
  for (const auto& s : spans) EXPECT_TRUE(ids.insert(s.span_id).second);
}

// ---------------------------------------------------------------------------
// Trace sink: sampling determinism and retention bounds
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, SamplingIsDeterministicForSeed) {
  trace::TraceSink::Options opts;
  opts.sample_rate = 0.5;
  opts.seed = 7;
  trace::TraceSink a(opts);
  trace::TraceSink b(opts);
  std::vector<bool> seq_a, seq_b;
  for (int i = 0; i < 256; ++i) {
    seq_a.push_back(a.ShouldSample());
    seq_b.push_back(b.ShouldSample());
  }
  EXPECT_EQ(seq_a, seq_b);
  // At rate 0.5 over 256 draws, both outcomes occur.
  EXPECT_NE(std::count(seq_a.begin(), seq_a.end(), true), 0);
  EXPECT_NE(std::count(seq_a.begin(), seq_a.end(), false), 0);

  trace::TraceSink::Options other = opts;
  other.seed = 8;
  trace::TraceSink c(other);
  std::vector<bool> seq_c;
  for (int i = 0; i < 256; ++i) seq_c.push_back(c.ShouldSample());
  EXPECT_NE(seq_a, seq_c);
}

TEST(TraceSinkTest, RateZeroAndOneAreAbsolute) {
  trace::TraceSink::Options off;
  off.sample_rate = 0.0;
  trace::TraceSink none(off);
  trace::TraceSink::Options on;
  on.sample_rate = 1.0;
  trace::TraceSink all(on);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(none.ShouldSample());
    EXPECT_TRUE(all.ShouldSample());
  }
}

TEST(TraceSinkTest, RingBoundEvictsOldest) {
  trace::TraceSink::Options opts;
  opts.max_traces = 2;
  trace::TraceSink sink(opts);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    trace::TracePtr t = trace::Trace::Make("q");
    t->StartSpan("query")->End();
    ids.push_back(t->trace_id());
    sink.Record(*t);
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  auto kept = sink.Traces();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, ids[1]);
  EXPECT_EQ(kept[1].trace_id, ids[2]);
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSinkTest, DumpJsonContainsSpans) {
  trace::TraceSink sink;
  trace::TracePtr t = trace::Trace::Make("query");
  trace::SpanPtr root = t->StartSpan("query");
  root->SetTag("table", "items");
  root->End();
  sink.Record(*t);
  std::string json = sink.DumpJson();
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"table\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: EXPLAIN ANALYZE, system.metrics, sink wiring, reconciliation
// ---------------------------------------------------------------------------

constexpr size_t kDim = 8;

class TelemetryE2E : public ::testing::Test {
 protected:
  void Start(core::BlendHouseOptions opts) {
    opts.ingest.max_segment_rows = 100;  // several segments per flush
    db_ = std::make_unique<core::BlendHouse>(opts);
    auto created = db_->ExecuteSql(
        "CREATE TABLE items (id Int64, attr Int64, emb Array(Float32),"
        " INDEX ann emb TYPE HNSW('DIM=8','M=8'));");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }

  void Ingest(size_t n) {
    data_ = test::MakeClusteredVectors(n, kDim, 6, 7);
    std::vector<storage::Row> rows;
    for (size_t i = 0; i < n; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(i), static_cast<int64_t>(i % 100),
                    std::vector<float>(data_.begin() + i * kDim,
                                       data_.begin() + (i + 1) * kDim)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db_->Insert("items", std::move(rows)).ok());
    ASSERT_TRUE(db_->Flush("items").ok());
  }

  std::string VecLiteral(const float* v) {
    std::string s = "[";
    for (size_t d = 0; d < kDim; ++d) {
      if (d > 0) s += ",";
      s += std::to_string(v[d]);
    }
    return s + "]";
  }

  std::string TopKSql(size_t qrow, int k, bool filtered) {
    std::string sql = "SELECT id, dist FROM items";
    if (filtered) sql += " WHERE attr < 50";
    sql += " ORDER BY L2Distance(emb, " + VecLiteral(data_.data() + qrow * kDim)
           + ") AS dist LIMIT " + std::to_string(k) + ";";
    return sql;
  }

  std::unique_ptr<core::BlendHouse> db_;
  std::vector<float> data_;
};

TEST_F(TelemetryE2E, ExplainAnalyzeRendersSpanTree) {
  Start(core::BlendHouseOptions::Fast());
  Ingest(400);
  auto result = db_->ExecuteSql("EXPLAIN ANALYZE " + TopKSql(3, 5, true));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->column_names.size(), 1u);
  EXPECT_EQ(result->column_names[0], "explain");
  std::string text;
  for (const auto& row : result->rows)
    text += std::get<std::string>(row.values[0]) + "\n";
  EXPECT_NE(text.find("rows=5"), std::string::npos);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("plan"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("segment_scan"), std::string::npos);
  EXPECT_NE(text.find("materialize"), std::string::npos);
}

TEST_F(TelemetryE2E, ExplainWithoutAnalyzeDoesNotExecute) {
  Start(core::BlendHouseOptions::Fast());
  Ingest(300);
  auto before = db_->trace_sink().size();
  auto result = db_->ExecuteSql("EXPLAIN " + TopKSql(0, 5, true));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rows.empty());
  // Plain EXPLAIN reports the plan without running it: no trace retained,
  // no segment spans.
  EXPECT_EQ(db_->trace_sink().size(), before);
}

TEST_F(TelemetryE2E, SystemMetricsTableListsRegistry) {
  Start(core::BlendHouseOptions::Fast());
  Ingest(300);
  ASSERT_TRUE(db_->Query(TopKSql(0, 5, false)).ok());
  auto result = db_->Query("SELECT * FROM system.metrics;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->column_names, (std::vector<std::string>{"name", "value"}));
  ASSERT_FALSE(result->rows.empty());
  std::set<std::string> names;
  for (const auto& row : result->rows)
    names.insert(std::get<std::string>(row.values[0]));
  EXPECT_TRUE(names.count("bh_object_store_gets_total"));
  EXPECT_TRUE(names.count("bh_sql_queries_ann_total"));
  // Histograms expand into derived rows.
  EXPECT_TRUE(names.count("bh_sql_query_micros_count"));
  EXPECT_TRUE(names.count("bh_sql_query_micros_p95"));

  // Projection and WHERE pushdown work like any other table scan.
  auto filtered = db_->Query(
      "SELECT name FROM system.metrics WHERE name = "
      "'bh_sql_queries_ann_total';");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered->column_names, (std::vector<std::string>{"name"}));
  ASSERT_EQ(filtered->rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(filtered->rows[0].values[0]),
            "bh_sql_queries_ann_total");
}

TEST_F(TelemetryE2E, QueryCountersAndSinkRetention) {
  core::BlendHouseOptions opts = core::BlendHouseOptions::Fast();
  opts.trace.sample_rate = 1.0;
  Start(opts);
  Ingest(300);
  auto& reg = MetricsRegistry::Instance();
  uint64_t ann_before = reg.GetCounter("bh_sql_queries_ann_total")->Value();
  uint64_t fail_before = reg.GetCounter("bh_sql_query_failures_total")->Value();
  size_t sink_before = db_->trace_sink().size();

  ASSERT_TRUE(db_->Query(TopKSql(1, 5, false)).ok());
  ASSERT_TRUE(db_->Query(TopKSql(2, 5, true)).ok());
  EXPECT_FALSE(db_->Query("SELECT nonexistent FROM items ORDER BY "
                          "L2Distance(emb, [1,2,3,4,5,6,7,8]) LIMIT 3;")
                   .ok());

  EXPECT_EQ(reg.GetCounter("bh_sql_queries_ann_total")->Value(),
            ann_before + 3);
  EXPECT_GE(reg.GetCounter("bh_sql_query_failures_total")->Value(),
            fail_before + 1);
  // Tail-based retention keeps the failed query's trace too (always-keep
  // errors), on top of the two sampled successes.
  ASSERT_EQ(db_->trace_sink().size(), sink_before + 3);
  EXPECT_EQ(db_->trace_sink().retained_error(), 1u);

  // Each retained trace is a complete tree: one root named "query", and
  // every parent_id resolves to a span of the same trace.
  for (const auto& finished : db_->trace_sink().Traces()) {
    std::set<uint64_t> ids;
    size_t roots = 0;
    for (const auto& s : finished.spans) ids.insert(s.span_id);
    for (const auto& s : finished.spans) {
      if (s.parent_id == 0) {
        ++roots;
        EXPECT_EQ(s.name, "query");
      } else {
        EXPECT_TRUE(ids.count(s.parent_id))
            << s.name << " has dangling parent";
      }
    }
    EXPECT_EQ(roots, 1u);
    EXPECT_EQ(ids.size(), finished.spans.size());  // End() exactly once
  }
}

TEST_F(TelemetryE2E, SampleRateZeroRetainsNothing) {
  core::BlendHouseOptions opts = core::BlendHouseOptions::Fast();
  opts.trace.sample_rate = 0.0;
  Start(opts);
  Ingest(300);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(db_->Query(TopKSql(i, 5, false)).ok());
  EXPECT_EQ(db_->trace_sink().size(), 0u);
  // EXPLAIN ANALYZE still sees a full trace — collection is forced, only
  // retention is sampled.
  auto text = db_->ExplainAnalyze(TopKSql(0, 5, false));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("segment_scan"), std::string::npos);
}

TEST_F(TelemetryE2E, RetriedQueryKeepsSpanTreeComplete) {
  core::BlendHouseOptions opts = core::BlendHouseOptions::Fast();
  opts.trace.sample_rate = 1.0;
  opts.read_workers = 3;
  Start(opts);
  Ingest(400);
  // Invalidate attempt 0's placement between assignment and dispatch: the
  // executor must fail the attempt cleanly and retry against the new
  // topology, with every span of the trace still closing exactly once.
  db_->SetExecutorTopologyHookForTest([this](size_t attempt) {
    if (attempt == 0) {
      // Replace the whole worker set so every worker in attempt 0's
      // assignment is gone by dispatch time.
      std::vector<std::string> old_ids;
      for (auto* w : db_->read_vw().workers()) old_ids.push_back(w->id());
      ASSERT_NE(db_->AddReadWorker(), nullptr);
      ASSERT_NE(db_->AddReadWorker(), nullptr);
      for (const auto& id : old_ids)
        ASSERT_TRUE(db_->RemoveReadWorker(id).ok());
    }
  });
  auto result = db_->Query(TopKSql(4, 5, false));
  db_->SetExecutorTopologyHookForTest(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_GE(result->stats.ledger.retries, 1u);

  ASSERT_GE(db_->trace_sink().size(), 1u);
  auto finished = db_->trace_sink().Traces().back();
  std::set<uint64_t> ids;
  size_t scans = 0;
  bool saw_retry_tag = false;
  for (const auto& s : finished.spans) {
    EXPECT_TRUE(ids.insert(s.span_id).second);
    if (s.name == "segment_scan") {
      ++scans;
      for (const auto& [k, v] : s.tags)
        if (k == "attempt" && v != "0") saw_retry_tag = true;
    }
  }
  EXPECT_GT(scans, 0u);
  EXPECT_TRUE(saw_retry_tag);
}

// The acceptance check: on a hybrid top-k over a multi-worker warehouse with
// storage latency simulation on, the per-span simulated-I/O totals reconcile
// with the object store's registry counter. Every charge happens inside a
// DeferredChargeScope attributed to exactly one of {plan, segment_scan,
// materialize}, so the disjoint span sum equals the counter delta.
TEST_F(TelemetryE2E, SpanSimIoReconcilesWithObjectStoreCounter) {
  core::BlendHouseOptions opts;
  opts.remote_cost = storage::StorageCostModel{100, 1e6, true};
  opts.rpc_cost.simulate_latency = false;
  opts.worker.cache.disk_cost = storage::StorageCostModel::Instant();
  opts.settings.acquire.force_local_load = true;  // all I/O hits the store
  opts.read_workers = 3;
  opts.trace.sample_rate = 1.0;
  Start(opts);
  Ingest(500);

  auto* counter = MetricsRegistry::Instance().GetCounter(
      "bh_object_store_sim_latency_micros_total");
  uint64_t counter_before = counter->Value();
  uint64_t store_before =
      db_->object_store().stats().sim_latency_micros.load();

  auto result = db_->Query(TopKSql(9, 10, /*filtered=*/true));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);

  uint64_t counter_delta = counter->Value() - counter_before;
  uint64_t store_delta =
      db_->object_store().stats().sim_latency_micros.load() - store_before;
  ASSERT_GT(counter_delta, 0u);
  EXPECT_EQ(counter_delta, store_delta);  // registry mirrors the store

  ASSERT_GE(db_->trace_sink().size(), 1u);
  auto finished = db_->trace_sink().Traces().back();
  double span_sim = 0;
  size_t scans = 0;
  for (const auto& s : finished.spans) {
    if (s.name == "plan" || s.name == "segment_scan" || s.name == "materialize")
      span_sim += s.sim_io_micros;
    if (s.name == "segment_scan") ++scans;
  }
  EXPECT_EQ(scans, 5u);  // 500 rows / 100-row segments
  EXPECT_NEAR(span_sim, static_cast<double>(counter_delta), 0.5);
  // The query's own async stats agree with its spans too.
  EXPECT_NEAR(result->stats.ledger.sim_io_micros + [&] {
    double plan_and_mat = 0;
    for (const auto& s : finished.spans)
      if (s.name == "plan") plan_and_mat += s.sim_io_micros;
    return plan_and_mat;
  }(), span_sim, 0.5);
}

}  // namespace
}  // namespace blendhouse
