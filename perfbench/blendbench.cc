// End-to-end benchmark for BlendHouse.
//
//   blendbench --workload warm_hybrid|cache_spill --seed N --seconds S
//              --trace 0|1 [--trace-out FILE]
//
// Every workload goes through the public SQL surface (CREATE TABLE via
// ExecuteSql, Insert, Flush, PreloadTable, QueryWithSettings). The engine
// receives only the generated rows and SQL; the oracle and the result
// checker live in dataset.cc.
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures one
// untraced window and then, on a fresh set-up, one traced window in which
// the benchmark records spans around its own calls into each module's
// public functions and reads the engine's public counters at the same
// boundaries; it reports the per-layer metrics. The last stdout line is
// the JSON result object. NOTES.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scheduler.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/blendhouse.h"
#include "dataset.h"
#include "sql/expression.h"
#include "sql/parser.h"
#include "vecindex/distance.h"
#include "vecindex/index_factory.h"
#include "vecindex/kernels/kernels.h"
#include "vecindex/scan_counters.h"

namespace blendbench {
namespace {

using namespace blendhouse;
using Clock = std::chrono::steady_clock;

constexpr size_t kTopK = 10;
constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string why;
  size_t rows = 40960;
  size_t rows_per_segment = 4096;
  bool filtered_mix = true;
  /// Per-worker in-memory index-cache budget; 0 keeps the engine default.
  size_t index_cache_bytes = 0;
  /// Misses load synchronously through the local-disk tier.
  bool sync_loads = false;
};

std::vector<Workload> Workloads() {
  Workload warm;
  warm.name = "warm_hybrid";
  warm.why =
      "preloaded HNSW table that fits the worker caches, round-robin mix of "
      "unfiltered and 99%/10%/1%-pass filtered top-10 SQL";

  Workload spill;
  spill.name = "cache_spill";
  spill.why =
      "unfiltered top-10 SQL over an index working set two to three times "
      "each worker's memory budget, misses loading synchronously from local "
      "disk";
  spill.filtered_mix = false;
  // Five half-size segments: a quarter of warm_hybrid's decode work per
  // query, so a window holds thousands of queries for its p99. The budget
  // holds one index; each worker owns two or three.
  spill.rows = 10240;
  spill.rows_per_segment = 2048;
  spill.index_cache_bytes = 1u << 20;
  spill.sync_loads = true;
  return {warm, spill};
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Host-wide CPU ticks and the part the hypervisor gave to other guests
/// (the `steal` column of /proc/stat); zeros where it is unavailable.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostTicks ReadHostTicks() {
  HostTicks h;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return h;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around its own calls, kept in per-thread
// memory and written out once at the end of the run.
// ---------------------------------------------------------------------------

enum SpanName : uint8_t {
  kRequest,
  kParse,
  kSignature,
  kQuery,
  kAcquire,
  kFilterBitmap,
  kFilterEval,
  kSearch,
  kExactScan,
  kIndexLoad,
  kNumSpanNames
};

const char* SpanNameText(uint8_t n) {
  static const char* kNames[kNumSpanNames] = {
      "request",         "sql.parse",           "sql.signature",
      "core.query",      "cluster.acquire",     "sql.filter_bitmap",
      "sql.filter_eval", "vecindex.search",     "vecindex.exact_scan",
      "vecindex.load"};
  return n < kNumSpanNames ? kNames[n] : "?";
}

struct SpanRecord {
  uint64_t trace_id;
  uint32_t span_id;
  uint32_t parent_id;  // 0 for a root span
  uint8_t name;
  int32_t tag;  // cache outcome or filter class
  double start_us;
  double end_us;
};

class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, uint32_t id_base)
      : epoch_(epoch), next_id_(id_base) {}

  void Add(uint64_t trace_id, uint32_t parent, uint8_t name, int32_t tag,
           Clock::time_point start, Clock::time_point end) {
    AddWithId(++next_id_, trace_id, parent, name, tag, start, end);
  }
  /// Reserves an id for a parent span whose end is not known yet.
  uint32_t Reserve() { return ++next_id_; }
  void AddWithId(uint32_t id, uint64_t trace_id, uint32_t parent, uint8_t name,
                 int32_t tag, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({trace_id, id, parent, name, tag,
                      MicrosBetween(epoch_, start), MicrosBetween(epoch_, end)});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  uint32_t next_id_;
  std::vector<SpanRecord> spans_;
};

// ---------------------------------------------------------------------------
// Engine set-up
// ---------------------------------------------------------------------------

struct Threads {
  size_t nproc = 1;
  size_t read_workers = 2;
  size_t worker_threads = 1;
  size_t build_threads = 1;
};

Threads ThreadCounts() {
  Threads t;
  t.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  t.worker_threads = std::max<size_t>(1, t.nproc / t.read_workers);
  t.build_threads = t.nproc;
  return t;
}

core::BlendHouseOptions EngineOptions(const Workload& w, const Threads& t) {
  core::BlendHouseOptions o;
  o.read_workers = t.read_workers;
  o.worker_threads = t.worker_threads;
  o.build_threads = t.build_threads;
  // Insert only buffers a batch and Flush builds its segment and index, so
  // the two calls time separately.
  o.ingest.flush_threshold_rows = 2 * w.rows_per_segment;
  o.ingest.max_segment_rows = w.rows_per_segment;
  if (w.index_cache_bytes > 0)
    o.worker.cache.memory_bytes = w.index_cache_bytes;
  if (w.sync_loads) o.settings.acquire.force_local_load = true;
  return o;
}

std::string CreateTableSql(size_t dim) {
  return "CREATE TABLE t (id Int64, a Int64, emb Array(Float32),"
         " INDEX ann emb TYPE HNSW('DIM=" +
         std::to_string(dim) + "','M=8','EF_CONSTRUCTION=60'))";
}

std::vector<storage::Row> RowsOf(const Dataset& data, size_t begin,
                                 size_t end) {
  std::vector<storage::Row> rows;
  rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const float* v = data.row(static_cast<int64_t>(i));
    storage::Row row;
    row.values = {static_cast<int64_t>(i), data.attr[i],
                  std::vector<float>(v, v + data.dim)};
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Operation tallies for error_rate: every call into the engine counts.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_errors;

  void Note(const common::Status& s, const char* what) {
    ++attempted;
    if (!s.ok()) {
      ++failed;
      if (first_errors.size() < 5)
        first_errors.push_back(std::string(what) + ": " + s.ToString());
    }
  }
};

struct SetupResult {
  std::unique_ptr<core::BlendHouse> db;
  double seconds = 0;
  /// Insert and Flush of each segment-sized batch.
  std::vector<double> insert_us, flush_ms;
  uint64_t bytes_written = 0;
  uint64_t index_build_micros = 0;
  uint64_t indexes_built = 0;
};

/// Empty database to measured-ready state: create, load segment by
/// segment (each Flush builds that segment's index), then preload.
SetupResult Setup(const Workload& w, const Threads& t, const Dataset& data,
                  OpCount* ops) {
  SetupResult r;
  Clock::time_point start = Clock::now();
  r.db = std::make_unique<core::BlendHouse>(EngineOptions(w, t));
  core::BlendHouse& db = *r.db;
  auto created = db.ExecuteSql(CreateTableSql(data.dim));
  ops->Note(created.status(), "create table");
  for (size_t begin = 0; begin < data.num_rows();
       begin += data.rows_per_segment) {
    size_t end = std::min(data.num_rows(), begin + data.rows_per_segment);
    Clock::time_point c0 = Clock::now();
    ops->Note(db.Insert("t", RowsOf(data, begin, end)), "insert");
    Clock::time_point c1 = Clock::now();
    ops->Note(db.Flush("t"), "flush");
    Clock::time_point c2 = Clock::now();
    r.insert_us.push_back(MicrosBetween(c0, c1));
    r.flush_ms.push_back(MicrosBetween(c1, c2) / 1000.0);
  }
  ops->Note(db.PreloadTable("t"), "preload");
  r.seconds = SecondsSince(start);
  r.bytes_written = db.object_store().stats().bytes_written.load();
  const storage::IngestStats& is = db.engine("t")->stats();
  r.index_build_micros = is.index_build_micros.load();
  r.indexes_built = is.indexes_built.load();
  return r;
}

// ---------------------------------------------------------------------------
// Measured windows
// ---------------------------------------------------------------------------

/// Engine counters read at the boundaries of each traced query.
enum CounterIdx {
  kMemHits,
  kMemMisses,
  kPoolTasks,
  kSchedTasks,
  kPoolSteals,
  kSchedSteals,
  kNumCounters
};
using CounterSnap = std::array<uint64_t, kNumCounters>;

struct Counters {
  std::array<common::metrics::Counter*, kNumCounters> c{};
  Counters() {
    auto& reg = common::metrics::MetricsRegistry::Instance();
    const char* names[kNumCounters] = {
        "bh_index_cache_memory_hits_total",
        "bh_index_cache_memory_misses_total",
        "bh_threadpool_tasks_total",
        "bh_scheduler_tasks_total",
        "bh_threadpool_steals_total",
        "bh_scheduler_steals_total"};
    for (size_t i = 0; i < c.size(); ++i) c[i] = reg.GetCounter(names[i]);
  }
  CounterSnap Read() const {
    CounterSnap s{};
    for (size_t i = 0; i < c.size(); ++i) s[i] = c[i]->Value();
    return s;
  }
};

struct QuerySample {
  uint32_t query = 0;
  double wall_us = 0;
  /// Slice of the window the query ran in; warm-up queries have none.
  size_t slice = 0;
  std::string error;  // engine error; empty on success
  std::vector<ResultRow> rows;
  sql::ExecStats stats;
};

/// Per-layer tallies of a traced window.
struct LayerTally {
  std::vector<double> parse_us, signature_us, facade_us;
  double acquire_us[5] = {0, 0, 0, 0, 0};
  uint64_t acquire_n[5] = {0, 0, 0, 0, 0};
  double bitmap_us = 0;
  uint64_t bitmap_n = 0;
  double eval_us = 0;
  uint64_t eval_n = 0;
  double search_us = 0;
  uint64_t search_n = 0;
  uint64_t search_dist = 0;
  double exact_us = 0;
  uint64_t exact_n = 0;
  /// Σ per-segment probe work, and the part of wall time no timed layer
  /// covers.
  double segment_work_us = 0;
  double unattributed_us = 0;
  double wall_us = 0;
  CounterSnap counters{};
  uint64_t probe_failures = 0;
};

/// Host steal at or below which a slice counts as quiet.
constexpr double kQuietSteal = 0.005;
/// Length of one slice of a window, in seconds.
constexpr double kSliceSeconds = 2;

struct Window {
  /// Slice boundaries: seconds since the window began, process CPU seconds
  /// and host ticks read at each; slice k runs from mark k to mark k + 1.
  struct Mark {
    double t = 0;
    double cpu = 0;
    HostTicks host;
  };
  std::vector<Mark> marks;
  void AddMark(double t) { marks.push_back({t, CpuSeconds(), ReadHostTicks()}); }
  /// Share of host CPU time stolen during slice k.
  double Steal(size_t k) const {
    const HostTicks& a = marks[k].host;
    const HostTicks& b = marks[k + 1].host;
    return Ratio(static_cast<double>(b.steal - a.steal),
                 static_cast<double>(b.total - a.total));
  }
  /// Quiet slices the window aims for: `seconds` of measurement.
  size_t wanted = 0;
  /// Warm-up queries first, then the window's from measured_begin.
  std::vector<QuerySample> samples;
  size_t measured_begin = 0;
  LayerTally layers;
  std::vector<SpanRecord> spans;
};

class Runner {
 public:
  Runner(const Threads& t, const Dataset& data, double seconds, OpCount* ops)
      : t_(t), data_(data), seconds_(seconds), ops_(ops) {}

  Window Run(core::BlendHouse& db, bool traced) {
    Window win;
    const sql::QuerySettings settings = db.options().settings;
    // Warm-up: whole passes over the distinct queries for at least a second
    // fill the plan and segment caches (cache_spill: put the LRU in its
    // steady state). Checked like every other query.
    Clock::time_point warm0 = Clock::now();
    do {
      for (size_t i = 0; i < data_.queries.size(); ++i)
        win.samples.push_back(RunQuery(db, settings, i));
    } while (SecondsSince(warm0) < 1.0);

    // Closed-loop queries in two-second slices until the window holds
    // `seconds / 2` quiet slices, or for at most three times `seconds`. On a
    // shared host, minutes-long stretches of steal slow the engine several
    // fold; the slices let a run measure around them (see Reads).
    win.wanted = std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds_ / kSliceSeconds)));
    const double cap_s = 3 * seconds_;
    Clock::time_point epoch = Clock::now();
    SpanLog log(epoch, 0);
    win.measured_begin = win.samples.size();
    win.AddMark(0);
    Counters counters;
    size_t quiet = 0;
    uint64_t seq = 0;
    while (quiet < win.wanted && win.marks.back().t < cap_s) {
      const size_t slice = win.marks.size() - 1;
      const double slice_end = win.marks.back().t + kSliceSeconds;
      double now = 0;
      do {
        size_t i = seq % data_.queries.size();
        ++seq;
        win.samples.push_back(traced ? RunTracedQuery(db, settings, counters,
                                                      i, seq, &log,
                                                      &win.layers)
                                     : RunQuery(db, settings, i));
        win.samples.back().slice = slice;
        now = SecondsSince(epoch);
      } while (now < slice_end);
      win.AddMark(now);
      if (win.Steal(slice) <= kQuietSteal) ++quiet;
    }
    win.spans = log.spans();
    return win;
  }

 private:
  QuerySample RunQuery(core::BlendHouse& db,
                       const sql::QuerySettings& settings, size_t i) {
    QuerySample s;
    s.query = static_cast<uint32_t>(i);
    Clock::time_point t0 = Clock::now();
    auto r = db.QueryWithSettings(data_.queries[i].sql, settings);
    s.wall_us = MicrosBetween(t0, Clock::now());
    Collect(r, &s);
    return s;
  }

  void Collect(const common::Result<sql::QueryResult>& r, QuerySample* s) {
    ++ops_->attempted;
    if (!r.ok()) {
      s->error = r.status().ToString();
      return;
    }
    s->stats = r->stats;
    s->rows.reserve(r->rows.size());
    for (const storage::Row& row : r->rows) {
      ResultRow out;
      if (row.values.size() != 3 ||
          !std::holds_alternative<int64_t>(row.values[0]) ||
          !std::holds_alternative<int64_t>(row.values[1]) ||
          !std::holds_alternative<double>(row.values[2])) {
        s->error = "unexpected result row shape";
        return;
      }
      out.id = std::get<int64_t>(row.values[0]);
      out.attr = std::get<int64_t>(row.values[1]);
      out.dist = std::get<double>(row.values[2]);
      s->rows.push_back(out);
    }
  }

  /// One traced request: the query itself, then probes that replay its
  /// parse, signature and per-segment work through the same public calls.
  /// Probes run after the query returns so they never sit inside its wall
  /// time; they do touch the same caches.
  QuerySample RunTracedQuery(core::BlendHouse& db,
                             const sql::QuerySettings& settings,
                             const Counters& counters, size_t i,
                             uint64_t trace_id, SpanLog* log,
                             LayerTally* tally) {
    const QuerySpec& q = data_.queries[i];
    uint32_t root = log->Reserve();
    Clock::time_point req0 = Clock::now();

    CounterSnap before = counters.Read();
    QuerySample s;
    s.query = static_cast<uint32_t>(i);
    Clock::time_point q0 = Clock::now();
    auto r = db.QueryWithSettings(q.sql, settings);
    Clock::time_point q1 = Clock::now();
    CounterSnap after = counters.Read();
    s.wall_us = MicrosBetween(q0, q1);
    Collect(r, &s);
    log->Add(trace_id, root, kQuery, static_cast<int32_t>(q.cls), q0, q1);
    for (size_t k = 0; k < kNumCounters; ++k)
      tally->counters[k] += after[k] - before[k];

    // sql: parse and parameterized signature of the same text.
    Clock::time_point p0 = Clock::now();
    auto stmt = sql::ParseStatement(q.sql);
    Clock::time_point p1 = Clock::now();
    auto sig = sql::ParameterizedSignature(q.sql);
    Clock::time_point p2 = Clock::now();
    log->Add(trace_id, root, kParse, 0, p0, p1);
    log->Add(trace_id, root, kSignature, 0, p1, p2);
    double parse_us = MicrosBetween(p0, p1);
    double sig_us = MicrosBetween(p1, p2);
    tally->parse_us.push_back(parse_us);
    tally->signature_us.push_back(sig_us);
    if (!stmt.ok() || !sig.ok() || stmt->kind != sql::Statement::Kind::kSelect)
      ++tally->probe_failures;

    double busiest_worker_us = 0;
    if (r.ok() && stmt.ok() && stmt->kind == sql::Statement::Kind::kSelect) {
      busiest_worker_us = ProbeSegments(db, settings, q, *stmt->select,
                                        r->stats.strategy, trace_id, root, log,
                                        tally);
    }
    log->AddWithId(root, trace_id, 0, kRequest, static_cast<int32_t>(q.cls),
                   req0, Clock::now());

    // Façade residual: the query's wall time not covered by parse, the two
    // signature computations, planning and execution.
    if (r.ok()) {
      double facade = s.wall_us - parse_us - 2 * sig_us -
                      r->stats.plan_micros - r->stats.exec_micros;
      tally->facade_us.push_back(facade);
      // Inside execute: time the busiest worker's threads could not have
      // spent on its segments' work, even split evenly.
      double exec_gap = std::max(
          0.0, r->stats.exec_micros -
                   busiest_worker_us / static_cast<double>(t_.worker_threads));
      tally->unattributed_us += std::max(0.0, facade) + exec_gap;
      tally->wall_us += s.wall_us;
    }
    return s;
  }

  /// Replays the query's per-segment work on each segment's ring owner,
  /// following the plan the query used as Executor::RunSegment runs it:
  ///  - brute force: PredicateEvaluator::BuildBitmap (filtered classes),
  ///    then vecindex::Distance over the bitmap's rows;
  ///  - post-filter: Worker::AcquireIndex, then VectorIndex::SearchWithFilter
  ///    without a filter (unfiltered), or MakeIterator batches whose
  ///    candidates PredicateEvaluator::EvalRow checks until k qualify.
  /// The listed workloads never take the pre-filter plan (see NOTES.md);
  /// one counts as a probe failure. Returns the busiest worker's Σ probe
  /// time.
  double ProbeSegments(core::BlendHouse& db, const sql::QuerySettings& settings,
                       const QuerySpec& q, const sql::SelectStmt& select,
                       sql::ExecStrategy strategy, uint64_t trace_id,
                       uint32_t root, SpanLog* log, LayerTally* tally) {
    if (strategy == sql::ExecStrategy::kPreFilter) {
      ++tally->probe_failures;
      return 0;
    }
    storage::LsmEngine* engine = db.engine("t");
    const storage::TableSchema& schema = engine->schema();
    storage::TableSnapshot snap = engine->Snapshot();
    sql::CompiledPredicatePtr compiled;
    if (select.where != nullptr) {
      auto c = sql::CompiledPredicate::Compile(*select.where);
      if (!c.ok()) {
        ++tally->probe_failures;
        return 0;
      }
      compiled = std::move(c).value();
    }
    const int32_t cls = static_cast<int32_t>(q.cls);
    std::map<cluster::Worker*, double> per_worker;
    for (const storage::SegmentMeta& meta : snap.segments) {
      cluster::Worker* w = db.read_vw().OwnerOf(
          cluster::Scheduler::PlacementKey(schema.table_name, meta));
      if (w == nullptr) {
        ++tally->probe_failures;
        continue;
      }
      double work = 0;
      auto timed = [&](uint8_t name, int32_t tag, double* sum, uint64_t* n,
                       const auto& fn) {
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        log->Add(trace_id, root, name, tag, t0, t1);
        *sum += MicrosBetween(t0, t1);
        ++*n;
        work += MicrosBetween(t0, t1);
      };
      const common::Bitset* deletes = snap.DeletesFor(meta.segment_id);
      storage::SegmentPtr segment;
      std::optional<sql::PredicateEvaluator> eval;
      // Fetches the segment and binds the predicate, as the executor does
      // (lazily, on the first candidate, for post-filter plans).
      auto bind = [&]() {
        auto fetched =
            w->GetSegment(schema, meta.segment_id, settings.use_column_cache);
        if (!fetched.ok()) return false;
        segment = *fetched;
        if (compiled == nullptr) return true;
        auto bound = sql::PredicateEvaluator::Bind(compiled, *segment);
        if (!bound.ok()) return false;
        eval = std::move(*bound);
        return true;
      };

      if (strategy == sql::ExecStrategy::kBruteForce) {
        if (!bind()) {
          ++tally->probe_failures;
          continue;
        }
        common::Bitset bitmap;
        if (eval.has_value()) {
          timed(kFilterBitmap, cls, &tally->bitmap_us, &tally->bitmap_n, [&] {
            bitmap = eval->BuildBitmap(deletes, settings.use_granule_pruning);
          });
        } else {
          bitmap = common::Bitset(segment->num_rows(), /*initial=*/true);
          if (deletes != nullptr) bitmap.AndNot(*deletes);
        }
        const storage::Column* col = segment->FindColumn("emb");
        if (col == nullptr) {
          ++tally->probe_failures;
          continue;
        }
        timed(kExactScan, cls, &tally->exact_us, &tally->exact_n, [&] {
          std::vector<Hit> best;
          bitmap.ForEachSetBit([&](size_t row) {
            float d = vecindex::Distance(vecindex::Metric::kL2, q.vec.data(),
                                         col->GetVector(row),
                                         col->vector_dim());
            best.push_back({d, static_cast<int64_t>(row)});
          });
          size_t keep = std::min(kTopK, best.size());
          std::partial_sort(best.begin(), best.begin() + keep, best.end(),
                            [](const Hit& a, const Hit& b) {
                              return a.dist < b.dist;
                            });
        });
        per_worker[w] += work;
        tally->segment_work_us += work;
        continue;
      }

      Clock::time_point a0 = Clock::now();
      auto acquired = w->AcquireIndex(schema, meta, settings.acquire);
      Clock::time_point a1 = Clock::now();
      if (!acquired.ok()) {
        ++tally->probe_failures;
        continue;
      }
      size_t outcome = static_cast<size_t>(acquired->outcome);
      log->Add(trace_id, root, kAcquire, static_cast<int32_t>(outcome), a0, a1);
      tally->acquire_us[outcome] += MicrosBetween(a0, a1);
      ++tally->acquire_n[outcome];
      work += MicrosBetween(a0, a1);

      vecindex::SearchParams params;
      params.k = static_cast<int>(kTopK);
      params.ef_search = settings.ef_search;
      vecindex::scanstats::ScanCounterScope scope;
      if (compiled == nullptr && deletes == nullptr) {
        timed(kSearch, cls, &tally->search_us, &tally->search_n, [&] {
          auto hits = acquired->index->SearchWithFilter(q.vec.data(), params);
          if (!hits.ok()) ++tally->probe_failures;
        });
      } else {
        // One vecindex.search span per iterator batch (the first includes
        // MakeIterator), one sql.filter_eval span per batch's candidates.
        std::unique_ptr<vecindex::SearchIterator> iter;
        std::vector<vecindex::Neighbor> batch;
        const size_t batch_size =
            kTopK * static_cast<size_t>(std::max(1, settings.refine_factor));
        size_t found = 0;
        bool ok = true;
        while (ok && found < kTopK) {
          timed(kSearch, cls, &tally->search_us, &tally->search_n, [&] {
            if (iter == nullptr) {
              auto made = acquired->index->MakeIterator(q.vec.data(), params);
              ok = made.ok();
              if (ok) iter = std::move(made).value();
            }
            if (ok) batch = iter->Next(batch_size);
          });
          if (!ok || batch.empty()) break;
          timed(kFilterEval, cls, &tally->eval_us, &tally->eval_n, [&] {
            for (const vecindex::Neighbor& n : batch) {
              size_t row = static_cast<size_t>(n.id);
              if (deletes != nullptr && deletes->Test(row)) continue;
              if (compiled != nullptr) {
                if (segment == nullptr && !bind()) {
                  ok = false;
                  return;
                }
                if (!eval->EvalRow(row)) continue;
              }
              ++found;
            }
          });
        }
        if (!ok) ++tally->probe_failures;
      }
      tally->search_dist += scope.Delta().total();
      per_worker[w] += work;
      tally->segment_work_us += work;
    }
    double busiest = 0;
    for (const auto& [_, us] : per_worker) busiest = std::max(busiest, us);
    return busiest;
  }

  const Threads& t_;
  const Dataset& data_;
  double seconds_;
  OpCount* ops_;
};

// ---------------------------------------------------------------------------
// End-of-run index probe: one loaded copy of every segment index.
// ---------------------------------------------------------------------------

struct IndexProbe {
  uint64_t memory_bytes = 0;
  uint64_t serialized_bytes = 0;
  size_t segments = 0;
  std::vector<double> load_us;
  std::map<std::string, size_t> segments_per_worker;
};

IndexProbe ProbeIndexes(core::BlendHouse& db, OpCount* ops, SpanLog* log) {
  IndexProbe p;
  storage::LsmEngine* engine = db.engine("t");
  const storage::TableSchema& schema = engine->schema();
  for (cluster::Worker* w : db.read_vw().workers())
    p.segments_per_worker[w->id()] = 0;
  for (const storage::SegmentMeta& meta : engine->Snapshot().segments) {
    std::string key = cluster::Scheduler::PlacementKey(schema.table_name, meta);
    ++p.segments_per_worker[db.read_vw().OwnerIdOf(key)];
    auto bytes = db.object_store().Get(key);
    ops->Note(bytes.status(), "index get");
    if (!bytes.ok()) continue;
    p.serialized_bytes += bytes->size();
    ++p.segments;
    Clock::time_point l0 = Clock::now();
    auto index = vecindex::IndexFactory::Global().CreateFromSaved(
        *schema.index_spec, *bytes);
    Clock::time_point l1 = Clock::now();
    ops->Note(index.status(), "index load");
    if (!index.ok()) continue;
    p.load_us.push_back(MicrosBetween(l0, l1));
    if (log != nullptr) log->Add(0, 0, kIndexLoad, 0, l0, l1);
    p.memory_bytes += (*index)->MemoryUsage();
  }
  return p;
}

// ---------------------------------------------------------------------------
// Checking and reporting
// ---------------------------------------------------------------------------

struct CheckSummary {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::vector<std::string> first_errors;
};

/// Checks every query of a window (warm-up included) and returns the mean
/// recall@10 of the measured queries.
double CheckWindow(const Dataset& data,
                   const std::vector<std::vector<int64_t>>& truth,
                   const Window& win, OpCount* ops, CheckSummary* all) {
  double measured_recall = 0;
  uint64_t measured = 0;
  for (size_t i = 0; i < win.samples.size(); ++i) {
    const QuerySample& s = win.samples[i];
    const QuerySpec& q = data.queries[s.query];
    std::string err = s.error;
    if (err.empty()) err = CheckResult(data, q, s.rows, kTopK);
    ++all->checked;
    double recall = 0;
    if (err.empty()) {
      recall = Recall(s.rows, truth[s.query], kTopK);
    } else {
      ++all->wrong;
      ++ops->failed;
      if (all->first_errors.size() < 5)
        all->first_errors.push_back(std::string(ClassName(q.cls)) + ": " +
                                    err);
    }
    if (i >= win.measured_begin) {
      measured_recall += recall;
      ++measured;
    }
  }
  return Ratio(measured_recall, static_cast<double>(measured));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintMetrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s %-36s %14.6g %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Read figures of a window. They come from its measured slices: the
/// quiet ones (host steal at most kQuietSteal) when the window collected
/// enough of them, else the quietest `wanted` slices. Per-slice figures are
/// kept for printing.
struct ReadStats {
  std::vector<double> slice_qps, slice_p50_ms, slice_p99_ms, slice_cpu_ms,
      slice_steal;
  std::vector<bool> measured;
  /// Pooled over every query of the measured slices.
  double qps = 0, p50_ms = 0, p99_ms = 0, cpu_ms_per_query = 0;
  size_t n = 0;
};

ReadStats Reads(const Window& win) {
  ReadStats r;
  const size_t slices = win.marks.size() - 1;
  std::vector<std::vector<double>> by_slice(slices);
  for (size_t i = win.measured_begin; i < win.samples.size(); ++i)
    by_slice[win.samples[i].slice].push_back(win.samples[i].wall_us / 1000.0);
  std::vector<size_t> order(slices);
  for (size_t k = 0; k < slices; ++k) {
    const Window::Mark& a = win.marks[k];
    const Window::Mark& b = win.marks[k + 1];
    double n = static_cast<double>(by_slice[k].size());
    r.slice_qps.push_back(Ratio(n, b.t - a.t));
    r.slice_p50_ms.push_back(Percentile(by_slice[k], 50));
    r.slice_p99_ms.push_back(Percentile(by_slice[k], 99));
    r.slice_cpu_ms.push_back(Ratio((b.cpu - a.cpu) * 1000.0, n));
    r.slice_steal.push_back(win.Steal(k));
    order[k] = k;
  }
  // The window stops at `wanted` quiet slices, so the quietest `wanted`
  // slices are exactly the quiet ones when it collected enough of them.
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return r.slice_steal[x] < r.slice_steal[y];
  });
  r.measured.assign(slices, false);
  for (size_t j = 0; j < std::min(win.wanted, slices); ++j)
    r.measured[order[j]] = true;
  std::vector<double> lat;
  double seconds = 0, cpu_s = 0;
  for (size_t k = 0; k < slices; ++k) {
    if (!r.measured[k]) continue;
    lat.insert(lat.end(), by_slice[k].begin(), by_slice[k].end());
    seconds += win.marks[k + 1].t - win.marks[k].t;
    cpu_s += win.marks[k + 1].cpu - win.marks[k].cpu;
  }
  r.n = lat.size();
  r.qps = Ratio(static_cast<double>(r.n), seconds);
  r.cpu_ms_per_query = Ratio(cpu_s * 1000.0, static_cast<double>(r.n));
  r.p50_ms = Percentile(lat, 50);
  r.p99_ms = Percentile(std::move(lat), 99);
  return r;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// Per-layer metrics of the traced window (NOTES.md defines each one).
std::vector<Metric> LayerMetrics(const Threads& threads, const Window& traced,
                                 const SetupResult& traced_setup,
                                 const IndexProbe& probe,
                                 const ReadStats& reads, const ReadStats& tr) {
  const LayerTally& t = traced.layers;
  double nq = static_cast<double>(traced.samples.size() - traced.measured_begin);
  double sum_plan = 0, sum_exec = 0, sum_queue = 0, sum_sim = 0;
  double rows_scanned = 0, rows_returned = 0, dist = 0, disk_hits = 0;
  for (size_t i = traced.measured_begin; i < traced.samples.size(); ++i) {
    const QuerySample& s = traced.samples[i];
    sum_plan += s.stats.plan_micros;
    sum_exec += s.stats.exec_micros;
    sum_queue += s.stats.queue_wait_micros;
    sum_sim += s.stats.sim_io_micros;
    rows_scanned += static_cast<double>(s.stats.ledger.rows_scanned);
    rows_returned += static_cast<double>(s.rows.size());
    dist += static_cast<double>(s.stats.ledger.total_distance_comps());
    disk_hits += static_cast<double>(s.stats.cache_outcomes[static_cast<size_t>(
        cluster::CacheOutcome::kDiskHit)]);
  }
  const CounterSnap& c = t.counters;
  auto cnt = [&](int i) { return static_cast<double>(c[i]); };
  double mean_index_bytes =
      Ratio(static_cast<double>(probe.serialized_bytes),
            static_cast<double>(probe.segments));
  double max_segs = 0, sum_segs = 0;
  for (const auto& [_, n] : probe.segments_per_worker) {
    max_segs = std::max(max_segs, static_cast<double>(n));
    sum_segs += static_cast<double>(n);
  }
  double mean_segs =
      Ratio(sum_segs, static_cast<double>(probe.segments_per_worker.size()));
  const SetupResult& ts = traced_setup;
  const double pool_threads =
      static_cast<double>(threads.read_workers * threads.worker_threads);
  auto acq = [&](cluster::CacheOutcome o) {
    size_t i = static_cast<size_t>(o);
    return Ratio(t.acquire_us[i], static_cast<double>(t.acquire_n[i]));
  };
  return {
      {"sql.parse_us", Mean(t.parse_us), "us"},
      {"sql.signature_us", Mean(t.signature_us), "us"},
      {"sql.plan_us", Ratio(sum_plan, nq), "us"},
      {"sql.execute_us", Ratio(sum_exec, nq), "us"},
      {"sql.filter_bitmap_us",
       Ratio(t.bitmap_us, static_cast<double>(t.bitmap_n)), "us"},
      {"sql.filter_eval_us", Ratio(t.eval_us, static_cast<double>(t.eval_n)),
       "us"},
      {"sql.rows_scanned_per_result", Ratio(rows_scanned, rows_returned),
       "ratio"},
      {"cluster.acquire_us.memory_hit", acq(cluster::CacheOutcome::kMemoryHit),
       "us"},
      {"cluster.acquire_us.disk_hit", acq(cluster::CacheOutcome::kDiskHit),
       "us"},
      {"cluster.mem_hit_ratio",
       Ratio(cnt(kMemHits), cnt(kMemHits) + cnt(kMemMisses)), "ratio"},
      {"cluster.disk_mb_per_query",
       Ratio(disk_hits * mean_index_bytes / kMiB, nq), "MiB"},
      {"cluster.placement_skew", Ratio(max_segs, mean_segs), "ratio"},
      {"cluster.queue_wait_us", Ratio(sum_queue, nq), "us"},
      {"cluster.fanout_efficiency",
       Ratio(t.segment_work_us, sum_exec * pool_threads), "ratio"},
      {"cluster.sim_io_ms_per_query", Ratio(sum_sim / 1000.0, nq), "ms"},
      {"vecindex.search_us",
       Ratio(t.search_us, static_cast<double>(t.search_n)), "us"},
      {"vecindex.exact_scan_us",
       Ratio(t.exact_us, static_cast<double>(t.exact_n)), "us"},
      {"vecindex.dist_comps_per_query", Ratio(dist, nq), "count"},
      {"vecindex.ns_per_dist",
       Ratio(t.search_us * 1000.0, static_cast<double>(t.search_dist)), "ns"},
      {"vecindex.load_us", Mean(probe.load_us), "us"},
      {"vecindex.build_ms",
       Ratio(static_cast<double>(ts.index_build_micros) / 1000.0,
             static_cast<double>(ts.indexes_built)),
       "ms"},
      {"storage.insert_us", Mean(ts.insert_us), "us"},
      {"storage.flush_ms", Mean(ts.flush_ms), "ms"},
      {"storage.put_mb_per_commit",
       Ratio(static_cast<double>(ts.bytes_written) / kMiB,
             static_cast<double>(ts.flush_ms.size())),
       "MiB"},
      {"common.tasks_per_query", Ratio(cnt(kPoolTasks) + cnt(kSchedTasks), nq),
       "count"},
      {"common.steals_per_query",
       Ratio(cnt(kPoolSteals) + cnt(kSchedSteals), nq), "count"},
      {"core.facade_us", Mean(t.facade_us), "us"},
      {"core.unattributed_frac", Ratio(t.unattributed_us, t.wall_us),
       "ratio"},
      {"trace.overhead_frac", Ratio(tr.p50_ms, reads.p50_ms) - 1.0, "ratio"},
  };
}

/// One-line JSON record of the host and the workload's configuration.
std::string ConfigRecord(const Workload& w, const Threads& threads,
                         const Dataset& data, const IndexProbe& probe,
                         uint64_t seed) {
  const size_t cache_budget =
      w.index_cache_bytes > 0 ? w.index_cache_bytes
                              : EngineOptions(w, threads).worker.cache.memory_bytes;
  return
      "{\"host\": {\"nproc\": " + std::to_string(threads.nproc) +
      ", \"simd_tier\": \"" +
      vecindex::kernels::SimdTierName(vecindex::kernels::ActiveTier()) +
      "\", \"build_type\": \"" BLENDBENCH_BUILD_TYPE
      "\", \"compiler\": \"" BLENDBENCH_COMPILER "\"}"
      ", \"workload\": {\"name\": \"" + w.name + "\", \"why\": \"" +
      JsonEscape(w.why) + "\", \"seed\": " + std::to_string(seed) +
      ", \"rows\": " + std::to_string(data.num_rows()) +
      ", \"dim\": " + std::to_string(data.dim) +
      ", \"segments\": " + std::to_string(probe.segments) +
      ", \"index_memory_bytes\": " + std::to_string(probe.memory_bytes) +
      ", \"index_cache_budget_bytes_per_worker\": " +
      std::to_string(cache_budget) +
      ", \"read_workers\": " + std::to_string(threads.read_workers) +
      ", \"reader_clients\": 1" +
      ", \"pool_threads_per_worker\": " + std::to_string(threads.worker_threads) +
      ", \"build_threads\": " + std::to_string(threads.build_threads) +
      ", \"sync_loads\": " + (w.sync_loads ? "true" : "false") + "}}";
}

/// Prints a window's sample counts and per-slice figures.
void PrintReads(const ReadStats& reads, size_t warmup) {
  std::printf("samples: %zu queries in the %zu measured of %zu slices (%zu "
              "beyond their p99), %zu warm-up queries\n",
              reads.n,
              static_cast<size_t>(
                  std::count(reads.measured.begin(), reads.measured.end(), true)),
              reads.measured.size(),
              reads.n / 100, warmup);
  auto print_slices = [](const char* name, const std::vector<double>& v) {
    std::printf("slices %-10s", name);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_slices("qps", reads.slice_qps);
  print_slices("p50_ms", reads.slice_p50_ms);
  print_slices("p99_ms", reads.slice_p99_ms);
  print_slices("cpu_ms", reads.slice_cpu_ms);
  print_slices("steal", reads.slice_steal);
  std::printf("slices %-10s", "measured");
  for (bool m : reads.measured) std::printf(" %d", m ? 1 : 0);
  std::printf("\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: blendbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const Workload* found = nullptr;
  std::vector<Workload> all = Workloads();
  for (const Workload& w : all)
    if (w.name == args.workload) found = &w;
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  common::SetLogLevel(common::LogLevel::kError);
  const Threads threads = ThreadCounts();

  DatasetOptions dopt;
  dopt.seed = args.seed;
  dopt.rows = w.rows;
  dopt.rows_per_segment = w.rows_per_segment;
  dopt.filtered_mix = w.filtered_mix;
  Clock::time_point gen0 = Clock::now();
  const Dataset data = MakeDataset(dopt);
  const std::vector<std::vector<int64_t>> truth = ExactTopK(data, kTopK);
  std::printf("workload %s seed %llu seconds %g trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("inputs and oracle generated in %.2f s (outside set-up)\n",
              SecondsSince(gen0));

  OpCount ops;
  std::vector<double> setup_s;
  SetupResult setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.db.reset();
    setup = Setup(w, threads, data, &ops);
    setup_s.push_back(setup.seconds);
  }

  Runner runner(threads, data, args.seconds, &ops);
  Window plain = runner.Run(*setup.db, /*traced=*/false);
  Window traced;
  SetupResult traced_setup;
  if (args.trace == 1) {
    // A fresh set-up, so the traced window starts from the same state.
    setup.db.reset();
    traced_setup = Setup(w, threads, data, &ops);
    traced = runner.Run(*traced_setup.db, /*traced=*/true);
  }
  core::BlendHouse& final_db =
      args.trace == 1 ? *traced_setup.db : *setup.db;
  SpanLog probe_log(Clock::now(), 0xF0000000u);
  IndexProbe probe = ProbeIndexes(final_db, &ops, &probe_log);

  CheckSummary check;
  const double recall = CheckWindow(data, truth, plain, &ops, &check);
  const double traced_recall =
      args.trace == 1 ? CheckWindow(data, truth, traced, &ops, &check) : 0;

  std::printf("config %s\n",
              ConfigRecord(w, threads, data, probe, args.seed).c_str());

  std::vector<std::string> invalid;
  if (recall < 0.5)
    invalid.push_back("recall@10 " + Num(recall) + " is below 0.5");

  // ---- End-to-end metrics (untraced window) -----------------------------
  ReadStats reads = Reads(plain);
  const double vector_bytes = static_cast<double>(data.dim * sizeof(float));
  std::vector<Metric> e2e = {
      {"qps", reads.qps, "1/s"},
      {"read_p50_ms", reads.p50_ms, "ms"},
      {"read_p99_ms", reads.p99_ms, "ms"},
      {"recall_at_10", recall, "ratio"},
      {"cpu_ms_per_query", reads.cpu_ms_per_query, "ms"},
      {"setup_s", Percentile(setup_s, 50), "s"},
      {"write_amp",
       Ratio(static_cast<double>(setup.bytes_written),
             static_cast<double>(data.num_rows()) * vector_bytes),
       "ratio"},
      {"index_mem_mb", static_cast<double>(probe.memory_bytes) / kMiB, "MiB"},
  };
  const double error_rate =
      Ratio(static_cast<double>(ops.failed),
            static_cast<double>(ops.attempted));

  PrintReads(reads, plain.measured_begin);
  {
    std::map<std::string, size_t> by;
    for (size_t i = plain.measured_begin; i < plain.samples.size(); ++i) {
      const QuerySample& s = plain.samples[i];
      if (!s.error.empty()) continue;
      ++by[std::string(ClassName(data.queries[s.query].cls)) + "/" +
           sql::ExecStrategyName(s.stats.strategy)];
    }
    std::printf("plans:");
    for (const auto& [k, n] : by) std::printf(" %s=%zu", k.c_str(), n);
    std::printf("\n");
  }
  PrintMetrics("e2e", e2e);
  std::printf("e2e %-36s %14.6g %s\n", "error_rate", error_rate, "ratio");

  std::vector<Metric> layers;
  if (args.trace == 1) {
    const LayerTally& t = traced.layers;
    ReadStats tr = Reads(traced);
    layers = LayerMetrics(threads, traced, traced_setup, probe, reads, tr);
    std::printf("traced window: %zu queries, %llu probe failures, recall %.4f\n",
                traced.samples.size() - traced.measured_begin,
                static_cast<unsigned long long>(t.probe_failures),
                traced_recall);
    PrintMetrics("layer", layers);
    if (t.probe_failures > 0)
      invalid.push_back(std::to_string(t.probe_failures) +
                        " traced probes failed");

    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << "trace_id,span_id,parent_id,name,tag,start_us,end_us\n";
      auto write = [&](const std::vector<SpanRecord>& spans) {
        for (const SpanRecord& s : spans)
          out << s.trace_id << ',' << s.span_id << ',' << s.parent_id << ','
              << SpanNameText(s.name) << ',' << s.tag << ',' << s.start_us
              << ',' << s.end_us << '\n';
      };
      write(traced.spans);
      write(probe_log.spans());
      if (!out)
        std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      else
        std::printf("spans: %zu written to %s\n",
                    traced.spans.size() + probe_log.spans().size(),
                    args.trace_out.c_str());
    }
  }

  for (const std::string& e : ops.first_errors)
    std::printf("error: %s\n", e.c_str());
  std::printf("checked %llu query results, %llu wrong or failed\n",
              static_cast<unsigned long long>(check.checked),
              static_cast<unsigned long long>(check.wrong));
  for (const std::string& e : check.first_errors)
    std::printf("wrong result: %s\n", e.c_str());
  for (const std::string& e : invalid) std::printf("invalid run: %s\n", e.c_str());

  const bool correct = ops.failed == 0 && invalid.empty();
  const std::vector<Metric>& reported = args.trace == 1 ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed),
              MetricsJson(reported).c_str());
  return 0;
}

}  // namespace
}  // namespace blendbench

int main(int argc, char** argv) { return blendbench::Main(argc, argv); }
