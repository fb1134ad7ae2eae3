// Fig. 11: per-search latency of (a) local search on a hot in-memory index,
// (b) vector search serving via a peer worker's hot cache over RPC, and
// (c) the brute-force fallback used when no index is reachable.
//
// Expected shape (paper): brute force ~ an order of magnitude slower than
// local (14.5x in the paper); serving adds only the RPC round-trip (+16.6%
// in the paper) — the argument for serving over falling back.

#include <algorithm>
#include <cstdio>

#include "cluster/virtual_warehouse.h"
#include "common/histogram.h"
#include "common/timer.h"
#include "bench/bench_util.h"
#include "storage/lsm_engine.h"
#include "tests/test_util.h"

int main() {
  using namespace blendhouse;
  bench::QuietLogs();
  bench::PrintHeader(
      "Fig. 11: latency of local search / vector search serving / brute "
      "force");

  const size_t kDim = 256;
  const size_t kRows = 16384;
  storage::ObjectStore store(storage::StorageCostModel::Remote());
  cluster::RpcFabric rpc;  // realistic RPC cost
  common::TaskScheduler build_pool(2);

  storage::TableSchema schema;
  schema.table_name = "t";
  schema.columns = {{"id", storage::ColumnType::kInt64},
                    {"emb", storage::ColumnType::kFloatVector}};
  vecindex::IndexSpec spec;
  spec.type = "HNSW";
  spec.dim = kDim;
  schema.index_spec = spec;
  schema.vector_column = 1;

  storage::IngestOptions ingest;
  ingest.max_segment_rows = kRows;
  storage::LsmEngine engine(schema, &store, &build_pool, ingest);
  auto data = test::MakeClusteredVectors(kRows, kDim, 32, 11);
  {
    std::vector<storage::Row> rows;
    for (size_t i = 0; i < kRows; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(i),
                    std::vector<float>(data.begin() + i * kDim,
                                       data.begin() + (i + 1) * kDim)};
      rows.push_back(std::move(row));
    }
    if (!engine.Insert(std::move(rows)).ok() || !engine.Flush().ok()) return 1;
  }
  storage::SegmentMeta meta = engine.Snapshot().segments[0];

  cluster::WorkerOptions worker_options;  // realistic disk cost
  cluster::Worker hot("hot", &store, &rpc, worker_options);
  if (!hot.PreloadIndexAsync(schema, meta).Get().status.ok()) return 1;

  cluster::Worker cold_serving("cold_serving", &store, &rpc, worker_options);
  cold_serving.SetPeerResolver([&](const std::string&) { return &hot; });
  cluster::Worker cold_brute("cold_brute", &store, &rpc, worker_options);
  // Warm the raw-segment cache so brute force measures compute, not the
  // one-time remote fetch.
  (void)cold_brute.GetSegment(schema, meta.segment_id);

  auto measure = [&](cluster::Worker& worker,
                     const cluster::AcquireOptions& opts,
                     const char* expect) -> double {
    common::Histogram lat;
    const size_t kQueries = 200;
    for (size_t q = 0; q < kQueries; ++q) {
      const float* query = data.data() + (q * 41 % kRows) * kDim;
      common::Timer timer;
      auto acquired = worker.AcquireIndex(schema, meta, opts);
      if (!acquired.ok()) return -1;
      vecindex::SearchParams params;
      params.k = 10;
      params.ef_search = 128;
      auto hits = acquired->index->SearchWithFilter(query, params);
      if (!hits.ok()) return -1;
      lat.Add(timer.ElapsedMillis());
      if (q == 0 &&
          std::string(cluster::CacheOutcomeName(acquired->outcome)) != expect)
        std::fprintf(stderr, "warning: expected %s got %s\n", expect,
                     cluster::CacheOutcomeName(acquired->outcome));
    }
    return lat.Mean();
  };

  cluster::AcquireOptions local_opts;
  double local = measure(hot, local_opts, "memory_hit");

  cluster::AcquireOptions serving_opts;
  serving_opts.background_load_on_fallback = false;  // keep it cold
  double serving = measure(cold_serving, serving_opts, "remote_serving");

  cluster::AcquireOptions brute_opts;
  brute_opts.allow_remote_serving = false;
  brute_opts.background_load_on_fallback = false;
  double brute = measure(cold_brute, brute_opts, "brute_force");

  std::printf("%-24s %14s %12s\n", "mode", "latency (ms)", "vs local");
  std::printf("%-24s %14.3f %12s\n", "local search", local, "1.00x");
  std::printf("%-24s %14.3f %11.2fx (+%.1f%%)\n", "vector search serving",
              serving, serving / local, (serving / local - 1.0) * 100);
  std::printf("%-24s %14.3f %11.2fx\n", "brute force fallback", brute,
              brute / local);

  // ---- ExecStats breakdown through the executor ----------------------------
  // The same warm-vs-cold contrast driven end-to-end through the SQL
  // executor: the async task breakdown attributes each configuration's
  // latency. Warm caches are compute-bound; a memory budget too small to
  // retain any index forces every query through the disk tier, and the
  // simulated I/O that the waiting caller pays dominates.
  {
    baselines::DatasetSpec spec = bench::Scaled(baselines::CohereSmall());
    spec.n = std::min<size_t>(spec.n, 4096);
    baselines::BenchDataset bdata = baselines::MakeDataset(spec);
    auto run = [&](bool warm) {
      baselines::BlendHouseSystemOptions opts = bench::DefaultBhOptions();
      opts.preload = warm;
      if (!warm) {
        // A memory budget too small to retain any index plus forced local
        // loads: every query re-reads the index through the disk tier.
        opts.db.worker.cache.memory_bytes = 4096;
        opts.db.settings.acquire.force_local_load = true;
      }
      baselines::BlendHouseSystem system(opts);
      baselines::BlendHouseSystem::AccumulatedExecStats stats;
      if (!system.Load(bdata).ok()) return stats;
      (void)system.DrainExecStats();  // drop load/preload accounting
      (void)bench::SystemQps(system, bdata, /*k=*/10, /*ef=*/64,
                             /*queries=*/60);
      return system.DrainExecStats();
    };
    auto print_row =
        [](const char* label,
           const baselines::BlendHouseSystem::AccumulatedExecStats& s) {
          double n = s.queries > 0 ? static_cast<double>(s.queries) : 1.0;
          std::printf("%-24s %10.0f %12.0f %12.0f %12.0f\n", label,
                      s.exec_micros / n, s.ledger.queue_wait_micros / n,
                      s.ledger.compute_micros / n, s.ledger.sim_io_micros / n);
        };
    std::printf(
        "\nExecStats breakdown (executor-driven, per-query averages, us):\n");
    std::printf("%-24s %10s %12s %12s %12s\n", "config", "exec", "queue wait",
                "compute", "sim I/O");
    print_row("warm cache", run(true));
    print_row("cache miss (cold)", run(false));
  }
  bench::PrintRegistrySnapshot({"bh_object_store_", "bh_index_cache_",
                                "bh_segment_cache_",
                                "bh_filter_bitmap_cache_"});
  return 0;
}
