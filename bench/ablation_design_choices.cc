// Ablations for the design choices DESIGN.md calls out, beyond the paper's
// own figures:
//  (a) pipelined per-segment index builds vs. staged build-after-write
//      (the mechanism behind Table IV, isolated inside one system);
//  (b) multi-probe vs. classic single-probe consistent hashing: load
//      balance and reshuffle fraction on scale-out (Fig. 3's rationale);
//  (c) the hierarchical index cache: per-acquire latency at each tier
//      (memory / local disk / remote), the "why three tiers" argument;
//  (d) granule (sparse-index) pruning on/off for the pre-filter bitmap.

#include <cstdio>
#include <map>

#include "baselines/blendhouse_system.h"
#include "bench/bench_util.h"
#include "cluster/consistent_hash.h"
#include "cluster/index_cache.h"
#include "common/timer.h"
#include "storage/lsm_engine.h"
#include "tests/test_util.h"

namespace blendhouse {
namespace {

void AblatePipelinedIngest(const baselines::BenchDataset& data) {
  std::printf("\n(a) pipelined vs staged index builds (one system, %zu rows)\n",
              data.n);
  std::printf("%-22s %14s\n", "ingest mode", "load time (s)");
  for (bool pipelined : {true, false}) {
    baselines::BlendHouseSystemOptions opts = bench::DefaultBhOptions();
    opts.preload = false;
    opts.db.ingest.pipelined_index_build = pipelined;
    opts.db.ingest.async_flush = pipelined;  // staged = fully synchronous
    baselines::BlendHouseSystem system(opts);
    common::Timer t;
    if (!system.Load(data).ok()) return;
    std::printf("%-22s %14.2f\n", pipelined ? "pipelined" : "staged",
                t.ElapsedSeconds());
  }
}

void AblateConsistentHashing() {
  std::printf("\n(b) multi-probe vs single-probe consistent hashing"
              " (8 workers, 4000 segments)\n");
  std::printf("%-10s %14s %16s\n", "probes", "max/min load",
              "moved on +1 node");
  for (size_t probes : {1u, 5u, 21u}) {
    cluster::ConsistentHashRing ring(probes);
    for (int w = 0; w < 8; ++w) ring.AddNode("w" + std::to_string(w));
    std::map<std::string, int> load;
    std::map<std::string, std::string> owner;
    for (int s = 0; s < 4000; ++s) {
      std::string key = "segment_" + std::to_string(s);
      owner[key] = ring.GetNode(key);
      load[owner[key]]++;
    }
    int mn = 1 << 30, mx = 0;
    for (auto& [_, c] : load) {
      mn = std::min(mn, c);
      mx = std::max(mx, c);
    }
    ring.AddNode("w8");
    size_t moved = 0;
    for (auto& [key, prev] : owner)
      if (ring.GetNode(key) != prev) ++moved;
    std::printf("%-10zu %13.2fx %15.1f%%\n", probes,
                static_cast<double>(mx) / std::max(1, mn),
                100.0 * static_cast<double>(moved) / owner.size());
  }
  std::printf("(ideal move fraction at 8->9 workers: 11.1%%)\n");
}

void AblateCacheTiers(const baselines::BenchDataset& data) {
  std::printf("\n(c) hierarchical index cache: per-acquire latency by tier\n");
  storage::ObjectStore store;  // realistic remote latency
  common::TaskScheduler pool(2);
  storage::TableSchema schema;
  schema.table_name = "t";
  schema.columns = {{"id", storage::ColumnType::kInt64},
                    {"emb", storage::ColumnType::kFloatVector}};
  vecindex::IndexSpec spec;
  spec.type = "HNSW";
  spec.dim = data.dim;
  spec.params["M"] = std::to_string(bench::BenchHnswM());
  spec.params["EF_CONSTRUCTION"] = std::to_string(bench::BenchHnswEfc());
  schema.index_spec = spec;
  schema.vector_column = 1;
  storage::IngestOptions ingest;
  ingest.max_segment_rows = data.n;
  storage::LsmEngine engine(schema, &store, &pool, ingest);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < data.n; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.vector(i),
                                     data.vector(i) + data.dim)};
    rows.push_back(std::move(row));
  }
  if (!engine.Insert(std::move(rows)).ok() || !engine.Flush().ok()) return;
  storage::SegmentMeta meta = engine.Snapshot().segments[0];
  std::string key = storage::SegmentKeys::Index("t", meta.segment_id);

  cluster::HierarchicalIndexCache cache(&store);
  std::printf("%-14s %14s\n", "tier", "latency (ms)");
  const char* tiers[] = {"remote", "disk", "memory"};
  for (int round = 0; round < 3; ++round) {
    // Round 0: everything cold -> remote load. Round 1: memory evicted,
    // disk copy intact -> disk hit. Round 2: fully warm -> memory hit.
    if (round == 1) cache.EvictMemoryOnly(key);
    common::Timer t;
    auto got = cache.GetOrLoad(key, spec);
    if (!got.ok()) return;
    std::printf("%-14s %14.3f  (%s)\n", tiers[round], t.ElapsedMillis(),
                cluster::CacheOutcomeName(got->outcome));
  }
}

void AblateGranulePruning(const baselines::BenchDataset& data) {
  std::printf("\n(d) granule sparse-index pruning for pre-filter bitmaps\n");
  baselines::BlendHouseSystemOptions opts = bench::DefaultBhOptions();
  opts.db = core::BlendHouseOptions::Fast();
  baselines::BlendHouseSystem system(opts);
  if (!system.Load(data).ok()) return;
  // id is ingestion-ordered, so granule min/max marks prune a narrow id
  // range precisely; force the pre-filter plan so the bitmap build is the
  // measured work.
  system.settings().forced_strategy = sql::ExecStrategy::kPreFilter;
  system.settings().use_plan_cache = false;
  std::string sql_text =
      "SELECT id FROM bench WHERE id BETWEEN 100 AND 200 ORDER BY"
      " L2Distance(emb, " +
      [&] {
        std::string v = "[";
        for (size_t d = 0; d < data.dim; ++d)
          v += (d ? "," : "") + std::to_string(data.query(0)[d]);
        return v + "]";
      }() +
      ") LIMIT 10;";
  std::printf("%-22s %10s\n", "granule pruning", "QPS");
  for (bool granules : {false, true}) {
    system.settings().use_granule_pruning = granules;
    bench::QpsResult r = bench::MeasureQps(
        [&](size_t) { return system.db().QueryWithSettings(
                                  sql_text, system.settings())
                          .ok(); },
        200, 1);
    std::printf("%-22s %10.0f\n", granules ? "on" : "off", r.qps);
  }
}

}  // namespace
}  // namespace blendhouse

int main() {
  using namespace blendhouse;
  bench::QuietLogs();
  bench::PrintHeader("Ablations: pipelining, hashing, cache tiers, granules");
  baselines::DatasetSpec spec = bench::Scaled(baselines::CohereSmall());
  baselines::BenchDataset data = baselines::MakeDataset(spec);
  AblatePipelinedIngest(data);
  AblateConsistentHashing();
  AblateCacheTiers(data);
  AblateGranulePruning(data);
  return 0;
}
