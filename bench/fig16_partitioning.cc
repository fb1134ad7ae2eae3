// Fig. 16: hybrid-query QPS under the four data-placement strategies on the
// LAION-like workload (range predicate + vector search): random placement,
// scalar partitioning, semantic (CLUSTER BY) partitioning, and both.
//
// Expected shape (paper): scalar and semantic partitioning each beat random;
// their combination is best — each prunes a different dimension of the
// segment set.

#include <cstdio>

#include "baselines/blendhouse_system.h"
#include "bench/bench_util.h"

namespace blendhouse {
namespace {

struct Config {
  const char* name;
  size_t scalar_buckets;
  size_t semantic_buckets;
};

double RunConfig(const Config& cfg, const baselines::BenchDataset& data,
                 int64_t lo, int64_t hi, size_t* segments_scanned) {
  baselines::BlendHouseSystemOptions opts = bench::DefaultBhOptions();
  opts.db = core::BlendHouseOptions::Fast();
  opts.db.ingest.max_segment_rows = 512;
  opts.db.settings.semantic_probe_buckets = 2;
  opts.scalar_partition_buckets = cfg.scalar_buckets;
  opts.semantic_buckets = cfg.semantic_buckets;
  baselines::BlendHouseSystem system(opts);
  if (!system.Load(data).ok()) return -1;

  // One instrumented query for the pruning stats.
  auto probe = system.db().Query(system.BuildSearchSql(
      {data.query(0), 10, 64, true, lo, hi}));
  *segments_scanned = probe.ok() ? probe->stats.ledger.segments_scanned : 0;

  return bench::SystemQps(system, data, 10, 64, 300, true, lo, hi).qps;
}

}  // namespace
}  // namespace blendhouse

int main() {
  using namespace blendhouse;
  bench::QuietLogs();
  bench::PrintHeader("Fig. 16: performance of different partition strategies");

  baselines::DatasetSpec spec = bench::Scaled(baselines::LaionSmall());
  baselines::BenchDataset data = baselines::MakeDataset(spec);
  // Range predicate passing ~20% of rows (the caption-similarity filter of
  // the LAION workload, mapped onto the uniform attribute column).
  auto [lo, hi] = baselines::AttrRangeForSelectivity(0.2);

  Config configs[] = {{"random", 0, 0},
                      {"scalar", 8, 0},
                      {"semantic", 0, 8},
                      {"scalar+semantic", 8, 8}};
  std::printf("%-18s %10s %18s\n", "strategy", "QPS", "segments scanned");
  for (const Config& cfg : configs) {
    size_t scanned = 0;
    double qps = RunConfig(cfg, data, lo, hi, &scanned);
    std::printf("%-18s %10.0f %18zu\n", cfg.name, qps, scanned);
  }
  return 0;
}
