// Micro-benchmarks (google-benchmark) for the hot kernels under everything:
// distance functions (per dispatch tier), batched one-vs-many scans, PQ ADC
// lookups, SQ8 asymmetric distance, bitmap tests, consistent-hash placement,
// histogram selectivity estimation, and HNSW build / load / search at the
// end-to-end benchmark's segment shape.
//
// The *Scalar variants pin the scalar table so the SIMD speedup is visible
// in one run; the unsuffixed variants use whatever tier dispatch selected
// (printed at startup).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"

#include "cluster/consistent_hash.h"
#include "common/bitset.h"
#include "common/io.h"
#include "common/rng.h"
#include "sql/expression.h"
#include "storage/segment.h"
#include "tests/test_util.h"
#include "vecindex/distance.h"
#include "vecindex/flat_index.h"
#include "vecindex/hnsw_index.h"
#include "vecindex/index_factory.h"
#include "vecindex/ivf_index.h"
#include "vecindex/kernels/kernels.h"
#include "vecindex/pq.h"
#include "vecindex/quantizer.h"

namespace blendhouse {
namespace {

namespace kernels = vecindex::kernels;

void BM_L2Sqr(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(2, dim, 1, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        vecindex::L2Sqr(data.data(), data.data() + dim, dim));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Sqr)->Arg(64)->Arg(96)->Arg(256)->Arg(768);

void BM_L2SqrScalar(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(2, dim, 1, 1);
  const kernels::KernelTable* scalar =
      kernels::GetTable(kernels::SimdTier::kScalar);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        scalar->l2sqr(data.data(), data.data() + dim, dim));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2SqrScalar)->Arg(96)->Arg(768);

void BM_InnerProduct(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(2, dim, 1, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        vecindex::InnerProduct(data.data(), data.data() + dim, dim));
}
BENCHMARK(BM_InnerProduct)->Arg(96)->Arg(768);

void BM_InnerProductScalar(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(2, dim, 1, 1);
  const kernels::KernelTable* scalar =
      kernels::GetTable(kernels::SimdTier::kScalar);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        scalar->inner_product(data.data(), data.data() + dim, dim));
}
BENCHMARK(BM_InnerProductScalar)->Arg(96)->Arg(768);

constexpr size_t kBatchRows = 256;

void BM_BatchL2Sqr(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(kBatchRows + 1, dim, 4, 2);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    kernels::Get().batch_l2sqr(data.data(), data.data() + dim, kBatchRows,
                               dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
}
BENCHMARK(BM_BatchL2Sqr)->Arg(96)->Arg(768);

void BM_BatchInnerProduct(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(kBatchRows + 1, dim, 4, 2);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    kernels::Get().batch_inner_product(data.data(), data.data() + dim,
                                       kBatchRows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
}
BENCHMARK(BM_BatchInnerProduct)->Arg(96)->Arg(768);

void BM_BatchCosineWithNorms(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto data = test::MakeClusteredVectors(kBatchRows + 1, dim, 4, 2);
  const float* base = data.data() + dim;
  std::vector<float> norms(kBatchRows);
  for (size_t i = 0; i < kBatchRows; ++i)
    norms[i] = std::sqrt(vecindex::SquaredNorm(base + i * dim, dim));
  float qnorm = std::sqrt(vecindex::SquaredNorm(data.data(), dim));
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    vecindex::BatchCosineWithNorms(data.data(), base, norms.data(), qnorm,
                                   kBatchRows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
}
BENCHMARK(BM_BatchCosineWithNorms)->Arg(96)->Arg(768);

// One first-pass scan chunk through the reduced-precision store (the per-
// chunk work FLAT/IVF scans issue at fp16/int8; DESIGN.md §13).
void BM_StoreBatchDistance(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto precision = static_cast<vecindex::Precision>(state.range(1));
  auto data = test::MakeClusteredVectors(kBatchRows + 1, dim, 4, 2);
  vecindex::PrecisionStore store;
  store.Configure(precision, dim, vecindex::Metric::kL2);
  store.Train(data.data() + dim, kBatchRows);
  store.Append(data.data() + dim, kBatchRows);
  vecindex::PrecisionStore::QueryCtx ctx;
  store.PrepareQuery(data.data(), &ctx);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    store.BatchDistance(ctx, 0, kBatchRows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
  state.SetLabel(vecindex::PrecisionName(precision));
}
BENCHMARK(BM_StoreBatchDistance)
    ->ArgsProduct({{96, 768}, {1, 3}})  // precision: fp16, int8
    ->ArgNames({"dim", "precision"});

void BM_PqAdcDistance(benchmark::State& state) {
  size_t dim = 96, m = 12;
  auto data = test::MakeClusteredVectors(2000, dim, 8, 3);
  vecindex::ProductQuantizer pq;
  (void)pq.Train(data.data(), 2000, dim, m, 8);
  std::vector<uint8_t> code(pq.code_size());
  pq.Encode(data.data() + dim, code.data());
  std::vector<float> table(pq.m() * pq.ks());
  pq.BuildAdcTable(data.data(), table.data());
  for (auto _ : state)
    benchmark::DoNotOptimize(pq.AdcDistance(table.data(), code.data()));
}
BENCHMARK(BM_PqAdcDistance);

void BM_PqAdcDistanceBatch(benchmark::State& state) {
  size_t dim = 96, m = 12;
  auto data = test::MakeClusteredVectors(2000, dim, 8, 3);
  vecindex::ProductQuantizer pq;
  (void)pq.Train(data.data(), 2000, dim, m, 8);
  std::vector<uint8_t> codes(kBatchRows * pq.code_size());
  for (size_t i = 0; i < kBatchRows; ++i)
    pq.Encode(data.data() + (i + 1) * dim, codes.data() + i * pq.code_size());
  std::vector<float> table(pq.m() * pq.ks());
  pq.BuildAdcTable(data.data(), table.data());
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    pq.AdcDistanceBatch(table.data(), codes.data(), kBatchRows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows);
}
BENCHMARK(BM_PqAdcDistanceBatch);

void BM_PqBuildAdcTable(benchmark::State& state) {
  size_t dim = 96, m = 12;
  auto data = test::MakeClusteredVectors(2000, dim, 8, 3);
  vecindex::ProductQuantizer pq;
  (void)pq.Train(data.data(), 2000, dim, m, 8);
  std::vector<float> table(pq.m() * pq.ks());
  for (auto _ : state) {
    pq.BuildAdcTable(data.data(), table.data());
    benchmark::DoNotOptimize(table.data());
  }
}
BENCHMARK(BM_PqBuildAdcTable);

void BM_BitsetTest(benchmark::State& state) {
  common::Bitset bits(100000);
  for (size_t i = 0; i < 100000; i += 3) bits.Set(i);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.Test(i));
    i = (i + 7919) % 100000;
  }
}
BENCHMARK(BM_BitsetTest);

// ---------------------------------------------------------------------------
// Filter-bitmap construction: row-wise reference vs vectorized evaluator
// ---------------------------------------------------------------------------

constexpr size_t kFilterRows = 100000;

const storage::SegmentPtr& FilterBenchSegment() {
  static storage::SegmentPtr segment = [] {
    storage::TableSchema schema;
    schema.table_name = "bench";
    schema.columns = {{"id", storage::ColumnType::kInt64},
                      {"score", storage::ColumnType::kFloat64},
                      {"name", storage::ColumnType::kString}};
    storage::SegmentBuilder builder(schema, "bench_seg");
    common::Rng rng(11);
    static const char* kNames[] = {"cat", "dog", "catalog", "hot dog", "x"};
    for (size_t i = 0; i < kFilterRows; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(i), rng.Uniform(0.0, 1.0),
                    std::string(kNames[rng.UniformInt(0, 4)])};
      (void)builder.AppendRow(row);
    }
    return *builder.Finish();
  }();
  return segment;
}

sql::ExprPtr NumericConjunct() {
  // id >= 25000 AND id < 75000 AND score < 0.5  (~25% selectivity)
  using sql::Expr;
  auto ge = Expr::Compare(Expr::CmpOp::kGe, Expr::Column("id"),
                          Expr::Literal(int64_t{25000}));
  auto lt = Expr::Compare(Expr::CmpOp::kLt, Expr::Column("id"),
                          Expr::Literal(int64_t{75000}));
  auto sc = Expr::Compare(Expr::CmpOp::kLt, Expr::Column("score"),
                          Expr::Literal(0.5));
  return Expr::And(Expr::And(std::move(ge), std::move(lt)), std::move(sc));
}

void BM_BuildBitmapRowWise(benchmark::State& state) {
  const storage::SegmentPtr& segment = FilterBenchSegment();
  sql::ExprPtr expr = NumericConjunct();
  auto eval = sql::PredicateEvaluator::Bind(*expr, *segment);
  for (auto _ : state) {
    common::Bitset bitmap(segment->num_rows());
    for (size_t i = 0; i < segment->num_rows(); ++i)
      if (eval->EvalRow(i)) bitmap.Set(i);
    benchmark::DoNotOptimize(bitmap.words().data());
  }
  state.SetItemsProcessed(state.iterations() * kFilterRows);
}
BENCHMARK(BM_BuildBitmapRowWise);

void BM_BuildBitmapVectorized(benchmark::State& state) {
  const bool pruning = state.range(0) != 0;
  const storage::SegmentPtr& segment = FilterBenchSegment();
  sql::ExprPtr expr = NumericConjunct();
  auto eval = sql::PredicateEvaluator::Bind(*expr, *segment);
  for (auto _ : state) {
    common::Bitset bitmap = eval->BuildBitmap(nullptr, pruning);
    benchmark::DoNotOptimize(bitmap.words().data());
  }
  state.SetItemsProcessed(state.iterations() * kFilterRows);
}
BENCHMARK(BM_BuildBitmapVectorized)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("granule_pruning");

void BM_BuildBitmapStringPredicate(benchmark::State& state) {
  // Cheap numeric conjunct gates an expensive LIKE: the lazy path should
  // only pay the string match on rows surviving the word-level AND.
  using sql::Expr;
  const storage::SegmentPtr& segment = FilterBenchSegment();
  auto expr = Expr::And(
      Expr::Compare(Expr::CmpOp::kLt, Expr::Column("id"),
                    Expr::Literal(int64_t{10000})),
      Expr::Like(Expr::Column("name"), "%cat%"));
  auto eval = sql::PredicateEvaluator::Bind(*expr, *segment);
  for (auto _ : state) {
    common::Bitset bitmap = eval->BuildBitmap(nullptr, true);
    benchmark::DoNotOptimize(bitmap.words().data());
  }
  state.SetItemsProcessed(state.iterations() * kFilterRows);
}
BENCHMARK(BM_BuildBitmapStringPredicate);

// ---------------------------------------------------------------------------
// Filtered ANN search: selectivity sweep over flat / IVF / HNSW
// ---------------------------------------------------------------------------

constexpr size_t kFsN = 20000;
constexpr size_t kFsDim = 64;

const std::vector<float>& FilteredSearchData() {
  static std::vector<float> data =
      test::MakeClusteredVectors(kFsN, kFsDim, 16, 13);
  return data;
}

vecindex::VectorIndex* FilteredSearchIndex(const std::string& type) {
  static std::map<std::string, vecindex::VectorIndexPtr> cache;
  auto it = cache.find(type);
  if (it != cache.end()) return it->second.get();
  const std::vector<float>& data = FilteredSearchData();
  vecindex::VectorIndexPtr index;
  if (type == "FLAT") {
    index = std::make_unique<vecindex::FlatIndex>(kFsDim,
                                                  vecindex::Metric::kL2);
  } else if (type == "IVFFLAT") {
    vecindex::IvfOptions opts;
    opts.nlist = 64;
    index = std::make_unique<vecindex::IvfFlatIndex>(
        kFsDim, vecindex::Metric::kL2, opts);
  } else {
    index = std::make_unique<vecindex::HnswIndex>(kFsDim,
                                                  vecindex::Metric::kL2);
  }
  if (index->NeedsTraining()) (void)index->Train(data.data(), kFsN);
  auto ids = test::SequentialIds(kFsN);
  (void)index->AddWithIds(data.data(), ids.data(), kFsN);
  return cache.emplace(type, std::move(index)).first->second.get();
}

common::Bitset SelectivityFilter(size_t n, int permille) {
  common::Bitset filter(n);
  common::Rng rng(17);
  for (size_t i = 0; i < n; ++i)
    if (rng.UniformInt(0, 999) < permille) filter.Set(i);
  return filter;
}

void RunFilteredSearch(benchmark::State& state, const std::string& type) {
  vecindex::VectorIndex* index = FilteredSearchIndex(type);
  common::Bitset filter =
      SelectivityFilter(kFsN, static_cast<int>(state.range(0)));
  const std::vector<float>& data = FilteredSearchData();
  vecindex::SearchParams p;
  p.k = 10;
  p.ef_search = 128;
  p.nprobe = 8;
  p.filter = &filter;
  size_t q = 0;
  for (auto _ : state) {
    const float* query = data.data() + (q * 127 % kFsN) * kFsDim;
    ++q;
    auto found = index->SearchWithFilter(query, p);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FilteredSearchFlat(benchmark::State& state) {
  RunFilteredSearch(state, "FLAT");
}
void BM_FilteredSearchIvfFlat(benchmark::State& state) {
  RunFilteredSearch(state, "IVFFLAT");
}
void BM_FilteredSearchHnsw(benchmark::State& state) {
  RunFilteredSearch(state, "HNSW");
}
// Arg = selectivity in permille: 0.1%, 1%, 10%, 50%, 90%.
BENCHMARK(BM_FilteredSearchFlat)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(500)->Arg(900)
    ->ArgName("sel_permille");
BENCHMARK(BM_FilteredSearchIvfFlat)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(500)->Arg(900)
    ->ArgName("sel_permille");
BENCHMARK(BM_FilteredSearchHnsw)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(500)->Arg(900)
    ->ArgName("sel_permille");

// ---------------------------------------------------------------------------
// HNSW build / load / search at perfbench's segment shape (DESIGN.md "HNSW
// storage"): 96-d rows around 64 centroids, M=8, EF_CONSTRUCTION=60, ef 64.
// ---------------------------------------------------------------------------

constexpr size_t kHnswN = 2048;
constexpr size_t kHnswQueries = 256;
constexpr size_t kHnswDim = 96;

/// kHnswN indexed rows, then kHnswQueries held-out rows of the same clusters.
const std::vector<float>& HnswData() {
  static std::vector<float> data = test::MakeClusteredVectors(
      kHnswN + kHnswQueries, kHnswDim, 64, 23, 0.5f);
  return data;
}

const float* HnswQuery(size_t q) {
  return HnswData().data() + (kHnswN + q % kHnswQueries) * kHnswDim;
}

std::unique_ptr<vecindex::HnswIndex> BuildBenchHnsw() {
  vecindex::HnswOptions opts;
  opts.M = 8;
  opts.ef_construction = 60;
  auto index = std::make_unique<vecindex::HnswIndex>(
      kHnswDim, vecindex::Metric::kL2, opts);
  auto ids = test::SequentialIds(kHnswN);
  (void)index->AddWithIds(HnswData().data(), ids.data(), kHnswN);
  return index;
}

const vecindex::HnswIndex& BenchHnsw() {
  static std::unique_ptr<vecindex::HnswIndex> index = BuildBenchHnsw();
  return *index;
}

vecindex::SearchParams HnswSearchParams() {
  vecindex::SearchParams p;
  p.k = 10;
  p.ef_search = 64;
  return p;
}

void BM_HnswBuild(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(BuildBenchHnsw());
  state.SetItemsProcessed(state.iterations() * kHnswN);
}
BENCHMARK(BM_HnswBuild)->Unit(benchmark::kMillisecond);

// Load from a string with no owner, as perfbench's probe and
// Load(string_view) do: the index copies the blob once into an aligned
// buffer, then views it. The index is freed inside the loop, as an eviction
// frees it.
void BM_HnswLoad(benchmark::State& state) {
  std::string saved;
  (void)BenchHnsw().Save(&saved);
  vecindex::IndexSpec spec;
  spec.type = "HNSW";
  spec.dim = kHnswDim;
  for (auto _ : state) {
    auto loaded = vecindex::IndexFactory::Global().CreateFromSaved(spec, saved);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(saved.size()));
}
BENCHMARK(BM_HnswLoad)->Unit(benchmark::kMicrosecond);

// Load from an aligned shared buffer, as a disk-tier hit does: the index
// adopts the buffer and views its sections, copying nothing.
void BM_HnswAdopt(benchmark::State& state) {
  std::string saved;
  (void)BenchHnsw().Save(&saved);
  auto blob =
      std::make_shared<const common::AlignedBytes>(saved.begin(), saved.end());
  const std::string_view bytes(blob->data(), blob->size());
  vecindex::IndexSpec spec;
  spec.type = "HNSW";
  spec.dim = kHnswDim;
  for (auto _ : state) {
    auto loaded =
        vecindex::IndexFactory::Global().CreateFromSaved(spec, bytes, blob);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(saved.size()));
}
BENCHMARK(BM_HnswAdopt)->Unit(benchmark::kMicrosecond);

void BM_HnswSearch(benchmark::State& state) {
  const vecindex::HnswIndex& index = BenchHnsw();
  const vecindex::SearchParams p = HnswSearchParams();
  size_t q = 0;
  for (auto _ : state) {
    auto found = index.SearchWithFilter(HnswQuery(q++), p);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswSearch)->Unit(benchmark::kMicrosecond);

// Post-filter's first step: open the native iterator, take one batch of k.
void BM_HnswIteratorFirstBatch(benchmark::State& state) {
  const vecindex::HnswIndex& index = BenchHnsw();
  const vecindex::SearchParams p = HnswSearchParams();
  size_t q = 0;
  for (auto _ : state) {
    auto iter = index.MakeIterator(HnswQuery(q++), p);
    auto batch = (*iter)->Next(static_cast<size_t>(p.k));
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswIteratorFirstBatch)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Reduced-precision scan sweep -> BENCH_micro_kernels.json (DESIGN.md §13)
// ---------------------------------------------------------------------------

struct SweepEntry {
  vecindex::Precision precision;
  const char* metric;
  size_t dim;
  double rows_per_sec;
};

/// Rows/s of one 256-row scan chunk at the given precision and metric: the
/// fp32 path uses the dispatched batch kernels directly, the reduced
/// precisions go through PrecisionStore::BatchDistance — exactly what the
/// index scans issue per chunk.
double MeasureScanRowsPerSec(vecindex::Precision p, vecindex::Metric m,
                             size_t dim) {
  auto data = test::MakeClusteredVectors(kBatchRows + 1, dim, 4, 5);
  const float* query = data.data();
  const float* base = data.data() + dim;
  std::vector<float> out(kBatchRows);
  std::vector<float> norms;
  float qnorm = std::sqrt(vecindex::SquaredNorm(query, dim));
  vecindex::PrecisionStore store;
  vecindex::PrecisionStore::QueryCtx ctx;
  std::function<void()> run;
  if (p == vecindex::Precision::kFp32) {
    const kernels::KernelTable& kt = kernels::Get();
    switch (m) {
      case vecindex::Metric::kL2:
        run = [&, l2 = kt.batch_l2sqr] {
          l2(query, base, kBatchRows, dim, out.data());
        };
        break;
      case vecindex::Metric::kInnerProduct:
        run = [&, ip = kt.batch_inner_product] {
          ip(query, base, kBatchRows, dim, out.data());
        };
        break;
      case vecindex::Metric::kCosine:
        norms.resize(kBatchRows);
        for (size_t i = 0; i < kBatchRows; ++i)
          norms[i] = std::sqrt(vecindex::SquaredNorm(base + i * dim, dim));
        run = [&] {
          vecindex::BatchCosineWithNorms(query, base, norms.data(), qnorm,
                                         kBatchRows, dim, out.data());
        };
        break;
    }
  } else {
    store.Configure(p, dim, m);
    store.Train(base, kBatchRows);
    store.Append(base, kBatchRows);
    store.PrepareQuery(query, &ctx);
    run = [&] { store.BatchDistance(ctx, 0, kBatchRows, out.data()); };
  }
  for (int i = 0; i < 16; ++i) run();  // warm caches and the dispatch table
  common::Timer timer;
  size_t iters = 0;
  do {
    for (int i = 0; i < 8; ++i) run();
    iters += 8;
    benchmark::DoNotOptimize(out.data());
  } while (timer.ElapsedSeconds() < 0.05);
  return static_cast<double>(iters * kBatchRows) / timer.ElapsedSeconds();
}

/// Median of an odd-sized sample (the middle element once sorted).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Sweeps fp32/fp16/int8 x metrics x dims, prints the table, writes
/// BENCH_micro_kernels.json, and (under BH_BENCH_ASSERT=1) gates on the
/// two-tier pipeline's premise: at least one of int8/fp16 must scan >= 1.5x
/// faster than fp32 at l2, dim 768, in the median of five interleaved
/// trials.
bool RunReducedPrecisionSweep() {
  const size_t kSweepDims[] = {96, 768};
  const struct {
    vecindex::Metric m;
    const char* name;
  } kMetrics[] = {{vecindex::Metric::kL2, "l2"},
                  {vecindex::Metric::kInnerProduct, "ip"},
                  {vecindex::Metric::kCosine, "cosine"}};
  const vecindex::Precision kPrecisions[] = {vecindex::Precision::kFp32,
                                             vecindex::Precision::kFp16,
                                             vecindex::Precision::kInt8};

  std::vector<SweepEntry> entries;
  std::printf("\nReduced-precision scan sweep (rows/s, batch=%zu):\n",
              kBatchRows);
  std::printf("%-10s %-8s %6s %14s %10s\n", "precision", "metric", "dim",
              "rows/s", "vs fp32");
  std::map<std::string, double> fp32_baseline;
  for (size_t dim : kSweepDims) {
    for (const auto& metric : kMetrics) {
      for (vecindex::Precision p : kPrecisions) {
        SweepEntry e{p, metric.name, dim,
                     MeasureScanRowsPerSec(p, metric.m, dim)};
        std::string key = std::string(metric.name) + "/" +
                          std::to_string(dim);
        if (p == vecindex::Precision::kFp32) fp32_baseline[key] = e.rows_per_sec;
        entries.push_back(e);
        std::printf("%-10s %-8s %6zu %14.0f %9.2fx\n",
                    vecindex::PrecisionName(p).c_str(), metric.name, dim,
                    e.rows_per_sec, e.rows_per_sec / fp32_baseline[key]);
      }
    }
  }

  // The gate point is measured again in interleaved trials: each trial
  // scans fp32, fp16 and int8 back to back, so a slow stretch of the host
  // hits the three alike, and the gate takes the median ratio per tier.
  constexpr int kGateTrials = 5;
  std::vector<double> fp16_ratios, int8_ratios;
  for (int t = 0; t < kGateTrials; ++t) {
    const auto l2 = vecindex::Metric::kL2;
    double fp32 = MeasureScanRowsPerSec(vecindex::Precision::kFp32, l2, 768);
    fp16_ratios.push_back(
        MeasureScanRowsPerSec(vecindex::Precision::kFp16, l2, 768) / fp32);
    int8_ratios.push_back(
        MeasureScanRowsPerSec(vecindex::Precision::kInt8, l2, 768) / fp32);
  }
  const double fp16_median = Median(fp16_ratios);
  const double int8_median = Median(int8_ratios);
  auto join = [](const std::vector<double>& v) {
    std::string out;
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%.3f" : ", %.3f", v[i]);
      out += buf;
    }
    return out;
  };
  std::printf("\nvs fp32 at l2/768 over %d interleaved trials:\n", kGateTrials);
  std::printf("  fp16 [%s] median %.2fx\n", join(fp16_ratios).c_str(),
              fp16_median);
  std::printf("  int8 [%s] median %.2fx\n", join(int8_ratios).c_str(),
              int8_median);

  std::FILE* f = std::fopen("BENCH_micro_kernels.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
    std::fprintf(f, "  \"tier\": \"%s\",\n",
                 kernels::SimdTierName(kernels::ActiveTier()).c_str());
    std::fprintf(f, "  \"batch_rows\": %zu,\n", kBatchRows);
    std::fprintf(f, "  \"scan\": [\n");
    for (size_t i = 0; i < entries.size(); ++i) {
      const SweepEntry& e = entries[i];
      std::fprintf(f,
                   "    {\"precision\": \"%s\", \"metric\": \"%s\", "
                   "\"dim\": %zu, \"rows_per_sec\": %.0f}%s\n",
                   vecindex::PrecisionName(e.precision).c_str(), e.metric,
                   e.dim, e.rows_per_sec,
                   i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"trials_vs_fp32_l2_768\": {\"fp16\": [%s], "
                 "\"int8\": [%s]},\n",
                 join(fp16_ratios).c_str(), join(int8_ratios).c_str());
    std::fprintf(f,
                 "  \"speedup_vs_fp32_l2_768\": {\"fp16\": %.3f, "
                 "\"int8\": %.3f}\n",
                 fp16_median, int8_median);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\n(sweep written to BENCH_micro_kernels.json)\n");
  }

  if (const char* gate = std::getenv("BH_BENCH_ASSERT");
      gate != nullptr && gate[0] == '1') {
    double best = std::max(fp16_median, int8_median);
    if (best < 1.5) {
      std::fprintf(stderr,
                   "BENCH ASSERT FAILED: best reduced-precision scan speedup "
                   "%.2fx < 1.5x (median of %d trials, fp16/int8 vs fp32, "
                   "l2, dim 768)\n",
                   best, kGateTrials);
      return false;
    }
    std::printf(
        "bench assert: reduced-precision scan speedup %.2fx >= 1.5x (median "
        "of %d trials)\n",
        best, kGateTrials);
  }
  return true;
}

void BM_ConsistentHashPlacement(benchmark::State& state) {
  cluster::ConsistentHashRing ring(static_cast<size_t>(state.range(0)));
  for (int n = 0; n < 16; ++n) ring.AddNode("worker_" + std::to_string(n));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.GetNode("segment_" + std::to_string(i++)));
  }
}
BENCHMARK(BM_ConsistentHashPlacement)->Arg(1)->Arg(21);

}  // namespace
}  // namespace blendhouse

int main(int argc, char** argv) {
  std::printf(
      "simd dispatch: active tier = %s\n",
      blendhouse::vecindex::kernels::SimdTierName(
          blendhouse::vecindex::kernels::ActiveTier())
          .c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return blendhouse::RunReducedPrecisionSweep() ? 0 : 1;
}
