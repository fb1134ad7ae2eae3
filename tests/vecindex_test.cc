#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_set>

#include "common/io.h"
#include "tests/test_util.h"
#include "vecindex/auto_index.h"
#include "vecindex/generic_iterator.h"
#include "vecindex/diskann_index.h"
#include "vecindex/distance.h"
#include "vecindex/flat_index.h"
#include "vecindex/hnsw_index.h"
#include "vecindex/index_factory.h"
#include "vecindex/ivf_index.h"
#include "vecindex/kmeans.h"
#include "vecindex/pq.h"
#include "vecindex/quantizer.h"

namespace blendhouse::vecindex {
namespace {

using test::BruteForceTopK;
using test::MakeClusteredVectors;
using test::Recall;
using test::SequentialIds;

constexpr size_t kDim = 32;
constexpr size_t kN = 2000;

// ---------------------------------------------------------------------------
// Distance kernels
// ---------------------------------------------------------------------------

TEST(DistanceTest, L2SqrMatchesManual) {
  float a[4] = {1, 2, 3, 4};
  float b[4] = {2, 2, 1, 0};
  EXPECT_FLOAT_EQ(L2Sqr(a, b, 4), 1 + 0 + 4 + 16);
}

TEST(DistanceTest, InnerProduct) {
  float a[3] = {1, 2, 3};
  float b[3] = {4, 5, 6};
  EXPECT_FLOAT_EQ(InnerProduct(a, b, 3), 32.0f);
  // Metric dispatch negates IP so smaller = closer.
  EXPECT_FLOAT_EQ(Distance(Metric::kInnerProduct, a, b, 3), -32.0f);
}

TEST(DistanceTest, CosineOfParallelVectorsIsZero) {
  float a[3] = {1, 2, 3};
  float b[3] = {2, 4, 6};
  EXPECT_NEAR(CosineDistance(a, b, 3), 0.0f, 1e-6f);
}

TEST(DistanceTest, CosineOfOrthogonalIsOne) {
  float a[2] = {1, 0};
  float b[2] = {0, 1};
  EXPECT_NEAR(CosineDistance(a, b, 2), 1.0f, 1e-6f);
}

TEST(DistanceTest, ZeroVectorCosineIsSafe) {
  float a[2] = {0, 0};
  float b[2] = {1, 1};
  EXPECT_FLOAT_EQ(CosineDistance(a, b, 2), 1.0f);
}

// ---------------------------------------------------------------------------
// KMeans
// ---------------------------------------------------------------------------

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  // Three far-apart blobs; k-means must place one centroid near each.
  common::Rng rng(7);
  std::vector<float> data;
  std::vector<float> centers = {0, 0, 10, 10, -10, 10};
  for (size_t i = 0; i < 300; ++i) {
    size_t c = i % 3;
    data.push_back(centers[c * 2] + rng.Gaussian(0, 0.2f));
    data.push_back(centers[c * 2 + 1] + rng.Gaussian(0, 0.2f));
  }
  KMeansOptions opts;
  opts.k = 3;
  auto result = RunKMeans(data.data(), 300, 2, opts);
  ASSERT_TRUE(result.ok());
  // Every true center must be within 1.0 of some learned centroid.
  for (size_t c = 0; c < 3; ++c) {
    float best = 1e30f;
    for (size_t j = 0; j < 3; ++j)
      best = std::min(best, L2Sqr(&centers[c * 2],
                                  result->centroids.data() + j * 2, 2));
    EXPECT_LT(best, 1.0f);
  }
}

TEST(KMeansTest, AssignmentsConsistentWithCentroids) {
  auto data = MakeClusteredVectors(500, 8, 4, 11);
  KMeansOptions opts;
  opts.k = 4;
  auto result = RunKMeans(data.data(), 500, 8, opts);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 500; ++i) {
    size_t nearest =
        NearestCentroid(data.data() + i * 8, result->centroids.data(), 4, 8);
    EXPECT_EQ(nearest, result->assignments[i]);
  }
}

TEST(KMeansTest, KLargerThanNIsClamped) {
  std::vector<float> data = {0, 0, 1, 1};
  KMeansOptions opts;
  opts.k = 10;
  auto result = RunKMeans(data.data(), 2, 2, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 2u * 2u);
}

TEST(KMeansTest, EmptyInputRejected) {
  KMeansOptions opts;
  auto result = RunKMeans(nullptr, 0, 8, opts);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// PrecisionStore (reduced-precision first-pass tier, DESIGN.md §13)
// ---------------------------------------------------------------------------

class PrecisionStoreTest : public ::testing::TestWithParam<Precision> {
 protected:
  /// fp16 codes decode to exact fp32 values, so store distances match
  /// the decoded reference up to accumulation order. int8 batch kernels
  /// quantize the query onto the shared grid (step s = maxabs/127) while
  /// the decoded reference keeps it fp32, so the allowance is the
  /// first-order grid error of each metric's accumulation.
  static float Tol(Precision p, Metric m, float ref, float maxabs,
                   size_t dim) {
    if (p != Precision::kInt8) return 1e-3f * std::max(1.0f, std::fabs(ref));
    float s = maxabs / 127.0f;
    float fdim = static_cast<float>(dim);
    switch (m) {
      case Metric::kL2:  // sum of 2*(q-b)*delta terms, |delta| <= s
        return 2.0f * s * std::sqrt(fdim * std::max(ref, 1.0f)) +
               fdim * s * s;
      case Metric::kInnerProduct:  // sum of |b| * qstep terms
        return s * maxabs * fdim;
      default:  // cosine: normalized, the grid error shrinks with the norms
        return 0.01f;
    }
  }
};

TEST_P(PrecisionStoreTest, DistancesMatchDecodedReference) {
  constexpr size_t kRows = 300;  // straddles the kMaxBatch boundary
  auto data = MakeClusteredVectors(kRows, kDim, 6, 29);
  float maxabs = 0.0f;
  for (float x : data) maxabs = std::max(maxabs, std::fabs(x));
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    PrecisionStore store;
    store.Configure(GetParam(), kDim, metric);
    store.Train(data.data(), kRows);
    store.Append(data.data(), kRows);
    ASSERT_EQ(store.size(), kRows);
    const float* query = data.data() + 7 * kDim;
    PrecisionStore::QueryCtx ctx;
    store.PrepareQuery(query, &ctx);
    std::vector<float> dist(kRows);
    store.BatchDistance(ctx, 0, PrecisionStore::kMaxBatch, dist.data());
    store.BatchDistance(ctx, PrecisionStore::kMaxBatch,
                        kRows - PrecisionStore::kMaxBatch,
                        dist.data() + PrecisionStore::kMaxBatch);
    std::vector<float> decoded(kDim);
    for (size_t i = 0; i < kRows; ++i) {
      store.Decode(i, decoded.data());
      float ref = Distance(metric, query, decoded.data(), kDim);
      float tol = Tol(GetParam(), metric, ref, maxabs, kDim);
      EXPECT_NEAR(dist[i], ref, tol)
          << PrecisionName(GetParam()) << " metric=" << static_cast<int>(metric)
          << " row=" << i;
      EXPECT_NEAR(store.Distance1(ctx, i), dist[i], tol) << "row " << i;
      EXPECT_NEAR(store.DistanceToRow(query, i), dist[i], tol) << "row " << i;
    }
  }
}

TEST_P(PrecisionStoreTest, GatheredTileMatchesInPlaceScan) {
  constexpr size_t kRows = 120;
  auto data = MakeClusteredVectors(kRows, kDim, 4, 31);
  for (Metric metric : {Metric::kL2, Metric::kCosine}) {
    PrecisionStore store;
    store.Configure(GetParam(), kDim, metric);
    store.Train(data.data(), kRows);
    store.Append(data.data(), kRows);
    PrecisionStore::QueryCtx ctx;
    store.PrepareQuery(data.data(), &ctx);
    // Gather every third row into a dense tile, the filtered-scan shape.
    std::vector<size_t> rows;
    for (size_t i = 0; i < kRows; i += 3) rows.push_back(i);
    const size_t rb = store.row_bytes();
    std::vector<uint8_t> tile(rows.size() * rb);
    std::vector<float> norms(rows.size(), 0.0f);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::memcpy(tile.data() + i * rb, store.RowPtr(rows[i]), rb);
      if (metric == Metric::kCosine) norms[i] = store.norms()[rows[i]];
    }
    std::vector<float> got(rows.size());
    store.BatchDistanceCodes(ctx, tile.data(), norms.data(), rows.size(),
                             got.data());
    std::vector<float> all(kRows);
    store.BatchDistance(ctx, 0, kRows, all.data());
    for (size_t i = 0; i < rows.size(); ++i)
      EXPECT_FLOAT_EQ(got[i], all[rows[i]]) << "tile slot " << i;
  }
}

TEST_P(PrecisionStoreTest, SerializationPreservesDistances) {
  auto data = MakeClusteredVectors(100, kDim, 4, 33);
  PrecisionStore store;
  store.Configure(GetParam(), kDim, Metric::kCosine);
  store.Train(data.data(), 100);
  store.Append(data.data(), 100);
  std::string buf;
  common::BinaryWriter w(&buf);
  store.Serialize(&w);
  PrecisionStore loaded;
  common::BinaryReader r(buf);
  ASSERT_TRUE(loaded.Deserialize(&r).ok());
  EXPECT_EQ(loaded.precision(), store.precision());
  EXPECT_EQ(loaded.dim(), store.dim());
  EXPECT_EQ(loaded.size(), store.size());
  PrecisionStore::QueryCtx c1, c2;
  store.PrepareQuery(data.data(), &c1);
  loaded.PrepareQuery(data.data(), &c2);
  std::vector<float> d1(100), d2(100);
  store.BatchDistance(c1, 0, 100, d1.data());
  loaded.BatchDistance(c2, 0, 100, d2.data());
  // Identical codes + scale + norms: distances must be bitwise equal.
  EXPECT_EQ(0, std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)));
}

TEST_P(PrecisionStoreTest, MemoryStaysBelowFp32Footprint) {
  constexpr size_t kRows = 512;
  auto data = MakeClusteredVectors(kRows, kDim, 4, 35);
  PrecisionStore store;
  store.Configure(GetParam(), kDim, Metric::kL2);
  store.Train(data.data(), kRows);
  store.Append(data.data(), kRows);
  size_t fp32_bytes = kRows * kDim * sizeof(float);
  double limit = GetParam() == Precision::kInt8 ? 0.3 : 0.55;
  EXPECT_LE(store.MemoryBytes(), static_cast<size_t>(limit * fp32_bytes));
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, PrecisionStoreTest,
                         ::testing::Values(Precision::kFp16, Precision::kInt8),
                         [](const auto& info) {
                           return PrecisionName(info.param);
                         });

TEST(PrecisionStoreTest, Int8SaturatesPastCalibratedRange) {
  // Rounding v / scale past the calibrated range must saturate at +-127:
  // a wrapped code would land at the far end of the range. HNSWSQ inserts
  // encode through this path one row at a time.
  constexpr size_t kDims = 4;
  PrecisionStore store;
  store.Configure(Precision::kInt8, kDims, Metric::kL2);
  const float sample[kDims] = {1.0f, -1.0f, 0.5f, 0.0f};  // maxabs 1
  store.Train(sample, 1);
  ASSERT_TRUE(store.calibrated());
  const float scale = 1.0f / 127.0f;
  const float above[kDims] = {1.0f, 1.001f, 2.0f, 100.0f};
  const float below[kDims] = {-1.0f, -1.001f, -2.0f, -100.0f};
  store.Append(above, 1);
  store.Append(below, 1);
  float decoded[kDims];
  for (size_t row = 0; row < 2; ++row) {
    const int8_t want = row == 0 ? 127 : -127;
    const int8_t* code = static_cast<const int8_t*>(store.RowPtr(row));
    store.Decode(row, decoded);
    for (size_t d = 0; d < kDims; ++d) {
      EXPECT_EQ(code[d], want) << "row " << row << " dim " << d;
      EXPECT_EQ(decoded[d], static_cast<float>(want) * scale)
          << "row " << row << " dim " << d;
    }
  }
}

TEST(ProductQuantizerTest, AdcApproximatesTrueDistance) {
  auto data = MakeClusteredVectors(1000, kDim, 8, 13);
  ProductQuantizer pq;
  ASSERT_TRUE(pq.Train(data.data(), 1000, kDim, 8, 8).ok());
  std::vector<uint8_t> code(pq.code_size());
  std::vector<float> table(pq.m() * pq.ks());
  const float* query = data.data();
  pq.BuildAdcTable(query, table.data());

  // ADC distance should correlate strongly with true distance: check that
  // the ADC-nearest of two far-apart points is the truly nearer one.
  double rank_agree = 0, trials = 0;
  for (size_t i = 100; i < 200; ++i) {
    for (size_t j = 500; j < 520; ++j) {
      float true_i = L2Sqr(query, data.data() + i * kDim, kDim);
      float true_j = L2Sqr(query, data.data() + j * kDim, kDim);
      if (std::abs(true_i - true_j) < 1.0f) continue;  // too close to call
      pq.Encode(data.data() + i * kDim, code.data());
      float adc_i = pq.AdcDistance(table.data(), code.data());
      pq.Encode(data.data() + j * kDim, code.data());
      float adc_j = pq.AdcDistance(table.data(), code.data());
      rank_agree += ((adc_i < adc_j) == (true_i < true_j)) ? 1 : 0;
      trials += 1;
    }
  }
  ASSERT_GT(trials, 100);
  EXPECT_GT(rank_agree / trials, 0.9);
}

TEST(ProductQuantizerTest, DimNotDivisibleRejected) {
  ProductQuantizer pq;
  std::vector<float> data(10 * 30);
  EXPECT_FALSE(pq.Train(data.data(), 10, 30, 8, 8).ok());
}

TEST(ProductQuantizerTest, FourBitCodebookSize) {
  auto data = MakeClusteredVectors(500, kDim, 4, 17);
  ProductQuantizer pq;
  ASSERT_TRUE(pq.Train(data.data(), 500, kDim, 8, 4).ok());
  EXPECT_EQ(pq.ks(), 16u);
}

// ---------------------------------------------------------------------------
// Index correctness, shared across all index types (TEST_P sweep)
// ---------------------------------------------------------------------------

VectorIndexPtr MakeIndex(const std::string& type, size_t dim) {
  IndexSpec spec;
  // "TYPE:precision" selects reduced-precision storage (DESIGN.md §13),
  // e.g. "FLAT:int8" — exercises the same factory path as the PRECISION
  // index param in SQL.
  std::string name = type;
  if (auto colon = name.find(':'); colon != std::string::npos) {
    spec.params["PRECISION"] = name.substr(colon + 1);
    name.resize(colon);
  }
  spec.type = name;
  spec.dim = dim;
  spec.params["NLIST"] = "16";
  spec.params["PQ_M"] = "8";
  spec.params["SIMULATE_DISK"] = "0";  // unit tests skip SSD sleeps
  auto created = IndexFactory::Global().Create(spec);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(*created);
}

class IndexParamTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    data_ = MakeClusteredVectors(kN, kDim, 10, 21);
    ids_ = SequentialIds(kN);
    index_ = MakeIndex(GetParam(), kDim);
    ASSERT_NE(index_, nullptr);
    if (index_->NeedsTraining()) {
      ASSERT_TRUE(index_->Train(data_.data(), kN).ok());
    }
    ASSERT_TRUE(index_->AddWithIds(data_.data(), ids_.data(), kN).ok());
  }

  SearchParams DefaultParams() const {
    SearchParams p;
    p.k = 10;
    p.ef_search = 128;
    p.nprobe = 8;
    return p;
  }

  std::vector<float> data_;
  std::vector<IdType> ids_;
  VectorIndexPtr index_;
};

TEST_P(IndexParamTest, SizeAndDim) {
  EXPECT_EQ(index_->Size(), kN);
  EXPECT_EQ(index_->Dim(), kDim);
  EXPECT_GT(index_->MemoryUsage(), 0u);
}

TEST_P(IndexParamTest, TopKRecallAboveThreshold) {
  double total_recall = 0;
  const int kQueries = 20;
  for (int q = 0; q < kQueries; ++q) {
    const float* query = data_.data() + (q * 97 % kN) * kDim;
    auto truth = BruteForceTopK(data_, kDim, query, 10);
    auto found = index_->SearchWithFilter(query, DefaultParams());
    ASSERT_TRUE(found.ok());
    total_recall += Recall(*found, truth);
  }
  // Quantized indexes trade recall; all should stay well above chance.
  double threshold = GetParam() == "IVFPQFS" ? 0.6 : 0.8;
  EXPECT_GT(total_recall / kQueries, threshold) << GetParam();
}

TEST_P(IndexParamTest, ResultsSortedByDistance) {
  auto found = index_->SearchWithFilter(data_.data(), DefaultParams());
  ASSERT_TRUE(found.ok());
  for (size_t i = 1; i < found->size(); ++i)
    EXPECT_LE((*found)[i - 1].distance, (*found)[i].distance);
}

TEST_P(IndexParamTest, SelfQueryFindsSelf) {
  if (GetParam() == "IVFPQFS" || GetParam() == "IVFPQ") return;  // approx codes
  // DISKANN re-ranks expanded nodes exactly, so self-query works too.
  const float* query = data_.data() + 123 * kDim;
  auto found = index_->SearchWithFilter(query, DefaultParams());
  ASSERT_TRUE(found.ok());
  ASSERT_FALSE(found->empty());
  EXPECT_EQ(found->front().id, 123);
}

TEST_P(IndexParamTest, FilterIsRespected) {
  common::Bitset allowed(kN);
  for (size_t i = 0; i < kN; i += 7) allowed.Set(i);  // ~14% selectivity
  SearchParams p = DefaultParams();
  p.filter = &allowed;
  auto found = index_->SearchWithFilter(data_.data(), p);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found->empty());
  for (const auto& n : *found)
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(n.id))) << n.id;
}

TEST_P(IndexParamTest, EmptyFilterYieldsNothing) {
  common::Bitset none(kN);
  SearchParams p = DefaultParams();
  p.filter = &none;
  auto found = index_->SearchWithFilter(data_.data(), p);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->empty());
}

TEST_P(IndexParamTest, InvalidKRejected) {
  SearchParams p = DefaultParams();
  p.k = 0;
  auto found = index_->SearchWithFilter(data_.data(), p);
  EXPECT_FALSE(found.ok());
}

TEST_P(IndexParamTest, SaveLoadPreservesResults) {
  std::string bytes;
  ASSERT_TRUE(index_->Save(&bytes).ok());
  IndexSpec spec;
  spec.dim = kDim;
  auto loaded = IndexFactory::Global().CreateFromSaved(spec, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Size(), index_->Size());
  EXPECT_EQ((*loaded)->Type(), index_->Type());

  const float* query = data_.data() + 55 * kDim;
  auto before = index_->SearchWithFilter(query, DefaultParams());
  auto after = (*loaded)->SearchWithFilter(query, DefaultParams());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i)
    EXPECT_EQ((*before)[i].id, (*after)[i].id);
}

TEST_P(IndexParamTest, CorruptLoadFailsCleanly) {
  std::string bytes;
  ASSERT_TRUE(index_->Save(&bytes).ok());
  bytes.resize(bytes.size() / 2);
  auto fresh = MakeIndex(GetParam(), kDim);
  EXPECT_FALSE(fresh->Load(bytes).ok());
}

TEST_P(IndexParamTest, IteratorYieldsIncreasingDistancesNoDuplicates) {
  auto iter_result = index_->MakeIterator(data_.data(), DefaultParams());
  ASSERT_TRUE(iter_result.ok());
  auto iter = std::move(*iter_result);
  std::unordered_set<IdType> seen;
  size_t total = 0;
  for (int round = 0; round < 5; ++round) {
    auto batch = iter->Next(20);
    if (batch.empty()) break;
    for (const auto& n : batch) {
      EXPECT_TRUE(seen.insert(n.id).second) << "duplicate id " << n.id;
    }
    total += batch.size();
  }
  EXPECT_GT(total, 0u);
}

TEST_P(IndexParamTest, IteratorEarlyBatchesAreNear) {
  // The first iterator batch should contain most of the true top-10.
  const float* query = data_.data() + 321 * kDim;
  auto truth = BruteForceTopK(data_, kDim, query, 10);
  auto iter_result = index_->MakeIterator(query, DefaultParams());
  ASSERT_TRUE(iter_result.ok());
  auto batch = (*iter_result)->Next(30);
  double r = Recall(batch, truth);
  EXPECT_GT(r, GetParam() == "IVFPQFS" ? 0.4 : 0.6);
}

TEST_P(IndexParamTest, RangeSearchHonorsRadius) {
  const float* query = data_.data() + 11 * kDim;
  auto top = index_->SearchWithFilter(query, DefaultParams());
  ASSERT_TRUE(top.ok());
  ASSERT_GE(top->size(), 5u);
  float radius = (*top)[4].distance;  // radius covering ~5 results
  auto in_range = index_->SearchWithRange(query, radius, DefaultParams());
  ASSERT_TRUE(in_range.ok());
  for (const auto& n : *in_range) EXPECT_LE(n.distance, radius);
  EXPECT_GE(in_range->size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllIndexTypes, IndexParamTest,
                         ::testing::Values("FLAT", "HNSW", "HNSWSQ", "IVFFLAT",
                                           "IVFPQ", "IVFPQFS", "DISKANN",
                                           "FLAT:fp16", "FLAT:int8",
                                           "HNSW:fp16",
                                           "HNSW:int8", "IVFFLAT:fp16",
                                           "IVFFLAT:int8"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == ':') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Index-specific behaviours
// ---------------------------------------------------------------------------

TEST(FlatIndexTest, ExactlyMatchesBruteForce) {
  auto data = MakeClusteredVectors(500, 16, 4, 31);
  FlatIndex index(16, Metric::kL2);
  auto ids = SequentialIds(500);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 500).ok());
  SearchParams p;
  p.k = 20;
  for (int q = 0; q < 5; ++q) {
    const float* query = data.data() + q * 31 * 16;
    auto truth = BruteForceTopK(data, 16, query, 20);
    auto found = index.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    EXPECT_DOUBLE_EQ(Recall(*found, truth), 1.0);
  }
}

// Reference for the filter-aware scan paths: exact top-k over only the
// allowed rows.
std::vector<IdType> BruteForceTopKFiltered(const std::vector<float>& data,
                                           size_t dim, const float* query,
                                           size_t k,
                                           const common::Bitset& allowed,
                                           Metric metric = Metric::kL2) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < data.size() / dim; ++i) {
    if (!allowed.Test(i)) continue;
    all.push_back({static_cast<IdType>(i),
                   Distance(metric, query, data.data() + i * dim, dim)});
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  std::vector<IdType> ids(k);
  for (size_t i = 0; i < k; ++i) ids[i] = all[i].id;
  return ids;
}

// Mixes a long contiguous run with scattered survivors so the compacted
// scan exercises both the in-place and the gather tile paths.
common::Bitset MixedFilter(size_t n) {
  common::Bitset allowed(n);
  for (size_t i = 300; i < 812 && i < n; ++i) allowed.Set(i);
  for (size_t i = 0; i < n; i += 7) allowed.Set(i);
  return allowed;
}

TEST(FlatIndexTest, FilteredScanExactOverSubset) {
  const size_t n = 1200, dim = 16;
  auto data = MakeClusteredVectors(n, dim, 6, 33);
  for (Metric metric : {Metric::kL2, Metric::kCosine}) {
    FlatIndex index(dim, metric);
    auto ids = SequentialIds(n);
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    common::Bitset allowed = MixedFilter(n);
    SearchParams p;
    p.k = 25;
    p.filter = &allowed;
    for (int q = 0; q < 5; ++q) {
      const float* query = data.data() + (q * 211 % n) * dim;
      auto truth =
          BruteForceTopKFiltered(data, dim, query, 25, allowed, metric);
      auto found = index.SearchWithFilter(query, p);
      ASSERT_TRUE(found.ok());
      EXPECT_DOUBLE_EQ(Recall(*found, truth), 1.0)
          << "metric=" << static_cast<int>(metric) << " q=" << q;
    }
  }
}

TEST(FlatIndexTest, FilteredScanWithRemappedIds) {
  // Non-identity ids: filter bits address ids, so the compacted offset scan
  // must not engage and results must still honor the filter.
  const size_t n = 400, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 17);
  FlatIndex index(dim, Metric::kL2);
  std::vector<IdType> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<IdType>(1000 + i);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed(1000 + n);
  for (size_t i = 0; i < n; i += 3) allowed.Set(1000 + i);
  SearchParams p;
  p.k = 15;
  p.filter = &allowed;
  auto found = index.SearchWithFilter(data.data(), p);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 15u);
  for (const auto& nb : *found)
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(nb.id))) << nb.id;
}

TEST(FlatIndexTest, FilteredRangeSearch) {
  const size_t n = 600, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 29);
  FlatIndex index(dim, Metric::kL2);
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed = MixedFilter(n);
  const float* query = data.data() + 123 * dim;
  const float radius = 1.5f;
  SearchParams p;
  p.filter = &allowed;
  auto found = index.SearchWithRange(query, radius, p);
  ASSERT_TRUE(found.ok());
  std::vector<IdType> expect;
  for (size_t i = 0; i < n; ++i) {
    if (!allowed.Test(i)) continue;
    if (Distance(Metric::kL2, query, data.data() + i * dim, dim) <= radius)
      expect.push_back(static_cast<IdType>(i));
  }
  ASSERT_EQ(found->size(), expect.size());
  for (const auto& nb : *found) {
    EXPECT_LE(nb.distance, radius);
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(nb.id)));
  }
}

TEST(IvfIndexTest, FilteredFullProbeExactOverSubset) {
  // With nprobe == nlist, IVF-FLAT degenerates to an exact scan, so the
  // filtered posting-list compaction must reproduce brute force exactly.
  const size_t n = 1000, dim = 16;
  auto data = MakeClusteredVectors(n, dim, 8, 57);
  IvfOptions opts;
  opts.nlist = 8;
  IvfFlatIndex index(dim, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), n).ok());
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed = MixedFilter(n);
  SearchParams p;
  p.k = 20;
  p.nprobe = 8;
  p.filter = &allowed;
  for (int q = 0; q < 5; ++q) {
    const float* query = data.data() + (q * 171 % n) * dim;
    auto truth = BruteForceTopKFiltered(data, dim, query, 20, allowed);
    auto found = index.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    EXPECT_DOUBLE_EQ(Recall(*found, truth), 1.0) << q;
  }
}

TEST(HnswIndexTest, SparseFilterWidensSearch) {
  // ~1% selectivity: the density-aware ef widening must still surface
  // allowed neighbors instead of exhausting ef on filtered-out nodes.
  const size_t n = 3000;
  auto data = MakeClusteredVectors(n, kDim, 16, 71, 0.3f);
  HnswIndex index(kDim, Metric::kL2);
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  common::Bitset allowed(n);
  for (size_t i = 0; i < n; i += 100) allowed.Set(i);  // 30 rows
  SearchParams p;
  p.k = 10;
  p.ef_search = 50;
  p.filter = &allowed;
  size_t total_found = 0;
  for (int q = 0; q < 10; ++q) {
    const float* query = data.data() + (q * 313 % n) * kDim;
    auto found = index.SearchWithFilter(query, p);
    ASSERT_TRUE(found.ok());
    for (const auto& nb : *found)
      ASSERT_TRUE(allowed.Test(static_cast<size_t>(nb.id))) << nb.id;
    total_found += found->size();
  }
  // Unwidened ef=50 over a 1%-dense filter would strand most queries with
  // nearly nothing; widened search should average several hits per query.
  EXPECT_GE(total_found, 30u);
}

TEST(HnswIndexTest, NativeIteratorFlagged) {
  HnswIndex index(8, Metric::kL2);
  EXPECT_TRUE(index.HasNativeIterator());
  // Every index family now carries a native resumable iterator; FLAT's
  // caches the full score array on first Next().
  FlatIndex flat(8, Metric::kL2);
  EXPECT_TRUE(flat.HasNativeIterator());
}

TEST(HnswIndexTest, HighEfImprovesRecall) {
  auto data = MakeClusteredVectors(3000, kDim, 16, 41, 0.3f);
  HnswOptions opts;
  opts.M = 8;
  opts.ef_construction = 60;
  HnswIndex index(kDim, Metric::kL2, opts);
  auto ids = SequentialIds(3000);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 3000).ok());

  double recall_low = 0, recall_high = 0;
  for (int q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 131 % 3000) * kDim;
    auto truth = BruteForceTopK(data, kDim, query, 10);
    SearchParams lo;
    lo.k = 10;
    lo.ef_search = 10;
    SearchParams hi;
    hi.k = 10;
    hi.ef_search = 400;
    auto rl = index.SearchWithFilter(query, lo);
    auto rh = index.SearchWithFilter(query, hi);
    ASSERT_TRUE(rl.ok() && rh.ok());
    recall_low += Recall(*rl, truth);
    recall_high += Recall(*rh, truth);
  }
  EXPECT_GE(recall_high, recall_low);
  EXPECT_GT(recall_high / 20, 0.95);
}

TEST(HnswIndexTest, IteratorReachesDeepResults) {
  // Iterate far past k and confirm coverage keeps growing (the property the
  // post-filter strategy depends on).
  auto data = MakeClusteredVectors(1000, 16, 8, 51);
  HnswIndex index(16, Metric::kL2);
  auto ids = SequentialIds(1000);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 1000).ok());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  size_t total = 0;
  while (true) {
    auto batch = iter->Next(100);
    if (batch.empty()) break;
    total += batch.size();
    if (total >= 900) break;
  }
  EXPECT_GE(total, 900u);  // HNSW graphs are connected: nearly all reachable
}

/// Where the next section starts after a write that ended at `end`.
size_t SectionAfter(size_t end) {
  const size_t a = common::kSectionAlignment;
  return (end + a - 1) / a * a;
}

/// Byte offsets in a saved fp32 HNSW blob, found by walking its header and
/// the section padding the way HnswIndex::Load does.
struct HnswBlobLayout {
  size_t format_at, sq_flag_at, entry_at, upper_words_at;
  size_t vectors_at, level0_at, upper_at;  // sections 3 to 5
  uint64_t n, upper_words;
};

HnswBlobLayout WalkHnswBlob(const std::string& blob, size_t dim, size_t m) {
  auto read_u64 = [&](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, blob.data() + at, sizeof v);
    return v;
  };
  HnswBlobLayout l{};
  l.format_at = 8 + read_u64(0);  // type string: length, then bytes
  // Format tag, dim, metric, M, ef_construction.
  l.sq_flag_at = l.format_at + 4 + 8 + 4 + 8 + 8;
  l.entry_at = l.sq_flag_at + 1 + 1;  // SQ flag, precision tag
  const size_t n_at = l.entry_at + 4 + 4;  // entry point, max level
  l.n = read_u64(n_at);
  l.upper_words_at = n_at + 8;
  l.upper_words = read_u64(l.upper_words_at);
  const size_t ids_at = SectionAfter(l.upper_words_at + 8);
  const size_t levels_at = SectionAfter(ids_at + sizeof(IdType) * l.n);
  l.vectors_at = SectionAfter(levels_at + l.n);
  l.level0_at = SectionAfter(l.vectors_at + sizeof(float) * l.n * dim);
  l.upper_at =
      SectionAfter(l.level0_at + sizeof(uint32_t) * l.n * (2 * m + 1));
  return l;
}

TEST(HnswIndexTest, LoadRejectsInconsistentGraph) {
  // Each case patches a saved index so that it names a node or a row that
  // does not exist, or breaks the layout. Load must refuse it with
  // Corruption, not leave the first search to read out of bounds.
  const size_t n = 200, dim = 16;
  auto data = MakeClusteredVectors(n, dim, 4, 91);
  auto ids = SequentialIds(n);
  HnswOptions opts;
  opts.M = 8;
  opts.ef_construction = 60;
  HnswIndex index(dim, Metric::kL2, opts);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  std::string good;
  ASSERT_TRUE(index.Save(&good).ok());
  auto load = [&](const std::string& bytes) {
    HnswIndex fresh(dim, Metric::kL2, opts);
    return fresh.Load(bytes);
  };
  ASSERT_TRUE(load(good).ok());

  const HnswBlobLayout l = WalkHnswBlob(good, dim, opts.M);
  ASSERT_EQ(l.n, n);
  ASSERT_GT(l.upper_words, 0u);
  ASSERT_EQ(l.upper_at + sizeof(uint32_t) * l.upper_words, good.size());
  auto read_u32 = [&](size_t at) {
    uint32_t v = 0;
    std::memcpy(&v, good.data() + at, sizeof v);
    return v;
  };
  ASSERT_GT(read_u32(l.level0_at), 0u);  // node 0 has level-0 links
  auto patched = [&](size_t at, auto v) {
    std::string bytes = good;
    std::memcpy(bytes.data() + at, &v, sizeof v);
    return bytes;
  };
  auto expect_corruption = [&](const char* what, const std::string& bytes) {
    common::Status status = load(bytes);
    EXPECT_EQ(status.code(), common::Status::Code::kCorruption)
        << what << ": " << status.ToString();
  };

  expect_corruption("dangling level-0 link",
                    patched(l.level0_at + 4, uint32_t{1000000}));
  expect_corruption("entry point past n",
                    patched(l.entry_at, uint32_t{1000000}));

  // One row short: the vector section holds n - 1 rows and the sections
  // after it are laid out again from there.
  std::string short_rows =
      good.substr(0, l.vectors_at + sizeof(float) * (n - 1) * dim);
  short_rows.resize(SectionAfter(short_rows.size()), '\0');
  short_rows += good.substr(l.level0_at);
  expect_corruption("one row short", short_rows);

  expect_corruption("wrong format tag", patched(l.format_at, uint32_t{1}));
  expect_corruption("level-0 count above 2M",
                    patched(l.level0_at, uint32_t(2 * opts.M + 1)));
  expect_corruption("upper words disagree with levels",
                    patched(l.upper_words_at, l.upper_words - 1));
  expect_corruption("truncated last section",
                    good.substr(0, good.size() - sizeof(uint32_t)));

  // Bytes at an odd address load through the copy path, and the loaded
  // index answers as the built one does.
  auto odd = std::make_shared<common::AlignedBytes>(good.size() + 1);
  std::memcpy(odd->data() + 1, good.data(), good.size());
  HnswIndex from_odd(dim, Metric::kL2, opts);
  ASSERT_TRUE(
      from_odd.Load(std::string_view(odd->data() + 1, good.size()), odd).ok());
  EXPECT_EQ(odd.use_count(), 1);  // copied, so the index holds no reference
  SearchParams p;
  p.k = 10;
  p.ef_search = 64;
  for (size_t q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 37 % n) * dim;
    auto want = index.SearchWithFilter(query, p);
    auto got = from_odd.SearchWithFilter(query, p);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->size(), got->size()) << q;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].id, (*got)[i].id) << q;
      EXPECT_EQ((*want)[i].distance, (*got)[i].distance) << q;
    }
  }
}

TEST(HnswIndexTest, LoadedIndexIsReadOnly) {
  // A loaded index views its owner's bytes: it refuses rows, and nothing it
  // does writes to them.
  const size_t n = 300, dim = 16;
  auto data = MakeClusteredVectors(n, dim, 4, 99);
  auto ids = SequentialIds(n);
  for (const char* type : {"HNSW", "HNSW:int8"}) {
    SCOPED_TRACE(type);
    VectorIndexPtr built = MakeIndex(type, dim);
    ASSERT_TRUE(built->AddWithIds(data.data(), ids.data(), n).ok());
    std::string saved;
    ASSERT_TRUE(built->Save(&saved).ok());
    auto owner = std::make_shared<const common::AlignedBytes>(saved.begin(),
                                                              saved.end());
    VectorIndexPtr loaded = MakeIndex(type, dim);
    ASSERT_TRUE(
        loaded->Load(std::string_view(owner->data(), owner->size()), owner)
            .ok());
    EXPECT_GT(owner.use_count(), 1);  // adopted, not copied

    SearchParams p;
    p.k = 10;
    for (size_t q = 0; q < 10; ++q) {
      const float* query = data.data() + (q * 29 % n) * dim;
      ASSERT_TRUE(loaded->SearchWithFilter(query, p).ok());
      auto iter = loaded->MakeIterator(query, p);
      ASSERT_TRUE(iter.ok());
      for (int batch = 0; batch < 3; ++batch) (void)(*iter)->Next(20);
    }
    common::Status add = loaded->AddWithIds(data.data(), ids.data(), 1);
    EXPECT_EQ(add.code(), common::Status::Code::kFailedPrecondition)
        << add.ToString();
    EXPECT_EQ(loaded->Size(), n);
    EXPECT_TRUE(std::string_view(owner->data(), owner->size()) == saved);
  }
}

TEST(HnswIndexTest, SaveLoadSaveIsByteIdentical) {
  // Load rebuilds the link records from the saved lists: saving the loaded
  // index must give the same bytes, and searching it the same results.
  const size_t n = 1500;
  auto data = MakeClusteredVectors(n, kDim, 10, 93);
  auto ids = SequentialIds(n);
  common::Bitset allowed(n);
  for (size_t i = 0; i < n; i += 3) allowed.Set(i);
  for (const char* type : {"HNSW", "HNSWSQ", "HNSW:int8"}) {
    SCOPED_TRACE(type);
    VectorIndexPtr built = MakeIndex(type, kDim);
    ASSERT_TRUE(built->AddWithIds(data.data(), ids.data(), n).ok());
    std::string saved;
    ASSERT_TRUE(built->Save(&saved).ok());
    VectorIndexPtr loaded = MakeIndex(type, kDim);
    ASSERT_TRUE(loaded->Load(saved).ok());
    std::string resaved;
    ASSERT_TRUE(loaded->Save(&resaved).ok());
    EXPECT_TRUE(saved == resaved) << saved.size() << " vs " << resaved.size();

    SearchParams p;
    p.k = 10;
    p.ef_search = 64;
    for (const common::Bitset* filter : {static_cast<common::Bitset*>(nullptr),
                                         &allowed}) {
      p.filter = filter;
      for (size_t q = 0; q < 20; ++q) {
        const float* query = data.data() + (q * 73 % n) * kDim;
        auto want = built->SearchWithFilter(query, p);
        auto got = loaded->SearchWithFilter(query, p);
        ASSERT_TRUE(want.ok() && got.ok());
        ASSERT_EQ(want->size(), got->size()) << q;
        for (size_t i = 0; i < want->size(); ++i) {
          EXPECT_EQ((*want)[i].id, (*got)[i].id) << q;
          EXPECT_EQ((*want)[i].distance, (*got)[i].distance) << q;
        }
      }
    }
  }
}

TEST(HnswIndexTest, BuiltMemoryMatchesLoaded) {
  // A built index holds no growth slack its loaded copy lacks: the batch's
  // codes are reserved up front, like the fp32 rows.
  const size_t n = 1000;
  auto data = MakeClusteredVectors(n, kDim, 10, 95);
  auto ids = SequentialIds(n);
  for (const char* type : {"HNSW", "HNSW:fp16", "HNSW:int8"}) {
    SCOPED_TRACE(type);
    VectorIndexPtr built = MakeIndex(type, kDim);
    ASSERT_TRUE(built->AddWithIds(data.data(), ids.data(), n).ok());
    std::string saved;
    ASSERT_TRUE(built->Save(&saved).ok());
    IndexSpec spec;
    spec.type = "HNSW";
    spec.dim = kDim;
    auto loaded = IndexFactory::Global().CreateFromSaved(spec, saved);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(built->MemoryUsage(), (*loaded)->MemoryUsage());
  }
}

TEST(HnswIndexTest, RetiredSqFlagIsCorruption) {
  // The retired HNSWSQ storage form as it was saved: type "HNSWSQ", SQ flag
  // 1, per-dimension SQ8 ranges and uint8 codes. One node without links.
  const size_t dim = 4;
  std::string blob;
  common::BinaryWriter w(&blob);
  w.WriteString("HNSWSQ");
  w.Write<uint64_t>(dim);
  w.Write<uint32_t>(static_cast<uint32_t>(Metric::kL2));
  w.Write<uint64_t>(16);   // M
  w.Write<uint64_t>(200);  // ef_construction
  w.Write<uint8_t>(1);     // SQ flag
  w.Write<uint8_t>(static_cast<uint8_t>(Precision::kFp32));
  w.Write<uint32_t>(0);  // entry point
  w.Write<int32_t>(0);   // max level
  w.WriteVector(std::vector<IdType>{0});
  w.WriteVector(std::vector<uint8_t>{0});  // levels
  w.Write<uint64_t>(dim);                  // SQ8 ranges: dim, min, step
  w.WriteVector(std::vector<float>(dim, 0.0f));
  w.WriteVector(std::vector<float>(dim, 1.0f / 255.0f));
  w.WriteVector(std::vector<uint8_t>(dim, 128));  // codes
  w.Write<uint64_t>(1);                           // node count
  w.Write<uint32_t>(1);                           // node 0: one level
  w.Write<uint64_t>(0);                           // no links
  IndexSpec spec;
  spec.type = "HNSW";
  spec.dim = dim;
  auto reopened = IndexFactory::Global().CreateFromSaved(spec, blob);
  EXPECT_EQ(reopened.status().code(), common::Status::Code::kCorruption)
      << reopened.status().ToString();

  // A current HNSW blob with the flag byte set is refused as well.
  auto data = MakeClusteredVectors(10, dim, 2, 97);
  auto ids = SequentialIds(10);
  HnswIndex index(dim, Metric::kL2);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 10).ok());
  std::string saved;
  ASSERT_TRUE(index.Save(&saved).ok());
  const size_t sq_flag_at =
      WalkHnswBlob(saved, dim, index.options().M).sq_flag_at;
  ASSERT_EQ(saved[sq_flag_at], 0);
  saved[sq_flag_at] = 1;
  HnswIndex fresh(dim, Metric::kL2);
  EXPECT_EQ(fresh.Load(saved).code(), common::Status::Code::kCorruption);
}

TEST(HnswIndexTest, IteratorDrainVisitsEachNodeOnce) {
  // Sizes straddle the visited bitmap's 64-bit word edges. A drained
  // iterator yields every node it visited, so the two counts must agree.
  for (size_t n : {1, 63, 64, 65, 1000}) {
    SCOPED_TRACE(n);
    auto data = MakeClusteredVectors(n, 16, 4, 97);
    auto ids = SequentialIds(n);
    HnswOptions opts;
    opts.M = 8;
    opts.ef_construction = 60;
    HnswIndex index(16, Metric::kL2, opts);
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    SearchParams p;
    p.k = 10;
    auto iter = std::move(*index.MakeIterator(data.data() + n / 2 * 16, p));
    std::set<IdType> seen;
    size_t yielded = 0;
    for (auto batch = iter->Next(50); !batch.empty(); batch = iter->Next(50)) {
      for (const Neighbor& nb : batch)
        EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate id " << nb.id;
      yielded += batch.size();
    }
    EXPECT_GE(yielded, 1u);
    EXPECT_LE(yielded, n);
    EXPECT_EQ(iter->GetStats().rows_visited, yielded);
    EXPECT_EQ(iter->VisitedCount(), yielded);
  }
}

TEST(IvfIndexTest, MoreProbesImproveRecall) {
  auto data = MakeClusteredVectors(2000, kDim, 16, 61);
  IvfOptions opts;
  opts.nlist = 32;
  IvfFlatIndex index(kDim, Metric::kL2, opts);
  auto ids = SequentialIds(2000);
  ASSERT_TRUE(index.Train(data.data(), 2000).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 2000).ok());

  double recall1 = 0, recall_all = 0;
  for (int q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 101 % 2000) * kDim;
    auto truth = BruteForceTopK(data, kDim, query, 10);
    SearchParams p1;
    p1.k = 10;
    p1.nprobe = 1;
    SearchParams pall;
    pall.k = 10;
    pall.nprobe = 32;
    recall1 += Recall(*index.SearchWithFilter(query, p1), truth);
    recall_all += Recall(*index.SearchWithFilter(query, pall), truth);
  }
  EXPECT_GE(recall_all, recall1);
  EXPECT_NEAR(recall_all / 20, 1.0, 1e-9);  // probing all lists is exact
}

TEST(IvfIndexTest, UntrainedSearchFails) {
  IvfFlatIndex index(8, Metric::kL2);
  SearchParams p;
  float q[8] = {};
  EXPECT_FALSE(index.SearchWithFilter(q, p).ok());
}

TEST(IvfIndexTest, AddAutoTrains) {
  auto data = MakeClusteredVectors(500, 8, 4, 71);
  IvfFlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(500);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 500).ok());
  EXPECT_TRUE(index.trained());
  EXPECT_EQ(index.Size(), 500u);
}

TEST(IvfPqTest, RefineImprovesOverPureAdc) {
  auto data = MakeClusteredVectors(2000, kDim, 8, 81);
  auto ids = SequentialIds(2000);
  IvfOptions ivf;
  ivf.nlist = 16;

  IvfPqOptions with_refine;
  with_refine.keep_raw_for_refine = true;
  IvfPqIndex refined(kDim, Metric::kL2, ivf, with_refine);
  ASSERT_TRUE(refined.Train(data.data(), 2000).ok());
  ASSERT_TRUE(refined.AddWithIds(data.data(), ids.data(), 2000).ok());

  IvfPqOptions no_refine;
  no_refine.keep_raw_for_refine = false;
  IvfPqIndex unrefined(kDim, Metric::kL2, ivf, no_refine);
  ASSERT_TRUE(unrefined.Train(data.data(), 2000).ok());
  ASSERT_TRUE(unrefined.AddWithIds(data.data(), ids.data(), 2000).ok());

  double r_refined = 0, r_unrefined = 0;
  SearchParams p;
  p.k = 10;
  p.nprobe = 8;
  p.refine_factor = 4;
  for (int q = 0; q < 20; ++q) {
    const float* query = data.data() + (q * 91 % 2000) * kDim;
    auto truth = BruteForceTopK(data, kDim, query, 10);
    r_refined += Recall(*refined.SearchWithFilter(query, p), truth);
    r_unrefined += Recall(*unrefined.SearchWithFilter(query, p), truth);
  }
  EXPECT_GE(r_refined, r_unrefined);
}

// ---------------------------------------------------------------------------
// Factory & auto-index
// ---------------------------------------------------------------------------

TEST(IndexFactoryTest, AllBuiltinsRegistered) {
  auto& factory = IndexFactory::Global();
  for (const char* type : {"FLAT", "HNSW", "HNSWSQ", "IVFFLAT", "IVFPQ",
                           "IVFPQFS", "DISKANN"})
    EXPECT_TRUE(factory.Has(type)) << type;
}

TEST(IndexFactoryTest, UnknownTypeIsNotFound) {
  IndexSpec spec;
  spec.type = "DISKANN_V9";
  spec.dim = 8;
  auto r = IndexFactory::Global().Create(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(IndexFactoryTest, PluggableRegistration) {
  // The extensibility contribution: a new library plugs in via Register.
  auto& factory = IndexFactory::Global();
  factory.Register("MYLIB_FLAT", [](const IndexSpec& spec) {
    return common::Result<VectorIndexPtr>(
        VectorIndexPtr(new FlatIndex(spec.dim, spec.metric)));
  });
  IndexSpec spec;
  spec.type = "MYLIB_FLAT";
  spec.dim = 8;
  auto r = factory.Create(spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->Dim(), 8u);
}

TEST(IndexFactoryTest, ZeroDimRejected) {
  IndexSpec spec;
  spec.type = "FLAT";
  auto r = IndexFactory::Global().Create(spec);
  EXPECT_FALSE(r.ok());
}

TEST(IndexFactoryTest, HnswMOutOfRangeRejected) {
  // M sizes every node's link records, so the factory bounds it.
  for (const char* m : {"0", "-1", "4097"}) {
    for (const char* type : {"HNSW", "HNSWSQ"}) {
      IndexSpec spec;
      spec.type = type;
      spec.dim = 8;
      spec.params["M"] = m;
      auto r = IndexFactory::Global().Create(spec);
      EXPECT_TRUE(r.status().IsInvalidArgument()) << type << " M=" << m;
    }
  }
  IndexSpec spec;
  spec.type = "HNSW";
  spec.dim = 8;
  spec.params["M"] = "4096";
  EXPECT_TRUE(IndexFactory::Global().Create(spec).ok());
}

TEST(IndexFactoryTest, HnswsqIsHnswOverInt8) {
  // HNSWSQ is an alias: HNSW over the int8 PrecisionStore, saved as HNSW.
  const size_t n = 500;
  auto data = MakeClusteredVectors(n, kDim, 6, 99);
  auto ids = SequentialIds(n);
  std::string saved[2];
  const char* types[2] = {"HNSWSQ", "HNSW:INT8"};
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(types[i]);
    VectorIndexPtr index = MakeIndex(types[i], kDim);
    EXPECT_EQ(index->Type(), "HNSW");
    EXPECT_EQ(index->StoragePrecision(), Precision::kInt8);
    ASSERT_TRUE(index->AddWithIds(data.data(), ids.data(), n).ok());
    ASSERT_TRUE(index->Save(&saved[i]).ok());
  }
  EXPECT_TRUE(saved[0] == saved[1]);
  IndexSpec spec;
  spec.type = "HNSWSQ";
  spec.dim = kDim;
  auto reopened = IndexFactory::Global().CreateFromSaved(spec, saved[0]);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->StoragePrecision(), Precision::kInt8);

  for (const char* precision : {"FP16", "FP32"}) {
    spec.params["PRECISION"] = precision;
    auto r = IndexFactory::Global().Create(spec);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << precision;
  }
  spec.params["PRECISION"] = "INT8";
  EXPECT_TRUE(IndexFactory::Global().Create(spec).ok());
}

TEST(IndexFactoryTest, RetiredPrecisionNameRejected) {
  // The retired 16-bit brain-float format no longer parses; its long name
  // stands in for both spellings, which retired together.
  Precision p = Precision::kFp32;
  EXPECT_FALSE(ParsePrecision("bfloat16", &p));
  for (const char* type : {"FLAT", "HNSW", "IVFFLAT"}) {
    IndexSpec spec;
    spec.type = type;
    spec.dim = 8;
    spec.params["PRECISION"] = "BFLOAT16";
    auto r = IndexFactory::Global().Create(spec);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << type;
  }
}

TEST(IndexFactoryTest, RetiredPrecisionTagIsCorruption) {
  // Saved precision tag 2 named a retired 16-bit format. Each blob below is
  // a valid fp16 blob with every tag patched to 2, so the tag is its only
  // fault.
  const size_t n = 100, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 101);
  auto ids = SequentialIds(n);
  const auto kCorruption = common::Status::Code::kCorruption;
  auto patch = [](std::string* bytes, std::initializer_list<size_t> at) {
    for (size_t i : at) {
      ASSERT_EQ((*bytes)[i], static_cast<char>(Precision::kFp16)) << i;
      (*bytes)[i] = 2;
    }
  };

  // PrecisionStore: the tag is the first byte.
  PrecisionStore store;
  store.Configure(Precision::kFp16, dim, Metric::kL2);
  store.Append(data.data(), n);
  std::string store_bytes;
  common::BinaryWriter sw(&store_bytes);
  store.Serialize(&sw);
  patch(&store_bytes, {0});
  PrecisionStore loaded_store;
  common::BinaryReader sr(store_bytes);
  EXPECT_EQ(loaded_store.Deserialize(&sr).code(), kCorruption);

  // FLAT: type string "FLAT", dim, metric, the index tag, then the store.
  FlatIndex flat(dim, Metric::kL2, Precision::kFp16);
  ASSERT_TRUE(flat.AddWithIds(data.data(), ids.data(), n).ok());
  std::string flat_bytes;
  ASSERT_TRUE(flat.Save(&flat_bytes).ok());
  const size_t flat_tag_at = 8 + 4 + 8 + 4;
  patch(&flat_bytes, {flat_tag_at, flat_tag_at + 1});
  FlatIndex flat_loaded(dim, Metric::kL2);
  EXPECT_EQ(flat_loaded.Load(flat_bytes).code(), kCorruption);

  // IVF-flat with one list: type string "IVFFLAT", dim, metric, the index
  // tag, nlist, size, centroids, list count, list 0's ids, list 0's store.
  IvfOptions opts;
  opts.nlist = 1;
  IvfFlatIndex ivf(dim, Metric::kL2, opts, Precision::kFp16);
  ASSERT_TRUE(ivf.Train(data.data(), n).ok());
  ASSERT_TRUE(ivf.AddWithIds(data.data(), ids.data(), n).ok());
  std::string ivf_bytes;
  ASSERT_TRUE(ivf.Save(&ivf_bytes).ok());
  const size_t ivf_tag_at = 8 + 7 + 8 + 4;
  const size_t list_store_at = ivf_tag_at + 1 + 8 + 8 +
                               (8 + sizeof(float) * dim) + 8 +
                               (8 + sizeof(IdType) * n);
  patch(&ivf_bytes, {ivf_tag_at, list_store_at});
  IvfFlatIndex ivf_loaded(dim, Metric::kL2, opts);
  EXPECT_EQ(ivf_loaded.Load(ivf_bytes).code(), kCorruption);
}

TEST(IndexFactoryTest, LoadRejectsInconsistentHeaders) {
  // Every index blob starts with its type string (a uint64 length, then the
  // name), the uint64 dim and the uint32 metric tag. Each case patches one
  // of them in a valid blob: the load must report corruption instead of
  // crashing or coming back with the wrong shape.
  const auto kCorruption = common::Status::Code::kCorruption;
  auto dim_at = [](const VectorIndex& index) {
    return sizeof(uint64_t) + index.Type().size();
  };
  auto put = [](std::string* bytes, size_t at, auto value) {
    ASSERT_LE(at + sizeof(value), bytes->size());
    std::memcpy(bytes->data() + at, &value, sizeof(value));
  };
  const size_t n = 100, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 103);
  auto ids = SequentialIds(n);

  // IVF-flat, cosine, two lists, dim 0: deriving the lists' cosine norms
  // divides by the dimension.
  IvfOptions opts;
  opts.nlist = 2;
  IvfFlatIndex ivf(dim, Metric::kCosine, opts);
  ASSERT_TRUE(ivf.AddWithIds(data.data(), ids.data(), n).ok());
  std::string ivf_bytes;
  ASSERT_TRUE(ivf.Save(&ivf_bytes).ok());
  put(&ivf_bytes, dim_at(ivf), uint64_t{0});
  IvfFlatIndex ivf_loaded(dim, Metric::kCosine, opts);
  EXPECT_EQ(ivf_loaded.Load(ivf_bytes).code(), kCorruption);

  // FLAT with metric tag 7.
  FlatIndex flat(dim, Metric::kL2);
  ASSERT_TRUE(flat.AddWithIds(data.data(), ids.data(), n).ok());
  std::string flat_bytes;
  ASSERT_TRUE(flat.Save(&flat_bytes).ok());
  put(&flat_bytes, dim_at(flat) + sizeof(uint64_t), uint32_t{7});
  FlatIndex flat_loaded(dim, Metric::kL2);
  EXPECT_EQ(flat_loaded.Load(flat_bytes).code(), kCorruption);

  // An empty FLAT claiming dim 2^63: ids * dim wraps to the empty array's
  // length, and one vector of that dimension has no byte size.
  FlatIndex empty(dim, Metric::kL2);
  std::string empty_bytes;
  ASSERT_TRUE(empty.Save(&empty_bytes).ok());
  put(&empty_bytes, dim_at(empty), uint64_t{1} << 63);
  FlatIndex empty_loaded(dim, Metric::kL2);
  EXPECT_EQ(empty_loaded.Load(empty_bytes).code(), kCorruption);

  // Metric tag 3, one past cosine, in every other loader.
  auto big = MakeClusteredVectors(kN, kDim, 10, 21);
  auto big_ids = SequentialIds(kN);
  for (const char* type : {"IVFFLAT", "IVFPQ", "HNSW", "DISKANN"}) {
    SCOPED_TRACE(type);
    VectorIndexPtr index = MakeIndex(type, kDim);
    ASSERT_TRUE(index->AddWithIds(big.data(), big_ids.data(), kN).ok());
    std::string bytes;
    ASSERT_TRUE(index->Save(&bytes).ok());
    put(&bytes, dim_at(*index) + sizeof(uint64_t), uint32_t{3});
    EXPECT_EQ(MakeIndex(type, kDim)->Load(bytes).code(), kCorruption);
  }
  // The reduced-precision store: a uint8 precision tag, then a uint8 metric.
  PrecisionStore store;
  store.Configure(Precision::kFp16, dim, Metric::kL2);
  store.Append(data.data(), n);
  std::string store_bytes;
  common::BinaryWriter sw(&store_bytes);
  store.Serialize(&sw);
  put(&store_bytes, 1, uint8_t{3});
  PrecisionStore loaded_store;
  common::BinaryReader sr(store_bytes);
  EXPECT_EQ(loaded_store.Deserialize(&sr).code(), kCorruption);
}

TEST(IndexSpecTest, GetIntParsesAndDefaults) {
  IndexSpec spec;
  spec.params["M"] = "32";
  spec.params["BAD"] = "xyz";
  EXPECT_EQ(spec.GetInt("M", 16), 32);
  EXPECT_EQ(spec.GetInt("MISSING", 16), 16);
  EXPECT_EQ(spec.GetInt("BAD", 5), 5);
}

TEST(AutoIndexTest, NlistGrowsWithN) {
  EXPECT_EQ(AutoSelectIvfNlist(0), 1u);
  size_t small = AutoSelectIvfNlist(1000);
  size_t large = AutoSelectIvfNlist(100000);
  EXPECT_LT(small, large);
  // Each list keeps at least ~39 points.
  EXPECT_LE(AutoSelectIvfNlist(1000), 1000 / 39 + 1);
}

TEST(AutoIndexTest, AutoTuneSpecFillsNlist) {
  IndexSpec spec;
  spec.type = "IVFFLAT";
  spec.dim = 16;
  IndexSpec tuned = AutoTuneSpec(spec, 10000);
  EXPECT_NE(tuned.params.find("NLIST"), tuned.params.end());
  // Explicit user NLIST wins.
  spec.params["NLIST"] = "7";
  tuned = AutoTuneSpec(spec, 10000);
  EXPECT_EQ(tuned.params.at("NLIST"), "7");
}

TEST(AutoIndexTest, MeasuredAutoTuneReturnsCandidate) {
  auto data = MakeClusteredVectors(2000, 16, 8, 91);
  auto report = MeasuredAutoTuneIvf(data.data(), 2000, 16, 4, 10);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->chosen_nlist, 0u);
  EXPECT_GE(report->candidates.size(), 2u);
}

// ---------------------------------------------------------------------------
// DiskANN specifics
// ---------------------------------------------------------------------------

TEST(DiskAnnTest, DiskReadsCountedAndCached) {
  auto data = MakeClusteredVectors(1000, 16, 8, 77);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  auto ids = SequentialIds(1000);
  ASSERT_TRUE(index.Train(data.data(), 1000).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 1000).ok());

  SearchParams p;
  p.k = 10;
  p.ef_search = 32;
  uint64_t before = index.disk_reads();
  ASSERT_TRUE(index.SearchWithFilter(data.data(), p).ok());
  uint64_t first_query = index.disk_reads() - before;
  EXPECT_GT(first_query, 0u);  // beam expansion hits "disk"
  // Repeating the same query is served mostly from the block cache.
  before = index.disk_reads();
  ASSERT_TRUE(index.SearchWithFilter(data.data(), p).ok());
  EXPECT_LT(index.disk_reads() - before, first_query / 2 + 1);
}

TEST(DiskAnnTest, LoadRejectsDanglingNeighbor) {
  // Search follows a node block's neighbor ids unchecked, so a saved block
  // naming a node past the end must fail the load, not a later search.
  const size_t n = 200, dim = 8;
  auto data = MakeClusteredVectors(n, dim, 4, 79);
  auto ids = SequentialIds(n);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(dim, Metric::kL2, opts);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  std::string bytes;
  ASSERT_TRUE(index.Save(&bytes).ok());
  // Node 0's block: its vector (a uint64 count, then row 0), then its
  // neighbor ids (a uint64 count, then uint32 ids).
  std::string row0(sizeof(uint64_t) + dim * sizeof(float), '\0');
  const uint64_t count = dim;
  std::memcpy(row0.data(), &count, sizeof(count));
  std::memcpy(row0.data() + sizeof(count), data.data(), dim * sizeof(float));
  size_t at = bytes.find(row0);
  ASSERT_NE(at, std::string::npos);
  at += row0.size();
  uint64_t num_neighbors = 0;
  std::memcpy(&num_neighbors, bytes.data() + at, sizeof(num_neighbors));
  ASSERT_GT(num_neighbors, 0u);
  const uint32_t dangling = 1u << 30;
  std::memcpy(bytes.data() + at + sizeof(num_neighbors), &dangling,
              sizeof(dangling));
  DiskAnnIndex loaded(dim, Metric::kL2, opts);
  EXPECT_EQ(loaded.Load(bytes).code(), common::Status::Code::kCorruption);
}

TEST(DiskAnnTest, MemoryFootprintFarBelowHnsw) {
  // The point of the disk-based index: resident memory is PQ codes + cache,
  // not vectors + graph.
  auto data = MakeClusteredVectors(2000, kDim, 8, 78);
  auto ids = SequentialIds(2000);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  opts.cached_nodes = 16;  // tiny cache to expose the raw footprint
  DiskAnnIndex diskann(kDim, Metric::kL2, opts);
  ASSERT_TRUE(diskann.Train(data.data(), 2000).ok());
  ASSERT_TRUE(diskann.AddWithIds(data.data(), ids.data(), 2000).ok());
  HnswIndex hnsw(kDim, Metric::kL2);
  ASSERT_TRUE(hnsw.AddWithIds(data.data(), ids.data(), 2000).ok());
  EXPECT_LT(diskann.MemoryUsage() * 4, hnsw.MemoryUsage());
}

TEST(DiskAnnTest, SealedIndexRejectsFurtherAdds) {
  auto data = MakeClusteredVectors(200, 16, 4, 79);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  auto ids = SequentialIds(200);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 200).ok());
  common::Status again = index.AddWithIds(data.data(), ids.data(), 200);
  EXPECT_TRUE(again.IsNotSupported());
}

TEST(GenericIteratorTest, ExhaustsSmallIndex) {
  auto data = MakeClusteredVectors(100, 8, 2, 101);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(100);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 100).ok());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::set<IdType> seen;
  for (;;) {
    auto batch = iter->Next(16);
    if (batch.empty()) break;
    for (const auto& n : batch) seen.insert(n.id);
  }
  EXPECT_EQ(seen.size(), 100u);  // generic iterator reaches everything
}

// ---------------------------------------------------------------------------
// Native resumable iterators: parity, sorted-batch contract, honest stats
// ---------------------------------------------------------------------------

/// Drains an iterator with `batch_size` refills, checking the sorted-batch
/// contract on every batch, until exhaustion or `max_rows` collected.
std::vector<Neighbor> DrainIterator(SearchIterator* iter, size_t batch_size,
                                    size_t max_rows) {
  std::vector<Neighbor> all;
  for (;;) {
    std::vector<Neighbor> batch = iter->Next(batch_size);
    if (batch.empty()) break;
    EXPECT_TRUE(IsSortedBatch(batch));
    all.insert(all.end(), batch.begin(), batch.end());
    if (all.size() >= max_rows) break;
  }
  return all;
}

void ExpectExactlyEqual(const std::vector<Neighbor>& got,
                        const std::vector<Neighbor>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << label << " rank " << i;
  }
}

TEST(NativeIteratorParityTest, FlatMatchesOneShotAcrossTiers) {
  // Concatenated Next() batches must be bit-identical to the one-shot
  // sorted top-n, per metric and per precision tier: the iterator's first
  // Next() runs the exact same scan, later batches only reorder service.
  constexpr size_t n = 400;
  auto data = MakeClusteredVectors(n, kDim, 6, 201);
  auto ids = SequentialIds(n);
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (Precision prec :
         {Precision::kFp32, Precision::kFp16, Precision::kInt8}) {
      FlatIndex index(kDim, metric, prec);
      ASSERT_TRUE(index.Train(data.data(), n).ok());
      ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
      ASSERT_TRUE(index.HasNativeIterator());
      SearchParams p;
      p.k = static_cast<int>(n);
      auto one_shot = index.SearchWithFilter(data.data() + 5 * kDim, p);
      ASSERT_TRUE(one_shot.ok());
      auto iter = std::move(*index.MakeIterator(data.data() + 5 * kDim, p));
      std::vector<Neighbor> streamed = DrainIterator(iter.get(), 37, n);
      ExpectExactlyEqual(streamed, *one_shot,
                         std::string("flat ") + PrecisionName(prec) +
                             " metric=" +
                             std::to_string(static_cast<int>(metric)));
    }
  }
}

TEST(NativeIteratorParityTest, FlatFilteredMatchesOneShot) {
  constexpr size_t n = 500;
  auto data = MakeClusteredVectors(n, kDim, 4, 203);
  auto ids = SequentialIds(n);
  common::Bitset allowed(n);
  size_t qualifying = 0;
  for (size_t i = 0; i < n; i += 7) {
    allowed.Set(i);
    ++qualifying;
  }
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    FlatIndex index(kDim, Metric::kL2, prec);
    ASSERT_TRUE(index.Train(data.data(), n).ok());
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    SearchParams p;
    p.k = static_cast<int>(qualifying);
    p.filter = &allowed;
    auto one_shot = index.SearchWithFilter(data.data(), p);
    ASSERT_TRUE(one_shot.ok());
    auto iter = std::move(*index.MakeIterator(data.data(), p));
    std::vector<Neighbor> streamed = DrainIterator(iter.get(), 11, n);
    ExpectExactlyEqual(streamed, *one_shot,
                       std::string("filtered flat ") + PrecisionName(prec));
  }
}

TEST(NativeIteratorParityTest, IvfFlatFullProbeMatchesOneShot) {
  // nprobe = nlist drains every list, so the concatenated stream must equal
  // the one-shot full sort exactly — including the quantized tier.
  constexpr size_t n = 600;
  auto data = MakeClusteredVectors(n, kDim, 8, 205);
  auto ids = SequentialIds(n);
  IvfOptions opts;
  opts.nlist = 8;
  for (Precision prec : {Precision::kFp32, Precision::kInt8}) {
    IvfFlatIndex index(kDim, Metric::kL2, opts, prec);
    ASSERT_TRUE(index.Train(data.data(), n).ok());
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    ASSERT_TRUE(index.HasNativeIterator());
    SearchParams p;
    p.k = static_cast<int>(n);
    p.nprobe = static_cast<int>(opts.nlist);
    auto one_shot = index.SearchWithFilter(data.data() + kDim, p);
    ASSERT_TRUE(one_shot.ok());
    auto iter = std::move(*index.MakeIterator(data.data() + kDim, p));
    std::vector<Neighbor> streamed = DrainIterator(iter.get(), 53, n);
    ExpectExactlyEqual(streamed, *one_shot,
                       std::string("ivfflat ") + PrecisionName(prec));
  }
}

TEST(NativeIteratorParityTest, IvfFirstBatchMatchesOneShotNprobe) {
  // At matching nprobe the iterator's first window scans exactly the lists
  // the one-shot search scans, so the first batch is the one-shot top-k.
  auto data = MakeClusteredVectors(kN, kDim, 16, 207);
  auto ids = SequentialIds(kN);
  IvfOptions opts;
  opts.nlist = 16;
  IvfFlatIndex index(kDim, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), kN).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), kN).ok());
  SearchParams p;
  p.k = 20;
  p.nprobe = 4;
  auto one_shot = index.SearchWithFilter(data.data() + 3 * kDim, p);
  ASSERT_TRUE(one_shot.ok());
  auto iter = std::move(*index.MakeIterator(data.data() + 3 * kDim, p));
  std::vector<Neighbor> first = iter->Next(20);
  ExpectExactlyEqual(first, *one_shot, "ivf first batch");
}

TEST(NativeIteratorParityTest, IvfPqFallsBackToGeneric) {
  // PQ refine re-ranks a k-dependent shortlist, which cannot be reproduced
  // incrementally; MakeIterator must hand back the restart wrapper.
  auto data = MakeClusteredVectors(800, kDim, 8, 209);
  auto ids = SequentialIds(800);
  IvfPqIndex index(kDim, Metric::kL2);
  ASSERT_TRUE(index.Train(data.data(), 800).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 800).ok());
  EXPECT_FALSE(index.HasNativeIterator());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  auto batch = iter->Next(10);
  EXPECT_FALSE(batch.empty());
  // The restart wrapper reports recompute rounds; a native iterator never
  // would.
  EXPECT_GE(iter->GetStats().recompute_rounds, 1u);
}

TEST(NativeIteratorParityTest, DiskAnnFirstBatchMatchesOneShot) {
  // Phase one of the resumable iterator replicates the one-shot bounded
  // beam exactly, so the first k served rows are bit-identical.
  auto data = MakeClusteredVectors(800, 16, 8, 211);
  auto ids = SequentialIds(800);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), 800).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 800).ok());
  ASSERT_TRUE(index.HasNativeIterator());
  for (int k : {5, 17}) {
    SearchParams p;
    p.k = k;
    p.ef_search = 32;
    auto one_shot = index.SearchWithFilter(data.data() + 9 * 16, p);
    ASSERT_TRUE(one_shot.ok());
    auto iter = std::move(*index.MakeIterator(data.data() + 9 * 16, p));
    std::vector<Neighbor> first = iter->Next(static_cast<size_t>(k));
    ExpectExactlyEqual(first, *one_shot,
                       "diskann k=" + std::to_string(k));
  }
}

TEST(NativeIteratorParityTest, DiskAnnFilteredFirstBatchMatchesOneShot) {
  auto data = MakeClusteredVectors(600, 16, 6, 213);
  auto ids = SequentialIds(600);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  DiskAnnIndex index(16, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), 600).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 600).ok());
  common::Bitset allowed(600);
  for (size_t i = 0; i < 600; i += 3) allowed.Set(i);
  SearchParams p;
  p.k = 10;
  p.ef_search = 32;
  p.filter = &allowed;
  auto one_shot = index.SearchWithFilter(data.data(), p);
  ASSERT_TRUE(one_shot.ok());
  ASSERT_FALSE(one_shot->empty());
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::vector<Neighbor> first = iter->Next(one_shot->size());
  ExpectExactlyEqual(first, *one_shot, "diskann filtered");
  for (const Neighbor& nb : first)
    EXPECT_TRUE(allowed.Test(static_cast<size_t>(nb.id)));
}

TEST(NativeIteratorParityTest, DiskAnnResumeGoesDeepWithoutRestart) {
  // Resuming past the first beam must keep producing fresh ids (the spill
  // frontier widens the beam) and must not re-pay SSD reads for blocks the
  // first phase already expanded.
  auto data = MakeClusteredVectors(1000, 16, 8, 215);
  auto ids = SequentialIds(1000);
  DiskAnnOptions opts;
  opts.simulate_disk_latency = false;
  opts.cached_nodes = 4;  // tiny cache: a re-walk would show up as re-reads
  DiskAnnIndex index(16, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), 1000).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 1000).ok());
  SearchParams p;
  p.k = 10;
  p.ef_search = 16;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::set<IdType> seen;
  size_t total = 0;
  for (;;) {
    auto batch = iter->Next(50);
    if (batch.empty()) break;
    for (const Neighbor& nb : batch) EXPECT_TRUE(seen.insert(nb.id).second);
    total += batch.size();
    if (total >= 600) break;
  }
  EXPECT_GE(total, 600u);  // far past the initial ef=16 beam
  // Every expanded node costs exactly one ReadBlock; with resume the reads
  // can't exceed expansions by more than the graph's revisits (none).
  EXPECT_LE(index.disk_reads(), 1000u + iter->GetStats().rows_visited);
}

TEST(SortedBatchContractTest, ShuffledBatchWouldBreakRangeEarlyExit) {
  // The executor's range early-exit reads batch.back() as the worst hit in
  // the batch; a shuffled batch silently truncates results. IsSortedBatch
  // is the guard every iterator DCHECKs.
  auto data = MakeClusteredVectors(200, 8, 4, 217);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(200);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 200).ok());
  SearchParams p;
  p.k = 50;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  std::vector<Neighbor> batch = iter->Next(50);
  ASSERT_EQ(batch.size(), 50u);
  ASSERT_TRUE(IsSortedBatch(batch));
  float worst = batch.back().distance;
  for (const Neighbor& nb : batch) EXPECT_LE(nb.distance, worst);
  // A shuffled batch violates the contract: back() is no longer the worst,
  // so "whole batch past the radius" inferences would be unsound.
  std::reverse(batch.begin(), batch.end());
  ASSERT_FALSE(IsSortedBatch(batch));
  EXPECT_LT(batch.back().distance, worst);
}

TEST(IteratorStatsTest, GenericIteratorReportsHonestCosts) {
  // The old accounting charged ef_search per Next() regardless of work; the
  // honest version counts rows actually materialized per restart round.
  auto data = MakeClusteredVectors(300, 8, 4, 219);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(300);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), 300).ok());
  SearchParams p;
  p.k = 10;
  GenericSearchIterator iter(&index, data.data(), p);
  size_t drained = 0;
  size_t batches = 0;
  for (;;) {
    auto batch = iter.Next(40);
    if (batch.empty()) break;
    drained += batch.size();
    ++batches;
    if (drained >= 200) break;
  }
  SearchIterator::Stats stats = iter.GetStats();
  EXPECT_EQ(stats.batches, batches);
  // Restarts re-materialize earlier rows: cumulative rows visited must
  // exceed the rows actually served.
  EXPECT_GE(stats.recompute_rounds, 2u);
  EXPECT_GT(stats.rows_visited, drained);
  EXPECT_EQ(iter.VisitedCount(), stats.rows_visited);
}

TEST(IteratorStatsTest, FlatIteratorScansOnceRegardlessOfBatches) {
  constexpr size_t n = 250;
  auto data = MakeClusteredVectors(n, 8, 4, 221);
  FlatIndex index(8, Metric::kL2);
  auto ids = SequentialIds(n);
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
  SearchParams p;
  p.k = 10;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  size_t batches = 0;
  while (!iter->Next(17).empty()) ++batches;
  SearchIterator::Stats stats = iter->GetStats();
  // One full scan total — resumable batches never recompute distances.
  EXPECT_EQ(stats.rows_visited, n);
  EXPECT_EQ(stats.recompute_rounds, 0u);
  EXPECT_EQ(stats.batches, batches);
}

TEST(IteratorStatsTest, IvfIteratorVisitsOnlyProbedLists) {
  auto data = MakeClusteredVectors(kN, kDim, 16, 223);
  auto ids = SequentialIds(kN);
  IvfOptions opts;
  opts.nlist = 16;
  IvfFlatIndex index(kDim, Metric::kL2, opts);
  ASSERT_TRUE(index.Train(data.data(), kN).ok());
  ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), kN).ok());
  SearchParams p;
  p.k = 10;
  p.nprobe = 2;
  auto iter = std::move(*index.MakeIterator(data.data(), p));
  auto first = iter->Next(10);
  ASSERT_FALSE(first.empty());
  size_t after_one_window = iter->GetStats().rows_visited;
  // ~2 of 16 lists scanned: far less than the whole index.
  EXPECT_LT(after_one_window, kN / 2);
  // Draining deeper extends the probe schedule instead of rescanning.
  DrainIterator(iter.get(), 200, kN);
  SearchIterator::Stats stats = iter->GetStats();
  EXPECT_EQ(stats.rows_visited, kN);  // every row's distance computed once
  EXPECT_EQ(stats.recompute_rounds, 0u);
}

}  // namespace
}  // namespace blendhouse::vecindex
