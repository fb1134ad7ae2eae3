// Scalar-vs-SIMD parity for the dispatched kernel layer, plus dispatch
// policy (BLENDHOUSE_FORCE_SCALAR, SetActiveTier) and the aligned-storage
// contract. Every compiled tier the host CPU supports is checked against the
// scalar reference over awkward dims (tails, sub-register sizes) and edge
// inputs (NaN, zero norms).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/aligned.h"
#include "common/io.h"
#include "common/rng.h"
#include "tests/test_util.h"
#include "vecindex/distance.h"
#include "vecindex/hnsw_index.h"
#include "vecindex/kernels/kernels.h"
#include "vecindex/quantizer.h"

namespace blendhouse {
namespace {

namespace kernels = vecindex::kernels;
using kernels::KernelTable;
using kernels::SimdTier;

// Dims chosen to hit every tail path: sub-register, exact register widths,
// multi-register, and one-past (769) for the masked/scalar epilogues.
const size_t kDims[] = {1, 7, 8, 31, 64, 96, 768, 769};

/// Relative tolerance (1e-5) plus one float ulp per accumulated term: SIMD
/// accumulation trees reassociate float adds, and with cancellation the
/// error scales with the number of terms, not the final value.
void ExpectClose(float a, float b, const char* what, size_t dim) {
  float tol = 1e-5f * std::max({1.0f, std::fabs(a), std::fabs(b)}) +
              1.2e-7f * static_cast<float>(dim);
  EXPECT_NEAR(a, b, tol) << what << " dim=" << dim;
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.Gaussian(0.0f, 1.0f);
  return v;
}

std::vector<const KernelTable*> SimdTables() {
  std::vector<const KernelTable*> tables;
  for (SimdTier t : kernels::AvailableTiers())
    if (t != SimdTier::kScalar) tables.push_back(kernels::GetTable(t));
  return tables;
}

TEST(KernelsTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(kernels::GetTable(SimdTier::kScalar), nullptr);
  EXPECT_EQ(kernels::GetTable(SimdTier::kScalar)->tier, SimdTier::kScalar);
  // Dispatch must have settled on one of the available tiers.
  bool found = false;
  for (SimdTier t : kernels::AvailableTiers())
    if (t == kernels::ActiveTier()) found = true;
  EXPECT_TRUE(found);
}

TEST(KernelsTest, DistanceParityAcrossTiers) {
  const KernelTable* scalar = kernels::GetTable(SimdTier::kScalar);
  for (const KernelTable* table : SimdTables()) {
    for (size_t dim : kDims) {
      auto a = RandomVec(dim, 1 + dim);
      auto b = RandomVec(dim, 2 + dim);
      ExpectClose(table->l2sqr(a.data(), b.data(), dim),
                  scalar->l2sqr(a.data(), b.data(), dim), "l2sqr", dim);
      ExpectClose(table->inner_product(a.data(), b.data(), dim),
                  scalar->inner_product(a.data(), b.data(), dim), "ip", dim);
      ExpectClose(table->cosine(a.data(), b.data(), dim),
                  scalar->cosine(a.data(), b.data(), dim), "cosine", dim);
    }
  }
}

TEST(KernelsTest, BatchParityAcrossTiers) {
  const KernelTable* scalar = kernels::GetTable(SimdTier::kScalar);
  // n values straddle the 4-way blocking boundary and its tail.
  const size_t kCounts[] = {1, 3, 4, 5, 37};
  for (const KernelTable* table : SimdTables()) {
    for (size_t dim : {size_t{7}, size_t{96}, size_t{768}, size_t{769}}) {
      for (size_t n : kCounts) {
        auto query = RandomVec(dim, 3 + dim);
        auto base = RandomVec(n * dim, 4 + dim + n);
        std::vector<float> got(n), want(n);
        table->batch_l2sqr(query.data(), base.data(), n, dim, got.data());
        scalar->batch_l2sqr(query.data(), base.data(), n, dim, want.data());
        for (size_t i = 0; i < n; ++i)
          ExpectClose(got[i], want[i], "batch_l2sqr", dim);
        table->batch_inner_product(query.data(), base.data(), n, dim,
                                   got.data());
        scalar->batch_inner_product(query.data(), base.data(), n, dim,
                                    want.data());
        for (size_t i = 0; i < n; ++i)
          ExpectClose(got[i], want[i], "batch_ip", dim);
      }
    }
  }
}

TEST(KernelsTest, BatchAgreesWithSingleRowKernel) {
  const KernelTable& active = kernels::Get();
  size_t dim = 96, n = 11;
  auto query = RandomVec(dim, 7);
  auto base = RandomVec(n * dim, 8);
  std::vector<float> batch(n);
  active.batch_l2sqr(query.data(), base.data(), n, dim, batch.data());
  for (size_t i = 0; i < n; ++i)
    ExpectClose(batch[i], active.l2sqr(query.data(), base.data() + i * dim,
                                       dim),
                "batch-vs-single", dim);
}

TEST(KernelsTest, PqAdcParityAcrossTiers) {
  const KernelTable* scalar = kernels::GetTable(SimdTier::kScalar);
  for (const KernelTable* table : SimdTables()) {
    for (size_t ks : {size_t{16}, size_t{256}}) {   // PQFS and classic PQ
      for (size_t m : {size_t{1}, size_t{3}, size_t{12}, size_t{16}}) {
        auto lut = RandomVec(m * ks, 9 + m + ks);
        common::Rng rng(10 + m);
        size_t n = 13;
        std::vector<uint8_t> codes(n * m);
        for (auto& c : codes)
          c = static_cast<uint8_t>(
              rng.UniformInt(0, static_cast<int>(ks) - 1));
        for (size_t i = 0; i < n; ++i)
          ExpectClose(table->pq_adc(lut.data(), codes.data() + i * m, m, ks),
                      scalar->pq_adc(lut.data(), codes.data() + i * m, m, ks),
                      "pq_adc", m);
        std::vector<float> got(n), want(n);
        table->pq_adc_batch(lut.data(), codes.data(), n, m, ks, got.data());
        scalar->pq_adc_batch(lut.data(), codes.data(), n, m, ks, want.data());
        for (size_t i = 0; i < n; ++i)
          ExpectClose(got[i], want[i], "pq_adc_batch", m);
      }
    }
  }
}

TEST(KernelsTest, NanPropagatesInEveryTier) {
  for (SimdTier t : kernels::AvailableTiers()) {
    const KernelTable* table = kernels::GetTable(t);
    for (size_t dim : {size_t{8}, size_t{769}}) {
      auto a = RandomVec(dim, 11);
      auto b = RandomVec(dim, 12);
      a[dim / 2] = std::numeric_limits<float>::quiet_NaN();
      EXPECT_TRUE(std::isnan(table->l2sqr(a.data(), b.data(), dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
      EXPECT_TRUE(std::isnan(table->inner_product(a.data(), b.data(), dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
      EXPECT_TRUE(std::isnan(table->cosine(a.data(), b.data(), dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
    }
  }
}

TEST(KernelsTest, ZeroNormCosineIsOneInEveryTier) {
  for (SimdTier t : kernels::AvailableTiers()) {
    const KernelTable* table = kernels::GetTable(t);
    for (size_t dim : {size_t{8}, size_t{769}}) {
      std::vector<float> zero(dim, 0.0f);
      auto b = RandomVec(dim, 13);
      EXPECT_EQ(table->cosine(zero.data(), b.data(), dim), 1.0f)
          << kernels::SimdTierName(t);
      EXPECT_EQ(table->cosine(b.data(), zero.data(), dim), 1.0f)
          << kernels::SimdTierName(t);
      EXPECT_EQ(table->cosine(zero.data(), zero.data(), dim), 1.0f)
          << kernels::SimdTierName(t);
    }
  }
  // The precomputed-norm fast path shares the convention.
  EXPECT_EQ(vecindex::CosineFromDot(0.0f, 0.0f, 1.0f), 1.0f);
  EXPECT_EQ(vecindex::CosineFromDot(0.0f, 1.0f, 0.0f), 1.0f);
}

TEST(KernelsTest, ForceScalarEnvPinsChooseTier) {
  ASSERT_EQ(setenv("BLENDHOUSE_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(kernels::ChooseTier(), SimdTier::kScalar);
  ASSERT_EQ(setenv("BLENDHOUSE_FORCE_SCALAR", "0", 1), 0);
  SimdTier best = SimdTier::kScalar;
  for (SimdTier t : kernels::AvailableTiers()) best = t;
  EXPECT_EQ(kernels::ChooseTier(), best);
  ASSERT_EQ(unsetenv("BLENDHOUSE_FORCE_SCALAR"), 0);
  EXPECT_EQ(kernels::ChooseTier(), best);
}

TEST(KernelsTest, ForcedScalarHnswRoundTripKeepsRecall) {
  const size_t dim = 32, n = 500, k = 10;
  auto data = test::MakeClusteredVectors(n, dim, 6, 21);
  auto ids = test::SequentialIds(n);
  auto query = RandomVec(dim, 22);
  auto truth = test::BruteForceTopK(data, dim, query.data(), k);

  auto run = [&]() {
    vecindex::HnswIndex index(dim, vecindex::Metric::kL2);
    EXPECT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    vecindex::SearchParams params;
    params.k = static_cast<int>(k);
    params.ef_search = 64;
    auto found = index.SearchWithFilter(query.data(), params);
    EXPECT_TRUE(found.ok());
    return test::Recall(*found, truth);
  };

  double recall_simd = run();
  SimdTier prev = kernels::SetActiveTier(SimdTier::kScalar);
  ASSERT_EQ(kernels::ActiveTier(), SimdTier::kScalar);
  double recall_scalar = run();
  kernels::SetActiveTier(prev);

  // Scalar and SIMD builds may differ in float low bits, but the graph and
  // search quality must be equivalent.
  EXPECT_GE(recall_scalar, 0.9);
  EXPECT_GE(recall_simd, 0.9);
  EXPECT_NEAR(recall_scalar, recall_simd, 0.05);
}

TEST(KernelsTest, AlignedVectorIsCacheLineAligned) {
  for (size_t n : {size_t{1}, size_t{17}, size_t{768}, size_t{100000}}) {
    common::AlignedVector<float> v(n, 1.0f);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) %
                  common::kVectorAlignment,
              0u)
        << "n=" << n;
  }
}

TEST(KernelsTest, AlignedVectorSerializationRoundTrip) {
  common::AlignedVector<float> v;
  for (size_t i = 0; i < 100; ++i) v.push_back(static_cast<float>(i) * 0.5f);
  std::string bytes;
  common::BinaryWriter w(&bytes);
  w.WriteVector(v);
  common::BinaryReader r(bytes);
  common::AlignedVector<float> back;
  ASSERT_TRUE(r.ReadVector(&back).ok());
  EXPECT_EQ(back.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(back[i], v[i]);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(back.data()) %
                common::kVectorAlignment,
            0u);
}

// ---------------------------------------------------------------------------
// Reduced-precision kernels (DESIGN.md §13)
// ---------------------------------------------------------------------------

std::vector<uint16_t> EncodeFp16(const std::vector<float>& v) {
  std::vector<uint16_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = kernels::FloatToFp16(v[i]);
  return out;
}

std::vector<int8_t> RandomI8(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& x : v) x = static_cast<int8_t>(rng.UniformInt(-127, 127));
  return v;
}

TEST(KernelsTest, HalfConversionRoundTrip) {
  // Round-to-nearest error is bounded by half an ulp of fp16: 2^-11
  // relative (10 mantissa bits).
  common::Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    float f = rng.Gaussian(0.0f, 10.0f);
    float h = kernels::Fp16ToFloat(kernels::FloatToFp16(f));
    EXPECT_NEAR(h, f, std::fabs(f) / 2048.0f + 1e-7f) << f;
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(kernels::Fp16ToFloat(kernels::FloatToFp16(inf)), inf);
  EXPECT_EQ(kernels::Fp16ToFloat(kernels::FloatToFp16(-inf)), -inf);
  EXPECT_EQ(kernels::Fp16ToFloat(kernels::FloatToFp16(1e6f)), inf);  // ovf
  EXPECT_TRUE(std::isnan(kernels::Fp16ToFloat(kernels::FloatToFp16(nan))));
  EXPECT_EQ(kernels::Fp16ToFloat(kernels::FloatToFp16(0.0f)), 0.0f);
  // 65504 is the largest finite half; its round-to-nearest-even tie (65520)
  // must bump into the infinity encoding, not wrap the exponent.
  EXPECT_EQ(kernels::Fp16ToFloat(kernels::FloatToFp16(65504.0f)), 65504.0f);
  EXPECT_EQ(kernels::Fp16ToFloat(kernels::FloatToFp16(65520.0f)), inf);
  // Subnormal half range survives the round trip.
  float sub = 6.0e-8f;
  EXPECT_NEAR(kernels::Fp16ToFloat(kernels::FloatToFp16(sub)), sub, 3e-8f);
}

TEST(KernelsTest, ReducedPrecisionParityAcrossTiers) {
  const KernelTable* scalar = kernels::GetTable(SimdTier::kScalar);
  for (const KernelTable* table : SimdTables()) {
    for (size_t dim : kDims) {
      auto q = RandomVec(dim, 14 + dim);
      auto base = RandomVec(dim, 15 + dim);
      auto h16 = EncodeFp16(base);
      ExpectClose(table->fp16_l2sqr(q.data(), h16.data(), dim),
                  scalar->fp16_l2sqr(q.data(), h16.data(), dim), "fp16_l2",
                  dim);
      ExpectClose(table->fp16_inner_product(q.data(), h16.data(), dim),
                  scalar->fp16_inner_product(q.data(), h16.data(), dim),
                  "fp16_ip", dim);
      auto q8 = RandomI8(dim, 16 + dim);
      auto c8 = RandomI8(dim, 17 + dim);
      // Symmetric integer kernels are exact: tiers must agree bit for bit.
      EXPECT_EQ(table->i8_l2sqr(q8.data(), c8.data(), dim),
                scalar->i8_l2sqr(q8.data(), c8.data(), dim))
          << "i8_l2 dim=" << dim;
      EXPECT_EQ(table->i8_dot(q8.data(), c8.data(), dim),
                scalar->i8_dot(q8.data(), c8.data(), dim))
          << "i8_dot dim=" << dim;
      const float scale = 0.05f;
      ExpectClose(table->i8_asym_l2sqr(q.data(), c8.data(), scale, dim),
                  scalar->i8_asym_l2sqr(q.data(), c8.data(), scale, dim),
                  "i8_asym_l2", dim);
      ExpectClose(table->i8_asym_dot(q.data(), c8.data(), scale, dim),
                  scalar->i8_asym_dot(q.data(), c8.data(), scale, dim),
                  "i8_asym_dot", dim);
    }
  }
}

TEST(KernelsTest, ReducedPrecisionBatchParityAcrossTiers) {
  const KernelTable* scalar = kernels::GetTable(SimdTier::kScalar);
  // n values straddle the 4-way blocking boundary and its tail.
  const size_t kCounts[] = {1, 3, 4, 5, 37};
  for (const KernelTable* table : SimdTables()) {
    for (size_t dim : {size_t{7}, size_t{96}, size_t{768}, size_t{769}}) {
      for (size_t n : kCounts) {
        auto q = RandomVec(dim, 18 + dim + n);
        auto base = RandomVec(n * dim, 19 + dim + n);
        auto codes = EncodeFp16(base);
        std::vector<float> got(n), want(n);
        table->batch_fp16_l2sqr(q.data(), codes.data(), n, dim, got.data());
        scalar->batch_fp16_l2sqr(q.data(), codes.data(), n, dim, want.data());
        for (size_t i = 0; i < n; ++i)
          ExpectClose(got[i], want[i], "b_fp16_l2", dim);
        table->batch_fp16_inner_product(q.data(), codes.data(), n, dim,
                                        got.data());
        scalar->batch_fp16_inner_product(q.data(), codes.data(), n, dim,
                                         want.data());
        for (size_t i = 0; i < n; ++i)
          ExpectClose(got[i], want[i], "b_fp16_ip", dim);
        auto q8 = RandomI8(dim, 20 + dim + n);
        auto base8 = RandomI8(n * dim, 21 + dim + n);
        std::vector<int32_t> igot(n), iwant(n);
        table->batch_i8_l2sqr(q8.data(), base8.data(), n, dim, igot.data());
        scalar->batch_i8_l2sqr(q8.data(), base8.data(), n, dim, iwant.data());
        EXPECT_EQ(igot, iwant) << "b_i8_l2 dim=" << dim << " n=" << n;
        table->batch_i8_dot(q8.data(), base8.data(), n, dim, igot.data());
        scalar->batch_i8_dot(q8.data(), base8.data(), n, dim, iwant.data());
        EXPECT_EQ(igot, iwant) << "b_i8_dot dim=" << dim << " n=" << n;
      }
    }
  }
}

TEST(KernelsTest, ReducedPrecisionMatchesFp32Reference) {
  // Dispatched kernels against the fp32 kernels run on decoded copies: fp16
  // decodes exactly, int8 after one scale multiply, so the only slack
  // needed is accumulation order.
  const KernelTable& kt = kernels::Get();
  for (size_t dim : {size_t{31}, size_t{96}, size_t{769}}) {
    auto q = RandomVec(dim, 22 + dim);
    auto base = RandomVec(dim, 23 + dim);
    std::vector<float> dec(dim);
    auto h16 = EncodeFp16(base);
    for (size_t d = 0; d < dim; ++d) dec[d] = kernels::Fp16ToFloat(h16[d]);
    ExpectClose(kt.fp16_l2sqr(q.data(), h16.data(), dim),
                kt.l2sqr(q.data(), dec.data(), dim), "fp16-ref-l2", dim);
    ExpectClose(kt.fp16_inner_product(q.data(), h16.data(), dim),
                kt.inner_product(q.data(), dec.data(), dim), "fp16-ref-ip",
                dim);
    auto c8 = RandomI8(dim, 24 + dim);
    const float scale = 0.02f;
    for (size_t d = 0; d < dim; ++d)
      dec[d] = scale * static_cast<float>(c8[d]);
    ExpectClose(kt.i8_asym_l2sqr(q.data(), c8.data(), scale, dim),
                kt.l2sqr(q.data(), dec.data(), dim), "i8asym-ref-l2", dim);
    ExpectClose(kt.i8_asym_dot(q.data(), c8.data(), scale, dim),
                kt.inner_product(q.data(), dec.data(), dim), "i8asym-ref-ip",
                dim);
    // Symmetric integer kernels against a plain integer loop: exact.
    auto q8 = RandomI8(dim, 25 + dim);
    int32_t l2 = 0, dot = 0;
    for (size_t d = 0; d < dim; ++d) {
      int32_t diff = static_cast<int32_t>(q8[d]) - c8[d];
      l2 += diff * diff;
      dot += static_cast<int32_t>(q8[d]) * c8[d];
    }
    EXPECT_EQ(kt.i8_l2sqr(q8.data(), c8.data(), dim), l2) << dim;
    EXPECT_EQ(kt.i8_dot(q8.data(), c8.data(), dim), dot) << dim;
  }
}

TEST(KernelsTest, ReducedPrecisionNanPropagatesInEveryTier) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (SimdTier t : kernels::AvailableTiers()) {
    const KernelTable* table = kernels::GetTable(t);
    for (size_t dim : {size_t{8}, size_t{769}}) {
      auto q = RandomVec(dim, 26);
      auto base = RandomVec(dim, 27);
      auto h16 = EncodeFp16(base);
      // NaN on the fp32 query side.
      auto qn = q;
      qn[dim / 2] = nan;
      EXPECT_TRUE(std::isnan(table->fp16_l2sqr(qn.data(), h16.data(), dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
      EXPECT_TRUE(std::isnan(table->fp16_inner_product(qn.data(), h16.data(),
                                                       dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
      // NaN stored inside the fp16 codes.
      h16[dim / 2] = kernels::FloatToFp16(nan);
      EXPECT_TRUE(std::isnan(table->fp16_inner_product(q.data(), h16.data(),
                                                       dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
      EXPECT_TRUE(std::isnan(table->fp16_l2sqr(q.data(), h16.data(), dim)))
          << kernels::SimdTierName(t) << " dim=" << dim;
    }
  }
}

TEST(KernelsTest, ForcedScalarPrecisionStoreMatchesDispatched) {
  // PrecisionStore resolves the kernel table per call, so pinning the scalar
  // tier must reproduce the dispatched distances: bitwise for int8 (integer
  // accumulation plus identical float scaling), within accumulation order
  // for fp16.
  const size_t dim = 96, n = 64;
  auto data = test::MakeClusteredVectors(n, dim, 4, 43);
  auto query = RandomVec(dim, 44);
  for (vecindex::Precision p :
       {vecindex::Precision::kFp16, vecindex::Precision::kInt8}) {
    for (vecindex::Metric m :
         {vecindex::Metric::kL2, vecindex::Metric::kInnerProduct,
          vecindex::Metric::kCosine}) {
      vecindex::PrecisionStore store;
      store.Configure(p, dim, m);
      store.Train(data.data(), n);
      store.Append(data.data(), n);
      vecindex::PrecisionStore::QueryCtx ctx;
      store.PrepareQuery(query.data(), &ctx);
      std::vector<float> dispatched(n), forced(n);
      store.BatchDistance(ctx, 0, n, dispatched.data());
      SimdTier prev = kernels::SetActiveTier(SimdTier::kScalar);
      ASSERT_EQ(kernels::ActiveTier(), SimdTier::kScalar);
      store.BatchDistance(ctx, 0, n, forced.data());
      kernels::SetActiveTier(prev);
      for (size_t i = 0; i < n; ++i) {
        if (p == vecindex::Precision::kInt8) {
          EXPECT_EQ(dispatched[i], forced[i])
              << vecindex::PrecisionName(p) << " metric="
              << static_cast<int>(m) << " row=" << i;
        } else {
          ExpectClose(dispatched[i], forced[i], "forced-scalar-store", dim);
        }
      }
    }
  }
}

TEST(KernelsTest, HnswRecallAtEachReducedPrecision) {
  const size_t dim = 32, n = 500, k = 10;
  auto data = test::MakeClusteredVectors(n, dim, 6, 45);
  auto ids = test::SequentialIds(n);
  auto query = RandomVec(dim, 46);
  auto truth = test::BruteForceTopK(data, dim, query.data(), k);
  for (vecindex::Precision p :
       {vecindex::Precision::kFp16, vecindex::Precision::kInt8}) {
    vecindex::HnswOptions opts;
    opts.precision = p;
    vecindex::HnswIndex index(dim, vecindex::Metric::kL2, opts);
    ASSERT_TRUE(index.AddWithIds(data.data(), ids.data(), n).ok());
    EXPECT_EQ(index.StoragePrecision(), p);
    vecindex::SearchParams params;
    params.k = static_cast<int>(k);
    params.ef_search = 64;
    auto found = index.SearchWithFilter(query.data(), params);
    ASSERT_TRUE(found.ok());
    EXPECT_GE(test::Recall(*found, truth), 0.85)
        << vecindex::PrecisionName(p);
    // Save/Load keeps the quantized graph searchable, identical results.
    std::string bytes;
    ASSERT_TRUE(index.Save(&bytes).ok());
    vecindex::HnswIndex loaded(dim, vecindex::Metric::kL2, opts);
    ASSERT_TRUE(loaded.Load(bytes).ok());
    auto again = loaded.SearchWithFilter(query.data(), params);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->size(), found->size());
    for (size_t i = 0; i < found->size(); ++i)
      EXPECT_EQ((*again)[i].id, (*found)[i].id) << vecindex::PrecisionName(p);
  }
}

}  // namespace
}  // namespace blendhouse
