// Scalar reference kernels. Always compiled, always runnable: this TU is the
// portable fallback every other tier is tested against, and the tier CI runs
// under BLENDHOUSE_FORCE_SCALAR=1. Loops are written straight-line so the
// compiler's autovectorizer can still help at -O2 without any -m flags.

#include <cmath>

#include "vecindex/kernels/kernel_tables.h"

namespace blendhouse::vecindex::kernels {
namespace {

float L2SqrScalar(const float* a, const float* b, size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float InnerProductScalar(const float* a, const float* b, size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

float CosineScalar(const float* a, const float* b, size_t dim) {
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  float denom = std::sqrt(na) * std::sqrt(nb);
  if (denom <= 0.0f) return 1.0f;
  return 1.0f - dot / denom;
}

// Batched variants: 4-way row blocking keeps four independent accumulator
// chains live (hides FP add latency even in scalar code) and prefetches the
// rows the next block will touch.
template <typename RowKernel>
void BatchScalar(const float* query, const float* base, size_t n, size_t dim,
                 float* out, RowKernel row) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = base + (i + 0) * dim;
    const float* r1 = base + (i + 1) * dim;
    const float* r2 = base + (i + 2) * dim;
    const float* r3 = base + (i + 3) * dim;
    if (i + 8 <= n) {
      __builtin_prefetch(base + (i + 4) * dim, 0, 1);
      __builtin_prefetch(base + (i + 6) * dim, 0, 1);
    }
    out[i + 0] = row(query, r0, dim);
    out[i + 1] = row(query, r1, dim);
    out[i + 2] = row(query, r2, dim);
    out[i + 3] = row(query, r3, dim);
  }
  for (; i < n; ++i) out[i] = row(query, base + i * dim, dim);
}

void BatchL2SqrScalar(const float* query, const float* base, size_t n,
                      size_t dim, float* out) {
  BatchScalar(query, base, n, dim, out, L2SqrScalar);
}

void BatchInnerProductScalar(const float* query, const float* base, size_t n,
                             size_t dim, float* out) {
  BatchScalar(query, base, n, dim, out, InnerProductScalar);
}

float PqAdcScalar(const float* table, const uint8_t* code, size_t m,
                  size_t ks) {
  // Four independent accumulators: ADC is a dependent-load chain, so giving
  // the core four lookups in flight roughly quadruples throughput.
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  size_t s = 0;
  for (; s + 4 <= m; s += 4) {
    a0 += table[(s + 0) * ks + code[s + 0]];
    a1 += table[(s + 1) * ks + code[s + 1]];
    a2 += table[(s + 2) * ks + code[s + 2]];
    a3 += table[(s + 3) * ks + code[s + 3]];
  }
  for (; s < m; ++s) a0 += table[s * ks + code[s]];
  return (a0 + a1) + (a2 + a3);
}

void PqAdcBatchScalar(const float* table, const uint8_t* codes, size_t n,
                      size_t m, size_t ks, float* out) {
  for (size_t i = 0; i < n; ++i) {
    if (i + 4 < n) __builtin_prefetch(codes + (i + 4) * m, 0, 1);
    out[i] = PqAdcScalar(table, codes + i * m, m, ks);
  }
}

// ---- Reduced-precision kernels ---------------------------------------------
//
// fp16 rows decode through the bit-exact Fp16ToFloat; the batch variants
// reuse the 4-way row blocking through the row-kernel template parameter.

float HalfL2SqrScalar(const float* query, const uint16_t* code, size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    float d = query[i] - Fp16ToFloat(code[i]);
    acc += d * d;
  }
  return acc;
}

float HalfInnerProductScalar(const float* query, const uint16_t* code,
                             size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i) acc += query[i] * Fp16ToFloat(code[i]);
  return acc;
}

template <float (*Row)(const float*, const uint16_t*, size_t)>
void HalfBatchScalar(const float* query, const uint16_t* base, size_t n,
                     size_t dim, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) {
      __builtin_prefetch(base + (i + 4) * dim, 0, 1);
      __builtin_prefetch(base + (i + 6) * dim, 0, 1);
    }
    out[i + 0] = Row(query, base + (i + 0) * dim, dim);
    out[i + 1] = Row(query, base + (i + 1) * dim, dim);
    out[i + 2] = Row(query, base + (i + 2) * dim, dim);
    out[i + 3] = Row(query, base + (i + 3) * dim, dim);
  }
  for (; i < n; ++i) out[i] = Row(query, base + i * dim, dim);
}

float I8AsymL2SqrScalar(const float* query, const int8_t* code, float scale,
                        size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    float d = query[i] - scale * static_cast<float>(code[i]);
    acc += d * d;
  }
  return acc;
}

float I8AsymDotScalar(const float* query, const int8_t* code, float scale,
                      size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i)
    acc += query[i] * static_cast<float>(code[i]);
  return scale * acc;
}

int32_t I8L2SqrScalar(const int8_t* a, const int8_t* b, size_t dim) {
  int32_t acc = 0;
  for (size_t i = 0; i < dim; ++i) {
    int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    acc += d * d;
  }
  return acc;
}

int32_t I8DotScalar(const int8_t* a, const int8_t* b, size_t dim) {
  int32_t acc = 0;
  for (size_t i = 0; i < dim; ++i)
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  return acc;
}

template <int32_t (*Row)(const int8_t*, const int8_t*, size_t)>
void I8BatchScalar(const int8_t* query, const int8_t* base, size_t n,
                   size_t dim, int32_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) {
      __builtin_prefetch(base + (i + 4) * dim, 0, 1);
      __builtin_prefetch(base + (i + 6) * dim, 0, 1);
    }
    out[i + 0] = Row(query, base + (i + 0) * dim, dim);
    out[i + 1] = Row(query, base + (i + 1) * dim, dim);
    out[i + 2] = Row(query, base + (i + 2) * dim, dim);
    out[i + 3] = Row(query, base + (i + 3) * dim, dim);
  }
  for (; i < n; ++i) out[i] = Row(query, base + i * dim, dim);
}

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      .tier = SimdTier::kScalar,
      .l2sqr = L2SqrScalar,
      .inner_product = InnerProductScalar,
      .cosine = CosineScalar,
      .batch_l2sqr = BatchL2SqrScalar,
      .batch_inner_product = BatchInnerProductScalar,
      .pq_adc = PqAdcScalar,
      .pq_adc_batch = PqAdcBatchScalar,
      .fp16_l2sqr = HalfL2SqrScalar,
      .fp16_inner_product = HalfInnerProductScalar,
      .batch_fp16_l2sqr = HalfBatchScalar<HalfL2SqrScalar>,
      .batch_fp16_inner_product = HalfBatchScalar<HalfInnerProductScalar>,
      .i8_asym_l2sqr = I8AsymL2SqrScalar,
      .i8_asym_dot = I8AsymDotScalar,
      .i8_l2sqr = I8L2SqrScalar,
      .i8_dot = I8DotScalar,
      .batch_i8_l2sqr = I8BatchScalar<I8L2SqrScalar>,
      .batch_i8_dot = I8BatchScalar<I8DotScalar>,
  };
  return table;
}

}  // namespace blendhouse::vecindex::kernels
