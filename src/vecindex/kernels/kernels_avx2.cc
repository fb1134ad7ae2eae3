// AVX2+FMA+F16C kernels. This TU is compiled with -mavx2 -mfma -mf16c (set
// per-source in src/vecindex/CMakeLists.txt) and only linked into dispatch
// when the build supports those flags; dispatch only selects it when CPUID
// reports AVX2, FMA and F16C at runtime (F16C predates AVX2 in every
// shipped core, so requiring it costs no hardware coverage). All loads are
// unaligned (loadu): alignment of the packed base storage is a cache
// optimization, never a precondition.

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <cmath>

#include "vecindex/kernels/kernel_tables.h"

namespace blendhouse::vecindex::kernels {
namespace {

inline float Reduce8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

float L2SqrAvx2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                              _mm256_loadu_ps(b + i + 8));
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float acc = Reduce8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float InnerProductAvx2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  float acc = Reduce8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

float CosineAvx2(const float* a, const float* b, size_t dim) {
  __m256 dot = _mm256_setzero_ps();
  __m256 na = _mm256_setzero_ps();
  __m256 nb = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    dot = _mm256_fmadd_ps(va, vb, dot);
    na = _mm256_fmadd_ps(va, va, na);
    nb = _mm256_fmadd_ps(vb, vb, nb);
  }
  float sdot = Reduce8(dot), sna = Reduce8(na), snb = Reduce8(nb);
  for (; i < dim; ++i) {
    sdot += a[i] * b[i];
    sna += a[i] * a[i];
    snb += b[i] * b[i];
  }
  float denom = std::sqrt(sna) * std::sqrt(snb);
  if (denom <= 0.0f) return 1.0f;
  return 1.0f - sdot / denom;
}

// 4-way register-blocked batch: one query load feeds four row accumulators,
// so the query streams from L1 once per block instead of once per row.
void BatchL2SqrAvx2(const float* query, const float* base, size_t n,
                    size_t dim, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = base + (i + 0) * dim;
    const float* r1 = base + (i + 1) * dim;
    const float* r2 = base + (i + 2) * dim;
    const float* r3 = base + (i + 3) * dim;
    if (i + 8 <= n) {
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 4) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 6) * dim),
                   _MM_HINT_T0);
    }
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      __m256 q = _mm256_loadu_ps(query + d);
      __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(r0 + d), q);
      a0 = _mm256_fmadd_ps(d0, d0, a0);
      __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(r1 + d), q);
      a1 = _mm256_fmadd_ps(d1, d1, a1);
      __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(r2 + d), q);
      a2 = _mm256_fmadd_ps(d2, d2, a2);
      __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(r3 + d), q);
      a3 = _mm256_fmadd_ps(d3, d3, a3);
    }
    float s0 = Reduce8(a0), s1 = Reduce8(a1), s2 = Reduce8(a2),
          s3 = Reduce8(a3);
    for (; d < dim; ++d) {
      float q = query[d];
      float e0 = r0[d] - q, e1 = r1[d] - q, e2 = r2[d] - q, e3 = r3[d] - q;
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i) out[i] = L2SqrAvx2(query, base + i * dim, dim);
}

void BatchInnerProductAvx2(const float* query, const float* base, size_t n,
                           size_t dim, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = base + (i + 0) * dim;
    const float* r1 = base + (i + 1) * dim;
    const float* r2 = base + (i + 2) * dim;
    const float* r3 = base + (i + 3) * dim;
    if (i + 8 <= n) {
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 4) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 6) * dim),
                   _MM_HINT_T0);
    }
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      __m256 q = _mm256_loadu_ps(query + d);
      a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + d), q, a0);
      a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + d), q, a1);
      a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + d), q, a2);
      a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3 + d), q, a3);
    }
    float s0 = Reduce8(a0), s1 = Reduce8(a1), s2 = Reduce8(a2),
          s3 = Reduce8(a3);
    for (; d < dim; ++d) {
      float q = query[d];
      s0 += r0[d] * q;
      s1 += r1[d] * q;
      s2 += r2[d] * q;
      s3 += r3[d] * q;
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i) out[i] = InnerProductAvx2(query, base + i * dim, dim);
}

float PqAdcAvx2(const float* table, const uint8_t* code, size_t m,
                size_t ks) {
  __m256 acc = _mm256_setzero_ps();
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i vks = _mm256_set1_epi32(static_cast<int>(ks));
  size_t s = 0;
  for (; s + 8 <= m; s += 8) {
    __m128i c8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + s));
    __m256i idx = _mm256_cvtepu8_epi32(c8);
    __m256i row = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(s)),
                                   iota);
    idx = _mm256_add_epi32(idx, _mm256_mullo_epi32(row, vks));
    acc = _mm256_add_ps(acc, _mm256_i32gather_ps(table, idx, 4));
  }
  float sum = Reduce8(acc);
  for (; s < m; ++s) sum += table[s * ks + code[s]];
  return sum;
}

void PqAdcBatchAvx2(const float* table, const uint8_t* codes, size_t n,
                    size_t m, size_t ks, float* out) {
  for (size_t i = 0; i < n; ++i) {
    if (i + 4 < n)
      _mm_prefetch(reinterpret_cast<const char*>(codes + (i + 4) * m),
                   _MM_HINT_T0);
    out[i] = PqAdcAvx2(table, codes + i * m, m, ks);
  }
}

// ---- Reduced-precision kernels ---------------------------------------------
//
// fp16 rows widen eight halves per load through F16C vcvtph2ps; scalar
// tails use the bit-exact Fp16ToFloat.

inline __m256 LoadFp16x8(const uint16_t* p) {
  return _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

float HalfL2SqrAvx2(const float* query, const uint16_t* code, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(query + i), LoadFp16x8(code + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(query + i + 8), LoadFp16x8(code + i + 8));
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(query + i), LoadFp16x8(code + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float acc = Reduce8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    float d = query[i] - Fp16ToFloat(code[i]);
    acc += d * d;
  }
  return acc;
}

float HalfInnerProductAvx2(const float* query, const uint16_t* code,
                           size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(query + i), LoadFp16x8(code + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(query + i + 8),
                           LoadFp16x8(code + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(query + i), LoadFp16x8(code + i),
                           acc0);
  float acc = Reduce8(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) acc += query[i] * Fp16ToFloat(code[i]);
  return acc;
}

// 4-way register-blocked 16-bit batches; same shape as the fp32 batches but
// the rows stream at half the bandwidth — which is the whole point.
void HalfBatchL2SqrAvx2(const float* query, const uint16_t* base, size_t n,
                        size_t dim, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint16_t* r0 = base + (i + 0) * dim;
    const uint16_t* r1 = base + (i + 1) * dim;
    const uint16_t* r2 = base + (i + 2) * dim;
    const uint16_t* r3 = base + (i + 3) * dim;
    if (i + 8 <= n) {
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 4) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 6) * dim),
                   _MM_HINT_T0);
    }
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      __m256 q = _mm256_loadu_ps(query + d);
      __m256 d0 = _mm256_sub_ps(LoadFp16x8(r0 + d), q);
      a0 = _mm256_fmadd_ps(d0, d0, a0);
      __m256 d1 = _mm256_sub_ps(LoadFp16x8(r1 + d), q);
      a1 = _mm256_fmadd_ps(d1, d1, a1);
      __m256 d2 = _mm256_sub_ps(LoadFp16x8(r2 + d), q);
      a2 = _mm256_fmadd_ps(d2, d2, a2);
      __m256 d3 = _mm256_sub_ps(LoadFp16x8(r3 + d), q);
      a3 = _mm256_fmadd_ps(d3, d3, a3);
    }
    float s0 = Reduce8(a0), s1 = Reduce8(a1), s2 = Reduce8(a2),
          s3 = Reduce8(a3);
    for (; d < dim; ++d) {
      float q = query[d];
      float e0 = Fp16ToFloat(r0[d]) - q, e1 = Fp16ToFloat(r1[d]) - q;
      float e2 = Fp16ToFloat(r2[d]) - q, e3 = Fp16ToFloat(r3[d]) - q;
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i)
    out[i] = HalfL2SqrAvx2(query, base + i * dim, dim);
}

void HalfBatchInnerProductAvx2(const float* query, const uint16_t* base,
                               size_t n, size_t dim, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint16_t* r0 = base + (i + 0) * dim;
    const uint16_t* r1 = base + (i + 1) * dim;
    const uint16_t* r2 = base + (i + 2) * dim;
    const uint16_t* r3 = base + (i + 3) * dim;
    if (i + 8 <= n) {
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 4) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 6) * dim),
                   _MM_HINT_T0);
    }
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      __m256 q = _mm256_loadu_ps(query + d);
      a0 = _mm256_fmadd_ps(LoadFp16x8(r0 + d), q, a0);
      a1 = _mm256_fmadd_ps(LoadFp16x8(r1 + d), q, a1);
      a2 = _mm256_fmadd_ps(LoadFp16x8(r2 + d), q, a2);
      a3 = _mm256_fmadd_ps(LoadFp16x8(r3 + d), q, a3);
    }
    float s0 = Reduce8(a0), s1 = Reduce8(a1), s2 = Reduce8(a2),
          s3 = Reduce8(a3);
    for (; d < dim; ++d) {
      float q = query[d];
      s0 += Fp16ToFloat(r0[d]) * q;
      s1 += Fp16ToFloat(r1[d]) * q;
      s2 += Fp16ToFloat(r2[d]) * q;
      s3 += Fp16ToFloat(r3[d]) * q;
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i)
    out[i] = HalfInnerProductAvx2(query, base + i * dim, dim);
}

/// Decodes 8 int8 codes to fp32 (no scale applied).
inline __m256 DecodeI8x8(const int8_t* p) {
  __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
}

float I8AsymL2SqrAvx2(const float* query, const int8_t* code, float scale,
                      size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(scale);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(query + i),
                             _mm256_mul_ps(vs, DecodeI8x8(code + i)));
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float sum = Reduce8(acc);
  for (; i < dim; ++i) {
    float d = query[i] - scale * static_cast<float>(code[i]);
    sum += d * d;
  }
  return sum;
}

float I8AsymDotAvx2(const float* query, const int8_t* code, float scale,
                    size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= dim; i += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(query + i), DecodeI8x8(code + i),
                          acc);
  float sum = Reduce8(acc);
  for (; i < dim; ++i) sum += query[i] * static_cast<float>(code[i]);
  return scale * sum;
}

inline int32_t ReduceI32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

// Symmetric int8: sign-extend 16 codes to i16 lanes, then vpmaddwd
// accumulates pairwise products into i32 — the widest integer MAC AVX2 has.
int32_t I8DotAvx2(const int8_t* a, const int8_t* b, size_t dim) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    __m256i b16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
  }
  int32_t sum = ReduceI32(acc);
  for (; i < dim; ++i)
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  return sum;
}

int32_t I8L2SqrAvx2(const int8_t* a, const int8_t* b, size_t dim) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    __m256i b16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    __m256i d = _mm256_sub_epi16(a16, b16);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
  }
  int32_t sum = ReduceI32(acc);
  for (; i < dim; ++i) {
    int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += d * d;
  }
  return sum;
}

template <int32_t (*Row)(const int8_t*, const int8_t*, size_t)>
void I8BatchAvx2(const int8_t* query, const int8_t* base, size_t n,
                 size_t dim, int32_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) {
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 4) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(base + (i + 6) * dim),
                   _MM_HINT_T0);
    }
    out[i + 0] = Row(query, base + (i + 0) * dim, dim);
    out[i + 1] = Row(query, base + (i + 1) * dim, dim);
    out[i + 2] = Row(query, base + (i + 2) * dim, dim);
    out[i + 3] = Row(query, base + (i + 3) * dim, dim);
  }
  for (; i < n; ++i) out[i] = Row(query, base + i * dim, dim);
}

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      .tier = SimdTier::kAvx2,
      .l2sqr = L2SqrAvx2,
      .inner_product = InnerProductAvx2,
      .cosine = CosineAvx2,
      .batch_l2sqr = BatchL2SqrAvx2,
      .batch_inner_product = BatchInnerProductAvx2,
      .pq_adc = PqAdcAvx2,
      .pq_adc_batch = PqAdcBatchAvx2,
      .fp16_l2sqr = HalfL2SqrAvx2,
      .fp16_inner_product = HalfInnerProductAvx2,
      .batch_fp16_l2sqr = HalfBatchL2SqrAvx2,
      .batch_fp16_inner_product = HalfBatchInnerProductAvx2,
      .i8_asym_l2sqr = I8AsymL2SqrAvx2,
      .i8_asym_dot = I8AsymDotAvx2,
      .i8_l2sqr = I8L2SqrAvx2,
      .i8_dot = I8DotAvx2,
      .batch_i8_l2sqr = I8BatchAvx2<I8L2SqrAvx2>,
      .batch_i8_dot = I8BatchAvx2<I8DotAvx2>,
  };
  return table;
}

}  // namespace blendhouse::vecindex::kernels

#endif  // __AVX2__ && __FMA__
