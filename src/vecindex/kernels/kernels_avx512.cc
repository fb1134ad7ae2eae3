// AVX-512 kernels (F+BW+DQ+VL). Compiled with matching -m flags per-source;
// dispatch selects this tier only when CPUID reports all four feature bits.
// Odd dimension tails use maskz loads instead of a scalar epilogue — one of
// the places AVX-512 genuinely simplifies the code. Loads are unaligned.

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <cmath>

#include "vecindex/kernels/kernel_tables.h"

namespace blendhouse::vecindex::kernels {
namespace {

inline __mmask16 TailMask(size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

float L2SqrAvx512(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16),
                              _mm512_loadu_ps(b + i + 16));
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    __m512 d = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, a + i),
                             _mm512_maskz_loadu_ps(k, b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float InnerProductAvx512(const float* a, const float* b, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= dim; i += 16)
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, a + i),
                           _mm512_maskz_loadu_ps(k, b + i), acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float CosineAvx512(const float* a, const float* b, size_t dim) {
  __m512 dot = _mm512_setzero_ps();
  __m512 na = _mm512_setzero_ps();
  __m512 nb = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 va = _mm512_loadu_ps(a + i);
    __m512 vb = _mm512_loadu_ps(b + i);
    dot = _mm512_fmadd_ps(va, vb, dot);
    na = _mm512_fmadd_ps(va, va, na);
    nb = _mm512_fmadd_ps(vb, vb, nb);
  }
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    __m512 va = _mm512_maskz_loadu_ps(k, a + i);
    __m512 vb = _mm512_maskz_loadu_ps(k, b + i);
    dot = _mm512_fmadd_ps(va, vb, dot);
    na = _mm512_fmadd_ps(va, va, na);
    nb = _mm512_fmadd_ps(vb, vb, nb);
  }
  float sdot = _mm512_reduce_add_ps(dot);
  float denom = std::sqrt(_mm512_reduce_add_ps(na)) *
                std::sqrt(_mm512_reduce_add_ps(nb));
  if (denom <= 0.0f) return 1.0f;
  return 1.0f - sdot / denom;
}

// 4-way register-blocked batch with prefetch; see the AVX2 TU for the
// blocking rationale.
void BatchL2SqrAvx512(const float* query, const float* base, size_t n,
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
    __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps(), a3 = _mm512_setzero_ps();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      __m512 q = _mm512_loadu_ps(query + d);
      __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(r0 + d), q);
      a0 = _mm512_fmadd_ps(d0, d0, a0);
      __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(r1 + d), q);
      a1 = _mm512_fmadd_ps(d1, d1, a1);
      __m512 d2 = _mm512_sub_ps(_mm512_loadu_ps(r2 + d), q);
      a2 = _mm512_fmadd_ps(d2, d2, a2);
      __m512 d3 = _mm512_sub_ps(_mm512_loadu_ps(r3 + d), q);
      a3 = _mm512_fmadd_ps(d3, d3, a3);
    }
    if (d < dim) {
      __mmask16 k = TailMask(dim - d);
      __m512 q = _mm512_maskz_loadu_ps(k, query + d);
      __m512 d0 = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, r0 + d), q);
      a0 = _mm512_fmadd_ps(d0, d0, a0);
      __m512 d1 = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, r1 + d), q);
      a1 = _mm512_fmadd_ps(d1, d1, a1);
      __m512 d2 = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, r2 + d), q);
      a2 = _mm512_fmadd_ps(d2, d2, a2);
      __m512 d3 = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, r3 + d), q);
      a3 = _mm512_fmadd_ps(d3, d3, a3);
    }
    out[i + 0] = _mm512_reduce_add_ps(a0);
    out[i + 1] = _mm512_reduce_add_ps(a1);
    out[i + 2] = _mm512_reduce_add_ps(a2);
    out[i + 3] = _mm512_reduce_add_ps(a3);
  }
  for (; i < n; ++i) out[i] = L2SqrAvx512(query, base + i * dim, dim);
}

void BatchInnerProductAvx512(const float* query, const float* base, size_t n,
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
    __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps(), a3 = _mm512_setzero_ps();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      __m512 q = _mm512_loadu_ps(query + d);
      a0 = _mm512_fmadd_ps(_mm512_loadu_ps(r0 + d), q, a0);
      a1 = _mm512_fmadd_ps(_mm512_loadu_ps(r1 + d), q, a1);
      a2 = _mm512_fmadd_ps(_mm512_loadu_ps(r2 + d), q, a2);
      a3 = _mm512_fmadd_ps(_mm512_loadu_ps(r3 + d), q, a3);
    }
    if (d < dim) {
      __mmask16 k = TailMask(dim - d);
      __m512 q = _mm512_maskz_loadu_ps(k, query + d);
      a0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, r0 + d), q, a0);
      a1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, r1 + d), q, a1);
      a2 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, r2 + d), q, a2);
      a3 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, r3 + d), q, a3);
    }
    out[i + 0] = _mm512_reduce_add_ps(a0);
    out[i + 1] = _mm512_reduce_add_ps(a1);
    out[i + 2] = _mm512_reduce_add_ps(a2);
    out[i + 3] = _mm512_reduce_add_ps(a3);
  }
  for (; i < n; ++i) out[i] = InnerProductAvx512(query, base + i * dim, dim);
}

float PqAdcAvx512(const float* table, const uint8_t* code, size_t m,
                  size_t ks) {
  __m512 acc = _mm512_setzero_ps();
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15);
  const __m512i vks = _mm512_set1_epi32(static_cast<int>(ks));
  size_t s = 0;
  for (; s + 16 <= m; s += 16) {
    __m128i c16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(code + s));
    __m512i idx = _mm512_cvtepu8_epi32(c16);
    __m512i row = _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(s)),
                                   iota);
    idx = _mm512_add_epi32(idx, _mm512_mullo_epi32(row, vks));
    acc = _mm512_add_ps(acc, _mm512_i32gather_ps(idx, table, 4));
  }
  float sum = _mm512_reduce_add_ps(acc);
  for (; s < m; ++s) sum += table[s * ks + code[s]];
  return sum;
}

void PqAdcBatchAvx512(const float* table, const uint8_t* codes, size_t n,
                      size_t m, size_t ks, float* out) {
  for (size_t i = 0; i < n; ++i) {
    if (i + 4 < n)
      _mm_prefetch(reinterpret_cast<const char*>(codes + (i + 4) * m),
                   _MM_HINT_T0);
    out[i] = PqAdcAvx512(table, codes + i * m, m, ks);
  }
}

// ---- Reduced-precision kernels ---------------------------------------------
//
// 16 fp16 half-words decode to one zmm per load through vcvtph2ps
// (AVX-512F operates on a full ymm of halves natively). Masked u16 loads
// give branch-free tails.

inline __m512 LoadFp16x16(const uint16_t* p) {
  return _mm512_cvtph_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

inline __m512 MaskLoadFp16x16(__mmask16 k, const uint16_t* p) {
  return _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(k, p));
}

float HalfL2SqrAvx512(const float* query, const uint16_t* code, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    __m512 d0 =
        _mm512_sub_ps(_mm512_loadu_ps(query + i), LoadFp16x16(code + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(query + i + 16),
                              LoadFp16x16(code + i + 16));
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= dim; i += 16) {
    __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(query + i), LoadFp16x16(code + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, query + i),
                             MaskLoadFp16x16(k, code + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float HalfInnerProductAvx512(const float* query, const uint16_t* code,
                             size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(query + i), LoadFp16x16(code + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(query + i + 16),
                           LoadFp16x16(code + i + 16), acc1);
  }
  for (; i + 16 <= dim; i += 16)
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(query + i), LoadFp16x16(code + i),
                           acc0);
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    acc0 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, query + i),
                           MaskLoadFp16x16(k, code + i), acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

void HalfBatchL2SqrAvx512(const float* query, const uint16_t* base, size_t n,
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
    __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps(), a3 = _mm512_setzero_ps();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      __m512 q = _mm512_loadu_ps(query + d);
      __m512 d0 = _mm512_sub_ps(LoadFp16x16(r0 + d), q);
      a0 = _mm512_fmadd_ps(d0, d0, a0);
      __m512 d1 = _mm512_sub_ps(LoadFp16x16(r1 + d), q);
      a1 = _mm512_fmadd_ps(d1, d1, a1);
      __m512 d2 = _mm512_sub_ps(LoadFp16x16(r2 + d), q);
      a2 = _mm512_fmadd_ps(d2, d2, a2);
      __m512 d3 = _mm512_sub_ps(LoadFp16x16(r3 + d), q);
      a3 = _mm512_fmadd_ps(d3, d3, a3);
    }
    if (d < dim) {
      __mmask16 k = TailMask(dim - d);
      __m512 q = _mm512_maskz_loadu_ps(k, query + d);
      __m512 d0 = _mm512_sub_ps(MaskLoadFp16x16(k, r0 + d), q);
      a0 = _mm512_fmadd_ps(d0, d0, a0);
      __m512 d1 = _mm512_sub_ps(MaskLoadFp16x16(k, r1 + d), q);
      a1 = _mm512_fmadd_ps(d1, d1, a1);
      __m512 d2 = _mm512_sub_ps(MaskLoadFp16x16(k, r2 + d), q);
      a2 = _mm512_fmadd_ps(d2, d2, a2);
      __m512 d3 = _mm512_sub_ps(MaskLoadFp16x16(k, r3 + d), q);
      a3 = _mm512_fmadd_ps(d3, d3, a3);
    }
    out[i + 0] = _mm512_reduce_add_ps(a0);
    out[i + 1] = _mm512_reduce_add_ps(a1);
    out[i + 2] = _mm512_reduce_add_ps(a2);
    out[i + 3] = _mm512_reduce_add_ps(a3);
  }
  for (; i < n; ++i)
    out[i] = HalfL2SqrAvx512(query, base + i * dim, dim);
}

void HalfBatchInnerProductAvx512(const float* query, const uint16_t* base,
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
    __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps(), a3 = _mm512_setzero_ps();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      __m512 q = _mm512_loadu_ps(query + d);
      a0 = _mm512_fmadd_ps(LoadFp16x16(r0 + d), q, a0);
      a1 = _mm512_fmadd_ps(LoadFp16x16(r1 + d), q, a1);
      a2 = _mm512_fmadd_ps(LoadFp16x16(r2 + d), q, a2);
      a3 = _mm512_fmadd_ps(LoadFp16x16(r3 + d), q, a3);
    }
    if (d < dim) {
      __mmask16 k = TailMask(dim - d);
      __m512 q = _mm512_maskz_loadu_ps(k, query + d);
      a0 = _mm512_fmadd_ps(MaskLoadFp16x16(k, r0 + d), q, a0);
      a1 = _mm512_fmadd_ps(MaskLoadFp16x16(k, r1 + d), q, a1);
      a2 = _mm512_fmadd_ps(MaskLoadFp16x16(k, r2 + d), q, a2);
      a3 = _mm512_fmadd_ps(MaskLoadFp16x16(k, r3 + d), q, a3);
    }
    out[i + 0] = _mm512_reduce_add_ps(a0);
    out[i + 1] = _mm512_reduce_add_ps(a1);
    out[i + 2] = _mm512_reduce_add_ps(a2);
    out[i + 3] = _mm512_reduce_add_ps(a3);
  }
  for (; i < n; ++i)
    out[i] = HalfInnerProductAvx512(query, base + i * dim, dim);
}

/// Decodes 16 int8 codes to fp32 (no scale), masked.
inline __m512 DecodeI8x16(__mmask16 k, const int8_t* p) {
  return _mm512_cvtepi32_ps(
      _mm512_cvtepi8_epi32(_mm_maskz_loadu_epi8(k, p)));
}

float I8AsymL2SqrAvx512(const float* query, const int8_t* code, float scale,
                        size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  const __m512 vs = _mm512_set1_ps(scale);
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    __m512 d = _mm512_sub_ps(_mm512_loadu_ps(query + i),
                             _mm512_mul_ps(vs, DecodeI8x16(0xffff, code + i)));
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(k, query + i),
                             _mm512_mul_ps(vs, DecodeI8x16(k, code + i)));
    acc = _mm512_fmadd_ps(d, d, acc);
  }
  return _mm512_reduce_add_ps(acc);
}

float I8AsymDotAvx512(const float* query, const int8_t* code, float scale,
                      size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16)
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(query + i),
                          DecodeI8x16(0xffff, code + i), acc);
  if (i < dim) {
    __mmask16 k = TailMask(dim - i);
    acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, query + i),
                          DecodeI8x16(k, code + i), acc);
  }
  return scale * _mm512_reduce_add_ps(acc);
}

inline __mmask32 TailMask32(size_t rem) {
  return static_cast<__mmask32>((1u << rem) - 1u);
}

// Symmetric int8 without VNNI: widen 32 codes to i16 zmm lanes, vpmaddwd
// into i32. The VNNI TU replaces these with single-instruction dpwssd MACs.
int32_t I8DotAvx512(const int8_t* a, const int8_t* b, size_t dim) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    __m512i a16 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    __m512i b16 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a16, b16));
  }
  if (i < dim) {
    __mmask32 k = TailMask32(dim - i);
    __m512i a16 = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(k, a + i));
    __m512i b16 = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(k, b + i));
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a16, b16));
  }
  return static_cast<int32_t>(_mm512_reduce_add_epi32(acc));
}

int32_t I8L2SqrAvx512(const int8_t* a, const int8_t* b, size_t dim) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    __m512i a16 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    __m512i b16 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    __m512i d = _mm512_sub_epi16(a16, b16);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(d, d));
  }
  if (i < dim) {
    __mmask32 k = TailMask32(dim - i);
    __m512i a16 = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(k, a + i));
    __m512i b16 = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(k, b + i));
    __m512i d = _mm512_sub_epi16(a16, b16);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(d, d));
  }
  return static_cast<int32_t>(_mm512_reduce_add_epi32(acc));
}

template <int32_t (*Row)(const int8_t*, const int8_t*, size_t)>
void I8BatchAvx512(const int8_t* query, const int8_t* base, size_t n,
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

const KernelTable& Avx512Table() {
  static const KernelTable table = {
      .tier = SimdTier::kAvx512,
      .l2sqr = L2SqrAvx512,
      .inner_product = InnerProductAvx512,
      .cosine = CosineAvx512,
      .batch_l2sqr = BatchL2SqrAvx512,
      .batch_inner_product = BatchInnerProductAvx512,
      .pq_adc = PqAdcAvx512,
      .pq_adc_batch = PqAdcBatchAvx512,
      .fp16_l2sqr = HalfL2SqrAvx512,
      .fp16_inner_product = HalfInnerProductAvx512,
      .batch_fp16_l2sqr = HalfBatchL2SqrAvx512,
      .batch_fp16_inner_product = HalfBatchInnerProductAvx512,
      .i8_asym_l2sqr = I8AsymL2SqrAvx512,
      .i8_asym_dot = I8AsymDotAvx512,
      .i8_l2sqr = I8L2SqrAvx512,
      .i8_dot = I8DotAvx512,
      .batch_i8_l2sqr = I8BatchAvx512<I8L2SqrAvx512>,
      .batch_i8_dot = I8BatchAvx512<I8DotAvx512>,
  };
  return table;
}

}  // namespace blendhouse::vecindex::kernels

#endif  // AVX-512 F+BW+DQ+VL
