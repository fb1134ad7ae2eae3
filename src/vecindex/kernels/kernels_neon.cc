// NEON kernels for aarch64. NEON is baseline on AArch64 so this TU needs no
// extra -m flags; it is only added to the build on ARM targets. Kept
// deliberately simple (4-lane, 2-way unroll): the repo's perf work targets
// x86 first, but ARM hosts should not fall back to scalar.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

#include "vecindex/kernels/kernel_tables.h"

namespace blendhouse::vecindex::kernels {
namespace {

float L2SqrNeon(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d0, d0);
    float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= dim; i += 4) {
    float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < dim; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float InnerProductNeon(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= dim; i += 4)
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

float CosineNeon(const float* a, const float* b, size_t dim) {
  float32x4_t dot = vdupq_n_f32(0.0f);
  float32x4_t na = vdupq_n_f32(0.0f);
  float32x4_t nb = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    float32x4_t va = vld1q_f32(a + i);
    float32x4_t vb = vld1q_f32(b + i);
    dot = vfmaq_f32(dot, va, vb);
    na = vfmaq_f32(na, va, va);
    nb = vfmaq_f32(nb, vb, vb);
  }
  float sdot = vaddvq_f32(dot), sna = vaddvq_f32(na), snb = vaddvq_f32(nb);
  for (; i < dim; ++i) {
    sdot += a[i] * b[i];
    sna += a[i] * a[i];
    snb += b[i] * b[i];
  }
  float denom = std::sqrt(sna) * std::sqrt(snb);
  if (denom <= 0.0f) return 1.0f;
  return 1.0f - sdot / denom;
}

template <typename RowKernel>
void BatchNeon(const float* query, const float* base, size_t n, size_t dim,
               float* out, RowKernel row) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 <= n) {
      __builtin_prefetch(base + (i + 4) * dim, 0, 1);
      __builtin_prefetch(base + (i + 6) * dim, 0, 1);
    }
    out[i + 0] = row(query, base + (i + 0) * dim, dim);
    out[i + 1] = row(query, base + (i + 1) * dim, dim);
    out[i + 2] = row(query, base + (i + 2) * dim, dim);
    out[i + 3] = row(query, base + (i + 3) * dim, dim);
  }
  for (; i < n; ++i) out[i] = row(query, base + i * dim, dim);
}

void BatchL2SqrNeon(const float* query, const float* base, size_t n,
                    size_t dim, float* out) {
  BatchNeon(query, base, n, dim, out, L2SqrNeon);
}

void BatchInnerProductNeon(const float* query, const float* base, size_t n,
                           size_t dim, float* out) {
  BatchNeon(query, base, n, dim, out, InnerProductNeon);
}

float PqAdcNeon(const float* table, const uint8_t* code, size_t m,
                size_t ks) {
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

void PqAdcBatchNeon(const float* table, const uint8_t* codes, size_t n,
                    size_t m, size_t ks, float* out) {
  for (size_t i = 0; i < n; ++i) {
    if (i + 4 < n) __builtin_prefetch(codes + (i + 4) * m, 0, 1);
    out[i] = PqAdcNeon(table, codes + i * m, m, ks);
  }
}

// ---- Reduced-precision kernels ---------------------------------------------
//
// fp16 uses the baseline AArch64 FCVTL conversion (half -> single is
// mandatory in ARMv8.0-A even without the FP16 arithmetic extension);
// scalar tails use the bit-exact Fp16ToFloat.

inline float32x4_t LoadFp16x4(const uint16_t* p) {
  return vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(p)));
}

float HalfL2SqrNeon(const float* query, const uint16_t* code, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(query + i), LoadFp16x4(code + i));
    acc0 = vfmaq_f32(acc0, d0, d0);
    float32x4_t d1 =
        vsubq_f32(vld1q_f32(query + i + 4), LoadFp16x4(code + i + 4));
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= dim; i += 4) {
    float32x4_t d = vsubq_f32(vld1q_f32(query + i), LoadFp16x4(code + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < dim; ++i) {
    float d = query[i] - Fp16ToFloat(code[i]);
    acc += d * d;
  }
  return acc;
}

float HalfInnerProductNeon(const float* query, const uint16_t* code,
                           size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(query + i), LoadFp16x4(code + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(query + i + 4), LoadFp16x4(code + i + 4));
  }
  for (; i + 4 <= dim; i += 4)
    acc0 = vfmaq_f32(acc0, vld1q_f32(query + i), LoadFp16x4(code + i));
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < dim; ++i) acc += query[i] * Fp16ToFloat(code[i]);
  return acc;
}

template <float (*Row)(const float*, const uint16_t*, size_t)>
void HalfBatchNeon(const float* query, const uint16_t* base, size_t n,
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

/// Decodes 4 int8 codes to fp32 (no scale applied).
inline float32x4_t DecodeI8x4(const int8_t* p) {
  int8_t tmp[8] = {p[0], p[1], p[2], p[3], 0, 0, 0, 0};
  int16x8_t w = vmovl_s8(vld1_s8(tmp));
  return vcvtq_f32_s32(vmovl_s16(vget_low_s16(w)));
}

float I8AsymL2SqrNeon(const float* query, const int8_t* code, float scale,
                      size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  const float32x4_t vs = vdupq_n_f32(scale);
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    float32x4_t d = vsubq_f32(vld1q_f32(query + i),
                              vmulq_f32(vs, DecodeI8x4(code + i)));
    acc = vfmaq_f32(acc, d, d);
  }
  float sum = vaddvq_f32(acc);
  for (; i < dim; ++i) {
    float d = query[i] - scale * static_cast<float>(code[i]);
    sum += d * d;
  }
  return sum;
}

float I8AsymDotNeon(const float* query, const int8_t* code, float scale,
                    size_t dim) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= dim; i += 4)
    acc = vfmaq_f32(acc, vld1q_f32(query + i), DecodeI8x4(code + i));
  float sum = vaddvq_f32(acc);
  for (; i < dim; ++i) sum += query[i] * static_cast<float>(code[i]);
  return scale * sum;
}

// Symmetric int8: vmull_s8 widens i8 x i8 to i16 products, vpadalq_s16
// folds adjacent pairs into i32 accumulators. (vdot needs the optional
// dotprod extension; this stays baseline ARMv8.0.)
int32_t I8DotNeon(const int8_t* a, const int8_t* b, size_t dim) {
  int32x4_t acc = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    int8x16_t va = vld1q_s8(a + i);
    int8x16_t vb = vld1q_s8(b + i);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(va), vget_low_s8(vb)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(va), vget_high_s8(vb)));
  }
  int32_t sum = vaddvq_s32(acc);
  for (; i < dim; ++i)
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  return sum;
}

int32_t I8L2SqrNeon(const int8_t* a, const int8_t* b, size_t dim) {
  int32x4_t acc0 = vdupq_n_s32(0);
  int32x4_t acc1 = vdupq_n_s32(0);
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    int8x16_t va = vld1q_s8(a + i);
    int8x16_t vb = vld1q_s8(b + i);
    int16x8_t dlo = vsubl_s8(vget_low_s8(va), vget_low_s8(vb));
    int16x8_t dhi = vsubl_s8(vget_high_s8(va), vget_high_s8(vb));
    acc0 = vmlal_s16(acc0, vget_low_s16(dlo), vget_low_s16(dlo));
    acc0 = vmlal_s16(acc0, vget_high_s16(dlo), vget_high_s16(dlo));
    acc1 = vmlal_s16(acc1, vget_low_s16(dhi), vget_low_s16(dhi));
    acc1 = vmlal_s16(acc1, vget_high_s16(dhi), vget_high_s16(dhi));
  }
  int32_t sum = vaddvq_s32(vaddq_s32(acc0, acc1));
  for (; i < dim; ++i) {
    int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    sum += d * d;
  }
  return sum;
}

template <int32_t (*Row)(const int8_t*, const int8_t*, size_t)>
void I8BatchNeon(const int8_t* query, const int8_t* base, size_t n,
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

const KernelTable& NeonTable() {
  static const KernelTable table = {
      .tier = SimdTier::kNeon,
      .l2sqr = L2SqrNeon,
      .inner_product = InnerProductNeon,
      .cosine = CosineNeon,
      .batch_l2sqr = BatchL2SqrNeon,
      .batch_inner_product = BatchInnerProductNeon,
      .pq_adc = PqAdcNeon,
      .pq_adc_batch = PqAdcBatchNeon,
      .fp16_l2sqr = HalfL2SqrNeon,
      .fp16_inner_product = HalfInnerProductNeon,
      .batch_fp16_l2sqr = HalfBatchNeon<HalfL2SqrNeon>,
      .batch_fp16_inner_product = HalfBatchNeon<HalfInnerProductNeon>,
      .i8_asym_l2sqr = I8AsymL2SqrNeon,
      .i8_asym_dot = I8AsymDotNeon,
      .i8_l2sqr = I8L2SqrNeon,
      .i8_dot = I8DotNeon,
      .batch_i8_l2sqr = I8BatchNeon<I8L2SqrNeon>,
      .batch_i8_dot = I8BatchNeon<I8DotNeon>,
  };
  return table;
}

}  // namespace blendhouse::vecindex::kernels

#endif  // __aarch64__
