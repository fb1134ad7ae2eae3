#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace blendhouse::vecindex::kernels {

/// SIMD instruction tiers, best-last. Which tiers exist in the binary is a
/// build-time property (per-TU -march flags in src/vecindex/CMakeLists.txt);
/// which one runs is decided once at startup from CPUID, overridable with
/// the BLENDHOUSE_FORCE_SCALAR environment variable.
enum class SimdTier { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

std::string SimdTierName(SimdTier tier);

// ---- Kernel signatures -----------------------------------------------------
//
// Alignment contract: kernels use unaligned loads and accept any pointer.
// 64-byte-aligned storage (common::AlignedVector) is a throughput
// optimization for the packed base side, never a precondition — queries
// arrive from arbitrary caller buffers.

/// Pairwise float kernel over two dim-length vectors.
using DistFn = float (*)(const float* a, const float* b, size_t dim);

/// One query against `n` packed base vectors (row stride = dim), writing n
/// outputs. Implementations block 4 rows per pass and software-prefetch
/// upcoming rows.
using BatchDistFn = void (*)(const float* query, const float* base, size_t n,
                             size_t dim, float* out);

/// PQ ADC lookup: sum of table[s * ks + code[s]] over the m subspaces.
using PqAdcFn = float (*)(const float* table, const uint8_t* code, size_t m,
                          size_t ks);

/// ADC over `n` packed codes (row stride = m bytes), with prefetch.
using PqAdcBatchFn = void (*)(const float* table, const uint8_t* codes,
                              size_t n, size_t m, size_t ks, float* out);

// ---- Reduced-precision kernels (DESIGN.md §13) -----------------------------
//
// fp16 kernels are asymmetric: the query stays fp32 (it arrives once per
// search; narrowing it buys nothing) and the packed base side holds fp16
// codes widened to fp32 in registers. int8 comes in two shapes: a
// symmetric i8 x i8 integer kernel for batch scans (the VNNI dot-product
// idiom — the query is quantized once per search) and an asymmetric
// fp32 x int8 kernel for graph walks, where the fp32 query keeps hop
// ordering stable without a per-hop decode buffer.

/// fp32 query vs one packed fp16 base vector.
using HalfDistFn = float (*)(const float* query, const uint16_t* code,
                             size_t dim);

/// One fp32 query against n packed fp16 rows (row stride = dim).
using HalfBatchFn = void (*)(const float* query, const uint16_t* base,
                             size_t n, size_t dim, float* out);

/// fp32 query vs int8 code under one symmetric scale: decoded = scale*code.
using I8AsymDistFn = float (*)(const float* query, const int8_t* code,
                               float scale, size_t dim);

/// Symmetric int8 kernel returning the raw integer accumulation (sum of
/// squared differences, or dot product); the caller applies scale factors.
/// Contract: dim <= 32768 so the i32 accumulators cannot overflow.
using I8DistFn = int32_t (*)(const int8_t* a, const int8_t* b, size_t dim);

/// Batched symmetric int8 kernel writing raw i32 accumulations.
using I8BatchFn = void (*)(const int8_t* query, const int8_t* base, size_t n,
                           size_t dim, int32_t* out);

/// One tier's full kernel set. Resolved once; indexes grab the function
/// pointers they need instead of re-dispatching on Metric per call.
/// Reduced-precision cosine has no dedicated kernels: scans compose the dot
/// kernel with stored base norms via CosineFromDot.
struct KernelTable {
  SimdTier tier = SimdTier::kScalar;
  DistFn l2sqr = nullptr;
  DistFn inner_product = nullptr;
  /// 1 - dot/(|a||b|); computes both norms in the same pass. Returns 1.0
  /// when either norm is zero (the "no similarity evidence" convention every
  /// index shares).
  DistFn cosine = nullptr;
  BatchDistFn batch_l2sqr = nullptr;
  BatchDistFn batch_inner_product = nullptr;
  PqAdcFn pq_adc = nullptr;
  PqAdcBatchFn pq_adc_batch = nullptr;
  HalfDistFn fp16_l2sqr = nullptr;
  HalfDistFn fp16_inner_product = nullptr;
  HalfBatchFn batch_fp16_l2sqr = nullptr;
  HalfBatchFn batch_fp16_inner_product = nullptr;
  I8AsymDistFn i8_asym_l2sqr = nullptr;
  I8AsymDistFn i8_asym_dot = nullptr;
  I8DistFn i8_l2sqr = nullptr;
  I8DistFn i8_dot = nullptr;
  I8BatchFn batch_i8_l2sqr = nullptr;
  I8BatchFn batch_i8_dot = nullptr;
};

// ---- fp16 scalar conversions -----------------------------------------------
//
// Bit-twiddled (no compiler half-float extension) so every tier — including
// plain scalar — encodes and decodes with identical results. Encoding
// rounds to nearest-even; decoding is exact.

inline float Fp16ToFloat(uint16_t h) {
  uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t man = h & 0x3ffu;
  uint32_t bits;
  if (exp == 0) {
    if (man == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal half: renormalize into a normal float.
      uint32_t e = 113;  // 127 - 15 + 1
      while ((man & 0x400u) == 0) {
        man <<= 1;
        --e;
      }
      bits = sign | (e << 23) | ((man & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    bits = sign | 0x7f800000u | (man << 13);  // inf / nan
  } else {
    bits = sign | ((exp + 112u) << 23) | (man << 13);
  }
  return __builtin_bit_cast(float, bits);
}

inline uint16_t FloatToFp16(float f) {
  uint32_t x = __builtin_bit_cast(uint32_t, f);
  uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  x &= 0x7fffffffu;
  if (x >= 0x7f800000u) {  // inf / nan
    return static_cast<uint16_t>(
        sign | (x > 0x7f800000u ? 0x7e00u : 0x7c00u));
  }
  if (x >= 0x47800000u) return static_cast<uint16_t>(sign | 0x7c00u);  // ovf
  if (x < 0x38800000u) {  // subnormal half (or zero)
    uint32_t shift = 126u - (x >> 23);  // 14 (top subnormal) .. 24 (epsilon)
    if (shift > 24u) return sign;
    uint32_t man = (x & 0x7fffffu) | 0x800000u;
    uint16_t h = static_cast<uint16_t>(man >> shift);
    uint32_t rem = man & ((1u << shift) - 1u);
    uint32_t half = 1u << (shift - 1u);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return static_cast<uint16_t>(sign | h);
  }
  uint32_t exp = (x >> 23) - 112u;
  uint16_t h = static_cast<uint16_t>((exp << 10) | ((x >> 13) & 0x3ffu));
  uint32_t rem = x & 0x1fffu;
  // Round to nearest-even; a mantissa carry correctly bumps the exponent
  // (65504.x -> inf included).
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return static_cast<uint16_t>(sign | h);
}

// ---- Dispatch --------------------------------------------------------------

/// Active kernel table. First call resolves the tier (CPU features, env
/// override) and caches it; later calls are one relaxed atomic load.
const KernelTable& Get();

/// Tier of the active table.
SimdTier ActiveTier();

/// The table for a specific tier, or nullptr when that tier was not compiled
/// into this binary or the CPU cannot run it. Scalar always exists.
const KernelTable* GetTable(SimdTier tier);

/// Tiers compiled into this binary AND runnable on this CPU, ascending.
std::vector<SimdTier> AvailableTiers();

/// What dispatch would pick right now: best available tier, or kScalar when
/// BLENDHOUSE_FORCE_SCALAR is set (1/true/yes/on). Re-reads the environment
/// on every call so tests can exercise the override.
SimdTier ChooseTier();

/// Testing/diagnostics hook: swap the active table (e.g. to validate the
/// scalar fallback end to end). Returns the previous tier. Indexes resolve
/// their function pointers at construction/load, so rebuild or reload
/// indexes after switching. No-op (returns current) if `tier` is
/// unavailable.
SimdTier SetActiveTier(SimdTier tier);

/// Hint the prefetcher at data needed a few iterations from now. Thin
/// wrapper over the compiler builtin so scan loops outside kernels/ stay
/// intrinsic-free.
inline void Prefetch(const void* p) { __builtin_prefetch(p, 0, 1); }

}  // namespace blendhouse::vecindex::kernels
