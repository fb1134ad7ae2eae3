#include "vecindex/distance.h"

#include <cctype>
#include <cmath>
#include <limits>

#include "vecindex/scan_counters.h"

namespace blendhouse::vecindex {

std::string MetricName(Metric m) {
  switch (m) {
    case Metric::kL2:
      return "L2";
    case Metric::kInnerProduct:
      return "IP";
    case Metric::kCosine:
      return "Cosine";
  }
  return "?";
}

std::string PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "FP32";
    case Precision::kFp16:
      return "FP16";
    case Precision::kInt8:
      return "INT8";
  }
  return "?";
}

bool ParsePrecision(const std::string& name, Precision* out) {
  std::string up;
  up.reserve(name.size());
  for (char c : name)
    up.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  if (up == "FP32" || up == "FLOAT32" || up == "FLOAT") {
    *out = Precision::kFp32;
  } else if (up == "FP16" || up == "FLOAT16" || up == "HALF") {
    *out = Precision::kFp16;
  } else if (up == "INT8" || up == "I8") {
    *out = Precision::kInt8;
  } else {
    return false;
  }
  return true;
}

bool PrecisionFromTag(uint8_t tag, Precision* out) {
  switch (tag) {
    case static_cast<uint8_t>(Precision::kFp32):
    case static_cast<uint8_t>(Precision::kFp16):
    case static_cast<uint8_t>(Precision::kInt8):
      *out = static_cast<Precision>(tag);
      return true;
  }
  return false;
}

bool MetricFromTag(uint32_t tag, Metric* out) {
  if (tag > static_cast<uint32_t>(Metric::kCosine)) return false;
  *out = static_cast<Metric>(tag);
  return true;
}

bool SavedDimValid(uint64_t dim) {
  return dim > 0 && dim <= std::numeric_limits<size_t>::max() / sizeof(float);
}

size_t PrecisionBytes(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return 4;
    case Precision::kFp16:
      return 2;
    case Precision::kInt8:
      return 1;
  }
  return 4;
}

float L2Sqr(const float* a, const float* b, size_t dim) {
  return kernels::Get().l2sqr(a, b, dim);
}

float InnerProduct(const float* a, const float* b, size_t dim) {
  return kernels::Get().inner_product(a, b, dim);
}

float CosineDistance(const float* a, const float* b, size_t dim) {
  return kernels::Get().cosine(a, b, dim);
}

float SquaredNorm(const float* v, size_t dim) {
  return kernels::Get().inner_product(v, v, dim);
}

namespace {

// IP similarity is negated into a distance. These wrappers read the active
// table at call time so a resolved pointer follows SetActiveTier without
// re-resolution; the extra indirection is one predicted call.
float NegInnerProduct(const float* a, const float* b, size_t dim) {
  return -kernels::Get().inner_product(a, b, dim);
}

void BatchNegInnerProduct(const float* query, const float* base, size_t n,
                          size_t dim, float* out) {
  kernels::Get().batch_inner_product(query, base, n, dim, out);
  for (size_t i = 0; i < n; ++i) out[i] = -out[i];
}

// Batched full cosine (no precomputed norms): per-row fused kernel with
// prefetch. Used where base norms aren't cached, e.g. centroid ranking.
void BatchCosineFull(const float* query, const float* base, size_t n,
                     size_t dim, float* out) {
  kernels::DistFn cosine = kernels::Get().cosine;
  for (size_t i = 0; i < n; ++i) {
    if (i + 4 < n) kernels::Prefetch(base + (i + 4) * dim);
    out[i] = cosine(query, base + i * dim, dim);
  }
}

}  // namespace

DistanceFn ResolveDistance(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return kernels::Get().l2sqr;
    case Metric::kInnerProduct:
      return NegInnerProduct;
    case Metric::kCosine:
      return kernels::Get().cosine;
  }
  return kernels::Get().l2sqr;
}

BatchDistanceFn ResolveBatchDistance(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return kernels::Get().batch_l2sqr;
    case Metric::kInnerProduct:
      return BatchNegInnerProduct;
    case Metric::kCosine:
      return BatchCosineFull;
  }
  return kernels::Get().batch_l2sqr;
}

float Distance(Metric metric, const float* a, const float* b, size_t dim) {
  scanstats::AddFp32(1);
  return ResolveDistance(metric)(a, b, dim);
}

void BatchDistance(Metric metric, const float* query, const float* base,
                   size_t n, size_t dim, float* out) {
  scanstats::AddFp32(n);
  ResolveBatchDistance(metric)(query, base, n, dim, out);
}

void BatchCosineWithNorms(const float* query, const float* base,
                          const float* base_norms, float query_norm, size_t n,
                          size_t dim, float* out) {
  scanstats::AddFp32(n);
  kernels::Get().batch_inner_product(query, base, n, dim, out);
  for (size_t i = 0; i < n; ++i)
    out[i] = CosineFromDot(out[i], query_norm, base_norms[i]);
}

}  // namespace blendhouse::vecindex
