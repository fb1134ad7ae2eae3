#include "vecindex/quantizer.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "vecindex/distance.h"
#include "vecindex/scan_counters.h"

namespace blendhouse::vecindex {

// ---- PrecisionStore --------------------------------------------------------

void PrecisionStore::Configure(Precision precision, size_t dim,
                               Metric metric) {
  BH_ASSERT_MSG(precision != Precision::kFp32,
                "PrecisionStore only holds reduced formats");
  precision_ = precision;
  metric_ = metric;
  dim_ = dim;
  size_ = 0;
  scale_ = 0.0f;
  half_.clear();
  i8_.clear();
  norms_.clear();
}

bool PrecisionStore::calibrated() const {
  return precision_ != Precision::kInt8 || scale_ > 0.0f;
}

void PrecisionStore::Train(const float* data, size_t n) {
  if (precision_ != Precision::kInt8 || calibrated() || n == 0) return;
  float maxabs = 0.0f;
  for (size_t i = 0; i < n * dim_; ++i) {
    float a = std::fabs(data[i]);
    // NaN compares false and is skipped; a NaN-only sample stays
    // uncalibrated and the next batch trains instead.
    if (a > maxabs && std::isfinite(a)) maxabs = a;
  }
  if (maxabs > 0.0f) scale_ = maxabs / 127.0f;
}

void PrecisionStore::EncodeRow(const float* v, size_t row) {
  switch (precision_) {
    case Precision::kFp16: {
      uint16_t* dst = half_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d) dst[d] = kernels::FloatToFp16(v[d]);
      break;
    }
    case Precision::kInt8: {
      int8_t* dst = i8_.data() + row * dim_;
      float inv = 1.0f / scale_;
      for (size_t d = 0; d < dim_; ++d) {
        float q = v[d] * inv;
        q = std::clamp(q, -127.0f, 127.0f);
        dst[d] = static_cast<int8_t>(
            std::clamp(std::lround(q), -127L, 127L));
      }
      break;
    }
    case Precision::kFp32:
      break;
  }
  if (metric_ == Metric::kCosine) {
    float sq = 0.0f;
    switch (precision_) {
      case Precision::kInt8: {
        const int8_t* c = i8_.data() + row * dim_;
        int64_t acc = 0;
        for (size_t d = 0; d < dim_; ++d)
          acc += static_cast<int32_t>(c[d]) * static_cast<int32_t>(c[d]);
        sq = scale_ * scale_ * static_cast<float>(acc);
        break;
      }
      case Precision::kFp16: {
        const uint16_t* c = half_.data() + row * dim_;
        for (size_t d = 0; d < dim_; ++d) {
          float x = kernels::Fp16ToFloat(c[d]);
          sq += x * x;
        }
        break;
      }
      case Precision::kFp32:
        break;
    }
    norms_[row] = std::sqrt(sq);
  }
}

void PrecisionStore::Append(const float* data, size_t n) {
  if (n == 0) return;
  if (!calibrated()) Train(data, n);
  size_t first = size_;
  size_ += n;
  if (precision_ == Precision::kInt8) {
    i8_.resize(size_ * dim_);
  } else {
    half_.resize(size_ * dim_);
  }
  if (metric_ == Metric::kCosine) norms_.resize(size_);
  for (size_t i = 0; i < n; ++i) EncodeRow(data + i * dim_, first + i);
}

void PrecisionStore::Reserve(size_t rows) {
  if (precision_ == Precision::kInt8) {
    i8_.reserve(rows * dim_);
  } else {
    half_.reserve(rows * dim_);
  }
  if (metric_ == Metric::kCosine) norms_.reserve(rows);
}

void PrecisionStore::PrepareQuery(const float* query, QueryCtx* ctx) const {
  ctx->query = query;
  ctx->q8.clear();
  ctx->l2_factor = 1.0f;
  ctx->dot_factor = 1.0f;
  ctx->query_norm = metric_ == Metric::kCosine
                        ? std::sqrt(SquaredNorm(query, dim_))
                        : 0.0f;
  if (precision_ != Precision::kInt8) return;
  float qscale = scale_;  // L2 shares the store grid
  if (metric_ != Metric::kL2) {
    float maxabs = 0.0f;
    for (size_t d = 0; d < dim_; ++d) {
      float a = std::fabs(query[d]);
      if (a > maxabs && std::isfinite(a)) maxabs = a;
    }
    qscale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  }
  if (qscale <= 0.0f) qscale = 1.0f;  // uncalibrated store (empty index)
  ctx->q8.resize(dim_);
  float inv = 1.0f / qscale;
  for (size_t d = 0; d < dim_; ++d) {
    float q = std::clamp(query[d] * inv, -127.0f, 127.0f);
    ctx->q8[d] =
        static_cast<int8_t>(std::clamp(std::lround(q), -127L, 127L));
  }
  ctx->l2_factor = scale_ * scale_;
  ctx->dot_factor = qscale * scale_;
}

void PrecisionStore::BatchDistanceCodes(const QueryCtx& ctx,
                                        const void* codes,
                                        const float* norms, size_t n,
                                        float* out) const {
  BH_ASSERT(n <= kMaxBatch);
  scanstats::Add(precision_, n);
  const kernels::KernelTable& kt = kernels::Get();
  if (precision_ == Precision::kInt8) {
    const int8_t* base = static_cast<const int8_t*>(codes);
    int32_t ibuf[kMaxBatch];
    switch (metric_) {
      case Metric::kL2:
        kt.batch_i8_l2sqr(ctx.q8.data(), base, n, dim_, ibuf);
        for (size_t i = 0; i < n; ++i)
          out[i] = ctx.l2_factor * static_cast<float>(ibuf[i]);
        break;
      case Metric::kInnerProduct:
        kt.batch_i8_dot(ctx.q8.data(), base, n, dim_, ibuf);
        for (size_t i = 0; i < n; ++i)
          out[i] = -ctx.dot_factor * static_cast<float>(ibuf[i]);
        break;
      case Metric::kCosine:
        kt.batch_i8_dot(ctx.q8.data(), base, n, dim_, ibuf);
        for (size_t i = 0; i < n; ++i)
          out[i] =
              CosineFromDot(ctx.dot_factor * static_cast<float>(ibuf[i]),
                            ctx.query_norm, norms[i]);
        break;
    }
    return;
  }
  const uint16_t* base = static_cast<const uint16_t*>(codes);
  switch (metric_) {
    case Metric::kL2:
      kt.batch_fp16_l2sqr(ctx.query, base, n, dim_, out);
      break;
    case Metric::kInnerProduct:
      kt.batch_fp16_inner_product(ctx.query, base, n, dim_, out);
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      break;
    case Metric::kCosine:
      kt.batch_fp16_inner_product(ctx.query, base, n, dim_, out);
      for (size_t i = 0; i < n; ++i)
        out[i] = CosineFromDot(out[i], ctx.query_norm, norms[i]);
      break;
  }
}

void PrecisionStore::BatchDistance(const QueryCtx& ctx, size_t first,
                                   size_t n, float* out) const {
  const float* norms =
      metric_ == Metric::kCosine ? norms_.data() + first : nullptr;
  BatchDistanceCodes(ctx, RowPtr(first), norms, n, out);
}

float PrecisionStore::Distance1(const QueryCtx& ctx, size_t row) const {
  scanstats::Add(precision_, 1);
  const kernels::KernelTable& kt = kernels::Get();
  if (precision_ == Precision::kInt8) {
    const int8_t* code = i8_.data() + row * dim_;
    switch (metric_) {
      case Metric::kL2:
        return kt.i8_asym_l2sqr(ctx.query, code, scale_, dim_);
      case Metric::kInnerProduct:
        return -kt.i8_asym_dot(ctx.query, code, scale_, dim_);
      case Metric::kCosine:
        return CosineFromDot(kt.i8_asym_dot(ctx.query, code, scale_, dim_),
                             ctx.query_norm, norms_[row]);
    }
    return 0.0f;
  }
  const uint16_t* code = half_.data() + row * dim_;
  switch (metric_) {
    case Metric::kL2:
      return kt.fp16_l2sqr(ctx.query, code, dim_);
    case Metric::kInnerProduct:
      return -kt.fp16_inner_product(ctx.query, code, dim_);
    case Metric::kCosine:
      return CosineFromDot(kt.fp16_inner_product(ctx.query, code, dim_),
                           ctx.query_norm, norms_[row]);
  }
  return 0.0f;
}

float PrecisionStore::DistanceToRow(const float* query, size_t row) const {
  QueryCtx ctx;
  ctx.query = query;
  if (metric_ == Metric::kCosine)
    ctx.query_norm = std::sqrt(SquaredNorm(query, dim_));
  return Distance1(ctx, row);
}

const void* PrecisionStore::RowPtr(size_t row) const {
  if (precision_ == Precision::kInt8) return i8_.data() + row * dim_;
  return half_.data() + row * dim_;
}

void PrecisionStore::Decode(size_t row, float* out) const {
  switch (precision_) {
    case Precision::kFp16: {
      const uint16_t* c = half_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d) out[d] = kernels::Fp16ToFloat(c[d]);
      break;
    }
    case Precision::kInt8: {
      const int8_t* c = i8_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d)
        out[d] = scale_ * static_cast<float>(c[d]);
      break;
    }
    case Precision::kFp32:
      break;
  }
}

size_t PrecisionStore::MemoryBytes() const {
  return half_.capacity() * sizeof(uint16_t) + i8_.capacity() +
         norms_.capacity() * sizeof(float);
}

void PrecisionStore::Serialize(common::BinaryWriter* w) const {
  w->Write<uint8_t>(static_cast<uint8_t>(precision_));
  w->Write<uint8_t>(static_cast<uint8_t>(metric_));
  w->Write<uint64_t>(dim_);
  w->Write<uint64_t>(size_);
  w->Write<float>(scale_);
  w->WriteVector(half_);
  w->WriteVector(i8_);
  w->WriteVector(norms_);
}

common::Status PrecisionStore::Deserialize(common::BinaryReader* r) {
  uint8_t tag = 0, metric = 0;
  uint64_t dim = 0, size = 0;
  Precision precision = Precision::kFp32;
  BH_RETURN_IF_ERROR(r->Read(&tag));
  BH_RETURN_IF_ERROR(r->Read(&metric));
  BH_RETURN_IF_ERROR(r->Read(&dim));
  BH_RETURN_IF_ERROR(r->Read(&size));
  BH_RETURN_IF_ERROR(r->Read(&scale_));
  if (!PrecisionFromTag(tag, &precision) || precision == Precision::kFp32)
    return common::Status::Corruption("precision store: bad precision tag");
  if (!SavedDimValid(dim))
    return common::Status::Corruption("precision store: bad dim");
  if (!MetricFromTag(metric, &metric_))
    return common::Status::Corruption("precision store: bad metric");
  precision_ = precision;
  dim_ = dim;
  size_ = size;
  BH_RETURN_IF_ERROR(r->ReadVector(&half_));
  BH_RETURN_IF_ERROR(r->ReadVector(&i8_));
  BH_RETURN_IF_ERROR(r->ReadVector(&norms_));
  size_t codes = precision_ == Precision::kInt8 ? i8_.size() : half_.size();
  if (!common::LengthIsProduct(codes, size_, dim_))
    return common::Status::Corruption("precision store: code size mismatch");
  if (metric_ == Metric::kCosine && norms_.size() != size_)
    return common::Status::Corruption("precision store: norm size mismatch");
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
