#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/io.h"
#include "common/status.h"
#include "vecindex/types.h"

namespace blendhouse::vecindex {

/// Reduced-precision packed vector store (DESIGN.md §13): the quantized
/// first-pass tier behind FLAT/IVF/HNSW when an index is built with a
/// `precision` of fp16 or int8 (HNSWSQ is HNSW over the int8 form). Rows are
/// packed contiguously in a 64-byte-aligned buffer (2 bytes/dim for fp16, 1
/// for int8 — the resident-memory win), scanned by the batched
/// reduced-precision kernels, and never accompanied by raw fp32 copies: the
/// executor reranks survivors from the segment's own vector column.
///
/// int8 uses one symmetric scale (decoded = scale * code) calibrated from
/// the first appended batch (maxabs / 127) — Train() can fix it earlier
/// from a larger sample. Cosine stores each row's decoded magnitude so
/// scans compose the dot kernel with CosineFromDot; all metrics keep the
/// engine-wide "smaller distance = closer" convention.
class PrecisionStore {
 public:
  /// Distances are computed in batches of at most this many rows (matches
  /// the indexes' scan-chunk size); int8 scratch buffers are sized by it.
  static constexpr size_t kMaxBatch = 256;

  void Configure(Precision precision, size_t dim, Metric metric);

  Precision precision() const { return precision_; }
  size_t dim() const { return dim_; }
  size_t size() const { return size_; }
  /// Bytes one encoded row occupies.
  size_t row_bytes() const { return dim_ * PrecisionBytes(precision_); }
  /// int8: has the symmetric scale been fixed yet?
  bool calibrated() const;

  /// Fixes the int8 scale from a sample (no-op for fp16, and once
  /// calibrated). The first Append calls this implicitly.
  void Train(const float* data, size_t n);

  /// Encodes and appends n packed fp32 vectors.
  void Append(const float* data, size_t n);

  /// Sizes the code (and cosine norm) buffers for `rows` rows, so rows
  /// appended one at a time up to that count leave no growth slack behind.
  void Reserve(size_t rows);

  /// Per-query scan state. For int8 the query is quantized once here: at
  /// the store scale for L2 (symmetric differences need a shared grid), at
  /// its own scale for dot/cosine (preserves query resolution).
  struct QueryCtx {
    const float* query = nullptr;
    float query_norm = 0.0f;  // Euclidean magnitude; cosine only
    std::vector<int8_t> q8;   // int8 only
    float l2_factor = 1.0f;   // int8 L2: scale^2
    float dot_factor = 1.0f;  // int8 dot: query_scale * scale
  };
  void PrepareQuery(const float* query, QueryCtx* ctx) const;

  /// Metric-adjusted distances (smaller = closer) from the prepared query
  /// to rows [first, first + n). n <= kMaxBatch.
  void BatchDistance(const QueryCtx& ctx, size_t first, size_t n,
                     float* out) const;

  /// Same over a gathered tile of n packed codes (row_bytes() apart), with
  /// the matching gathered magnitudes (cosine only, else ignored). Serves
  /// the filter-aware compacted scans.
  void BatchDistanceCodes(const QueryCtx& ctx, const void* codes,
                          const float* norms, size_t n, float* out) const;

  /// Single-row distance straight from the fp32 query (asymmetric kernels);
  /// the graph-walk path, where re-batching per hop would dominate.
  float Distance1(const QueryCtx& ctx, size_t row) const;

  /// Distance1 without a prepared context: derives the cosine query norm on
  /// the fly. For callers whose query changes per call (HNSW construction
  /// compares stored items against each other).
  float DistanceToRow(const float* query, size_t row) const;

  /// Raw encoded row, for prefetch and tile gathering.
  const void* RowPtr(size_t row) const;

  /// Decodes one row back to fp32.
  void Decode(size_t row, float* out) const;

  /// Per-row decoded magnitudes (cosine metric only; else empty).
  const std::vector<float>& norms() const { return norms_; }

  size_t MemoryBytes() const;

  void Serialize(common::BinaryWriter* w) const;
  common::Status Deserialize(common::BinaryReader* r);

 private:
  void EncodeRow(const float* v, size_t row);

  Precision precision_ = Precision::kFp16;
  Metric metric_ = Metric::kL2;
  size_t dim_ = 0;
  size_t size_ = 0;
  float scale_ = 0.0f;  // int8: decoded = scale_ * code; 0 = uncalibrated
  common::AlignedVector<uint16_t> half_;  // fp16 codes
  common::AlignedVector<int8_t> i8_;      // int8 codes
  std::vector<float> norms_;              // cosine: decoded row magnitudes
};

}  // namespace blendhouse::vecindex
