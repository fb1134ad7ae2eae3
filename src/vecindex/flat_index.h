#pragma once

#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/bitset.h"
#include "vecindex/distance.h"
#include "vecindex/index.h"
#include "vecindex/quantizer.h"

namespace blendhouse::vecindex {

/// Exact brute-force index. This is both the "FLAT" user-facing index type
/// and the fallback BlendHouse uses on a vector-index cache miss (Fig. 11)
/// and in cost-model Plan A.
///
/// Scans run through the batched SIMD kernels (chunked one-query-vs-many)
/// when unfiltered; vector storage is 64-byte aligned, and for Cosine the
/// stored vectors' norms are precomputed at insert so queries only pay for
/// a dot product per row.
///
/// With a reduced `precision` (DESIGN.md §13) the raw floats are never
/// kept: rows live only as packed fp16/int8 codes in a
/// PrecisionStore, every scan path runs the batched reduced-precision
/// kernels over the codes, and the executor reranks survivors in fp32
/// from the segment's vector column.
class FlatIndex : public VectorIndex {
 public:
  FlatIndex(size_t dim, Metric metric,
            Precision precision = Precision::kFp32)
      : dim_(dim),
        metric_(metric),
        precision_(precision),
        dist_(ResolveDistance(metric)) {
    if (quantized()) store_.Configure(precision, dim, metric);
  }

  std::string Type() const override { return "FLAT"; }
  size_t Dim() const override { return dim_; }
  Metric GetMetric() const override { return metric_; }
  Precision StoragePrecision() const override { return precision_; }
  size_t Size() const override { return ids_.size(); }
  size_t MemoryUsage() const override {
    return data_.size() * sizeof(float) + ids_.size() * sizeof(IdType) +
           norms_.size() * sizeof(float) +
           (quantized() ? store_.MemoryBytes() : 0);
  }

  common::Status Train(const float* data, size_t n) override;
  common::Status AddWithIds(const float* data, const IdType* ids,
                            size_t n) override;
  common::Status Save(std::string* out) const override;
  common::Status Load(std::string_view in) override;

  common::Result<std::vector<Neighbor>> SearchWithFilter(
      const float* query, const SearchParams& params) const override;
  common::Result<std::vector<Neighbor>> SearchWithRange(
      const float* query, float radius,
      const SearchParams& params) const override;

  /// Native resumable iterator (FlatBatchIterator): all distances are
  /// computed exactly once on the first Next(), deeper batches are
  /// incremental heap-selection over the cached score array.
  common::Result<std::unique_ptr<SearchIterator>> MakeIterator(
      const float* query, const SearchParams& params) const override;
  bool HasNativeIterator() const override { return true; }

  /// Raw vector for row offset lookup (used by PQ refinement and tests).
  /// Valid only at fp32 precision — quantized builds keep no raw floats.
  const float* VectorAt(size_t pos) const { return data_.data() + pos * dim_; }
  const std::vector<IdType>& ids() const { return ids_; }

 private:
  friend class FlatBatchIterator;

  bool quantized() const { return precision_ != Precision::kFp32; }

  /// One full pass over the index for the batch iterator: every surviving
  /// row's (id, distance) is appended to `out`, through the same three scan
  /// paths as SearchWithFilter (unfiltered chunked kernels, filter-compacted
  /// tiles, remapped-id per-row fallback).
  void ComputeAllDistances(const PrecisionStore::QueryCtx& ctx,
                           const common::Bitset* filter,
                           std::vector<Neighbor>* out) const;

  /// Per-query scan state shared by both storage forms: fp32 scans read
  /// query/query_norm, quantized scans carry the prepared int8 query too.
  PrecisionStore::QueryCtx MakeQueryCtx(const float* query) const;

  /// Distances from the prepared query to rows [begin, begin+n) into
  /// out[0..n).
  void ScanChunk(const PrecisionStore::QueryCtx& ctx, size_t begin, size_t n,
                 float* out) const;

  /// Filter-aware scan (valid only when ids_are_offsets_): walks the
  /// filter's set bits, compacts surviving positions into kScanChunk tiles,
  /// and feeds the batched kernels — contiguous runs scan in place,
  /// scattered survivors are gathered into a dense scratch tile. Calls
  /// `emit(id, distance)` per survivor. Defined in the .cc (only used
  /// there).
  template <typename Emit>
  void ScanFiltered(const PrecisionStore::QueryCtx& ctx,
                    const common::Bitset& filter, Emit&& emit) const;

  size_t dim_;
  Metric metric_;
  Precision precision_;
  DistanceFn dist_;  // resolved once; re-resolved on Load
  /// Packed codes when precision_ != kFp32; data_/norms_ stay empty then.
  PrecisionStore store_;
  common::AlignedVector<float> data_;
  std::vector<IdType> ids_;
  /// Euclidean magnitude of each stored row; maintained only for Cosine.
  std::vector<float> norms_;
  /// True while ids_[i] == i for all rows (the executor's row-offset
  /// convention). Filter bitmaps index row ids, so identity ids let the
  /// filtered scan address storage positions directly from set bits.
  bool ids_are_offsets_ = true;
};

}  // namespace blendhouse::vecindex
