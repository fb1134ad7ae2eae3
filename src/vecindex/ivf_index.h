#pragma once

#include <string>
#include <vector>

#include "common/aligned.h"
#include "vecindex/distance.h"
#include "vecindex/index.h"
#include "vecindex/pq.h"
#include "vecindex/quantizer.h"

namespace blendhouse::vecindex {

struct IvfOptions {
  /// Number of inverted lists — the paper's K_IVF, whose choice relative to
  /// segment size N drives Fig. 7 and the auto-index feature.
  size_t nlist = 64;
  uint64_t seed = 42;
};

/// Base for inverted-file indexes: k-means coarse quantizer plus per-list
/// postings. Search probes the `nprobe` nearest lists; PQ variants re-rank
/// the top sigma*k approximate hits with exact distances (the refine step of
/// cost Eqs. 2/3).
///
/// Centroid ranking and flat posting-list scans go through the batched SIMD
/// kernels; posting vectors are stored 64-byte aligned, and Cosine lists
/// carry precomputed per-vector norms so scans are dot-product only.
class IvfIndexBase : public VectorIndex {
 public:
  IvfIndexBase(size_t dim, Metric metric, IvfOptions options)
      : dim_(dim),
        metric_(metric),
        options_(options),
        dist_(ResolveDistance(metric)) {}

  size_t Dim() const override { return dim_; }
  Metric GetMetric() const override { return metric_; }
  size_t Size() const override { return size_; }
  bool NeedsTraining() const override { return true; }

  common::Status Train(const float* data, size_t n) override;
  common::Status AddWithIds(const float* data, const IdType* ids,
                            size_t n) override;
  common::Result<std::vector<Neighbor>> SearchWithFilter(
      const float* query, const SearchParams& params) const override;

  /// Native resumable iterator (IvfBatchIterator) for variants whose list
  /// scans yield final distances (IVFFLAT at every precision tier): probed
  /// lists are never rescanned, deeper batches extend nprobe. Refining
  /// codecs (PQ) keep the generic restart wrapper — their one-shot result
  /// depends on a k-sized refine shortlist, which an incremental iterator
  /// cannot reproduce.
  common::Result<std::unique_ptr<SearchIterator>> MakeIterator(
      const float* query, const SearchParams& params) const override;
  bool HasNativeIterator() const override { return !NeedsRefine(); }

  size_t nlist() const { return lists_.size(); }
  bool trained() const { return !centroids_.empty(); }

 protected:
  friend class IvfBatchIterator;
  struct PostingList {
    std::vector<IdType> ids;
    common::AlignedVector<float> vectors;  // flat storage (IVFFLAT / refine)
    std::vector<uint8_t> codes;            // PQ codes (IVFPQ*)
    /// Euclidean magnitude per stored vector; maintained only for Cosine
    /// on lists that keep raw vectors.
    std::vector<float> norms;
  };

  /// Candidate produced by a list scan; keeps its location so refine can
  /// fetch the raw vector without an id lookup.
  struct Hit {
    float distance;
    IdType id;
    uint32_t list;
    uint32_t pos;
  };

  // ---- Subclass hooks ------------------------------------------------------
  virtual common::Status TrainCodec(const float* data, size_t n) = 0;
  virtual void EncodeInto(const float* vec, PostingList* list) = 0;
  /// Appends passing candidates from one posting list. `ctx` carries
  /// per-query state (the ADC table for PQ; null for flat).
  virtual void ScanList(const PostingList& list, uint32_t list_idx,
                        const float* query, const void* ctx,
                        const SearchParams& params,
                        std::vector<Hit>* out) const = 0;
  virtual const void* PrepareQuery(const float* query,
                                   std::vector<float>* scratch) const = 0;
  /// Whether candidate distances are approximate and should be re-ranked
  /// against raw vectors.
  virtual bool NeedsRefine() const = 0;
  /// Extra shortlist multiplier applied on top of params.refine_factor;
  /// coarse codecs (4-bit PQ) widen the shortlist to recover recall.
  virtual size_t RefineAmplification() const { return 1; }

  /// Re-derives dist_ and any per-list norms after deserialization.
  void RefreshDerivedState();

  size_t dim_;
  Metric metric_;
  IvfOptions options_;
  size_t size_ = 0;
  DistanceFn dist_;  // resolved once; refreshed on Load
  common::AlignedVector<float> centroids_;  // nlist * dim
  std::vector<PostingList> lists_;
};

/// IVF with full-precision vectors in the postings — or, with a reduced
/// `precision` (DESIGN.md §13), per-list PrecisionStores of packed
/// fp16/int8 codes scanned by the batched reduced-precision kernels.
/// All list stores share one int8 scale calibrated from the train sample,
/// no fp32 copies are retained, and the executor reranks survivors exactly.
class IvfFlatIndex : public IvfIndexBase {
 public:
  IvfFlatIndex(size_t dim, Metric metric, IvfOptions options = {},
               Precision precision = Precision::kFp32)
      : IvfIndexBase(dim, metric, options), precision_(precision) {}

  std::string Type() const override { return "IVFFLAT"; }
  Precision StoragePrecision() const override { return precision_; }
  size_t MemoryUsage() const override;
  common::Status Save(std::string* out) const override;
  common::Status Load(std::string_view in) override;

 protected:
  common::Status TrainCodec(const float* data, size_t n) override;
  void EncodeInto(const float* vec, PostingList* list) override;
  void ScanList(const PostingList& list, uint32_t list_idx, const float* query,
                const void* ctx, const SearchParams& params,
                std::vector<Hit>* out) const override;
  const void* PrepareQuery(const float*, std::vector<float>*) const override {
    return nullptr;
  }
  bool NeedsRefine() const override { return false; }

 private:
  bool quantized() const { return precision_ != Precision::kFp32; }

  Precision precision_;
  /// Parallel to lists_ when quantized; empty at fp32.
  std::vector<PrecisionStore> stores_;
};

struct IvfPqOptions {
  /// Subquantizer count; dim must be divisible by it.
  size_t m = 8;
  /// 8 -> classic IVFPQ; 4 -> the fast-scan flavor the paper calls IVFPQFS.
  size_t nbits = 8;
  /// Keep raw vectors for exact re-ranking of the top sigma*k ADC hits.
  bool keep_raw_for_refine = true;
};

/// IVF with product-quantized postings and ADC scanning.
class IvfPqIndex : public IvfIndexBase {
 public:
  IvfPqIndex(size_t dim, Metric metric, IvfOptions ivf_options = {},
             IvfPqOptions pq_options = {})
      : IvfIndexBase(dim, metric, ivf_options), pq_options_(pq_options) {}

  std::string Type() const override {
    return pq_options_.nbits == 4 ? "IVFPQFS" : "IVFPQ";
  }
  size_t MemoryUsage() const override;
  common::Status Save(std::string* out) const override;
  common::Status Load(std::string_view in) override;

 protected:
  common::Status TrainCodec(const float* data, size_t n) override;
  void EncodeInto(const float* vec, PostingList* list) override;
  void ScanList(const PostingList& list, uint32_t list_idx, const float* query,
                const void* ctx, const SearchParams& params,
                std::vector<Hit>* out) const override;
  const void* PrepareQuery(const float* query,
                           std::vector<float>* scratch) const override;
  bool NeedsRefine() const override { return pq_options_.keep_raw_for_refine; }
  size_t RefineAmplification() const override {
    return pq_options_.nbits == 4 ? 4 : 1;
  }

 private:
  IvfPqOptions pq_options_;
  ProductQuantizer pq_;
};

}  // namespace blendhouse::vecindex
