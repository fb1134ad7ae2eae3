#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "vecindex/distance.h"
#include "vecindex/index.h"
#include "vecindex/quantizer.h"

namespace blendhouse::vecindex {

struct HnswOptions {
  /// Largest accepted M: M sizes every node's fixed-width link records.
  static constexpr size_t kMaxM = 4096;
  /// Max links per node on upper levels; level 0 keeps 2*M. In [1, kMaxM].
  size_t M = 16;
  /// Beam width during construction.
  size_t ef_construction = 200;
  uint64_t seed = 42;
  /// Reduced-precision storage (DESIGN.md §13): keep only fp16/int8 codes
  /// and walk the graph with the asymmetric reduced-precision kernels; the
  /// executor reranks survivors in fp32. int8 is the paper's HNSWSQ
  /// (~4x smaller, slightly lower recall before the rerank).
  Precision precision = Precision::kFp32;
};

/// Hierarchical Navigable Small World graph (Malkov & Yashunin), built from
/// scratch. Supports filtered search (bitmap honored while collecting
/// results, as hnswlib does) and a *native* incremental SearchIterator that
/// resumes the best-first traversal instead of restarting with a larger k —
/// the extension the paper added to hnswlib for its post-filter strategy.
///
/// The saved form is the in-memory layout (DESIGN.md "HNSW storage"): a
/// loaded index views the blob's sections in place and is read-only.
class HnswIndex : public VectorIndex {
 public:
  HnswIndex(size_t dim, Metric metric, HnswOptions options = {});

  std::string Type() const override { return "HNSW"; }
  size_t Dim() const override { return dim_; }
  Metric GetMetric() const override { return metric_; }
  Precision StoragePrecision() const override { return options_.precision; }
  size_t Size() const override { return ids_.size(); }
  size_t MemoryUsage() const override;

  common::Status Train(const float* data, size_t n) override;
  bool NeedsTraining() const override { return false; }
  /// FailedPrecondition on a loaded index: its arrays are views.
  common::Status AddWithIds(const float* data, const IdType* ids,
                            size_t n) override;
  common::Status Save(std::string* out) const override;
  /// Load(in, nullptr): copies `in` once into an aligned buffer it owns.
  common::Status Load(std::string_view in) override;
  /// Views `in`'s sections in place and holds `owner`. With no owner, or
  /// when `in` does not start on a kSectionAlignment boundary, it first
  /// copies `in` once into an aligned buffer it owns.
  common::Status Load(std::string_view in,
                      std::shared_ptr<const void> owner) override;

  common::Result<std::vector<Neighbor>> SearchWithFilter(
      const float* query, const SearchParams& params) const override;
  common::Result<std::unique_ptr<SearchIterator>> MakeIterator(
      const float* query, const SearchParams& params) const override;
  bool HasNativeIterator() const override { return true; }

  const HnswOptions& options() const { return options_; }

 private:
  friend class HnswSearchIterator;

  /// Distance from a query vector to stored item `pos`. Reduced-precision
  /// codes go through the asymmetric kernels — no decode buffer.
  float DistToItem(const float* query, uint32_t pos) const;

  bool reduced_precision() const {
    return options_.precision != Precision::kFp32;
  }

  /// Hints the cache that item `pos`'s vector (or code) is about to be read;
  /// issued over a node's neighbor list before the distance loop.
  void PrefetchItem(uint32_t pos) const {
    if (reduced_precision())
      kernels::Prefetch(store_.RowPtr(pos));
    else
      kernels::Prefetch(vectors_.data() + size_t{pos} * dim_);
  }

  /// Float view of stored item `pos`: raw data pointer when unquantized,
  /// otherwise decodes into `*buf` and returns buf->data().
  const float* ItemVector(uint32_t pos, std::vector<float>* buf) const;

  /// Best-first beam search on one level; returns up to `ef` closest nodes.
  std::vector<Neighbor> SearchLayer(const float* query, uint32_t entry,
                                    size_t ef, size_t level) const;

  /// Greedy descent through upper levels down to `target_level + 1`.
  uint32_t GreedyDescend(const float* query, uint32_t entry,
                         size_t from_level, size_t target_level) const;

  /// Malkov heuristic neighbor selection (alg. 4): keeps diverse edges.
  std::vector<uint32_t> SelectNeighbors(const float* vec,
                                        std::vector<Neighbor>& candidates,
                                        size_t m) const;

  void InsertOne(const float* vec, IdType external_id);
  /// Appends `to` to `from`'s links at `level`; when they are full,
  /// re-selects them from the current links, in order, then `to`.
  void AddLink(uint32_t from, size_t level, uint32_t to);
  void SetLinks(uint32_t node, size_t level,
                const std::vector<uint32_t>& links);

  size_t RandomLevel();
  size_t MaxLinks(size_t level) const {
    return level == 0 ? options_.M * 2 : options_.M;
  }
  /// Words in one adjacency record: a link count, then MaxLinks slots.
  size_t RecordWords(size_t level) const { return 1 + MaxLinks(level); }
  /// Offset of `node`'s record at `level` in level0_ (level 0) or upper_.
  size_t RecordOffset(uint32_t node, size_t level) const {
    return level == 0 ? size_t{node} * RecordWords(0)
                      : upper_offset_[node] + (level - 1) * RecordWords(1);
  }
  /// Build only: the record in built_'s arrays, which the views alias.
  uint32_t* MutableRecord(uint32_t node, size_t level) {
    return (level == 0 ? built_.level0 : built_.upper).data() +
           RecordOffset(node, level);
  }
  std::span<const uint32_t> LinksAt(uint32_t node, size_t level) const {
    const uint32_t* rec =
        (level == 0 ? level0_ : upper_).data() + RecordOffset(node, level);
    return {rec + 1, rec[0]};
  }
  /// Points the views at built_'s arrays; called after each growth.
  void ViewBuiltArrays();

  size_t dim_;
  Metric metric_;
  HnswOptions options_;
  double level_mult_;
  uint64_t rng_state_;
  DistanceFn dist_;  // resolved once; re-resolved on Load

  // The one read path: search, the iterator, Save and MemoryUsage read these
  // views, which point into built_ on a built index and into the blob's
  // sections on a loaded one (DESIGN.md "HNSW storage").
  /// Raw floats when options_.precision is kFp32, else empty.
  std::span<const float> vectors_;
  std::span<const IdType> ids_;
  std::span<const uint8_t> levels_;
  // Adjacency in fixed-width records: level 0 is one record of 1 + 2M words
  // per node; levels 1..levels_[node] are consecutive records of 1 + M words
  // in upper_ from upper_offset_[node].
  std::span<const uint32_t> level0_;
  std::span<const uint32_t> upper_;
  /// Owned either way; a load recomputes it from levels_.
  std::vector<uint32_t> upper_offset_;
  /// Packed fp16/int8 codes when options_.precision != kFp32, else empty.
  /// Copied on load.
  PrecisionStore store_;
  uint32_t entry_point_ = 0;
  int max_level_ = -1;

  /// The arrays a build appends to; empty on a loaded index.
  struct BuiltArrays {
    common::AlignedVector<float> vectors;
    std::vector<IdType> ids;
    std::vector<uint8_t> levels;
    std::vector<uint32_t> level0;
    std::vector<uint32_t> upper;
  };
  BuiltArrays built_;
  /// Keeps a loaded blob's bytes alive while the views point into them; null
  /// on a built index, which is what lets AddWithIds grow it.
  std::shared_ptr<const void> blob_;
};

}  // namespace blendhouse::vecindex
