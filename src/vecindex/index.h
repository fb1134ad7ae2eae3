#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "vecindex/types.h"

namespace blendhouse::vecindex {

/// Incremental search handle returned by VectorIndex::MakeIterator.
///
/// This is the paper's `SearchIterator` execution interface: each Next() call
/// yields the next batch of closest not-yet-returned neighbors, letting the
/// post-filter strategy refill results across rounds without restarting the
/// search from scratch (§III-B "Post-filter strategy").
class SearchIterator {
 public:
  virtual ~SearchIterator() = default;

  /// Honest per-iterator cost accounting, reported by both native and
  /// generic iterators (no beam-size guesses).
  struct Stats {
    /// Rows whose distance this iterator actually materialized. Restart
    /// iterators re-pay rows on every recompute round, so this counts the
    /// redundant work resumable iterators avoid.
    size_t rows_visited = 0;
    /// Next() calls that returned at least one neighbor.
    size_t batches = 0;
    /// From-scratch searches of the underlying index. 0 for native
    /// resumable iterators; >=1 for the generic restart wrapper.
    size_t recompute_rounds = 0;
  };

  /// Returns up to `batch_size` next-closest neighbors, never repeating an
  /// id. Empty result means the index is exhausted.
  ///
  /// Sorted-batch contract: every returned batch is internally sorted by
  /// nondecreasing (distance, id) — batch.back() is the worst hit *in that
  /// batch*. Consumers depend on this for range early-exit (stop once
  /// batch.back().distance exceeds the radius, src/sql/executor.cc) and for
  /// pagination. Across batches distances are only roughly increasing:
  /// approximate indexes may settle a closer node after a farther one was
  /// already yielded.
  virtual std::vector<Neighbor> Next(size_t batch_size) = 0;

  /// Total candidates visited so far — feeds the beta term of cost Eq. (3).
  /// Equals GetStats().rows_visited.
  virtual size_t VisitedCount() const = 0;

  /// Cost accounting snapshot; cheap enough to call per batch.
  virtual Stats GetStats() const { return {VisitedCount(), 0, 0}; }
};

/// Checks the sorted-batch contract on one batch: nondecreasing distance
/// (equal-distance neighbors may appear in any order — graph indexes map
/// internal positions to external ids, which need not preserve id order).
/// Iterator implementations BH_DCHECK this; the executor's range early-exit
/// is unsound without it.
inline bool IsSortedBatch(const std::vector<Neighbor>& batch) {
  for (size_t i = 1; i < batch.size(); ++i)
    if (batch[i].distance < batch[i - 1].distance) return false;
  return true;
}

/// The paper's virtual vector index abstraction (Fig. 5).
///
/// Storage layer: Train / AddWithIds / Save / Load.
/// Execution layer: SearchWithFilter / SearchWithRange / MakeIterator.
/// Concrete libraries (our from-scratch HNSW, IVF, PQ families standing in
/// for hnswlib/faiss/diskann) plug in behind this interface via
/// IndexFactory, which is what makes BlendHouse's index support pluggable.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Registry key, e.g. "HNSW", "IVFFLAT", "IVFPQFS".
  virtual std::string Type() const = 0;
  virtual size_t Dim() const = 0;
  virtual Metric GetMetric() const = 0;
  /// Storage precision of the first-pass distance tier (DESIGN.md §13).
  /// kFp32 means exact storage; anything else tells the executor this
  /// index's distances are approximate and survivors should be reranked
  /// in fp32 from the vector column.
  virtual Precision StoragePrecision() const { return Precision::kFp32; }
  /// Number of indexed vectors.
  virtual size_t Size() const = 0;
  /// Resident bytes of the index structure (Table VI).
  virtual size_t MemoryUsage() const = 0;

  // ---- Storage layer -------------------------------------------------------

  /// Learns data-dependent structures (k-means for IVF, codebooks for PQ).
  /// Graph indexes are training-free and return OK immediately.
  virtual common::Status Train(const float* data, size_t n) = 0;
  virtual bool NeedsTraining() const { return false; }

  /// Adds `n` vectors with caller-provided row offsets.
  virtual common::Status AddWithIds(const float* data, const IdType* ids,
                                    size_t n) = 0;

  /// Serializes the index to `out` for persistence in the object store.
  virtual common::Status Save(std::string* out) const = 0;
  /// Restores the index from bytes produced by Save().
  virtual common::Status Load(std::string_view in) = 0;
  /// Same, for bytes that `owner` keeps alive: an index whose saved form is
  /// its in-memory layout may view `in` in place and hold `owner` instead of
  /// copying. The default ignores `owner` and copies through Load(in).
  virtual common::Status Load(std::string_view in,
                              std::shared_ptr<const void> owner) {
    (void)owner;
    return Load(in);
  }

  // ---- Execution layer -----------------------------------------------------

  /// Top-k search honoring params.filter (the pre-filter bitmap). The
  /// returned neighbors are sorted by increasing distance.
  virtual common::Result<std::vector<Neighbor>> SearchWithFilter(
      const float* query, const SearchParams& params) const = 0;

  /// All vectors within `radius` of `query` (post-filtered by params.filter),
  /// sorted by distance. Default: delegate to the iterator and stop once
  /// distances exceed the radius.
  virtual common::Result<std::vector<Neighbor>> SearchWithRange(
      const float* query, float radius, const SearchParams& params) const;

  /// Incremental search. Indexes without a native resumable search fall back
  /// to GenericSearchIterator (restart with doubled k), mirroring the paper's
  /// generic-iterator wrapper for libraries without Next().
  virtual common::Result<std::unique_ptr<SearchIterator>> MakeIterator(
      const float* query, const SearchParams& params) const;

  /// True when MakeIterator is backed by a resumable native traversal rather
  /// than restart-with-larger-k.
  virtual bool HasNativeIterator() const { return false; }
};

using VectorIndexPtr = std::unique_ptr<VectorIndex>;

}  // namespace blendhouse::vecindex
