#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/virtual_warehouse.h"
#include "common/status.h"
#include "storage/partitioner.h"
#include "storage/segment.h"
#include "storage/version.h"

namespace blendhouse::cluster {

/// Segment-pruning and placement decisions made before query execution
/// (paper §II-C "Plan scheduling" and §IV-B).
class Scheduler {
 public:
  /// Prunes segments that cannot match the scalar predicates. `may_match`
  /// inspects a segment's partition key and numeric min/max ranges; pruning
  /// must be conservative (only drop segments that provably cannot match).
  static std::vector<storage::SegmentMeta> PruneScalar(
      const std::vector<storage::SegmentMeta>& segments,
      const std::function<bool(const storage::SegmentMeta&)>& may_match);

  /// Keeps segments whose semantic bucket is among the `probe_buckets`
  /// buckets nearest to the query vector. Segments without a bucket
  /// (bucket < 0, e.g. pre-CLUSTER BY data) are always kept.
  static std::vector<storage::SegmentMeta> PruneSemantic(
      const std::vector<storage::SegmentMeta>& segments,
      const storage::SemanticPartitioner& partitioner, const float* query,
      size_t probe_buckets);

  /// Ring-based placement: segment -> owning worker id under the VW's
  /// current topology. Keyed by the segment's *index* object key so the
  /// query scheduler and the preloader agree on ownership.
  static std::map<std::string, std::vector<storage::SegmentMeta>> Assign(
      const VirtualWarehouse& vw, const std::string& table_name,
      const std::vector<storage::SegmentMeta>& segments);

  /// Placement key for one segment.
  static std::string PlacementKey(const std::string& table_name,
                                  const storage::SegmentMeta& meta) {
    return storage::SegmentKeys::Index(table_name, meta.segment_id);
  }
};

/// Cache-aware vector index preload (paper §II-D): pushes every live
/// segment's index into the memory+disk caches of the worker that the
/// query scheduler will route it to. Eliminates cold-start misses for
/// freshly ingested data.
///
/// Every per-segment load runs under a deferred-charge scope on its
/// worker's loader pool, so simulated remote reads overlap instead of
/// serializing. Once every load finished, the caller pays the simulated I/O
/// still due (up to the latest load's end plus its reads), then gets Ok or
/// the first failure.
common::Status PreloadIndexes(VirtualWarehouse& vw,
                              const storage::TableSchema& schema,
                              const storage::TableSnapshot& snapshot);

}  // namespace blendhouse::cluster
