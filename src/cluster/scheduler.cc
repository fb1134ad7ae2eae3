#include "cluster/scheduler.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "common/future.h"
#include "common/task_scheduler.h"

namespace blendhouse::cluster {

std::vector<storage::SegmentMeta> Scheduler::PruneScalar(
    const std::vector<storage::SegmentMeta>& segments,
    const std::function<bool(const storage::SegmentMeta&)>& may_match) {
  std::vector<storage::SegmentMeta> kept;
  kept.reserve(segments.size());
  for (const storage::SegmentMeta& m : segments)
    if (may_match(m)) kept.push_back(m);
  return kept;
}

std::vector<storage::SegmentMeta> Scheduler::PruneSemantic(
    const std::vector<storage::SegmentMeta>& segments,
    const storage::SemanticPartitioner& partitioner, const float* query,
    size_t probe_buckets) {
  if (!partitioner.trained() || probe_buckets >= partitioner.num_buckets())
    return segments;
  std::vector<int64_t> ranked = partitioner.RankBuckets(query);
  ranked.resize(probe_buckets);
  std::unordered_set<int64_t> probe(ranked.begin(), ranked.end());
  std::vector<storage::SegmentMeta> kept;
  kept.reserve(segments.size());
  for (const storage::SegmentMeta& m : segments)
    if (m.semantic_bucket < 0 || probe.count(m.semantic_bucket) > 0)
      kept.push_back(m);
  return kept;
}

std::map<std::string, std::vector<storage::SegmentMeta>> Scheduler::Assign(
    const VirtualWarehouse& vw, const std::string& table_name,
    const std::vector<storage::SegmentMeta>& segments) {
  std::map<std::string, std::vector<storage::SegmentMeta>> assignment;
  for (const storage::SegmentMeta& m : segments) {
    std::string owner = vw.OwnerIdOf(PlacementKey(table_name, m));
    assignment[owner].push_back(m);
  }
  return assignment;
}

common::Status PreloadIndexes(VirtualWarehouse& vw,
                              const storage::TableSchema& schema,
                              const storage::TableSnapshot& snapshot) {
  if (!schema.index_spec.has_value()) return common::Status::Ok();
  // Same ring placement as the query scheduler, so preloaded indexes land
  // exactly where queries will look for them. Every load starts before the
  // first wait, so their simulated reads overlap on the workers' loaders.
  auto assignment =
      Scheduler::Assign(vw, schema.table_name, snapshot.segments);
  std::vector<common::Future<Worker::PreloadResult>> loads;
  for (const auto& [worker_id, metas] : assignment) {
    Worker* worker = vw.worker(worker_id);
    if (worker == nullptr) continue;
    for (const storage::SegmentMeta& meta : metas)
      loads.push_back(worker->PreloadIndexAsync(schema, meta));
  }
  common::Status first_error;
  std::chrono::steady_clock::time_point ready_at;
  for (common::Future<Worker::PreloadResult>& load : loads) {
    Worker::PreloadResult done = load.Get();
    if (!done.status.ok() && first_error.ok())
      first_error = std::move(done.status);
    ready_at = std::max(ready_at, done.ready_at);
  }
  common::ChargeSimLatencyUntil(ready_at);
  return first_error;
}

}  // namespace blendhouse::cluster
