#include "cluster/scheduler.h"

#include <unordered_set>
#include <utility>

#include "common/future.h"

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
  // Same ring placement as the query scheduler, so preloaded indexes land
  // exactly where queries will look for them. Every load starts before the
  // first wait, so they overlap on the workers' loaders and the delay queue.
  auto assignment =
      Scheduler::Assign(vw, schema.table_name, snapshot.segments);
  common::TaskScheduler* sched = &vw.task_scheduler();
  std::vector<common::Future<common::Status>> loads;
  for (const auto& [worker_id, metas] : assignment) {
    Worker* worker = vw.worker(worker_id);
    if (worker == nullptr) continue;
    for (const storage::SegmentMeta& meta : metas)
      loads.push_back(worker->PreloadIndexAsync(sched, schema, meta));
  }
  common::Status first_error;
  for (common::Future<common::Status>& load : loads) {
    common::Status s = load.Get();
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

}  // namespace blendhouse::cluster
