#include "storage/lsm_engine.h"

#include <algorithm>
#include <future>
#include <map>

#include "common/assert.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "vecindex/auto_index.h"
#include "vecindex/index_factory.h"

namespace blendhouse::storage {

namespace {

/// Process-wide LSM registry metrics (summed over engines/tables).
struct LsmMetrics {
  common::metrics::Counter* rows_ingested;
  common::metrics::Counter* flushes;
  common::metrics::Counter* segments_flushed;
  common::metrics::Counter* compactions;
  common::metrics::Gauge* memtable_rows;
  common::metrics::HistogramMetric* index_build_micros;
  common::metrics::HistogramMetric* segment_write_micros;
};

const LsmMetrics& EngineMetrics() {
  auto& reg = common::metrics::MetricsRegistry::Instance();
  static const LsmMetrics m{
      reg.GetCounter("bh_lsm_rows_ingested_total"),
      reg.GetCounter("bh_lsm_flushes_total"),
      reg.GetCounter("bh_lsm_segments_flushed_total"),
      reg.GetCounter("bh_lsm_compactions_total"),
      reg.GetGauge("bh_lsm_memtable_rows"),
      reg.GetHistogram("bh_lsm_index_build_micros"),
      reg.GetHistogram("bh_lsm_segment_write_micros"),
  };
  return m;
}

}  // namespace

Row RowFromSegment(const Segment& segment, size_t i) {
  Row row;
  row.values.reserve(segment.num_columns());
  for (size_t c = 0; c < segment.num_columns(); ++c)
    row.values.push_back(segment.column(c).GetValue(i));
  return row;
}

LsmEngine::LsmEngine(TableSchema schema, ObjectStore* store,
                     common::TaskScheduler* index_pool, IngestOptions options)
    : LsmEngine(std::move(schema), store,
                std::vector<common::TaskScheduler*>{index_pool}, options) {}

LsmEngine::LsmEngine(TableSchema schema, ObjectStore* store,
                     std::vector<common::TaskScheduler*> index_pools,
                     IngestOptions options)
    : schema_(std::move(schema)),
      store_(store),
      index_pools_(std::move(index_pools)),
      options_(options) {
  BH_ASSERT_MSG(!index_pools_.empty(), "LsmEngine needs an index-build pool");
  if (options_.async_flush)
    flush_pool_ = std::make_unique<common::TaskScheduler>(1);
}

LsmEngine::~LsmEngine() {
  // Joining the flush thread first guarantees no background task touches
  // versions_/stats_ mid-destruction.
  flush_pool_.reset();
}

std::string LsmEngine::NextSegmentId() {
  return schema_.table_name + "_seg_" +
         std::to_string(segment_counter_.fetch_add(1));
}

size_t LsmEngine::MemtableRows() const {
  common::MutexLock lock(memtable_mu_);
  return memtable_.size();
}

common::Status LsmEngine::Insert(std::vector<Row> rows) {
  size_t num_rows = rows.size();
  std::vector<Row> to_flush;
  size_t memtable_rows = 0;
  {
    common::MutexLock lock(memtable_mu_);
    for (Row& r : rows) memtable_.push_back(std::move(r));
    if (memtable_.size() >= options_.flush_threshold_rows)
      to_flush = std::move(memtable_);
    memtable_rows = memtable_.size();
  }
  stats_.rows_ingested.fetch_add(num_rows, std::memory_order_relaxed);
  EngineMetrics().rows_ingested->Add(num_rows);
  EngineMetrics().memtable_rows->Set(static_cast<int64_t>(memtable_rows));
  if (to_flush.empty()) return common::Status::Ok();
  if (flush_pool_ == nullptr) return FlushBatch(std::move(to_flush));
  // Async ingestion pipeline: hand the batch to the background flusher so
  // the client's next Insert proceeds while indexes build.
  {
    common::MutexLock lock(pending_mu_);
    pending_flushes_.push_back(flush_pool_->Submit(
        [this, batch = std::move(to_flush)]() mutable {
          return FlushBatch(std::move(batch));
        }));
  }
  return common::Status::Ok();
}

common::Status LsmEngine::DrainPendingFlushes() {
  std::vector<common::Future<common::Status>> pending;
  {
    common::MutexLock lock(pending_mu_);
    pending = std::move(pending_flushes_);
  }
  common::Status status;
  for (auto& fut : pending) {
    common::Status s = fut.Get();
    if (!s.ok() && status.ok()) status = s;
  }
  return status;
}

common::Status LsmEngine::Flush() {
  std::vector<Row> to_flush;
  {
    common::MutexLock lock(memtable_mu_);
    to_flush = std::move(memtable_);
  }
  EngineMetrics().memtable_rows->Set(0);
  common::Status tail;
  if (!to_flush.empty()) tail = FlushBatch(std::move(to_flush));
  common::Status drained = DrainPendingFlushes();
  return tail.ok() ? drained : tail;
}

common::Status LsmEngine::EnsureSemanticPartitioner(
    const std::vector<Row>& rows) {
  if (schema_.semantic_buckets == 0 || semantic_partitioner() != nullptr)
    return common::Status::Ok();
  if (schema_.vector_column < 0)
    return common::Status::InvalidArgument(
        "CLUSTER BY requires a vector column");
  // Train on (a sample of) the first flush batch.
  size_t dim = schema_.VectorDim();
  std::vector<float> sample;
  size_t max_sample = 20000;
  for (const Row& r : rows) {
    const auto* vec =
        std::get_if<std::vector<float>>(&r.values[schema_.vector_column]);
    if (vec == nullptr || vec->size() != dim)
      return common::Status::InvalidArgument("bad vector in ingest batch");
    sample.insert(sample.end(), vec->begin(), vec->end());
    if (sample.size() / dim >= max_sample) break;
  }
  // Train into a private instance, then publish it as an immutable snapshot
  // — queries pruning concurrently only ever see a fully trained partitioner.
  auto fresh = std::make_shared<SemanticPartitioner>();
  BH_RETURN_IF_ERROR(fresh->Train(sample.data(), sample.size() / dim, dim,
                                  schema_.semantic_buckets));
  // Persist centroids so query-side pruning sees the same mapping.
  std::string bytes;
  common::BinaryWriter w(&bytes);
  fresh->Serialize(&w);
  BH_RETURN_IF_ERROR(store_->Put(
      "tables/" + schema_.table_name + "/partitioner", std::move(bytes)));
  {
    common::MutexLock lock(partitioner_mu_);
    semantic_partitioner_ = std::move(fresh);
  }
  return common::Status::Ok();
}

common::Result<std::vector<SegmentPtr>> LsmEngine::BuildSegments(
    std::vector<Row> rows) {
  std::shared_ptr<const SemanticPartitioner> partitioner =
      semantic_partitioner();
  // Group rows by (scalar partition key, semantic bucket).
  std::map<std::pair<std::string, int64_t>, std::vector<Row>> groups;
  for (Row& row : rows) {
    std::string key = ScalarPartitionKey(schema_, row);
    int64_t bucket = -1;
    if (partitioner != nullptr && schema_.vector_column >= 0) {
      const auto* vec =
          std::get_if<std::vector<float>>(&row.values[schema_.vector_column]);
      if (vec != nullptr) bucket = partitioner->AssignBucket(vec->data());
    }
    groups[{std::move(key), bucket}].push_back(std::move(row));
  }

  std::vector<SegmentPtr> segments;
  for (auto& [group_key, group_rows] : groups) {
    for (size_t begin = 0; begin < group_rows.size();
         begin += options_.max_segment_rows) {
      size_t end =
          std::min(group_rows.size(), begin + options_.max_segment_rows);
      SegmentBuilder builder(schema_, NextSegmentId());
      builder.SetPartitionKey(group_key.first);
      builder.SetSemanticBucket(group_key.second);
      for (size_t i = begin; i < end; ++i)
        BH_RETURN_IF_ERROR(builder.AppendRow(group_rows[i]));
      auto segment = builder.Finish();
      if (!segment.ok()) return segment.status();
      BH_DCHECK_MSG((*segment)->num_rows() > 0 &&
                        (*segment)->num_rows() <= options_.max_segment_rows,
                    "flushed segment violates the row bound");
      segments.push_back(std::move(*segment));
    }
  }
  return segments;
}

common::Status LsmEngine::BuildAndStoreIndex(const Segment& segment) {
  if (!schema_.index_spec.has_value() || schema_.vector_column < 0)
    return common::Status::Ok();
  common::metrics::ScopedTimer timer(EngineMetrics().index_build_micros);
  vecindex::IndexSpec spec = *schema_.index_spec;
  if (options_.auto_tune_index)
    spec = vecindex::AutoTuneSpec(spec, segment.num_rows());
  auto index = vecindex::IndexFactory::Global().Create(spec);
  if (!index.ok()) return index.status();

  const Column& vec_col = segment.column(schema_.vector_column);
  const common::AlignedVector<float>& data = vec_col.vector_data();
  size_t n = segment.num_rows();
  std::vector<vecindex::IdType> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<vecindex::IdType>(i);
  if ((*index)->NeedsTraining())
    BH_RETURN_IF_ERROR((*index)->Train(data.data(), n));
  BH_RETURN_IF_ERROR((*index)->AddWithIds(data.data(), ids.data(), n));

  std::string bytes;
  BH_RETURN_IF_ERROR((*index)->Save(&bytes));
  BH_RETURN_IF_ERROR(store_->Put(
      SegmentKeys::Index(schema_.table_name, segment.meta().segment_id),
      std::move(bytes)));
  stats_.indexes_built.fetch_add(1, std::memory_order_relaxed);
  stats_.index_build_micros.fetch_add(
      static_cast<uint64_t>(timer.ElapsedMicros()),
      std::memory_order_relaxed);
  return common::Status::Ok();
}

common::Status LsmEngine::FlushBatch(std::vector<Row> rows) {
  common::MutexLock lock(flush_mu_);
  BH_RETURN_IF_ERROR(EnsureSemanticPartitioner(rows));
  auto segments = BuildSegments(std::move(rows));
  if (!segments.ok()) return segments.status();

  std::vector<common::Future<common::Status>> index_builds;
  common::Status index_status;
  for (const SegmentPtr& segment : *segments) {
    {
      common::metrics::ScopedTimer write_timer(
          EngineMetrics().segment_write_micros);
      BH_RETURN_IF_ERROR(store_->Put(
          SegmentKeys::Data(schema_.table_name, segment->meta().segment_id),
          segment->SerializeToString()));
      stats_.segment_write_micros.fetch_add(
          static_cast<uint64_t>(write_timer.ElapsedMicros()),
          std::memory_order_relaxed);
    }
    if (!options_.build_index_on_ingest) continue;
    if (options_.pipelined_index_build) {
      // Index of this segment builds while the next segment is written.
      index_builds.push_back(NextIndexPool()->Submit(
          [this, segment] { return BuildAndStoreIndex(*segment); }));
    } else {
      BH_RETURN_IF_ERROR(BuildAndStoreIndex(*segment));
    }
  }
  for (auto& fut : index_builds) {
    common::Status s = fut.Get();
    if (!s.ok() && index_status.ok()) index_status = s;
  }
  BH_RETURN_IF_ERROR(index_status);

  std::vector<SegmentMeta> metas;
  metas.reserve(segments->size());
  for (const SegmentPtr& s : *segments) metas.push_back(s->meta());
  versions_.AddSegments(metas);
  stats_.segments_flushed.fetch_add(segments->size(),
                                    std::memory_order_relaxed);
  EngineMetrics().flushes->Add(1);
  EngineMetrics().segments_flushed->Add(segments->size());
  return common::Status::Ok();
}

common::Status LsmEngine::DeleteRows(
    const std::string& segment_id, const std::vector<uint64_t>& row_offsets) {
  return versions_.MarkDeleted(segment_id, row_offsets);
}

common::Result<SegmentPtr> LsmEngine::FetchSegment(
    const std::string& segment_id) const {
  auto bytes = store_->Get(SegmentKeys::Data(schema_.table_name, segment_id));
  if (!bytes.ok()) return bytes.status();
  return Segment::Deserialize(*bytes);
}

common::Status LsmEngine::CompactGroup(const std::vector<SegmentMeta>& group) {
  TableSnapshot snap = versions_.Snapshot();
  // Merge surviving rows of the group into new, larger segments.
  std::vector<std::string> removed;
  uint32_t max_level = 0;
  SegmentBuilder* builder = nullptr;
  std::vector<std::unique_ptr<SegmentBuilder>> builders;
  std::vector<SegmentPtr> merged;

  auto finish_builder = [&]() -> common::Status {
    if (builder == nullptr || builder->num_rows() == 0) return common::Status::Ok();
    auto segment = builder->Finish();
    if (!segment.ok()) return segment.status();
    merged.push_back(std::move(*segment));
    builder = nullptr;
    return common::Status::Ok();
  };

  for (const SegmentMeta& meta : group) {
    auto segment = FetchSegment(meta.segment_id);
    if (!segment.ok()) return segment.status();
    const common::Bitset* deletes = snap.DeletesFor(meta.segment_id);
    max_level = std::max(max_level, meta.level);
    for (size_t i = 0; i < (*segment)->num_rows(); ++i) {
      if (deletes != nullptr && deletes->Test(i)) continue;  // drop deleted
      if (builder == nullptr) {
        builders.push_back(
            std::make_unique<SegmentBuilder>(schema_, NextSegmentId()));
        builder = builders.back().get();
        builder->SetPartitionKey(meta.partition_key);
        builder->SetSemanticBucket(meta.semantic_bucket);
      }
      BH_RETURN_IF_ERROR(builder->AppendRow(RowFromSegment(**segment, i)));
      if (builder->num_rows() >= options_.compaction_target_rows)
        BH_RETURN_IF_ERROR(finish_builder());
    }
    removed.push_back(meta.segment_id);
  }
  BH_RETURN_IF_ERROR(finish_builder());

  std::vector<SegmentMeta> added;
  for (const SegmentPtr& segment : merged) {
    segment->mutable_meta().level = max_level + 1;
    BH_RETURN_IF_ERROR(store_->Put(
        SegmentKeys::Data(schema_.table_name, segment->meta().segment_id),
        segment->SerializeToString()));
    // Vector index consolidation rides on compaction (paper §III-B).
    BH_RETURN_IF_ERROR(BuildAndStoreIndex(*segment));
    added.push_back(segment->meta());
  }
  BH_RETURN_IF_ERROR(versions_.ReplaceSegments(removed, added));
  // Old segment payloads are garbage; drop them from the store.
  for (const std::string& id : removed) {
    (void)store_->Delete(SegmentKeys::Data(schema_.table_name, id));
    (void)store_->Delete(SegmentKeys::Index(schema_.table_name, id));
  }
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics().compactions->Add(1);
  return common::Status::Ok();
}

common::Result<size_t> LsmEngine::Compact() {
  common::MutexLock lock(flush_mu_);
  TableSnapshot snap = versions_.Snapshot();
  std::map<std::pair<std::string, int64_t>, std::vector<SegmentMeta>> groups;
  for (const SegmentMeta& m : snap.segments)
    groups[{m.partition_key, m.semantic_bucket}].push_back(m);
  size_t jobs = 0;
  for (auto& [_, group] : groups) {
    bool has_deletes = false;
    for (const SegmentMeta& m : group)
      if (snap.DeletesFor(m.segment_id) != nullptr) has_deletes = true;
    if (group.size() < 2 && !has_deletes) continue;
    BH_RETURN_IF_ERROR(CompactGroup(group));
    ++jobs;
  }
  return jobs;
}

common::Result<size_t> LsmEngine::CompactIfNeeded() {
  common::MutexLock lock(flush_mu_);
  TableSnapshot snap = versions_.Snapshot();
  std::map<std::pair<std::string, int64_t>, std::vector<SegmentMeta>> groups;
  for (const SegmentMeta& m : snap.segments)
    groups[{m.partition_key, m.semantic_bucket}].push_back(m);
  size_t jobs = 0;
  for (auto& [_, group] : groups) {
    if (group.size() < options_.compaction_trigger_segments) continue;
    BH_RETURN_IF_ERROR(CompactGroup(group));
    ++jobs;
  }
  return jobs;
}

}  // namespace blendhouse::storage
