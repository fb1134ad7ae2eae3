#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/task_scheduler.h"
#include "storage/object_store.h"
#include "storage/partitioner.h"
#include "storage/schema.h"
#include "storage/segment.h"
#include "storage/version.h"

namespace blendhouse::storage {

struct IngestOptions {
  /// Memtable rows that trigger an automatic flush.
  size_t flush_threshold_rows = 4096;
  /// Upper bound on rows per flushed segment (large flushes are split).
  size_t max_segment_rows = 4096;
  /// Build the per-segment vector index at flush time.
  bool build_index_on_ingest = true;
  /// Build segment i's index concurrently while segment i+1 is being
  /// written — BlendHouse's pipelined ingestion, the reason it wins
  /// Table IV. Disabled = write all segments, then build indexes serially.
  bool pipelined_index_build = true;
  /// Apply size-based auto-tuning (K_IVF etc.) to the index spec.
  bool auto_tune_index = true;
  /// Segments per (partition, bucket) group that trigger compaction.
  size_t compaction_trigger_segments = 8;
  /// Target rows per compacted segment.
  size_t compaction_target_rows = 32768;
  /// Run threshold-triggered flushes on a background thread so Insert()
  /// returns as soon as the memtable is handed off — the server-side
  /// ingestion pipeline that lets index building overlap with the client's
  /// insert stream. Flush() still drains everything synchronously.
  bool async_flush = false;
};

struct IngestStats {
  std::atomic<uint64_t> rows_ingested{0};
  std::atomic<uint64_t> segments_flushed{0};
  std::atomic<uint64_t> indexes_built{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> index_build_micros{0};
  std::atomic<uint64_t> segment_write_micros{0};
};

/// LSM-style storage engine for one table over the shared object store:
/// memtable -> immutable partitioned segments with per-segment vector
/// indexes -> background-style compaction that rebuilds indexes as segments
/// merge (the paper's "vector index compaction"). Updates never rewrite
/// segments; they set delete-bitmap bits and add new segments (Fig. 6).
///
/// Lock hierarchy (outer first): flush_mu_ > memtable_mu_ / pending_mu_ >
/// VersionSet::mu_. Queries never take engine locks: they read immutable
/// TableSnapshot copies and the immutable published partitioner snapshot.
class LsmEngine {
 public:
  LsmEngine(TableSchema schema, ObjectStore* store,
            common::TaskScheduler* index_pool, IngestOptions options = {});

  /// Index-build work is distributed round-robin over `index_pools`. Passing
  /// the read VW's worker pools here deliberately mixes write work into the
  /// query VW (the Fig. 12 interference setup); a dedicated pool models an
  /// isolated index-build VW.
  LsmEngine(TableSchema schema, ObjectStore* store,
            std::vector<common::TaskScheduler*> index_pools,
            IngestOptions options = {});

  /// Drains queued background flushes before any member is torn down.
  ~LsmEngine();

  const TableSchema& schema() const { return schema_; }
  const IngestOptions& options() const { return options_; }
  const IngestStats& stats() const { return stats_; }

  /// Immutable snapshot of the semantic partitioner; null until the first
  /// CLUSTER BY flush trains and publishes it. Queries hold the shared_ptr
  /// while pruning, so a concurrent re-train can never mutate under them.
  std::shared_ptr<const SemanticPartitioner> semantic_partitioner() const
      EXCLUDES(partitioner_mu_) {
    common::MutexLock lock(partitioner_mu_);
    return semantic_partitioner_;
  }

  /// Buffers rows; flushes automatically past the threshold.
  common::Status Insert(std::vector<Row> rows) EXCLUDES(memtable_mu_);

  /// Flushes the memtable into committed segments (no-op when empty).
  common::Status Flush() EXCLUDES(memtable_mu_, flush_mu_);

  /// Marks rows of a committed segment as deleted (the update path).
  common::Status DeleteRows(const std::string& segment_id,
                            const std::vector<uint64_t>& row_offsets);

  /// Merges every (partition, bucket) group with more than one segment,
  /// dropping deleted rows and rebuilding vector indexes. Returns the number
  /// of compaction jobs executed.
  common::Result<size_t> Compact() EXCLUDES(flush_mu_);

  /// Compacts only groups at/above the trigger threshold.
  common::Result<size_t> CompactIfNeeded() EXCLUDES(flush_mu_);

  TableSnapshot Snapshot() const { return versions_.Snapshot(); }
  size_t NumSegments() const { return versions_.NumSegments(); }
  size_t MemtableRows() const EXCLUDES(memtable_mu_);

  /// Fetches a committed segment from the object store.
  common::Result<SegmentPtr> FetchSegment(const std::string& segment_id) const;

  /// Builds (or rebuilds) the vector index for a segment and persists it.
  common::Status BuildAndStoreIndex(const Segment& segment);

 private:
  std::string NextSegmentId();
  /// Writes one memtable batch out as committed segments. Takes flush_mu_
  /// itself (commits are serialized with compaction).
  common::Status FlushBatch(std::vector<Row> rows) EXCLUDES(flush_mu_);
  common::Status EnsureSemanticPartitioner(const std::vector<Row>& rows)
      REQUIRES(flush_mu_);
  common::Result<std::vector<SegmentPtr>> BuildSegments(std::vector<Row> rows)
      REQUIRES(flush_mu_);
  common::Status CompactGroup(const std::vector<SegmentMeta>& group)
      REQUIRES(flush_mu_);

  common::TaskScheduler* NextIndexPool() {
    return index_pools_[pool_rr_.fetch_add(1) % index_pools_.size()];
  }

  TableSchema schema_;
  ObjectStore* store_;
  std::vector<common::TaskScheduler*> index_pools_;
  std::atomic<size_t> pool_rr_{0};
  IngestOptions options_;

  /// Waits for queued background flushes; returns the first error seen.
  common::Status DrainPendingFlushes() EXCLUDES(pending_mu_);

  mutable common::Mutex memtable_mu_{common::lockrank::kLsmMemtable};
  std::vector<Row> memtable_ GUARDED_BY(memtable_mu_);

  std::unique_ptr<common::TaskScheduler> flush_pool_;  // async_flush only
  common::Mutex pending_mu_{common::lockrank::kLsmPending};
  std::vector<common::Future<common::Status>> pending_flushes_
      GUARDED_BY(pending_mu_);

  common::Mutex flush_mu_{
      common::lockrank::kLsmFlush};  // serializes flush/compaction commits
  VersionSet versions_;
  /// Published (copy-on-train) under partitioner_mu_; trained under
  /// flush_mu_ on the first CLUSTER BY flush.
  mutable common::Mutex partitioner_mu_{common::lockrank::kLsmPartitioner};
  std::shared_ptr<const SemanticPartitioner> semantic_partitioner_
      GUARDED_BY(partitioner_mu_);
  std::atomic<uint64_t> segment_counter_{0};
  IngestStats stats_;
};

/// Reconstructs row `i` of a segment (used by compaction and tests).
Row RowFromSegment(const Segment& segment, size_t i);

}  // namespace blendhouse::storage
