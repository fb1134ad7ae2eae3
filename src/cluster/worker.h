#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "cluster/index_cache.h"
#include "cluster/rpc.h"
#include "common/bitset.h"
#include "common/future.h"
#include "common/result.h"
#include "common/task_scheduler.h"
#include "storage/lsm_engine.h"
#include "storage/schema.h"
#include "storage/segment.h"

namespace blendhouse::cluster {

struct WorkerOptions {
  size_t threads = 2;
  HierarchicalIndexCache::Options cache;
  /// Column-data (segment) cache budget — the paper's adaptive column cache
  /// of the read-amplification optimization.
  size_t segment_cache_bytes = 512ull << 20;
  /// Segments larger than this many rows bypass the segment cache so one
  /// giant hybrid read cannot thrash it (the paper's "row limit setting").
  size_t segment_cache_row_limit = 1u << 20;
  /// Budget for cached pre-filter bitmaps (one bit per row, so even a small
  /// budget covers many segments of a repeated hybrid predicate).
  size_t filter_bitmap_cache_bytes = 16ull << 20;
};

/// Time breakdown of one async task on a worker, reported to its completion
/// callback. compute is wall time on the pool thread (simulated charges
/// accumulate instead of blocking, so it is pure work time); sim_io is the
/// accumulated simulated latency, which the thread waiting for the result
/// then pays.
struct AsyncTaskStats {
  uint64_t queue_wait_micros = 0;
  uint64_t compute_micros = 0;
  uint64_t sim_io_micros = 0;
};

/// How AcquireIndex may satisfy a request.
struct AcquireOptions {
  /// Try a peer worker's hot cache over RPC before falling back (vector
  /// search serving, paper §II-D).
  bool allow_remote_serving = true;
  /// Fall back to an on-the-fly exact scan when no index is reachable.
  bool allow_brute_force = true;
  /// Synchronously load from remote storage on miss instead of serving /
  /// brute force (the Manu-style "wait for load" behaviour, for contrast).
  bool force_local_load = false;
  /// Kick off a background load after serving via fallback so later queries
  /// hit the local cache.
  bool background_load_on_fallback = true;
};

/// A compute node of a virtual warehouse: private thread pool (its CPU),
/// hierarchical index cache, segment/column cache, and a search endpoint
/// that peers may invoke over the RPC fabric.
class Worker {
 public:
  Worker(std::string id, storage::ObjectStore* remote, RpcFabric* rpc,
         WorkerOptions options = {});

  const std::string& id() const { return id_; }
  common::TaskScheduler& pool() { return pool_; }
  HierarchicalIndexCache& index_cache() { return index_cache_; }

  /// Resolves the pre-scale owner of a segment key; installed by the
  /// VirtualWarehouse so new workers can serve via old owners.
  using PeerResolver = std::function<Worker*(const std::string& index_key)>;
  void SetPeerResolver(PeerResolver resolver) {
    peer_resolver_ = std::move(resolver);
  }

  struct AcquiredIndex {
    std::shared_ptr<vecindex::VectorIndex> index;
    CacheOutcome outcome = CacheOutcome::kMemoryHit;
  };

  /// Obtains a searchable index for one segment, in preference order:
  /// memory hit -> disk hit -> (serving via previous owner) -> remote load
  /// or brute-force flat scan, per `opts`.
  common::Result<AcquiredIndex> AcquireIndex(
      const storage::TableSchema& schema, const storage::SegmentMeta& meta,
      const AcquireOptions& opts = {});

  /// Column data access with the worker-local segment cache; `use_cache`
  /// false models the un-optimized read path (Fig. 17 baseline).
  common::Result<storage::SegmentPtr> GetSegment(
      const storage::TableSchema& schema, const std::string& segment_id,
      bool use_cache = true);

  /// Memory-only probe used by peers (vector search serving answers only
  /// from the hot cache; a cold peer returns null).
  std::shared_ptr<vecindex::VectorIndex> PeekHotIndex(
      const std::string& index_key) {
    return index_cache_.PeekMemory(index_key);
  }

  /// Segment-cache-only probe used for cache-affinity routing of result
  /// materialization.
  storage::SegmentPtr PeekCachedSegment(const storage::TableSchema& schema,
                                        const std::string& segment_id) {
    auto hit = segment_cache_.Peek(
        storage::SegmentKeys::Data(schema.table_name, segment_id));
    return hit.has_value() ? *hit : nullptr;
  }

  /// Async segment-search endpoint, the unit of the task-graph query path.
  /// `search` runs on this worker's compute pool under a DeferredChargeScope,
  /// so simulated I/O (object store, cache disk tier, RPC serving, DiskANN
  /// beam reads) accumulates instead of parking the pool thread, and
  /// `done(stats)` runs right after it on the same thread. The latency is
  /// still owed: the thread waiting for the result pays it, until the task's
  /// end plus stats.sim_io_micros. `search`/`done` must own everything they
  /// touch (shared query context); they may outlive the caller's stack frame.
  void SearchSegmentAsync(std::function<void()> search,
                          std::function<void(const AsyncTaskStats&)> done);

  /// A finished preload: its status, and when its simulated I/O is paid
  /// off (the load's end plus the latency it accumulated).
  struct PreloadResult {
    common::Status status;
    std::chrono::steady_clock::time_point ready_at;
  };

  /// Async preload of one segment's index through all cache tiers, on the
  /// background loader pool under a DeferredChargeScope: the loader never
  /// parks on simulated remote reads, so N preloads overlap them on one
  /// loader thread. Whoever waits on the future pays up to `ready_at`.
  common::Future<PreloadResult> PreloadIndexAsync(
      const storage::TableSchema& schema, const storage::SegmentMeta& meta);

  common::LruCache<storage::SegmentPtr>& segment_cache() { return segment_cache_; }

  /// Worker-level cache of pre-filter bitmaps, keyed by the executor as
  /// table/segment@delete-epoch#predicate-fingerprint. Entries are
  /// self-invalidating: a MarkDeleted commit bumps the segment's delete
  /// epoch (and compaction mints fresh segment ids), so stale bitmaps stop
  /// being looked up and age out of the LRU budget.
  std::shared_ptr<const common::Bitset> GetCachedFilterBitmap(
      const std::string& key) {
    auto hit = filter_bitmap_cache_.Get(key);
    return hit.has_value() ? *hit : nullptr;
  }
  void PutFilterBitmap(const std::string& key,
                       std::shared_ptr<const common::Bitset> bitmap) {
    size_t bytes = bitmap->words().size() * sizeof(uint64_t) + key.size();
    filter_bitmap_cache_.Put(key, std::move(bitmap), bytes);
  }
  common::LruCache<std::shared_ptr<const common::Bitset>>&
  filter_bitmap_cache() {
    return filter_bitmap_cache_;
  }

  uint64_t searches_served_for_peers() const {
    return peer_serves_.load();
  }
  void NotePeerServe() { peer_serves_.fetch_add(1); }

 private:
  common::Result<AcquiredIndex> BruteForceIndex(
      const storage::TableSchema& schema, const storage::SegmentMeta& meta,
      bool use_segment_cache);

  std::string id_;
  storage::ObjectStore* remote_;
  RpcFabric* rpc_;
  WorkerOptions options_;
  HierarchicalIndexCache index_cache_;
  common::LruCache<storage::SegmentPtr> segment_cache_;
  common::LruCache<std::shared_ptr<const common::Bitset>>
      filter_bitmap_cache_;
  PeerResolver peer_resolver_;
  std::atomic<uint64_t> peer_serves_{0};
  // The pools are declared last on purpose: their destructors run queued
  // tasks, which touch the caches above — so the pools must die first.
  common::TaskScheduler pool_;
  /// Background cache-warming I/O runs here so multi-second remote index
  /// loads never block query execution on pool_.
  common::TaskScheduler loader_;
};

/// VectorIndex adapter that forwards execution-layer calls to an index held
/// hot by a peer worker, paying RPC cost per call. This is what lets a
/// freshly added worker serve queries before its own cache warms (Fig. 18).
class RemoteIndexProxy : public vecindex::VectorIndex {
 public:
  RemoteIndexProxy(std::shared_ptr<vecindex::VectorIndex> peer_index,
                   Worker* peer, RpcFabric* rpc)
      : peer_index_(std::move(peer_index)), peer_(peer), rpc_(rpc) {}

  std::string Type() const override {
    return "REMOTE(" + peer_index_->Type() + ")";
  }
  size_t Dim() const override { return peer_index_->Dim(); }
  vecindex::Metric GetMetric() const override {
    return peer_index_->GetMetric();
  }
  vecindex::Precision StoragePrecision() const override {
    return peer_index_->StoragePrecision();
  }
  size_t Size() const override { return peer_index_->Size(); }
  size_t MemoryUsage() const override { return 0; }  // lives on the peer

  common::Status Train(const float*, size_t) override {
    return common::Status::NotSupported("remote proxy is read-only");
  }
  common::Status AddWithIds(const float*, const vecindex::IdType*,
                            size_t) override {
    return common::Status::NotSupported("remote proxy is read-only");
  }
  common::Status Save(std::string*) const override {
    return common::Status::NotSupported("remote proxy is read-only");
  }
  common::Status Load(std::string_view) override {
    return common::Status::NotSupported("remote proxy is read-only");
  }

  common::Result<std::vector<vecindex::Neighbor>> SearchWithFilter(
      const float* query, const vecindex::SearchParams& params) const override;

  bool HasNativeIterator() const override {
    return peer_index_->HasNativeIterator();
  }
  common::Result<std::unique_ptr<vecindex::SearchIterator>> MakeIterator(
      const float* query,
      const vecindex::SearchParams& params) const override;

 private:
  std::shared_ptr<vecindex::VectorIndex> peer_index_;
  Worker* peer_;
  RpcFabric* rpc_;
};

}  // namespace blendhouse::cluster
