#pragma once

#include <memory>
#include <string>

#include "common/io.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "storage/object_store.h"
#include "vecindex/index_factory.h"

namespace blendhouse::cluster {

/// How a query obtained its vector index — the x-axis of Fig. 11.
enum class CacheOutcome {
  kMemoryHit = 0,    // in-memory index cache hit (the fast path)
  kDiskHit,          // local-disk cache hit; disk latency + load (HNSW views)
  kRemoteLoad,       // fetched from shared remote storage
  kRemoteServing,    // answered via a peer worker's cache over RPC
  kBruteForce,       // no index available; exact scan over raw vectors
};

const char* CacheOutcomeName(CacheOutcome outcome);

/// Small always-resident facts about a cached index, kept in a *separate*
/// LRU space from the (large) index payloads so metadata lookups are never
/// evicted by data churn — the paper's split-space in-memory cache design.
struct IndexMetaInfo {
  std::string index_type;
  uint64_t num_vectors = 0;
  uint64_t memory_bytes = 0;
};

/// Hierarchical vector index cache (paper §II-D): in-memory LRU (separate
/// metadata/data spaces) over a local-disk LRU of serialized bytes over the
/// remote object store. Disk hits pay the local-disk latency model; remote
/// loads pay the object store's.
///
/// The disk tier keeps each blob in an aligned shared buffer, and a disk hit
/// or remote load hands that buffer to the index as its owner, so an index
/// whose saved form is its in-memory layout (HNSW) views the bytes instead of
/// decoding a copy. Budget rule: each tier budgets its own resource. The
/// memory tier charges the index's MemoryUsage(); the disk tier charges the
/// blob's size, as simulated local-disk capacity. An index that views a
/// disk-tier blob is this model's memory-mapped file in the page cache: when
/// the disk tier evicts a blob that a memory-tier index still views, the
/// shared_ptr keeps the bytes alive until that index goes too. Nothing is
/// re-read and nothing is charged twice to one tier.
class HierarchicalIndexCache {
 public:
  struct Options {
    size_t memory_bytes = 256ull << 20;
    size_t metadata_bytes = 8ull << 20;
    size_t disk_bytes = 1ull << 30;
    storage::StorageCostModel disk_cost =
        storage::StorageCostModel::LocalDisk();
  };

  explicit HierarchicalIndexCache(storage::ObjectStore* remote)
      : HierarchicalIndexCache(remote, Options()) {}
  HierarchicalIndexCache(storage::ObjectStore* remote, Options options);

  /// Returns the loaded index for `key` (an object-store index key), loading
  /// through the disk tier on a memory miss. `spec` supplies dim/metric for
  /// deserialization.
  struct GetResult {
    std::shared_ptr<vecindex::VectorIndex> index;
    CacheOutcome outcome;
  };
  common::Result<GetResult> GetOrLoad(const std::string& key,
                                      const vecindex::IndexSpec& spec);

  /// Memory-tier-only probe; used by peer workers for vector search serving
  /// (a peer can only serve what it already has hot).
  std::shared_ptr<vecindex::VectorIndex> PeekMemory(const std::string& key);

  /// Metadata-space probe (never touches the data space's LRU order).
  std::optional<IndexMetaInfo> GetMeta(const std::string& key);

  void Evict(const std::string& key);
  /// Drops only the memory tier (the disk copy stays) — simulates memory
  /// pressure for tier-latency measurements.
  void EvictMemoryOnly(const std::string& key) { memory_.Erase(key); }
  void Clear();

  size_t memory_used() const { return memory_.used_bytes(); }
  size_t disk_used() const { return disk_.used_bytes(); }
  uint64_t memory_hits() const { return memory_.hits(); }
  uint64_t memory_misses() const { return memory_.misses(); }
  uint64_t disk_hits() const { return disk_hits_.load(); }
  uint64_t remote_loads() const { return remote_loads_.load(); }

 private:
  void ChargeDiskLatency(size_t bytes) const;
  void InsertAllTiers(const std::string& key,
                      std::shared_ptr<const common::AlignedBytes> blob,
                      std::shared_ptr<vecindex::VectorIndex> index);

  storage::ObjectStore* remote_;
  Options options_;
  common::LruCache<std::shared_ptr<vecindex::VectorIndex>> memory_;
  common::LruCache<std::shared_ptr<IndexMetaInfo>> metadata_;
  common::LruCache<std::shared_ptr<const common::AlignedBytes>> disk_;
  std::atomic<uint64_t> disk_hits_{0};
  std::atomic<uint64_t> remote_loads_{0};
};

}  // namespace blendhouse::cluster
