#include "cluster/index_cache.h"

#include "common/task_scheduler.h"

namespace blendhouse::cluster {

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMemoryHit:
      return "memory_hit";
    case CacheOutcome::kDiskHit:
      return "disk_hit";
    case CacheOutcome::kRemoteLoad:
      return "remote_load";
    case CacheOutcome::kRemoteServing:
      return "remote_serving";
    case CacheOutcome::kBruteForce:
      return "brute_force";
  }
  return "?";
}

HierarchicalIndexCache::HierarchicalIndexCache(storage::ObjectStore* remote,
                                               Options options)
    : remote_(remote),
      options_(options),
      memory_(options.memory_bytes),
      metadata_(options.metadata_bytes),
      disk_(options.disk_bytes) {
  auto& reg = common::metrics::MetricsRegistry::Instance();
  memory_.InstrumentMetrics(
      reg.GetCounter("bh_index_cache_memory_hits_total"),
      reg.GetCounter("bh_index_cache_memory_misses_total"),
      reg.GetCounter("bh_index_cache_memory_evictions_total"),
      reg.GetGauge("bh_index_cache_memory_bytes"));
  disk_.InstrumentMetrics(
      reg.GetCounter("bh_index_cache_disk_hits_total"),
      reg.GetCounter("bh_index_cache_disk_misses_total"),
      reg.GetCounter("bh_index_cache_disk_evictions_total"),
      reg.GetGauge("bh_index_cache_disk_bytes"));
}

void HierarchicalIndexCache::ChargeDiskLatency(size_t bytes) const {
  if (!options_.disk_cost.simulate_latency) return;
  int64_t micros = options_.disk_cost.base_latency_micros +
                   static_cast<int64_t>(static_cast<double>(bytes) /
                                        options_.disk_cost.bytes_per_micro);
  if (micros > 0) common::ChargeSimLatency(static_cast<uint64_t>(micros));
}

void HierarchicalIndexCache::InsertAllTiers(
    const std::string& key, std::shared_ptr<const common::AlignedBytes> blob,
    std::shared_ptr<vecindex::VectorIndex> index) {
  auto meta = std::make_shared<IndexMetaInfo>();
  meta->index_type = index->Type();
  meta->num_vectors = index->Size();
  meta->memory_bytes = index->MemoryUsage();
  metadata_.Put(key, meta, sizeof(IndexMetaInfo) + meta->index_type.size());
  size_t disk_bytes = blob->size();
  disk_.Put(key, std::move(blob), disk_bytes);
  memory_.Put(key, index, index->MemoryUsage());
}

common::Result<HierarchicalIndexCache::GetResult>
HierarchicalIndexCache::GetOrLoad(const std::string& key,
                                  const vecindex::IndexSpec& spec) {
  if (auto hit = memory_.Get(key))
    return GetResult{*hit, CacheOutcome::kMemoryHit};

  // Disk tier: pay local-disk latency, then load an index that adopts the
  // blob (views it where its format allows) instead of copying it.
  if (auto disk_hit = disk_.Get(key)) {
    const common::AlignedBytes& blob = **disk_hit;
    ChargeDiskLatency(blob.size());
    auto index = vecindex::IndexFactory::Global().CreateFromSaved(
        spec, std::string_view(blob.data(), blob.size()), *disk_hit);
    if (!index.ok()) return index.status();
    std::shared_ptr<vecindex::VectorIndex> shared = std::move(*index);
    memory_.Put(key, shared, shared->MemoryUsage());
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    return GetResult{shared, CacheOutcome::kDiskHit};
  }

  // Remote object store (pays the remote latency model inside Get). The one
  // copy goes into the aligned buffer that the index adopts and the disk
  // tier keeps.
  auto bytes = remote_->Get(key);
  if (!bytes.ok()) return bytes.status();
  auto blob = std::make_shared<const common::AlignedBytes>(bytes->begin(),
                                                           bytes->end());
  auto index = vecindex::IndexFactory::Global().CreateFromSaved(
      spec, std::string_view(blob->data(), blob->size()), blob);
  if (!index.ok()) return index.status();
  std::shared_ptr<vecindex::VectorIndex> shared = std::move(*index);
  InsertAllTiers(key, std::move(blob), shared);
  remote_loads_.fetch_add(1, std::memory_order_relaxed);
  static common::metrics::Counter* remote_loads_metric =
      common::metrics::MetricsRegistry::Instance().GetCounter(
          "bh_index_cache_remote_loads_total");
  remote_loads_metric->Add(1);
  return GetResult{shared, CacheOutcome::kRemoteLoad};
}

std::shared_ptr<vecindex::VectorIndex> HierarchicalIndexCache::PeekMemory(
    const std::string& key) {
  auto hit = memory_.Peek(key);
  return hit.has_value() ? *hit : nullptr;
}

std::optional<IndexMetaInfo> HierarchicalIndexCache::GetMeta(
    const std::string& key) {
  auto hit = metadata_.Get(key);
  if (!hit.has_value()) return std::nullopt;
  return **hit;
}

void HierarchicalIndexCache::Evict(const std::string& key) {
  memory_.Erase(key);
  disk_.Erase(key);
  metadata_.Erase(key);
}

void HierarchicalIndexCache::Clear() {
  memory_.Clear();
  disk_.Clear();
  metadata_.Clear();
}

}  // namespace blendhouse::cluster
