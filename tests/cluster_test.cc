#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>

#include "cluster/consistent_hash.h"
#include "cluster/index_cache.h"
#include "cluster/scheduler.h"
#include "cluster/virtual_warehouse.h"
#include "cluster/worker.h"
#include "common/lru_cache.h"
#include "storage/lsm_engine.h"
#include "tests/test_util.h"

namespace blendhouse::cluster {
namespace {

using common::LruCache;
using test::MakeClusteredVectors;

// ---------------------------------------------------------------------------
// Multi-probe consistent hashing
// ---------------------------------------------------------------------------

TEST(ConsistentHashTest, EmptyRingReturnsEmpty) {
  ConsistentHashRing ring;
  EXPECT_EQ(ring.GetNode("key"), "");
}

TEST(ConsistentHashTest, SingleNodeOwnsEverything) {
  ConsistentHashRing ring;
  ring.AddNode("w0");
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(ring.GetNode("seg_" + std::to_string(i)), "w0");
}

TEST(ConsistentHashTest, DeterministicAssignment) {
  ConsistentHashRing a, b;
  for (const char* n : {"w0", "w1", "w2"}) {
    a.AddNode(n);
    b.AddNode(n);
  }
  for (int i = 0; i < 100; ++i) {
    std::string key = "seg_" + std::to_string(i);
    EXPECT_EQ(a.GetNode(key), b.GetNode(key));
  }
}

TEST(ConsistentHashTest, MultiProbeBalancesBetterThanSingleProbe) {
  // The defining property of multi-probe CH: with k probes the load spread
  // tightens substantially vs classic 1-probe placement.
  auto spread = [](size_t probes) {
    ConsistentHashRing ring(probes);
    for (int n = 0; n < 8; ++n) ring.AddNode("w" + std::to_string(n));
    std::map<std::string, int> counts;
    for (int i = 0; i < 4000; ++i)
      counts[ring.GetNode("segment_" + std::to_string(i))]++;
    int mn = 1 << 30, mx = 0;
    for (auto& [_, c] : counts) {
      mn = std::min(mn, c);
      mx = std::max(mx, c);
    }
    return static_cast<double>(mx) / std::max(1, mn);
  };
  EXPECT_LT(spread(21), spread(1));
  EXPECT_LT(spread(21), 2.5);  // well balanced at 21 probes
}

TEST(ConsistentHashTest, MinimalRedistributionOnScaling) {
  ConsistentHashRing ring;
  for (int n = 0; n < 6; ++n) ring.AddNode("w" + std::to_string(n));
  std::map<std::string, std::string> before;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "seg_" + std::to_string(i);
    before[key] = ring.GetNode(key);
  }
  ring.AddNode("w6");
  size_t moved = 0;
  for (auto& [key, owner] : before)
    if (ring.GetNode(key) != owner) ++moved;
  // Ideal fraction is 1/7 ~ 14%; anything far below a rehash-everything 86%
  // demonstrates the property. Allow generous slack for multi-probe skew.
  EXPECT_LT(static_cast<double>(moved) / before.size(), 0.35);
  EXPECT_GT(moved, 0u);

  // Moved keys all moved TO the new node (clockwise-closest semantics).
  for (auto& [key, owner] : before) {
    std::string now = ring.GetNode(key);
    if (now != owner) {
      EXPECT_EQ(now, "w6") << key;
    }
  }
}

TEST(ConsistentHashTest, RemoveNodeOnlyMovesItsKeys) {
  ConsistentHashRing ring;
  for (int n = 0; n < 5; ++n) ring.AddNode("w" + std::to_string(n));
  std::map<std::string, std::string> before;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "k" + std::to_string(i);
    before[key] = ring.GetNode(key);
  }
  ring.RemoveNode("w2");
  for (auto& [key, owner] : before) {
    if (owner != "w2")
      EXPECT_EQ(ring.GetNode(key), owner) << key;  // untouched
    else
      EXPECT_NE(ring.GetNode(key), "w2");
  }
}

// ---------------------------------------------------------------------------
// LruCache
// ---------------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(/*capacity_bytes=*/30);
  cache.Put("a", 1, 10);
  cache.Put("b", 2, 10);
  cache.Put("c", 3, 10);
  ASSERT_TRUE(cache.Get("a").has_value());  // a now most recent
  cache.Put("d", 4, 10);                    // evicts b (LRU)
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OversizedEntryNotCached) {
  LruCache<int> cache(10);
  cache.Put("big", 1, 100);
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, PeekDoesNotTouchOrder) {
  LruCache<int> cache(20);
  cache.Put("a", 1, 10);
  cache.Put("b", 2, 10);
  ASSERT_TRUE(cache.Peek("a").has_value());  // no LRU bump
  cache.Put("c", 3, 10);                     // evicts a despite the peek
  EXPECT_FALSE(cache.Peek("a").has_value());
}

TEST(LruCacheTest, UpdateReplacesAndRecharges) {
  LruCache<int> cache(25);
  cache.Put("a", 1, 10);
  cache.Put("a", 2, 20);
  EXPECT_EQ(*cache.Get("a"), 2);
  EXPECT_EQ(cache.used_bytes(), 20u);
}

// ---------------------------------------------------------------------------
// Hierarchical index cache & worker fixtures
// ---------------------------------------------------------------------------

class ClusterFixture : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 8;

  ClusterFixture()
      : store_(storage::StorageCostModel::Instant()),
        rpc_(RpcFabric::CostModel{0, 1e12, false}),
        pool_(2) {
    schema_.table_name = "t";
    schema_.columns = {{"id", storage::ColumnType::kInt64},
                       {"emb", storage::ColumnType::kFloatVector}};
    vecindex::IndexSpec spec;
    spec.type = "HNSW";
    spec.dim = kDim;
    schema_.index_spec = spec;
    schema_.vector_column = 1;
    storage::IngestOptions ingest;
    ingest.max_segment_rows = 100;  // several segments per flush
    engine_ = std::make_unique<storage::LsmEngine>(schema_, &store_, &pool_,
                                                   ingest);
  }

  void IngestRows(size_t n) {
    auto data = MakeClusteredVectors(n, kDim, 4, 9);
    std::vector<storage::Row> rows;
    for (size_t i = 0; i < n; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(i),
                    std::vector<float>(data.begin() + i * kDim,
                                       data.begin() + (i + 1) * kDim)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(engine_->Insert(std::move(rows)).ok());
    ASSERT_TRUE(engine_->Flush().ok());
    query_.assign(data.begin(), data.begin() + kDim);
  }

  WorkerOptions FastWorkerOptions() {
    WorkerOptions o;
    o.cache.disk_cost = storage::StorageCostModel::Instant();
    return o;
  }

  storage::ObjectStore store_;
  RpcFabric rpc_;
  common::TaskScheduler pool_;
  storage::TableSchema schema_;
  std::unique_ptr<storage::LsmEngine> engine_;
  std::vector<float> query_;
};

TEST_F(ClusterFixture, IndexCacheTiersProgress) {
  IngestRows(200);
  auto meta = engine_->Snapshot().segments[0];
  std::string key = storage::SegmentKeys::Index("t", meta.segment_id);

  HierarchicalIndexCache::Options opts;
  opts.disk_cost = storage::StorageCostModel::Instant();
  HierarchicalIndexCache cache(&store_, opts);

  auto first = cache.GetOrLoad(key, *schema_.index_spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->outcome, CacheOutcome::kRemoteLoad);

  auto second = cache.GetOrLoad(key, *schema_.index_spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->outcome, CacheOutcome::kMemoryHit);

  // Evict only the memory tier by clearing and reinserting disk bytes:
  // simulate by a fresh cache sharing no memory but a warm disk via the
  // same remote (disk tier is internal, so instead drop memory via a tiny
  // memory budget).
  HierarchicalIndexCache::Options small = opts;
  small.memory_bytes = 1;  // nothing fits in memory
  HierarchicalIndexCache disk_only(&store_, small);
  ASSERT_TRUE(disk_only.GetOrLoad(key, *schema_.index_spec).ok());
  auto again = disk_only.GetOrLoad(key, *schema_.index_spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, CacheOutcome::kDiskHit);
}

TEST_F(ClusterFixture, IndexCacheDiskHitOutlivesDiskEviction) {
  // A disk hit's index views the disk tier's blob. Dropping every tier must
  // not free the bytes under it: the index keeps them alive and answers
  // exactly as an index decoded from the object store's copy.
  IngestRows(200);
  auto meta = engine_->Snapshot().segments[0];
  std::string key = storage::SegmentKeys::Index("t", meta.segment_id);
  HierarchicalIndexCache::Options opts;
  opts.disk_cost = storage::StorageCostModel::Instant();
  opts.memory_bytes = 1;  // nothing fits in memory: the second get hits disk
  HierarchicalIndexCache cache(&store_, opts);
  ASSERT_TRUE(cache.GetOrLoad(key, *schema_.index_spec).ok());
  auto hit = cache.GetOrLoad(key, *schema_.index_spec);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->outcome, CacheOutcome::kDiskHit);
  std::shared_ptr<vecindex::VectorIndex> held = hit->index;
  cache.Clear();
  EXPECT_EQ(cache.disk_used(), 0u);

  auto saved = store_.Get(key);
  ASSERT_TRUE(saved.ok());
  auto decoded =
      vecindex::IndexFactory::Global().CreateFromSaved(*schema_.index_spec,
                                                       *saved);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto data = MakeClusteredVectors(20, kDim, 4, 77);
  vecindex::SearchParams params;
  params.k = 10;
  for (size_t q = 0; q < 20; ++q) {
    const float* query = data.data() + q * kDim;
    auto got = held->SearchWithFilter(query, params);
    auto want = (*decoded)->SearchWithFilter(query, params);
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->size(), want->size()) << q;
    ASSERT_FALSE(got->empty()) << q;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].id, (*want)[i].id) << q;
      EXPECT_EQ(std::bit_cast<uint32_t>((*got)[i].distance),
                std::bit_cast<uint32_t>((*want)[i].distance))
          << q;
    }
  }
}

TEST_F(ClusterFixture, IndexCacheMetadataSurvivesDataChurn) {
  IngestRows(200);
  auto meta = engine_->Snapshot().segments[0];
  std::string key = storage::SegmentKeys::Index("t", meta.segment_id);
  HierarchicalIndexCache::Options opts;
  opts.disk_cost = storage::StorageCostModel::Instant();
  HierarchicalIndexCache cache(&store_, opts);
  ASSERT_TRUE(cache.GetOrLoad(key, *schema_.index_spec).ok());
  auto info = cache.GetMeta(key);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->index_type, "HNSW");
  EXPECT_EQ(info->num_vectors, 100u);  // max_segment_rows splits 200 rows
  EXPECT_GT(info->memory_bytes, 0u);
}

TEST_F(ClusterFixture, WorkerAcquireAndSearch) {
  IngestRows(300);
  Worker worker("w0", &store_, &rpc_, FastWorkerOptions());
  auto meta = engine_->Snapshot().segments[0];
  // A cold worker with no peers and force_local_load blocks on the remote
  // store (the Manu-style wait-for-load path).
  AcquireOptions force_load;
  force_load.force_local_load = true;
  auto acquired = worker.AcquireIndex(schema_, meta, force_load);
  ASSERT_TRUE(acquired.ok());
  EXPECT_EQ(acquired->outcome, CacheOutcome::kRemoteLoad);

  vecindex::SearchParams params;
  params.k = 5;
  auto hits = acquired->index->SearchWithFilter(query_.data(), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);

  // Second acquire is a memory hit.
  auto warm = worker.AcquireIndex(schema_, meta);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->outcome, CacheOutcome::kMemoryHit);
}

TEST_F(ClusterFixture, ColdWorkerDefaultsToBruteForceFallback) {
  // The paper's default on an unservable cache miss: answer the query NOW
  // with exact distances instead of blocking on an index load.
  IngestRows(150);
  Worker worker("w0", &store_, &rpc_, FastWorkerOptions());
  auto meta = engine_->Snapshot().segments[0];
  AcquireOptions opts;
  opts.background_load_on_fallback = false;
  auto acquired = worker.AcquireIndex(schema_, meta, opts);
  ASSERT_TRUE(acquired.ok());
  EXPECT_EQ(acquired->outcome, CacheOutcome::kBruteForce);
  EXPECT_EQ(acquired->index->Type(), "FLAT");
}

TEST_F(ClusterFixture, WorkerBruteForceWhenNoIndexAnywhere) {
  IngestRows(100);
  auto meta = engine_->Snapshot().segments[0];
  // Wipe the persisted index: only raw data remains.
  ASSERT_TRUE(store_.Delete(storage::SegmentKeys::Index("t", meta.segment_id))
                  .ok());
  Worker worker("w0", &store_, &rpc_, FastWorkerOptions());
  AcquireOptions opts;
  opts.background_load_on_fallback = false;
  auto acquired = worker.AcquireIndex(schema_, meta, opts);
  ASSERT_TRUE(acquired.ok());
  EXPECT_EQ(acquired->outcome, CacheOutcome::kBruteForce);
  vecindex::SearchParams params;
  params.k = 3;
  auto hits = acquired->index->SearchWithFilter(query_.data(), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 3u);
}

TEST_F(ClusterFixture, VectorSearchServingViaPreviousOwner) {
  IngestRows(1000);  // ~10 segments: some will move to the new worker
  VirtualWarehouse vw("vw", 2, &store_, &rpc_, FastWorkerOptions());
  auto snapshot = engine_->Snapshot();
  // Warm all current owners.
  ASSERT_TRUE(PreloadIndexes(vw, schema_, snapshot).ok());

  // Scale up; some segments now map to the cold new worker.
  Worker* fresh = vw.AddWorker();
  const storage::SegmentMeta* moved = nullptr;
  for (const auto& meta : snapshot.segments) {
    std::string key = Scheduler::PlacementKey("t", meta);
    if (vw.OwnerIdOf(key) == fresh->id()) {
      moved = &meta;
      break;
    }
  }
  if (moved == nullptr) GTEST_SKIP() << "no segment moved to the new worker";

  AcquireOptions opts;
  opts.background_load_on_fallback = false;
  auto acquired = fresh->AcquireIndex(schema_, *moved, opts);
  ASSERT_TRUE(acquired.ok());
  // The previous owner holds the index hot: served remotely, not brute
  // forced, and not a blocking remote load.
  EXPECT_EQ(acquired->outcome, CacheOutcome::kRemoteServing);
  vecindex::SearchParams params;
  params.k = 5;
  auto hits = acquired->index->SearchWithFilter(query_.data(), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);

  // The served index's iterator (the post-filter path) pays one RPC per
  // batch, and its batches keep the sorted, duplicate-free contract.
  auto iter = acquired->index->MakeIterator(query_.data(), params);
  ASSERT_TRUE(iter.ok()) << iter.status().ToString();
  std::set<vecindex::IdType> ids;
  for (int b = 0; b < 4; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    uint64_t rpc_before = rpc_.bytes();
    std::vector<vecindex::Neighbor> batch = (*iter)->Next(16);
    EXPECT_GT(rpc_.bytes(), rpc_before);
    ASSERT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), 16u);
    EXPECT_TRUE(vecindex::IsSortedBatch(batch));
    for (const vecindex::Neighbor& nb : batch)
      EXPECT_TRUE(ids.insert(nb.id).second) << "duplicate id " << nb.id;
  }
}

TEST_F(ClusterFixture, PreloadWarmsExactlyTheOwners) {
  IngestRows(400);
  VirtualWarehouse vw("vw", 3, &store_, &rpc_, FastWorkerOptions());
  auto snapshot = engine_->Snapshot();
  ASSERT_TRUE(PreloadIndexes(vw, schema_, snapshot).ok());
  for (const auto& meta : snapshot.segments) {
    std::string key = Scheduler::PlacementKey("t", meta);
    Worker* owner = vw.OwnerOf(key);
    ASSERT_NE(owner, nullptr);
    EXPECT_NE(owner->PeekHotIndex(key), nullptr) << meta.segment_id;
  }
}

TEST_F(ClusterFixture, SchedulerScalarAndSemanticPruning) {
  std::vector<storage::SegmentMeta> metas(4);
  for (int i = 0; i < 4; ++i) {
    metas[i].segment_id = "s" + std::to_string(i);
    metas[i].semantic_bucket = i;
    metas[i].numeric_ranges["x"] = {i * 10.0, i * 10.0 + 9.0};
  }
  // Scalar: keep segments whose x-range intersects [15, 25].
  auto kept = Scheduler::PruneScalar(metas, [](const storage::SegmentMeta& m) {
    auto [lo, hi] = m.numeric_ranges.at("x");
    return !(hi < 15.0 || lo > 25.0);
  });
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].segment_id, "s1");
  EXPECT_EQ(kept[1].segment_id, "s2");

  // Semantic: four well-separated centroids; probing 1 bucket keeps only
  // the nearest one.
  storage::SemanticPartitioner part;
  std::vector<float> centers = {0, 0, 10, 0, 0, 10, 10, 10};
  ASSERT_TRUE(part.Train(centers.data(), 4, 2, 4).ok());
  for (int i = 0; i < 4; ++i)
    metas[i].semantic_bucket = part.AssignBucket(centers.data() + i * 2);
  float query[2] = {0.5f, 0.2f};
  auto sem = Scheduler::PruneSemantic(metas, part, query, 1);
  ASSERT_EQ(sem.size(), 1u);
  EXPECT_EQ(sem[0].semantic_bucket, part.AssignBucket(query));
}

TEST_F(ClusterFixture, VwScaleDownRemovesWorker) {
  VirtualWarehouse vw("vw", 3, &store_, &rpc_, FastWorkerOptions());
  auto workers = vw.workers();
  ASSERT_EQ(workers.size(), 3u);
  ASSERT_TRUE(vw.RemoveWorker(workers[0]->id()).ok());
  EXPECT_EQ(vw.num_workers(), 2u);
  EXPECT_FALSE(vw.RemoveWorker("nonexistent").ok());
}

TEST_F(ClusterFixture, RpcFabricCountsCalls) {
  RpcFabric fabric(RpcFabric::CostModel{0, 1e12, false});
  fabric.Charge(100);
  fabric.Charge(50);
  EXPECT_EQ(fabric.calls(), 2u);
  EXPECT_EQ(fabric.bytes(), 150u);
}

}  // namespace
}  // namespace blendhouse::cluster
