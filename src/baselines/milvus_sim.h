#pragma once

#include <memory>
#include <vector>

#include "baselines/vectordb_iface.h"
#include "common/task_scheduler.h"
#include "storage/object_store.h"
#include "vecindex/hnsw_index.h"

namespace blendhouse::baselines {

struct MilvusSimOptions {
  size_t segment_rows = 8192;
  size_t build_threads = 4;
  size_t hnsw_m = 16;
  size_t hnsw_ef_construction = 200;
  /// Per-query proxy->querynode RPC cost (microseconds). Milvus's
  /// coordinator/proxy architecture adds a network hop BlendHouse's
  /// in-warehouse execution avoids; this models it.
  int64_t proxy_rpc_micros = 250;
  /// Pass-fraction below which Milvus's own heuristic switches a filtered
  /// search to brute force over qualifying rows.
  double brute_force_threshold = 0.05;
  bool simulate_latency = true;
  /// Simulated client insert-stream bandwidth (0 = off).
  IngestStreamModel ingest_stream;
  /// Milvus partition-key support: > 0 groups rows into this many attr-range
  /// partitions, letting filtered searches skip non-matching segments
  /// entirely (the Table VII "Milvus-Partition" configuration).
  size_t attr_partitions = 0;
};

/// Behavioural model of Milvus 2.4 for the paper's comparisons:
///  - staged ingest: write ALL segments to shared storage, THEN build
///    indexes, THEN load them into query nodes (no pipelining) — the
///    Table IV disadvantage;
///  - filtered search is pre-filter only (bitmap from attributes), with a
///    selectivity heuristic that falls back to brute force;
///  - every query pays a proxy RPC hop.
class MilvusSim : public VectorSystem {
 public:
  explicit MilvusSim(MilvusSimOptions options = MilvusSimOptions());

  std::string Name() const override { return "Milvus"; }
  common::Status Load(const BenchDataset& data) override;
  common::Result<std::vector<vecindex::Neighbor>> Search(
      const SearchRequest& request) override;

 private:
  struct Segment {
    size_t base = 0;   // key for storage paths (unique per segment)
    size_t rows = 0;
    std::vector<vecindex::IdType> global_ids;
    std::vector<float> vectors;
    std::vector<int64_t> attrs;
    int64_t attr_min = 0;
    int64_t attr_max = 0;
    std::unique_ptr<vecindex::HnswIndex> index;
  };

  void ChargeProxyHop() const;

  MilvusSimOptions options_;
  storage::ObjectStore store_;  // shared remote storage (Milvus is cloud-native)
  size_t dim_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace blendhouse::baselines
