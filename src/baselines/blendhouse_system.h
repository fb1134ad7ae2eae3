#pragma once

#include <map>
#include <memory>
#include <string>

#include "baselines/vectordb_iface.h"
#include "common/mutex.h"
#include "common/query_ledger.h"
#include "core/blendhouse.h"

namespace blendhouse::baselines {

struct BlendHouseSystemOptions {
  core::BlendHouseOptions db;
  std::string index_type = "HNSW";
  /// Extra index parameters (M, EF_CONSTRUCTION, NLIST, ...).
  std::map<std::string, std::string> index_params;
  /// CLUSTER BY ... INTO n BUCKETS; 0 disables semantic partitioning.
  size_t semantic_buckets = 0;
  /// PARTITION BY a derived attr bucket (attr * n / max); 0 disables scalar
  /// partitioning. Gives filtered searches segment-level pruning.
  size_t scalar_partition_buckets = 0;
  /// Rows per INSERT batch during Load.
  size_t insert_batch = 2048;
  /// Simulated client insert-stream bandwidth (0 = off).
  IngestStreamModel ingest_stream;
  /// Preload indexes into worker caches after load (the paper's
  /// cache-aware preload; all systems are measured warm unless a bench
  /// says otherwise).
  bool preload = true;
};

/// The system under test, driven end-to-end through its public SQL surface
/// so comparisons include parsing, planning, and distributed execution.
class BlendHouseSystem : public VectorSystem {
 public:
  explicit BlendHouseSystem(
      BlendHouseSystemOptions options = BlendHouseSystemOptions());

  std::string Name() const override { return "BlendHouse"; }
  common::Status Load(const BenchDataset& data) override;
  common::Result<std::vector<vecindex::Neighbor>> Search(
      const SearchRequest& request) override;

  core::BlendHouse& db() { return *db_; }
  sql::QuerySettings& settings() { return settings_; }

  /// Renders the SQL this adapter issues for a request (for logs/tests).
  std::string BuildSearchSql(const SearchRequest& request) const;

  /// Exec time and ledgers summed over every successful Search() since the
  /// last drain; benches print the async execution breakdown from this.
  struct AccumulatedExecStats {
    size_t queries = 0;
    double exec_micros = 0;
    common::QueryLedger ledger;
  };
  /// Returns the totals accumulated since the last drain and starts a new
  /// accumulation. Each successful search folds in once, when it finishes,
  /// so concurrent drains never lose or double-count a query.
  AccumulatedExecStats DrainExecStats() EXCLUDES(stats_mu_);

 private:
  BlendHouseSystemOptions options_;
  std::unique_ptr<core::BlendHouse> db_;
  sql::QuerySettings settings_;
  size_t dim_ = 0;

  mutable common::Mutex stats_mu_{common::lockrank::kBaselineStats};
  AccumulatedExecStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace blendhouse::baselines
