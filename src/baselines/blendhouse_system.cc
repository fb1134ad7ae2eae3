#include "baselines/blendhouse_system.h"

#include <cstdio>
#include <utility>

namespace blendhouse::baselines {

BlendHouseSystem::BlendHouseSystem(BlendHouseSystemOptions options)
    : options_(std::move(options)),
      db_(std::make_unique<core::BlendHouse>(options_.db)),
      settings_(options_.db.settings) {}

common::Status BlendHouseSystem::Load(const BenchDataset& data) {
  dim_ = data.dim;
  storage::TableSchema schema;
  schema.table_name = "bench";
  schema.columns = {{"id", storage::ColumnType::kInt64},
                    {"attr", storage::ColumnType::kInt64},
                    {"attr_bucket", storage::ColumnType::kInt64},
                    {"sim", storage::ColumnType::kFloat64},
                    {"caption", storage::ColumnType::kString},
                    {"emb", storage::ColumnType::kFloatVector}};
  vecindex::IndexSpec spec;
  spec.type = options_.index_type;
  spec.dim = data.dim;
  spec.params = options_.index_params;
  schema.index_spec = spec;
  schema.vector_column = 5;
  schema.semantic_buckets = options_.semantic_buckets;
  if (options_.scalar_partition_buckets > 0)
    schema.partition_columns = {2};  // PARTITION BY attr_bucket
  BH_RETURN_IF_ERROR(db_->CreateTable(schema));

  size_t parts = std::max<size_t>(1, options_.scalar_partition_buckets);
  std::vector<storage::Row> batch;
  batch.reserve(options_.insert_batch);
  for (size_t i = 0; i < data.n; ++i) {
    int64_t bucket = static_cast<int64_t>(
        static_cast<size_t>(data.int_attr[i]) * parts /
        (static_cast<size_t>(BenchDataset::kAttrMax) + 1));
    storage::Row row;
    row.values = {static_cast<int64_t>(i), data.int_attr[i], bucket,
                  data.sim_score[i], data.captions[i],
                  std::vector<float>(data.vector(i), data.vector(i) + dim_)};
    batch.push_back(std::move(row));
    if (batch.size() >= options_.insert_batch) {
      options_.ingest_stream.Charge(batch.size() * dim_ * sizeof(float));
      BH_RETURN_IF_ERROR(db_->Insert("bench", std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) {
    options_.ingest_stream.Charge(batch.size() * dim_ * sizeof(float));
    BH_RETURN_IF_ERROR(db_->Insert("bench", std::move(batch)));
  }
  BH_RETURN_IF_ERROR(db_->Flush("bench"));
  if (options_.preload) BH_RETURN_IF_ERROR(db_->PreloadTable("bench"));
  return common::Status::Ok();
}

std::string BlendHouseSystem::BuildSearchSql(
    const SearchRequest& request) const {
  std::string sql = "SELECT id, d FROM bench";
  if (request.filtered) {
    sql += " WHERE attr BETWEEN " + std::to_string(request.lo) + " AND " +
           std::to_string(request.hi);
  }
  sql += " ORDER BY L2Distance(emb, [";
  char buf[32];
  for (size_t i = 0; i < dim_; ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.6g" : ",%.6g",
                  static_cast<double>(request.query[i]));
    sql += buf;
  }
  sql += "]) AS d LIMIT " + std::to_string(request.k) + ";";
  return sql;
}

common::Result<std::vector<vecindex::Neighbor>> BlendHouseSystem::Search(
    const SearchRequest& request) {
  sql::QuerySettings settings = settings_;
  settings.ef_search = request.ef_search;
  auto result = db_->QueryWithSettings(BuildSearchSql(request), settings);
  if (!result.ok()) return result.status();
  {
    common::MutexLock lock(stats_mu_);
    stats_.queries += 1;
    stats_.exec_micros += result->stats.exec_micros;
    stats_.ledger.Merge(result->stats.ledger);
  }

  std::vector<vecindex::Neighbor> out;
  out.reserve(result->rows.size());
  for (const storage::Row& row : result->rows) {
    const int64_t* id = std::get_if<int64_t>(&row.values[0]);
    const double* dist = std::get_if<double>(&row.values[1]);
    if (id == nullptr || dist == nullptr)
      return common::Status::Internal("unexpected result row shape");
    out.push_back({*id, static_cast<float>(*dist)});
  }
  return out;
}

BlendHouseSystem::AccumulatedExecStats BlendHouseSystem::DrainExecStats() {
  common::MutexLock lock(stats_mu_);
  return std::exchange(stats_, {});
}

}  // namespace blendhouse::baselines
