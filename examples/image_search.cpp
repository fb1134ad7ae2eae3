// Image-search service: the production workload of the paper's Table VII in
// miniature. A catalog of image embeddings with scalar metadata is ingested
// with scalar + semantic partitioning, then filtered top-k searches run with
// the cost-based optimizer choosing the execution strategy per query.
//
//   ./examples/image_search

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/logging.h"
#include "core/blendhouse.h"

namespace {

constexpr size_t kDim = 32;
constexpr size_t kImages = 6000;

std::string VecLiteral(const std::vector<float>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

}  // namespace

int main() {
  using namespace blendhouse;
  common::SetLogLevel(common::LogLevel::kWarn);

  core::BlendHouseOptions options = core::BlendHouseOptions::Fast();
  options.ingest.max_segment_rows = 1024;
  core::BlendHouse db(options);

  // Scalar partitioning by category plus semantic clustering of embeddings:
  // both pruning dimensions from the paper's Example 1.
  auto created = db.ExecuteSql(
      "CREATE TABLE gallery ("
      "  id Int64,"
      "  category String,"
      "  width Int64,"
      "  quality Float64,"
      "  embedding Array(Float32),"
      "  INDEX ann embedding TYPE HNSW('DIM=32', 'M=12')"
      ") PARTITION BY (category)"
      "  CLUSTER BY embedding INTO 8 BUCKETS;");
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }

  // Synthesize a catalog: 4 categories, clustered embeddings.
  const char* kCategories[] = {"animal", "landscape", "portrait", "food"};
  common::Rng rng(7);
  std::vector<float> centers(8 * kDim);
  for (auto& c : centers) c = rng.Gaussian();
  std::vector<storage::Row> rows;
  rows.reserve(kImages);
  for (size_t i = 0; i < kImages; ++i) {
    size_t c = static_cast<size_t>(rng.UniformInt(0, 7));
    std::vector<float> emb(kDim);
    for (size_t d = 0; d < kDim; ++d)
      emb[d] = centers[c * kDim + d] + rng.Gaussian(0, 0.2f);
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::string(kCategories[i % 4]),
                  rng.UniformInt(320, 4096),
                  rng.Uniform(),
                  std::move(emb)};
    rows.push_back(std::move(row));
  }
  if (!db.Insert("gallery", std::move(rows)).ok() ||
      !db.Flush("gallery").ok())
    return 1;
  if (!db.PreloadTable("gallery").ok()) return 1;

  // Query: "animal images, at least 1024px wide, good quality, most similar
  // to this example image" — multi-predicate filtered vector search.
  std::vector<float> query(centers.begin(), centers.begin() + kDim);
  std::string sql =
      "SELECT id, category, width, d FROM gallery"
      " WHERE category = 'animal' AND width >= 1024 AND quality > 0.5"
      " ORDER BY L2Distance(embedding, " + VecLiteral(query) + ") AS d"
      " LIMIT 5;";

  auto result = db.Query(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("top matches:\n%-8s %-12s %-8s %s\n", "id", "category", "width",
              "distance");
  for (const auto& row : result->rows)
    std::printf("%-8lld %-12s %-8lld %.4f\n",
                static_cast<long long>(std::get<int64_t>(row.values[0])),
                std::get<std::string>(row.values[1]).c_str(),
                static_cast<long long>(std::get<int64_t>(row.values[2])),
                std::get<double>(row.values[3]));

  const auto& stats = result->stats;
  std::printf(
      "\nexecution: strategy=%s, %zu/%zu segments scanned after pruning"
      " (scalar kept %zu, semantic kept %zu)\n",
      sql::ExecStrategyName(stats.strategy),
      static_cast<size_t>(stats.ledger.segments_scanned), stats.segments_total,
      stats.segments_after_scalar_prune, stats.segments_after_semantic_prune);

  // Realtime update: reclassify one image and re-query (Fig. 6 mechanism:
  // new version + delete bitmap, no index rebuild).
  long long top_id =
      static_cast<long long>(std::get<int64_t>(result->rows[0].values[0]));
  auto updated = db.ExecuteSql("UPDATE gallery SET category = 'archived'"
                               " WHERE id = " + std::to_string(top_id) + ";");
  if (!updated.ok()) return 1;
  auto requery = db.Query(sql);
  if (!requery.ok()) return 1;
  long long new_top =
      static_cast<long long>(std::get<int64_t>(requery->rows[0].values[0]));
  std::printf("\nafter archiving image %lld, the new top match is %lld\n",
              top_id, new_top);
  return new_top == top_id ? 1 : 0;
}
