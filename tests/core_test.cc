#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "baselines/dataset.h"
#include "common/metrics.h"
#include "core/blendhouse.h"
#include "tests/test_util.h"

namespace blendhouse::core {
namespace {

using test::MakeClusteredVectors;

constexpr size_t kDim = 8;

/// End-to-end fixture: a BlendHouse instance with latency simulation off and
/// a pre-ingested table of clustered vectors with scalar attributes.
class BlendHouseE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    BlendHouseOptions opts = BlendHouseOptions::Fast();
    opts.ingest.max_segment_rows = 200;
    db_ = std::make_unique<BlendHouse>(opts);
    auto created = db_->ExecuteSql(
        "CREATE TABLE items (id Int64, attr Int64, label String,"
        " emb Array(Float32),"
        " INDEX ann emb TYPE HNSW('DIM=8','M=8'));");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }

  void Ingest(size_t n, uint64_t seed = 7) {
    data_ = MakeClusteredVectors(n, kDim, 6, seed);
    n_ = n;
    std::vector<storage::Row> rows;
    for (size_t i = 0; i < n; ++i) {
      storage::Row row;
      row.values = {
          static_cast<int64_t>(i), static_cast<int64_t>(i % 100),
          std::string(i % 2 == 0 ? "even" : "odd"),
          std::vector<float>(data_.begin() + i * kDim,
                             data_.begin() + (i + 1) * kDim)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db_->Insert("items", std::move(rows)).ok());
    ASSERT_TRUE(db_->Flush("items").ok());
  }

  std::string VecLiteral(const float* v) {
    std::string s = "[";
    for (size_t d = 0; d < kDim; ++d) {
      if (d > 0) s += ",";
      s += std::to_string(v[d]);
    }
    return s + "]";
  }

  std::unique_ptr<BlendHouse> db_;
  std::vector<float> data_;
  size_t n_ = 0;
};

TEST_F(BlendHouseE2E, PureVectorSearchFindsNearest) {
  Ingest(1000);
  const float* q = data_.data() + 123 * kDim;
  auto result = db_->Query("SELECT id, dist FROM items ORDER BY L2Distance("
                           "emb, " + VecLiteral(q) + ") AS dist LIMIT 10;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 10u);
  // The query point itself is row 123 at distance ~0.
  EXPECT_EQ(std::get<int64_t>(result->rows[0].values[0]), 123);
  EXPECT_NEAR(std::get<double>(result->rows[0].values[1]), 0.0, 1e-5);
  // Distances ascend.
  for (size_t i = 1; i < result->rows.size(); ++i)
    EXPECT_LE(std::get<double>(result->rows[i - 1].values[1]),
              std::get<double>(result->rows[i].values[1]));
}

TEST_F(BlendHouseE2E, RecallAgainstBruteForce) {
  Ingest(2000);
  sql::QuerySettings settings = db_->options().settings;
  settings.ef_search = 128;
  double total_recall = 0;
  const int kQueries = 10;
  for (int qi = 0; qi < kQueries; ++qi) {
    const float* q = data_.data() + (qi * 131 % n_) * kDim;
    auto truth = test::BruteForceTopK(data_, kDim, q, 10);
    auto result = db_->QueryWithSettings(
        "SELECT id FROM items ORDER BY L2Distance(emb, " + VecLiteral(q) +
            ") LIMIT 10;",
        settings);
    ASSERT_TRUE(result.ok());
    std::vector<vecindex::Neighbor> hits;
    for (const auto& row : result->rows)
      hits.push_back({std::get<int64_t>(row.values[0]), 0});
    total_recall += test::Recall(hits, truth);
  }
  EXPECT_GT(total_recall / kQueries, 0.9);
}

TEST_F(BlendHouseE2E, FilteredSearchRespectsPredicate) {
  Ingest(1000);
  const float* q = data_.data();
  auto result = db_->Query(
      "SELECT id, attr, dist FROM items WHERE attr < 10 ORDER BY "
      "L2Distance(emb, " + VecLiteral(q) + ") AS dist LIMIT 20;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 20u);  // 10% selectivity over 1000 rows
  for (const auto& row : result->rows)
    EXPECT_LT(std::get<int64_t>(row.values[1]), 10);
}

TEST_F(BlendHouseE2E, StringEqualityFilter) {
  Ingest(500);
  const float* q = data_.data();
  auto result = db_->Query(
      "SELECT id FROM items WHERE label = 'even' ORDER BY "
      "L2Distance(emb, " + VecLiteral(q) + ") LIMIT 15;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 15u);
  for (const auto& row : result->rows)
    EXPECT_EQ(std::get<int64_t>(row.values[0]) % 2, 0);
}

TEST_F(BlendHouseE2E, AllStrategiesAgreeOnFilteredResults) {
  Ingest(1200);
  const float* q = data_.data() + 5 * kDim;
  std::string sql =
      "SELECT id FROM items WHERE attr < 50 ORDER BY L2Distance(emb, " +
      VecLiteral(q) + ") LIMIT 10;";

  std::map<sql::ExecStrategy, std::set<int64_t>> results;
  for (sql::ExecStrategy strategy :
       {sql::ExecStrategy::kBruteForce, sql::ExecStrategy::kPreFilter,
        sql::ExecStrategy::kPostFilter}) {
    sql::QuerySettings settings = db_->options().settings;
    settings.forced_strategy = strategy;
    settings.ef_search = 256;
    settings.use_plan_cache = false;  // forced strategy must not be cached
    auto result = db_->QueryWithSettings(sql, settings);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 10u)
        << sql::ExecStrategyName(strategy);
    for (const auto& row : result->rows)
      results[strategy].insert(std::get<int64_t>(row.values[0]));
  }
  // Brute force is exact; approximate strategies must agree substantially.
  const auto& exact = results[sql::ExecStrategy::kBruteForce];
  for (auto strategy : {sql::ExecStrategy::kPreFilter,
                        sql::ExecStrategy::kPostFilter}) {
    size_t overlap = 0;
    for (int64_t id : results[strategy]) overlap += exact.count(id);
    EXPECT_GE(overlap, 8u) << sql::ExecStrategyName(strategy);
  }
}

TEST_F(BlendHouseE2E, FilterBitmapCacheHitsOnRepeat) {
  Ingest(1000);
  sql::QuerySettings settings = db_->options().settings;
  settings.forced_strategy = sql::ExecStrategy::kPreFilter;
  settings.use_plan_cache = false;  // force real execution on every run
  settings.short_circuit = false;
  std::string sql =
      "SELECT id, attr FROM items WHERE attr < 50 ORDER BY L2Distance(emb, " +
      VecLiteral(data_.data()) + ") LIMIT 10;";

  auto r1 = db_->QueryWithSettings(sql, settings);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GT(r1->stats.ledger.filter_cache_misses, 0u);

  // Second identical query: every segment bitmap comes from the worker cache.
  auto r2 = db_->QueryWithSettings(sql, settings);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->stats.ledger.filter_cache_hits, 0u);
  EXPECT_EQ(r2->stats.ledger.filter_cache_misses, 0u);
  ASSERT_EQ(r2->rows.size(), r1->rows.size());
  for (size_t i = 0; i < r1->rows.size(); ++i)
    EXPECT_EQ(std::get<int64_t>(r2->rows[i].values[0]),
              std::get<int64_t>(r1->rows[i].values[0]));

  // A DELETE bumps the segments' delete epochs: cached bitmaps that predate
  // it must not be served, and results must exclude the deleted rows.
  ASSERT_TRUE(db_->ExecuteSql("DELETE FROM items WHERE attr < 10;").ok());
  auto r3 = db_->QueryWithSettings(sql, settings);
  ASSERT_TRUE(r3.ok());
  EXPECT_GT(r3->stats.ledger.filter_cache_misses, 0u);
  for (const auto& row : r3->rows)
    EXPECT_GE(std::get<int64_t>(row.values[1]), 10);

  // Toggling the knob off bypasses the cache entirely.
  settings.use_filter_bitmap_cache = false;
  auto r4 = db_->QueryWithSettings(sql, settings);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->stats.ledger.filter_cache_hits, 0u);
  EXPECT_EQ(r4->stats.ledger.filter_cache_misses, 0u);
}

TEST_F(BlendHouseE2E, PreFilterDeletesOnlyExcludesDeleted) {
  // No WHERE clause + deletes: the pre-filter path builds its bitmap purely
  // from the delete bitmap (word-level SetAll + AndNot).
  Ingest(500);
  ASSERT_TRUE(db_->ExecuteSql("DELETE FROM items WHERE attr < 50;").ok());
  sql::QuerySettings settings = db_->options().settings;
  settings.forced_strategy = sql::ExecStrategy::kPreFilter;
  settings.use_plan_cache = false;
  auto result = db_->QueryWithSettings(
      "SELECT id, attr FROM items ORDER BY L2Distance(emb, " +
          VecLiteral(data_.data()) + ") LIMIT 20;",
      settings);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 20u);
  for (const auto& row : result->rows)
    EXPECT_GE(std::get<int64_t>(row.values[1]), 50);
}

TEST_F(BlendHouseE2E, HighlySelectiveFilterStillReturnsK) {
  Ingest(1000);
  const float* q = data_.data();
  // attr = 7 keeps ~1% of rows; the adaptive post-filter refill or CBO's
  // brute-force choice must still produce the full k where possible.
  auto result = db_->Query(
      "SELECT id, attr FROM items WHERE attr = 7 ORDER BY "
      "L2Distance(emb, " + VecLiteral(q) + ") LIMIT 5;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
  for (const auto& row : result->rows)
    EXPECT_EQ(std::get<int64_t>(row.values[1]), 7);
}

TEST_F(BlendHouseE2E, DistanceRangePushdown) {
  Ingest(800);
  const float* q = data_.data() + 50 * kDim;
  // First learn a radius from an unrestricted query.
  auto base = db_->Query("SELECT id, d FROM items ORDER BY L2Distance(emb, " +
                         VecLiteral(q) + ") AS d LIMIT 20;");
  ASSERT_TRUE(base.ok());
  double radius = std::get<double>(base->rows[9].values[1]);
  char radius_literal[32];
  std::snprintf(radius_literal, sizeof(radius_literal), "%.17g", radius);

  auto ranged = db_->Query("SELECT id, d FROM items WHERE d < " +
                           std::string(radius_literal) +
                           " ORDER BY L2Distance(emb, " + VecLiteral(q) +
                           ") AS d LIMIT 20;");
  ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
  EXPECT_GE(ranged->rows.size(), 5u);
  EXPECT_LE(ranged->rows.size(), 20u);
  for (const auto& row : ranged->rows)
    EXPECT_LT(std::get<double>(row.values[1]), radius);
}

TEST_F(BlendHouseE2E, ScalarOnlySelect) {
  Ingest(300);
  auto result =
      db_->Query("SELECT id, label FROM items WHERE id < 5 LIMIT 10;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST_F(BlendHouseE2E, AnnPaginationPagesAreContiguous) {
  // Page N+1 must continue exactly where page N stopped: fetching the top
  // 40 in one query and in four LIMIT 10 OFFSET 10*i pages must yield the
  // identical id sequence — no duplicates, no skips at page boundaries.
  Ingest(1000);
  const float* q = data_.data() + 321 * kDim;
  auto all = db_->Query("SELECT id, dist FROM items ORDER BY L2Distance("
                        "emb, " + VecLiteral(q) + ") AS dist LIMIT 40;");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows.size(), 40u);
  std::vector<int64_t> paged_ids;
  for (int page = 0; page < 4; ++page) {
    auto r = db_->Query(
        "SELECT id, dist FROM items ORDER BY L2Distance(emb, " +
        VecLiteral(q) + ") AS dist LIMIT 10 OFFSET " +
        std::to_string(page * 10) + ";");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 10u) << "page " << page;
    for (const auto& row : r->rows)
      paged_ids.push_back(std::get<int64_t>(row.values[0]));
  }
  for (size_t i = 0; i < 40; ++i)
    EXPECT_EQ(paged_ids[i], std::get<int64_t>(all->rows[i].values[0]))
        << "rank " << i;
}

TEST_F(BlendHouseE2E, FilteredAnnPaginationNoDupNoSkip) {
  Ingest(800);
  const float* q = data_.data();
  std::string base =
      "SELECT id FROM items WHERE label = 'even' ORDER BY L2Distance(emb, " +
      VecLiteral(q) + ") AS d";
  auto all = db_->Query(base + " LIMIT 30;");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows.size(), 30u);
  std::set<int64_t> seen;
  size_t rank = 0;
  for (int page = 0; page < 3; ++page) {
    auto r = db_->Query(base + " LIMIT 10 OFFSET " +
                        std::to_string(page * 10) + ";");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const auto& row : r->rows) {
      int64_t id = std::get<int64_t>(row.values[0]);
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      EXPECT_EQ(id, std::get<int64_t>(all->rows[rank].values[0]))
          << "rank " << rank;
      ++rank;
    }
  }
  EXPECT_EQ(seen.size(), 30u);
}

TEST_F(BlendHouseE2E, OffsetPastEndReturnsEmpty) {
  Ingest(100);
  const float* q = data_.data();
  auto r = db_->Query("SELECT id FROM items ORDER BY L2Distance(emb, " +
                      VecLiteral(q) + ") LIMIT 10 OFFSET 100;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(BlendHouseE2E, ScalarOffsetSkipsRows) {
  Ingest(300);
  auto r = db_->Query(
      "SELECT id FROM items WHERE id < 20 LIMIT 5 OFFSET 10;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 5u);
  // Scalar scans qualify rows in storage order, so OFFSET 10 lands on 10..14.
  for (size_t i = 0; i < 5; ++i)
    EXPECT_EQ(std::get<int64_t>(r->rows[i].values[0]),
              static_cast<int64_t>(10 + i));
}

TEST_F(BlendHouseE2E, SelectStarIncludesDistanceAlias) {
  Ingest(100);
  const float* q = data_.data();
  auto result = db_->Query("SELECT * FROM items ORDER BY L2Distance(emb, " +
                           VecLiteral(q) + ") AS d LIMIT 3;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->column_names.back(), "d");
  // The embedding column is materialized under SELECT *.
  bool has_vec = false;
  for (const auto& v : result->rows[0].values)
    if (std::holds_alternative<std::vector<float>>(v)) has_vec = true;
  EXPECT_TRUE(has_vec);
}

TEST_F(BlendHouseE2E, InsertViaSqlAndQueryBack) {
  auto ins = db_->ExecuteSql(
      "INSERT INTO items VALUES (9001, 1, 'x', [9, 9, 9, 9, 9, 9, 9, 9]),"
      " (9002, 2, 'y', [9, 9, 9, 9, 9, 9, 9, 8]);");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_TRUE(db_->Flush("items").ok());
  auto result = db_->Query(
      "SELECT id FROM items ORDER BY L2Distance(emb,"
      " [9, 9, 9, 9, 9, 9, 9, 9]) LIMIT 1;");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].values[0]), 9001);
}

TEST_F(BlendHouseE2E, InsertArityMismatchRejected) {
  auto ins = db_->ExecuteSql("INSERT INTO items VALUES (1, 2);");
  EXPECT_FALSE(ins.ok());
}

TEST_F(BlendHouseE2E, UpdateCreatesNewVersionAndHidesOld) {
  Ingest(400);
  // Move row 10 far away in vector space.
  auto upd = db_->ExecuteSql(
      "UPDATE items SET emb = [50, 50, 50, 50, 50, 50, 50, 50], label ="
      " 'moved' WHERE id = 10;");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();

  // Searching near the new location finds the updated row.
  auto near_new = db_->Query(
      "SELECT id, label FROM items ORDER BY L2Distance(emb,"
      " [50, 50, 50, 50, 50, 50, 50, 50]) LIMIT 1;");
  ASSERT_TRUE(near_new.ok());
  ASSERT_EQ(near_new->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(near_new->rows[0].values[0]), 10);
  EXPECT_EQ(std::get<std::string>(near_new->rows[0].values[1]), "moved");

  // The old version no longer appears near its original location.
  const float* old_vec = data_.data() + 10 * kDim;
  auto near_old = db_->Query("SELECT id FROM items ORDER BY L2Distance(emb, " +
                             VecLiteral(old_vec) + ") LIMIT 5;");
  ASSERT_TRUE(near_old.ok());
  for (const auto& row : near_old->rows) {
    if (std::get<int64_t>(row.values[0]) == 10) {
      FAIL() << "stale version of row 10 still visible";
    }
  }
}

TEST_F(BlendHouseE2E, DeleteHidesRows) {
  Ingest(300);
  auto del = db_->ExecuteSql("DELETE FROM items WHERE attr < 50;");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  auto all = db_->Query("SELECT id, attr FROM items WHERE attr < 50;");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->rows.empty());
  // Rows with attr >= 50 still there.
  auto rest = db_->Query("SELECT id FROM items WHERE attr >= 50;");
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->rows.size(), 150u);
}

TEST_F(BlendHouseE2E, CompactionAfterDeleteShrinksRows) {
  Ingest(600);
  ASSERT_TRUE(db_->ExecuteSql("DELETE FROM items WHERE attr < 20;").ok());
  uint64_t before = db_->engine("items")->Snapshot().TotalRows();
  auto jobs = db_->ExecuteSql("OPTIMIZE TABLE items;");
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  auto snap = db_->engine("items")->Snapshot();
  EXPECT_LT(snap.TotalRows(), before);
  EXPECT_EQ(snap.TotalDeletedRows(), 0u);

  // Queries still work after compaction rebuilt the indexes.
  const float* q = data_.data();
  auto result = db_->Query("SELECT id FROM items ORDER BY L2Distance(emb, " +
                           VecLiteral(q) + ") LIMIT 5;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST_F(BlendHouseE2E, ExplainReportsStrategyAndPlan) {
  Ingest(500);
  const float* q = data_.data();
  auto explain = db_->Explain(
      "SELECT id FROM items WHERE attr < 10 ORDER BY L2Distance(emb, " +
      VecLiteral(q) + ") LIMIT 5;");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("strategy="), std::string::npos);
  EXPECT_NE(explain->find("AnnScan"), std::string::npos);
  EXPECT_NE(explain->find("cost"), std::string::npos);
}

TEST_F(BlendHouseE2E, PlanCacheHitsOnRepeatedShape) {
  Ingest(300);
  const float* q1 = data_.data();
  const float* q2 = data_.data() + 17 * kDim;
  std::string sql1 =
      "SELECT id FROM items WHERE attr < 30 ORDER BY L2Distance(emb, " +
      VecLiteral(q1) + ") LIMIT 5;";
  std::string sql2 =
      "SELECT id FROM items WHERE attr < 77 ORDER BY L2Distance(emb, " +
      VecLiteral(q2) + ") LIMIT 9;";
  auto r1 = db_->Query(sql1);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->stats.used_plan_cache);
  auto r2 = db_->Query(sql2);  // same shape, different parameters
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->stats.used_plan_cache);
  EXPECT_TRUE(r2->stats.used_short_circuit);
  EXPECT_GE(db_->plan_cache().hits(), 1u);
}

TEST_F(BlendHouseE2E, QueryErrorsAreClean) {
  Ingest(50);
  EXPECT_TRUE(db_->Query("SELECT id FROM missing LIMIT 1;")
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(db_->Query("SELECT nosuchcol FROM items LIMIT 1;").ok());
  EXPECT_FALSE(db_->Query("SELECT id FROM items ORDER BY L2Distance(attr,"
                          " [1.0]) LIMIT 1;")
                   .ok());
}

TEST_F(BlendHouseE2E, CreateTableTwiceRejected) {
  auto again = db_->ExecuteSql(
      "CREATE TABLE items (id Int64, emb Array(Float32),"
      " INDEX a emb TYPE FLAT('DIM=8'));");
  EXPECT_TRUE(again.status().code() ==
              common::Status::Code::kAlreadyExists);
}

TEST_F(BlendHouseE2E, ConcurrentQueriesAreSafe) {
  Ingest(1500);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const float* q = data_.data() + ((t * 37 + i * 13) % n_) * kDim;
        auto result = db_->Query(
            "SELECT id FROM items WHERE attr < 80 ORDER BY "
            "L2Distance(emb, " + VecLiteral(q) + ") LIMIT 5;");
        if (!result.ok() || result->rows.size() != 5) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(BlendHouseE2E, ElasticScaleUpKeepsServing) {
  Ingest(1500);
  ASSERT_TRUE(db_->PreloadTable("items").ok());
  cluster::Worker* fresh = db_->AddReadWorker();
  ASSERT_NE(fresh, nullptr);
  // Immediately after scaling, queries still return correct results
  // (serving handles segments that moved to the cold worker).
  const float* q = data_.data() + 8 * kDim;
  auto result = db_->Query("SELECT id FROM items ORDER BY L2Distance(emb, " +
                           VecLiteral(q) + ") LIMIT 10;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].values[0]), 8);
}

TEST_F(BlendHouseE2E, WorkerRemovalStillServes) {
  Ingest(1000);
  auto workers = db_->read_vw().workers();
  ASSERT_GE(workers.size(), 2u);
  ASSERT_TRUE(db_->RemoveReadWorker(workers[0]->id()).ok());
  const float* q = data_.data() + 3 * kDim;
  auto result = db_->Query("SELECT id FROM items ORDER BY L2Distance(emb, " +
                           VecLiteral(q) + ") LIMIT 5;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST(BlendHouseIndexTypes, EveryIndexTypeServesSqlQueries) {
  // The pluggable-index contribution end-to-end: the same SQL works against
  // every registered index family, including the disk-based one.
  auto data = MakeClusteredVectors(600, kDim, 6, 33);
  for (const char* type :
       {"FLAT", "HNSW", "HNSWSQ", "IVFFLAT", "IVFPQ", "IVFPQFS", "DISKANN"}) {
    BlendHouseOptions opts = BlendHouseOptions::Fast();
    BlendHouse db(opts);
    std::string ddl =
        std::string("CREATE TABLE t (id Int64, emb Array(Float32),"
                    " INDEX a emb TYPE ") +
        type + "('DIM=8','NLIST=8','PQ_M=4','SIMULATE_DISK=0'));";
    ASSERT_TRUE(db.ExecuteSql(ddl).ok()) << type;
    std::vector<storage::Row> rows;
    for (size_t i = 0; i < 600; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(i),
                    std::vector<float>(data.begin() + i * kDim,
                                       data.begin() + (i + 1) * kDim)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
    ASSERT_TRUE(db.Flush("t").ok());

    std::string vec = "[";
    for (size_t d = 0; d < kDim; ++d)
      vec += (d ? "," : "") + std::to_string(data[100 * kDim + d]);
    vec += "]";
    auto result = db.Query("SELECT id FROM t ORDER BY L2Distance(emb, " +
                           vec + ") LIMIT 5;");
    ASSERT_TRUE(result.ok()) << type << ": " << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 5u) << type;
    if (std::string(type) != "IVFPQ" && std::string(type) != "IVFPQFS") {
      EXPECT_EQ(std::get<int64_t>(result->rows[0].values[0]), 100) << type;
    }
  }
}

TEST(BlendHouseMetrics, InnerProductOrdersBySimilarity) {
  BlendHouse db(BlendHouseOptions::Fast());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE FLAT('DIM=3','METRIC=IP'));")
                  .ok());
  // Vectors with increasing dot product against [1, 0, 0].
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES"
                            " (1, [0.1, 0, 0]), (2, [0.9, 0, 0]),"
                            " (3, [0.5, 0, 0]);")
                  .ok());
  ASSERT_TRUE(db.Flush("t").ok());
  auto result = db.Query(
      "SELECT id, s FROM t ORDER BY InnerProduct(emb, [1.0, 0.0, 0.0])"
      " AS s LIMIT 3;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  // Highest dot product first; the alias reports the raw (positive) dot.
  EXPECT_EQ(std::get<int64_t>(result->rows[0].values[0]), 2);
  EXPECT_NEAR(std::get<double>(result->rows[0].values[1]), 0.9, 1e-5);
  EXPECT_EQ(std::get<int64_t>(result->rows[2].values[0]), 1);
}

TEST(BlendHouseMultiTable, TablesAreIsolated) {
  BlendHouse db(BlendHouseOptions::Fast());
  for (const char* name : {"a", "b"}) {
    ASSERT_TRUE(db.ExecuteSql(std::string("CREATE TABLE ") + name +
                              " (id Int64, emb Array(Float32),"
                              " INDEX x emb TYPE FLAT('DIM=2'));")
                    .ok());
  }
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO a VALUES (1, [1.0, 0.0]);").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO b VALUES (2, [0.0, 1.0]);").ok());
  ASSERT_TRUE(db.Flush("a").ok());
  ASSERT_TRUE(db.Flush("b").ok());
  auto ra = db.Query(
      "SELECT id FROM a ORDER BY L2Distance(emb, [1.0, 0.0]) LIMIT 10;");
  auto rb = db.Query(
      "SELECT id FROM b ORDER BY L2Distance(emb, [1.0, 0.0]) LIMIT 10;");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->rows.size(), 1u);
  ASSERT_EQ(rb->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(ra->rows[0].values[0]), 1);
  EXPECT_EQ(std::get<int64_t>(rb->rows[0].values[0]), 2);
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(BlendHouseAsyncFlush, InsertStreamsVisibleAfterFlush) {
  BlendHouseOptions opts = BlendHouseOptions::Fast();
  opts.ingest.async_flush = true;
  opts.ingest.flush_threshold_rows = 64;
  opts.ingest.max_segment_rows = 64;
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE FLAT('DIM=2'));")
                  .ok());
  common::Rng rng(5);
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<storage::Row> rows;
    for (int i = 0; i < 40; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(batch * 40 + i),
                    std::vector<float>{rng.Gaussian(), rng.Gaussian()}};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  }
  // Flush() drains all background flushes: every row is now queryable.
  ASSERT_TRUE(db.Flush("t").ok());
  EXPECT_EQ(db.engine("t")->Snapshot().TotalRows(), 320u);
  auto result = db.Query(
      "SELECT id FROM t ORDER BY L2Distance(emb, [0.0, 0.0]) LIMIT 320;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 320u);
}

TEST(BlendHouseLaionWorkload, RegexPlusRangePlusVectorInOneQuery) {
  // The paper's LAION workload (§V-A.2): caption regex + similarity-score
  // range + vector search, all in one SQL statement.
  BlendHouseOptions opts = BlendHouseOptions::Fast();
  opts.ingest.max_segment_rows = 256;
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE laion (id Int64, caption String,"
                            " sim Float64, emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8'));")
                  .ok());
  auto data = MakeClusteredVectors(800, kDim, 6, 21);
  const char* captions[] = {"a cat on a mat", "dog 42 runs", "9 lives",
                            "sunset beach", "cat and dog", "4 birds"};
  std::vector<storage::Row> rows;
  common::Rng rng(3);
  for (size_t i = 0; i < 800; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i), std::string(captions[i % 6]),
                  rng.Uniform(),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("laion", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("laion").ok());

  std::string vec = "[";
  for (size_t d = 0; d < kDim; ++d)
    vec += (d ? "," : "") + std::to_string(data[d]);
  vec += "]";
  // Regex "^[0-9]" matches captions starting with a digit (ids % 6 in
  // {2, 5}); the sim range keeps ~70%.
  auto result = db.Query(
      "SELECT id, caption, sim FROM laion"
      " WHERE caption REGEXP '^[0-9]' AND sim BETWEEN 0.3 AND 1.0"
      " ORDER BY L2Distance(emb, " + vec + ") LIMIT 12;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 12u);
  for (const auto& row : result->rows) {
    const std::string& caption = std::get<std::string>(row.values[1]);
    ASSERT_FALSE(caption.empty());
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(caption[0])))
        << caption;
    double sim = std::get<double>(row.values[2]);
    EXPECT_GE(sim, 0.3);
    EXPECT_LE(sim, 1.0);
  }

  // LIKE variant of the same shape.
  auto like = db.Query(
      "SELECT id, caption FROM laion WHERE caption LIKE '%cat%'"
      " ORDER BY L2Distance(emb, " + vec + ") LIMIT 8;");
  ASSERT_TRUE(like.ok());
  EXPECT_EQ(like->rows.size(), 8u);
  for (const auto& row : like->rows)
    EXPECT_NE(std::get<std::string>(row.values[1]).find("cat"),
              std::string::npos);
}

TEST(BlendHouseFaultTolerance, ConcurrentQueriesSurviveWorkerRemoval) {
  // §II-E: query-level retry re-snapshots the topology; queries racing a
  // scale-down either succeed directly or via one retry.
  BlendHouseOptions opts = BlendHouseOptions::Fast();
  opts.read_workers = 3;
  opts.ingest.max_segment_rows = 128;
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8'));")
                  .ok());
  auto data = MakeClusteredVectors(1000, kDim, 4, 13);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 1000; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());

  std::atomic<int> failures{0};
  std::atomic<bool> removed{false};
  std::thread querier([&] {
    for (int i = 0; i < 60; ++i) {
      std::string vec = "[";
      for (size_t d = 0; d < kDim; ++d)
        vec += (d ? "," : "") + std::to_string(data[(i % 100) * kDim + d]);
      vec += "]";
      auto r = db.Query("SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
                        ") LIMIT 5;");
      if (!r.ok() || r->rows.size() != 5) failures.fetch_add(1);
      if (i == 20 && !removed.exchange(true))
        (void)db.RemoveReadWorker(db.read_vw().workers().front()->id());
    }
  });
  querier.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db.read_vw().num_workers(), 2u);
}

TEST(BlendHouseSettings, SetStatementUpdatesSessionSettings) {
  BlendHouse db(BlendHouseOptions::Fast());
  ASSERT_TRUE(db.ExecuteSql("SET ef_search = 256;").ok());
  EXPECT_EQ(db.options().settings.ef_search, 256);
  ASSERT_TRUE(db.ExecuteSql("SET nprobe = 32;").ok());
  EXPECT_EQ(db.options().settings.nprobe, 32);
  ASSERT_TRUE(db.ExecuteSql("SET use_cbo = OFF;").ok());
  EXPECT_FALSE(db.options().settings.use_cbo);
  ASSERT_TRUE(db.ExecuteSql("SET use_cbo = ON;").ok());
  EXPECT_TRUE(db.options().settings.use_cbo);
  ASSERT_TRUE(db.ExecuteSql("SET semantic_probe_buckets = 4;").ok());
  EXPECT_EQ(db.options().settings.semantic_probe_buckets, 4u);
  // Invalid values & unknown settings rejected.
  EXPECT_FALSE(db.ExecuteSql("SET ef_search = 0;").ok());
  EXPECT_TRUE(db.ExecuteSql("SET no_such_knob = 1;").status().IsNotFound());
  // Retired knobs (names are case-insensitive): refine_factor sets the
  // rerank depth, and post-filter refills always take the index's own
  // iterator.
  EXPECT_TRUE(db.ExecuteSql("SET RERANK_DEPTH = 64;").status().IsNotFound());
  EXPECT_TRUE(
      db.ExecuteSql("SET USE_NATIVE_ITERATORS = 0;").status().IsNotFound());
}

TEST(BlendHouseSettings, SetEfSearchChangesQueryBehaviour) {
  BlendHouseOptions opts = BlendHouseOptions::Fast();
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8','M=6',"
                            "'EF_CONSTRUCTION=40'));")
                  .ok());
  auto data = MakeClusteredVectors(2000, kDim, 16, 55, 1.0f);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 2000; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());

  auto recall_at = [&](int ef) {
    EXPECT_TRUE(
        db.ExecuteSql("SET ef_search = " + std::to_string(ef) + ";").ok());
    double total = 0;
    for (int q = 0; q < 10; ++q) {
      const float* query = data.data() + (q * 191 % 2000) * kDim;
      auto truth = test::BruteForceTopK(data, kDim, query, 10);
      std::string vec = "[";
      for (size_t d = 0; d < kDim; ++d)
        vec += (d ? "," : "") + std::to_string(query[d]);
      vec += "]";
      auto r = db.Query("SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
                        ") LIMIT 10;");
      EXPECT_TRUE(r.ok());
      std::vector<vecindex::Neighbor> hits;
      for (const auto& row : r->rows)
        hits.push_back({std::get<int64_t>(row.values[0]), 0});
      total += test::Recall(hits, truth);
    }
    return total / 10;
  };
  double low = recall_at(10);
  double high = recall_at(300);
  EXPECT_GE(high, low);
  EXPECT_GT(high, 0.95);
}

TEST(BlendHouseSettings, SetDistancePrecisionFlowsIntoNewIndexes) {
  BlendHouse db(BlendHouseOptions::Fast());
  // String knob with a fixed name set.
  EXPECT_FALSE(db.ExecuteSql("SET distance_precision = 1;").ok());
  EXPECT_FALSE(db.ExecuteSql("SET distance_precision = 'fp12';").ok());
  ASSERT_TRUE(db.ExecuteSql("SET distance_precision = 'int8';").ok());
  EXPECT_EQ(db.options().settings.distance_precision,
            vecindex::Precision::kInt8);

  // An index created after the SET stores int8 codes, so queries against it
  // must pass through the executor's fp32 rerank stage (DESIGN.md §13) and
  // still return accurate top-k.
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8','M=8'));")
                  .ok());
  auto data = MakeClusteredVectors(600, kDim, 8, 77, 1.0f);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 600; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());
  // Loaded up front, so no query is served by the exact-scan fallback.
  ASSERT_TRUE(db.PreloadTable("t").ok());

  auto& reg = common::metrics::MetricsRegistry::Instance();
  uint64_t before = reg.GetCounter("bh_exec_fp32_rerank_rows")->Value();
  double total = 0;
  for (int q = 0; q < 10; ++q) {
    const float* query = data.data() + (q * 67 % 600) * kDim;
    auto truth = test::BruteForceTopK(data, kDim, query, 10);
    std::string vec = "[";
    for (size_t d = 0; d < kDim; ++d)
      vec += (d ? "," : "") + std::to_string(query[d]);
    vec += "]";
    auto r = db.Query("SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
                      ") LIMIT 10;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<vecindex::Neighbor> hits;
    for (const auto& row : r->rows)
      hits.push_back({std::get<int64_t>(row.values[0]), 0});
    total += test::Recall(hits, truth);
  }
  EXPECT_GT(total / 10, 0.9);
  EXPECT_GT(reg.GetCounter("bh_exec_fp32_rerank_rows")->Value(), before)
      << "query never entered the fp32 rerank stage";
}

TEST(BlendHouseSettings, ReducedPrecisionRerankKeepsSigmaK) {
  // A reduced-precision segment's first pass keeps k * refine_factor
  // survivors for the fp32 rerank (the sigma * k the cost model prices),
  // not the whole segment.
  BlendHouse db(BlendHouseOptions::Fast());
  ASSERT_EQ(db.options().settings.refine_factor, 2);
  // At dim 8 the CBO prices an exact scan below the index; with the CBO off
  // every query takes the index (pre-filter plan).
  ASSERT_TRUE(db.ExecuteSql("SET use_cbo = 0;").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8','M=8',"
                            "'PRECISION=INT8'));")
                  .ok());
  const size_t n = 4096;  // one segment at the default max_segment_rows
  auto data = MakeClusteredVectors(n, kDim, 16, 81, 1.0f);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < n; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());
  // Loaded up front, so no query is served by the exact-scan fallback.
  ASSERT_TRUE(db.PreloadTable("t").ok());

  common::metrics::Counter* rerank_rows =
      common::metrics::MetricsRegistry::Instance().GetCounter(
          "bh_exec_fp32_rerank_rows");
  double total = 0;
  for (int q = 0; q < 10; ++q) {
    const float* query = data.data() + (q * 409 % n) * kDim;
    auto truth = test::BruteForceTopK(data, kDim, query, 10);
    std::string vec = "[";
    for (size_t d = 0; d < kDim; ++d)
      vec += (d ? "," : "") + std::to_string(query[d]);
    vec += "]";
    const uint64_t before = rerank_rows->Value();
    auto r = db.Query("SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
                      ") LIMIT 10;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(rerank_rows->Value() - before, 20u) << "query " << q;
    const common::QueryLedger& ledger = r->stats.ledger;
    EXPECT_EQ(ledger.segments_scanned, 1u);
    EXPECT_EQ(ledger.fp32_rerank_rows, 20u);
    EXPECT_LT(ledger.rows_scanned, n);
    std::vector<vecindex::Neighbor> hits;
    for (const auto& row : r->rows)
      hits.push_back({std::get<int64_t>(row.values[0]), 0});
    total += test::Recall(hits, truth);
  }
  EXPECT_GT(total / 10, 0.9);
}

TEST(BlendHouseSettings, RetiredPrecisionNameRejected) {
  // The retired 16-bit brain-float format no longer parses as a session
  // default.
  BlendHouse db(BlendHouseOptions::Fast());
  EXPECT_TRUE(db.ExecuteSql("SET distance_precision = 'bfloat16';")
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(db.options().settings.distance_precision,
            vecindex::Precision::kFp32);
}

// ---------------------------------------------------------------------------
// Semantic partitioning end-to-end
// ---------------------------------------------------------------------------

TEST(BlendHouseSemantic, ClusterByPrunesSegments) {
  BlendHouseOptions opts = BlendHouseOptions::Fast();
  opts.ingest.max_segment_rows = 100;
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8'))"
                            " CLUSTER BY emb INTO 6 BUCKETS;")
                  .ok());
  auto data = MakeClusteredVectors(1200, kDim, 6, 99, 0.1f);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 1200; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());

  std::string vec = "[";
  for (size_t d = 0; d < kDim; ++d)
    vec += (d ? "," : "") + std::to_string(data[d]);
  vec += "]";

  sql::QuerySettings pruned = db.options().settings;
  pruned.semantic_pruning = true;
  pruned.semantic_probe_buckets = 1;
  auto with = db.QueryWithSettings(
      "SELECT id FROM t ORDER BY L2Distance(emb, " + vec + ") LIMIT 5;",
      pruned);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_EQ(with->rows.size(), 5u);
  EXPECT_LT(with->stats.segments_after_semantic_prune,
            with->stats.segments_total);

  sql::QuerySettings full = pruned;
  full.semantic_pruning = false;
  auto without = db.QueryWithSettings(
      "SELECT id FROM t ORDER BY L2Distance(emb, " + vec + ") LIMIT 5;",
      full);
  ASSERT_TRUE(without.ok());
  // With well-separated clusters, probing 1 bucket matches the unpruned
  // top-1 (the query point itself).
  EXPECT_EQ(std::get<int64_t>(with->rows[0].values[0]),
            std::get<int64_t>(without->rows[0].values[0]));
}

TEST(BlendHouseSemantic, AdaptiveExpansionFindsFilteredRows) {
  BlendHouseOptions opts = BlendHouseOptions::Fast();
  opts.ingest.max_segment_rows = 100;
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64, attr Int64,"
                            " emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8'))"
                            " CLUSTER BY emb INTO 4 BUCKETS;")
                  .ok());
  auto data = MakeClusteredVectors(800, kDim, 4, 17, 0.1f);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 800; ++i) {
    storage::Row row;
    // attr selective: only 1 in 50 rows pass.
    row.values = {static_cast<int64_t>(i), static_cast<int64_t>(i % 50),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());

  std::string vec = "[";
  for (size_t d = 0; d < kDim; ++d)
    vec += (d ? "," : "") + std::to_string(data[d]);
  vec += "]";

  sql::QuerySettings settings = db.options().settings;
  settings.semantic_probe_buckets = 1;
  settings.adaptive_semantic = true;
  auto result = db.QueryWithSettings(
      "SELECT id, attr FROM t WHERE attr = 3 ORDER BY L2Distance(emb, " +
          vec + ") LIMIT 10;",
      settings);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 16 matching rows exist; adaptive expansion must find >= k of them even
  // though one bucket holds only ~4.
  EXPECT_EQ(result->rows.size(), 10u);
  for (const auto& row : result->rows)
    EXPECT_EQ(std::get<int64_t>(row.values[1]), 3);
}

// ---------------------------------------------------------------------------
// Query-level retry path (fault tolerance, §II-E)
// ---------------------------------------------------------------------------

/// Fixture with multiple segments spread over a 2-worker VW, plus a helper
/// that swaps out the entire worker set — the most hostile topology change a
/// query can race against.
class BlendHouseRetry : public ::testing::Test {
 protected:
  void SetUp() override {
    BlendHouseOptions opts = BlendHouseOptions::Fast();
    opts.ingest.max_segment_rows = 100;
    db_ = std::make_unique<BlendHouse>(opts);
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE t (id Int64,"
                                " emb Array(Float32),"
                                " INDEX a emb TYPE HNSW('DIM=8'));")
                    .ok());
    data_ = MakeClusteredVectors(400, kDim, 4, 11);
    std::vector<storage::Row> rows;
    for (size_t i = 0; i < 400; ++i) {
      storage::Row row;
      row.values = {static_cast<int64_t>(i),
                    std::vector<float>(data_.begin() + i * kDim,
                                       data_.begin() + (i + 1) * kDim)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db_->Insert("t", std::move(rows)).ok());
    ASSERT_TRUE(db_->Flush("t").ok());
  }

  /// Replaces every worker in the read VW, invalidating any placement
  /// computed before the call (all assigned worker ids disappear).
  void ReplaceAllWorkers() {
    std::vector<std::string> ids;
    for (cluster::Worker* w : db_->read_vw().workers()) ids.push_back(w->id());
    for (size_t i = 0; i < ids.size(); ++i) db_->AddReadWorker();
    for (const std::string& id : ids)
      ASSERT_TRUE(db_->RemoveReadWorker(id).ok());
  }

  std::string Query() {
    std::string vec = "[";
    for (size_t d = 0; d < kDim; ++d)
      vec += (d ? "," : "") + std::to_string(data_[d]);
    vec += "]";
    return "SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
           ") LIMIT 5;";
  }

  std::unique_ptr<BlendHouse> db_;
  std::vector<float> data_;
};

TEST_F(BlendHouseRetry, TopologyChangeMidQueryRetriesOnceAndSucceeds) {
  size_t hook_calls = 0;
  db_->SetExecutorTopologyHookForTest([&](size_t attempt) {
    ++hook_calls;
    // Sabotage only the first attempt: the placement it just computed now
    // references workers that no longer exist.
    if (attempt == 0) ReplaceAllWorkers();
  });
  auto result = db_->Query(Query());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->stats.ledger.retries, 1u);
  EXPECT_GE(hook_calls, 2u);
}

TEST_F(BlendHouseRetry, ExhaustedRetriesReturnAborted) {
  db_->SetExecutorTopologyHookForTest(
      [&](size_t) { ReplaceAllWorkers(); });
  auto result = db_->Query(Query());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::Status::Code::kAborted);
}

TEST_F(BlendHouseRetry, ExhaustedRetriesKeepTheirLedger) {
  // A query that runs out of retries is logged with what its execution did:
  // the retry it made and the time it spent executing. No attempt won, so
  // it reports no segment tallies.
  sql::QuerySettings settings = db_->options().settings;
  settings.max_query_retries = 1;
  db_->SetExecutorTopologyHookForTest([&](size_t) { ReplaceAllWorkers(); });
  auto result = db_->QueryWithSettings(Query(), settings);
  db_->SetExecutorTopologyHookForTest(nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::Status::Code::kAborted);

  auto log = db_->Query(
      "SELECT status, retries, exec_micros, segments_scanned "
      "FROM system.query_log;");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->rows.size(), 1u);
  const std::vector<storage::Value>& rec = log->rows[0].values;
  EXPECT_EQ(std::get<std::string>(rec[0]), "error");
  EXPECT_EQ(std::get<int64_t>(rec[1]), 1);
  EXPECT_GT(std::get<double>(rec[2]), 0.0);
  EXPECT_EQ(std::get<int64_t>(rec[3]), 0);
}

TEST_F(BlendHouseRetry, RetriesCountedInStats) {
  sql::QuerySettings settings = db_->options().settings;
  settings.max_query_retries = 3;
  size_t sabotaged = 0;
  db_->SetExecutorTopologyHookForTest([&](size_t attempt) {
    if (attempt < 2) {
      ++sabotaged;
      ReplaceAllWorkers();
    }
  });
  auto result = db_->QueryWithSettings(Query(), settings);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(sabotaged, 2u);
  EXPECT_EQ(result->stats.ledger.retries, 2u);
}

// ---------------------------------------------------------------------------
// ExecStats async time breakdown
// ---------------------------------------------------------------------------

TEST(BlendHouseExecStats, BreakdownSumsToExecMicros) {
  // Single worker, single thread, one segment, dominant simulated storage
  // latency: queue-wait + compute + sim-I/O must account for essentially the
  // whole execution time.
  BlendHouseOptions opts;
  opts.read_workers = 1;
  opts.worker_threads = 1;
  opts.remote_cost = {/*base_latency_micros=*/20000, /*bytes_per_micro=*/1e9,
                      /*simulate_latency=*/true};
  opts.rpc_cost.simulate_latency = false;
  opts.worker.cache.disk_cost = storage::StorageCostModel::Instant();
  opts.ingest.max_segment_rows = 100000;
  BlendHouse db(opts);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id Int64,"
                            " emb Array(Float32),"
                            " INDEX a emb TYPE HNSW('DIM=8'));")
                  .ok());
  auto data = MakeClusteredVectors(200, kDim, 4, 3);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 200; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data.begin() + i * kDim,
                                     data.begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.Insert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.Flush("t").ok());

  std::string vec = "[";
  for (size_t d = 0; d < kDim; ++d)
    vec += (d ? "," : "") + std::to_string(data[d]);
  vec += "]";
  auto result =
      db.Query("SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
               ") LIMIT 5;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const sql::ExecStats& stats = result->stats;
  const common::QueryLedger& ledger = stats.ledger;
  EXPECT_EQ(ledger.segments_scanned, 1u);
  // The 20 ms remote index load dominates; it must show up as sim-I/O.
  EXPECT_GE(ledger.sim_io_micros, 20000.0);
  double sum = ledger.queue_wait_micros + ledger.compute_micros +
               ledger.sim_io_micros;
  EXPECT_GT(stats.exec_micros, 0.0);
  // Accounted time covers the execution minus scheduling/merge overhead;
  // generous bounds keep this robust on loaded CI machines.
  EXPECT_GE(sum, 0.7 * stats.exec_micros);
  EXPECT_LE(sum, 1.1 * stats.exec_micros);
}

/// One worker with one pool thread over 8 segments of 100 rows. Every
/// object-store get costs 20 ms of simulated latency and the cache's disk
/// tier is free, so loading the 8 segments' indexes one after another would
/// take 160 ms.
void MakeOneThreadSlowRemoteDb(bool force_local_load,
                               std::unique_ptr<BlendHouse>* db,
                               std::vector<float>* data) {
  BlendHouseOptions opts;
  opts.read_workers = 1;
  opts.worker_threads = 1;
  opts.remote_cost = {/*base_latency_micros=*/20000, /*bytes_per_micro=*/1e9,
                      /*simulate_latency=*/true};
  opts.rpc_cost.simulate_latency = false;
  opts.worker.cache.disk_cost = storage::StorageCostModel::Instant();
  opts.ingest.max_segment_rows = 100;
  opts.settings.acquire.force_local_load = force_local_load;
  *db = std::make_unique<BlendHouse>(opts);
  ASSERT_TRUE((*db)->ExecuteSql("CREATE TABLE t (id Int64,"
                                " emb Array(Float32),"
                                " INDEX a emb TYPE HNSW('DIM=8'));")
                  .ok());
  *data = MakeClusteredVectors(800, kDim, 4, 5);
  std::vector<storage::Row> rows;
  for (size_t i = 0; i < 800; ++i) {
    storage::Row row;
    row.values = {static_cast<int64_t>(i),
                  std::vector<float>(data->begin() + i * kDim,
                                     data->begin() + (i + 1) * kDim)};
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*db)->Insert("t", std::move(rows)).ok());
  ASSERT_TRUE((*db)->Flush("t").ok());
}

TEST(BlendHouseExecStats, SegmentSimIoOverlapsOnOneThread) {
  // Each segment task loads its index (20 ms of simulated I/O) without
  // parking the one pool thread, so the 8 loads overlap: the query waits
  // about one load for the segment tasks and one more get for
  // materialization, not 8 loads. LIMIT 1 keeps materialization to the
  // single winner's segment.
  std::unique_ptr<BlendHouse> db;
  std::vector<float> data;
  ASSERT_NO_FATAL_FAILURE(
      MakeOneThreadSlowRemoteDb(/*force_local_load=*/true, &db, &data));
  std::string vec = "[";
  for (size_t d = 0; d < kDim; ++d)
    vec += (d ? "," : "") + std::to_string(data[d]);
  vec += "]";
  auto result = db->Query("SELECT id FROM t ORDER BY L2Distance(emb, " + vec +
                          ") LIMIT 1;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const sql::ExecStats& stats = result->stats;
  EXPECT_EQ(stats.ledger.segments_scanned, 8u);
  EXPECT_GE(stats.ledger.sim_io_micros, 8 * 20000.0);
  // The waiter still pays the latency: no earlier than one load.
  EXPECT_GE(stats.exec_micros, 20000.0);
  EXPECT_LT(stats.exec_micros, 80000.0);
}

TEST(BlendHousePreload, PreloadOverlapsLoadsOnOneLoader) {
  // The worker's one loader thread starts all 8 index loads without parking
  // on their simulated reads; PreloadTable then pays the latest one.
  std::unique_ptr<BlendHouse> db;
  std::vector<float> data;
  ASSERT_NO_FATAL_FAILURE(
      MakeOneThreadSlowRemoteDb(/*force_local_load=*/false, &db, &data));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(db->PreloadTable("t").ok());
  const auto wall = std::chrono::steady_clock::now() - start;
  EXPECT_GE(wall, std::chrono::milliseconds(20));
  EXPECT_LT(wall, std::chrono::milliseconds(80));
}

}  // namespace
}  // namespace blendhouse::core
