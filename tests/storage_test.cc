#include <gtest/gtest.h>

#include "common/task_scheduler.h"
#include "common/timer.h"
#include "storage/column.h"
#include "storage/lsm_engine.h"
#include "storage/object_store.h"
#include "storage/partitioner.h"
#include "storage/segment.h"
#include "storage/version.h"
#include "tests/test_util.h"

namespace blendhouse::storage {
namespace {

using test::MakeClusteredVectors;

// ---------------------------------------------------------------------------
// ObjectStore
// ---------------------------------------------------------------------------

TEST(ObjectStoreTest, PutGetDelete) {
  ObjectStore store(StorageCostModel::Instant());
  ASSERT_TRUE(store.Put("a/b", "hello").ok());
  auto got = store.Get("a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello");
  EXPECT_TRUE(store.Exists("a/b"));
  ASSERT_TRUE(store.Delete("a/b").ok());
  EXPECT_FALSE(store.Exists("a/b"));
  EXPECT_TRUE(store.Get("a/b").status().IsNotFound());
}

TEST(ObjectStoreTest, ListPrefix) {
  ObjectStore store(StorageCostModel::Instant());
  ASSERT_TRUE(store.Put("t/seg1/data", "x").ok());
  ASSERT_TRUE(store.Put("t/seg2/data", "y").ok());
  ASSERT_TRUE(store.Put("u/seg1/data", "z").ok());
  EXPECT_EQ(store.ListPrefix("t/").size(), 2u);
  EXPECT_EQ(store.ListPrefix("u/").size(), 1u);
  EXPECT_EQ(store.ListPrefix("v/").size(), 0u);
}

TEST(ObjectStoreTest, StatsCountBytes) {
  ObjectStore store(StorageCostModel::Instant());
  ASSERT_TRUE(store.Put("k", std::string(100, 'a')).ok());
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(store.stats().puts.load(), 1u);
  EXPECT_EQ(store.stats().gets.load(), 1u);
  EXPECT_EQ(store.stats().bytes_written.load(), 100u);
  EXPECT_EQ(store.stats().bytes_read.load(), 100u);
}

TEST(ObjectStoreTest, LatencyModelCharges) {
  StorageCostModel cost;
  cost.base_latency_micros = 3000;
  cost.bytes_per_micro = 1e9;
  cost.simulate_latency = true;
  ObjectStore store(cost);
  ASSERT_TRUE(store.Put("k", "v").ok());
  common::Timer timer;
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_GE(timer.ElapsedMicros(), 2500);
}

// ---------------------------------------------------------------------------
// Column
// ---------------------------------------------------------------------------

TEST(ColumnTest, TypedAppendAndGet) {
  Column ints("a", ColumnType::kInt64);
  ASSERT_TRUE(ints.Append(Value(int64_t{7})).ok());
  EXPECT_EQ(ints.GetInt64(0), 7);
  EXPECT_FALSE(ints.Append(Value(std::string("x"))).ok());

  Column strs("b", ColumnType::kString);
  ASSERT_TRUE(strs.Append(Value(std::string("hello"))).ok());
  ASSERT_TRUE(strs.Append(Value(std::string("world"))).ok());
  EXPECT_EQ(strs.GetString(0), "hello");
  EXPECT_EQ(strs.GetString(1), "world");

  Column vecs("c", ColumnType::kFloatVector, 2);
  ASSERT_TRUE(vecs.Append(Value(std::vector<float>{1, 2})).ok());
  EXPECT_FLOAT_EQ(vecs.GetVector(0)[1], 2.0f);
  EXPECT_FALSE(vecs.Append(Value(std::vector<float>{1, 2, 3})).ok());
}

TEST(ColumnTest, FloatColumnAcceptsIntLiterals) {
  Column col("f", ColumnType::kFloat64);
  ASSERT_TRUE(col.Append(Value(int64_t{3})).ok());
  EXPECT_DOUBLE_EQ(col.GetFloat64(0), 3.0);
}

TEST(ColumnTest, GranuleMarks) {
  Column col("g", ColumnType::kInt64);
  for (int64_t i = 0; i < 300; ++i)
    ASSERT_TRUE(col.Append(Value(i)).ok());
  col.BuildGranuleMarks(128);
  const GranuleMarks* marks = col.granule_marks();
  ASSERT_NE(marks, nullptr);
  EXPECT_EQ(marks->NumGranules(), 3u);
  EXPECT_DOUBLE_EQ(marks->min_vals[0], 0);
  EXPECT_DOUBLE_EQ(marks->max_vals[0], 127);
  EXPECT_TRUE(marks->MayContainRange(0, 100, 200));
  EXPECT_FALSE(marks->MayContainRange(0, 200, 300));
}

TEST(ColumnTest, SerializationRoundTrip) {
  Column col("s", ColumnType::kString);
  ASSERT_TRUE(col.Append(Value(std::string("abc"))).ok());
  ASSERT_TRUE(col.Append(Value(std::string(""))).ok());
  ASSERT_TRUE(col.Append(Value(std::string("xyz"))).ok());
  std::string buf;
  common::BinaryWriter w(&buf);
  col.Serialize(&w);
  Column restored;
  common::BinaryReader r(buf);
  ASSERT_TRUE(restored.Deserialize(&r).ok());
  EXPECT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.GetString(0), "abc");
  EXPECT_EQ(restored.GetString(1), "");
  EXPECT_EQ(restored.GetString(2), "xyz");
}

// ---------------------------------------------------------------------------
// Segment
// ---------------------------------------------------------------------------

TableSchema TestSchema(size_t dim = 4, size_t buckets = 0) {
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {{"id", ColumnType::kInt64},
                    {"label", ColumnType::kString},
                    {"emb", ColumnType::kFloatVector}};
  vecindex::IndexSpec spec;
  spec.type = "FLAT";
  spec.dim = dim;
  schema.index_spec = spec;
  schema.vector_column = 2;
  schema.semantic_buckets = buckets;
  return schema;
}

Row MakeRow(int64_t id, const std::string& label, std::vector<float> vec) {
  Row row;
  row.values = {id, label, std::move(vec)};
  return row;
}

TEST(SegmentTest, BuildAndRoundTrip) {
  TableSchema schema = TestSchema();
  SegmentBuilder builder(schema, "seg_0");
  builder.SetPartitionKey("animal");
  ASSERT_TRUE(builder.AppendRow(MakeRow(1, "cat", {1, 0, 0, 0})).ok());
  ASSERT_TRUE(builder.AppendRow(MakeRow(2, "dog", {0, 1, 0, 0})).ok());
  auto segment = builder.Finish();
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ((*segment)->num_rows(), 2u);
  EXPECT_EQ((*segment)->meta().partition_key, "animal");
  // Centroid is the mean vector.
  ASSERT_EQ((*segment)->meta().centroid.size(), 4u);
  EXPECT_FLOAT_EQ((*segment)->meta().centroid[0], 0.5f);
  // Numeric ranges recorded for pruning.
  auto range = (*segment)->meta().numeric_ranges.at("id");
  EXPECT_DOUBLE_EQ(range.first, 1);
  EXPECT_DOUBLE_EQ(range.second, 2);

  std::string bytes = (*segment)->SerializeToString();
  auto restored = Segment::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->num_rows(), 2u);
  EXPECT_EQ((*restored)->FindColumn("label")->GetString(1), "dog");
}

TEST(SegmentTest, EmptySegmentRejected) {
  TableSchema schema = TestSchema();
  SegmentBuilder builder(schema, "seg_0");
  EXPECT_FALSE(builder.Finish().ok());
}

TEST(SegmentTest, ArityMismatchRejected) {
  TableSchema schema = TestSchema();
  SegmentBuilder builder(schema, "seg_0");
  Row bad;
  bad.values = {int64_t{1}};
  EXPECT_FALSE(builder.AppendRow(bad).ok());
}

// ---------------------------------------------------------------------------
// VersionSet & delete bitmaps
// ---------------------------------------------------------------------------

SegmentMeta Meta(const std::string& id, uint64_t rows) {
  SegmentMeta m;
  m.segment_id = id;
  m.num_rows = rows;
  return m;
}

TEST(VersionSetTest, AddAndSnapshot) {
  VersionSet vs;
  vs.AddSegments({Meta("a", 10), Meta("b", 20)});
  TableSnapshot snap = vs.Snapshot();
  EXPECT_EQ(snap.segments.size(), 2u);
  EXPECT_EQ(snap.TotalRows(), 30u);
  EXPECT_EQ(snap.version, 1u);
}

TEST(VersionSetTest, MarkDeletedIsCopyOnWrite) {
  VersionSet vs;
  vs.AddSegments({Meta("a", 10)});
  TableSnapshot before = vs.Snapshot();
  ASSERT_TRUE(vs.MarkDeleted("a", {1, 3}).ok());
  TableSnapshot after = vs.Snapshot();
  // Old snapshot unaffected; new one sees the deletions.
  EXPECT_EQ(before.DeletesFor("a"), nullptr);
  ASSERT_NE(after.DeletesFor("a"), nullptr);
  EXPECT_TRUE(after.DeletesFor("a")->Test(1));
  EXPECT_TRUE(after.DeletesFor("a")->Test(3));
  EXPECT_FALSE(after.DeletesFor("a")->Test(2));
  EXPECT_EQ(after.TotalDeletedRows(), 2u);
}

TEST(VersionSetTest, DeleteOutOfRangeRejected) {
  VersionSet vs;
  vs.AddSegments({Meta("a", 10)});
  EXPECT_FALSE(vs.MarkDeleted("a", {10}).ok());
  EXPECT_FALSE(vs.MarkDeleted("missing", {0}).ok());
}

TEST(VersionSetTest, ReplaceSegmentsIsAtomic) {
  VersionSet vs;
  vs.AddSegments({Meta("a", 10), Meta("b", 10)});
  ASSERT_TRUE(vs.MarkDeleted("a", {0}).ok());
  ASSERT_TRUE(vs.ReplaceSegments({"a", "b"}, {Meta("c", 19)}).ok());
  TableSnapshot snap = vs.Snapshot();
  EXPECT_EQ(snap.segments.size(), 1u);
  EXPECT_EQ(snap.segments[0].segment_id, "c");
  // Delete bitmap of removed segment is dropped.
  EXPECT_EQ(snap.delete_bitmaps.size(), 0u);
  // Replacing a missing segment fails.
  EXPECT_FALSE(vs.ReplaceSegments({"zzz"}, {}).ok());
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(PartitionerTest, ScalarKeyJoinsColumns) {
  TableSchema schema = TestSchema();
  schema.partition_columns = {1, 0};  // label, id
  Row row = MakeRow(7, "cat", {0, 0, 0, 0});
  EXPECT_EQ(ScalarPartitionKey(schema, row), "cat|7");
}

TEST(PartitionerTest, SemanticBucketsAreConsistent) {
  auto data = MakeClusteredVectors(600, 8, 4, 5);
  SemanticPartitioner part;
  ASSERT_TRUE(part.Train(data.data(), 600, 8, 4).ok());
  EXPECT_EQ(part.num_buckets(), 4u);
  // A vector is assigned to the bucket whose centroid ranks first.
  for (size_t i = 0; i < 20; ++i) {
    const float* v = data.data() + i * 8;
    EXPECT_EQ(part.AssignBucket(v), part.RankBuckets(v)[0]);
  }
}

TEST(PartitionerTest, SerializationRoundTrip) {
  auto data = MakeClusteredVectors(200, 8, 4, 6);
  SemanticPartitioner part;
  ASSERT_TRUE(part.Train(data.data(), 200, 8, 4).ok());
  std::string buf;
  common::BinaryWriter w(&buf);
  part.Serialize(&w);
  SemanticPartitioner restored;
  common::BinaryReader r(buf);
  ASSERT_TRUE(restored.Deserialize(&r).ok());
  EXPECT_EQ(restored.num_buckets(), 4u);
  EXPECT_EQ(restored.AssignBucket(data.data()), part.AssignBucket(data.data()));
}

// ---------------------------------------------------------------------------
// LsmEngine
// ---------------------------------------------------------------------------

class LsmEngineTest : public ::testing::Test {
 protected:
  LsmEngineTest()
      : store_(StorageCostModel::Instant()), pool_(2) {}

  std::unique_ptr<LsmEngine> MakeEngine(size_t buckets = 0,
                                        IngestOptions opts = {}) {
    return std::make_unique<LsmEngine>(TestSchema(4, buckets), &store_,
                                       &pool_, opts);
  }

  std::vector<Row> MakeRows(size_t n, const std::string& label,
                            uint64_t seed = 1) {
    common::Rng rng(seed);
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i)
      rows.push_back(MakeRow(static_cast<int64_t>(i), label,
                             {rng.Gaussian(), rng.Gaussian(), rng.Gaussian(),
                              rng.Gaussian()}));
    return rows;
  }

  ObjectStore store_;
  common::TaskScheduler pool_;
};

TEST_F(LsmEngineTest, InsertFlushCommit) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Insert(MakeRows(100, "a")).ok());
  EXPECT_EQ(engine->NumSegments(), 0u);  // buffered
  EXPECT_EQ(engine->MemtableRows(), 100u);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->MemtableRows(), 0u);
  EXPECT_EQ(engine->NumSegments(), 1u);
  TableSnapshot snap = engine->Snapshot();
  EXPECT_EQ(snap.TotalRows(), 100u);
  // Segment data and its vector index are persisted in the object store.
  const std::string& seg = snap.segments[0].segment_id;
  EXPECT_TRUE(store_.Exists(SegmentKeys::Data("t", seg)));
  EXPECT_TRUE(store_.Exists(SegmentKeys::Index("t", seg)));
}

TEST_F(LsmEngineTest, AutoFlushAtThreshold) {
  IngestOptions opts;
  opts.flush_threshold_rows = 50;
  opts.max_segment_rows = 50;
  auto engine = MakeEngine(0, opts);
  ASSERT_TRUE(engine->Insert(MakeRows(120, "a")).ok());
  EXPECT_GE(engine->NumSegments(), 2u);
  EXPECT_LT(engine->MemtableRows(), 50u);
}

TEST_F(LsmEngineTest, PartitionKeysSplitSegments) {
  TableSchema schema = TestSchema();
  schema.partition_columns = {1};  // PARTITION BY label
  auto engine = std::make_unique<LsmEngine>(schema, &store_, &pool_,
                                            IngestOptions{});
  std::vector<Row> rows = MakeRows(50, "cat");
  std::vector<Row> dogs = MakeRows(50, "dog", 2);
  rows.insert(rows.end(), dogs.begin(), dogs.end());
  ASSERT_TRUE(engine->Insert(std::move(rows)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  TableSnapshot snap = engine->Snapshot();
  EXPECT_EQ(snap.segments.size(), 2u);
  std::set<std::string> keys;
  for (const auto& m : snap.segments) keys.insert(m.partition_key);
  EXPECT_EQ(keys, (std::set<std::string>{"cat", "dog"}));
}

TEST_F(LsmEngineTest, SemanticBucketsAssigned) {
  auto engine = MakeEngine(/*buckets=*/3);
  ASSERT_TRUE(engine->Insert(MakeRows(300, "a")).ok());
  ASSERT_TRUE(engine->Flush().ok());
  auto partitioner = engine->semantic_partitioner();
  ASSERT_NE(partitioner, nullptr);
  EXPECT_TRUE(partitioner->trained());
  TableSnapshot snap = engine->Snapshot();
  std::set<int64_t> buckets;
  for (const auto& m : snap.segments) buckets.insert(m.semantic_bucket);
  EXPECT_GE(buckets.size(), 2u);
  for (int64_t b : buckets) EXPECT_GE(b, 0);
}

TEST_F(LsmEngineTest, FetchSegmentRoundTrip) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Insert(MakeRows(30, "x")).ok());
  ASSERT_TRUE(engine->Flush().ok());
  TableSnapshot snap = engine->Snapshot();
  auto segment = engine->FetchSegment(snap.segments[0].segment_id);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ((*segment)->num_rows(), 30u);
  Row row = RowFromSegment(**segment, 3);
  EXPECT_EQ(std::get<int64_t>(row.values[0]), 3);
}

TEST_F(LsmEngineTest, CompactionMergesAndDropsDeleted) {
  IngestOptions opts;
  opts.max_segment_rows = 25;
  auto engine = MakeEngine(0, opts);
  ASSERT_TRUE(engine->Insert(MakeRows(100, "a")).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->NumSegments(), 4u);

  // Delete rows 0..9 of one segment.
  TableSnapshot snap = engine->Snapshot();
  ASSERT_TRUE(engine
                  ->DeleteRows(snap.segments[0].segment_id,
                               {0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
                  .ok());

  auto jobs = engine->Compact();
  ASSERT_TRUE(jobs.ok());
  EXPECT_GE(*jobs, 1u);
  TableSnapshot after = engine->Snapshot();
  EXPECT_LT(after.segments.size(), 4u);
  EXPECT_EQ(after.TotalRows(), 90u);  // deleted rows physically gone
  EXPECT_EQ(after.TotalDeletedRows(), 0u);
  // Compacted segments are level 1 and have fresh indexes.
  for (const auto& m : after.segments) {
    EXPECT_EQ(m.level, 1u);
    EXPECT_TRUE(store_.Exists(SegmentKeys::Index("t", m.segment_id)));
  }
}

TEST_F(LsmEngineTest, CompactIfNeededHonorsTrigger) {
  IngestOptions opts;
  opts.max_segment_rows = 10;
  opts.compaction_trigger_segments = 100;  // never triggers
  auto engine = MakeEngine(0, opts);
  ASSERT_TRUE(engine->Insert(MakeRows(50, "a")).ok());
  ASSERT_TRUE(engine->Flush().ok());
  auto jobs = engine->CompactIfNeeded();
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ(*jobs, 0u);
}

TEST_F(LsmEngineTest, PipelinedVsStagedProduceSameState) {
  IngestOptions piped;
  piped.pipelined_index_build = true;
  IngestOptions staged;
  staged.pipelined_index_build = false;
  auto e1 = MakeEngine(0, piped);
  auto e2 = MakeEngine(0, staged);
  ASSERT_TRUE(e1->Insert(MakeRows(60, "a")).ok());
  ASSERT_TRUE(e2->Insert(MakeRows(60, "a")).ok());
  ASSERT_TRUE(e1->Flush().ok());
  ASSERT_TRUE(e2->Flush().ok());
  EXPECT_EQ(e1->Snapshot().TotalRows(), e2->Snapshot().TotalRows());
  EXPECT_EQ(e1->stats().indexes_built.load(),
            e2->stats().indexes_built.load());
}

}  // namespace
}  // namespace blendhouse::storage
