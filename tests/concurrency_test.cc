// Multi-threaded stress tests, sized to finish in seconds so the whole file
// runs under TSan in tier-1 (-DBLENDHOUSE_SANITIZE=thread). These tests are
// about absence of data races and torn invariants, not about throughput:
// assertions are deliberately coarse (counts and accounting identities) and
// the real verdict comes from the sanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/blendhouse_system.h"
#include "baselines/dataset.h"
#include "cluster/index_cache.h"
#include "common/future.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "sql/plan_cache.h"
#include "storage/lsm_engine.h"
#include "storage/object_store.h"
#include "storage/segment.h"
#include "tests/test_util.h"

namespace blendhouse {
namespace {

using test::MakeClusteredVectors;

storage::TableSchema StressSchema(size_t dim, size_t buckets) {
  storage::TableSchema schema;
  schema.table_name = "t";
  schema.columns = {{"id", storage::ColumnType::kInt64},
                    {"label", storage::ColumnType::kString},
                    {"emb", storage::ColumnType::kFloatVector}};
  vecindex::IndexSpec spec;
  spec.type = "FLAT";
  spec.dim = dim;
  schema.index_spec = spec;
  schema.vector_column = 2;
  schema.semantic_buckets = buckets;
  return schema;
}

std::vector<storage::Row> StressRows(size_t n, size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<storage::Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> vec(dim);
    for (auto& v : vec) v = rng.Gaussian();
    storage::Row row;
    row.values = {static_cast<int64_t>(i), std::string("lbl"), std::move(vec)};
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// common::LruCache — concurrent get/put/evict/clear
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, LruCacheGetPutEvict) {
  common::LruCache<int> cache(/*capacity_bytes=*/1024);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        std::string key = "k" + std::to_string(rng.UniformInt(0, 63));
        switch (rng.UniformInt(0, 4)) {
          case 0:
          case 1:
            cache.Put(key, i, /*bytes=*/32);
            break;
          case 2:
            (void)cache.Get(key);
            break;
          case 3:
            cache.Erase(key);
            break;
          default:
            if (i % 512 == 0) cache.Clear();
            (void)cache.used_bytes();
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Accounting survived the storm: usage is within capacity and the
  // hit/miss counters saw every Get.
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// ---------------------------------------------------------------------------
// sql::PlanCache — concurrent get/put/invalidate
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, PlanCacheGetPutInvalidate) {
  sql::PlanCache cache(/*capacity=*/32);
  constexpr int kThreads = 6;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 17);
      for (int i = 0; i < kIters; ++i) {
        std::string sig = "sig" + std::to_string(rng.UniformInt(0, 47));
        if (rng.UniformInt(0, 3) == 0) {
          sql::CachedPlan plan;
          plan.rules_fired = i;
          cache.Put(sig, plan);
        } else if (i % 1000 == 999) {
          cache.Invalidate();
        } else {
          (void)cache.Get(sig);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), 32u);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// ---------------------------------------------------------------------------
// common::TaskScheduler — submit/drain races, ordering, shutdown, deferred
// charges, cancellation
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, TaskSchedulerSubmitAndDrain) {
  common::TaskScheduler sched(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 500;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&sched, &counter] {
      for (int i = 0; i < kTasks; ++i)
        sched.Submit([&counter] { counter.fetch_add(1); });
      sched.Drain();  // Drain() races other submitters; must not hang.
    });
  }
  for (auto& th : submitters) th.join();
  sched.Drain();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
}

TEST(ConcurrencyTest, TaskSchedulerUnevenSubmitVsDrainRace) {
  common::TaskScheduler sched(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&sched, &counter, t] {
      for (int i = 0; i < kTasks; ++i) {
        if (t % 2 == 0) {
          // Even submitters' tasks each schedule a child from a scheduler
          // thread, so the load is uneven and Drain() also races work that
          // tasks themselves enqueue.
          sched.Submit([&sched, &counter] {
            counter.fetch_add(1);
            sched.Schedule([&counter] { counter.fetch_add(1); });
          });
        } else {
          sched.Submit([&counter] { counter.fetch_add(1); });
        }
      }
      sched.Drain();  // Drain() races other submitters and children; no hang.
    });
  }
  for (auto& th : submitters) th.join();
  sched.Drain();
  constexpr int kEven = (kSubmitters + 1) / 2;
  EXPECT_EQ(counter.load(), kSubmitters * kTasks + kEven * kTasks);
  EXPECT_EQ(sched.tasks_executed(),
            static_cast<uint64_t>(kSubmitters * kTasks + kEven * kTasks));
}

TEST(ConcurrencyTest, TaskSchedulerDrainVsScheduleRace) {
  common::TaskScheduler sched(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 3;
  constexpr int kTasks = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&sched, &counter] {
      for (int i = 0; i < kTasks; ++i)
        sched.Schedule([&counter] { counter.fetch_add(1); });
    });
  }
  // Drain concurrently with the submitters: it must neither hang nor return
  // while work it can observe is still outstanding.
  std::thread drainer([&sched] {
    for (int i = 0; i < 5; ++i) sched.Drain();
  });
  for (auto& th : submitters) th.join();
  drainer.join();
  sched.Drain();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
  EXPECT_EQ(sched.tasks_executed(),
            static_cast<uint64_t>(kSubmitters) * kTasks);
}

TEST(ConcurrencyTest, TaskSchedulerSingleThreadRunsInSubmissionOrder) {
  common::TaskScheduler sched(1);
  std::vector<int> ready_order;
  for (int i = 0; i < 16; ++i)
    sched.Schedule([&ready_order, i] { ready_order.push_back(i); });
  sched.Drain();
  ASSERT_EQ(ready_order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ready_order[i], i);
}

// The destructor runs every accepted task exactly once, so completion
// callbacks always fire: ready tasks queued behind a blocker, and tasks that
// a running task schedules while the destructor waits to join it. A pending
// Submit future resolves.
TEST(ConcurrencyTest, TaskSchedulerDestructorRunsEveryAcceptedTask) {
  std::atomic<int> queued{0}, spawned{0};
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto sched = std::make_unique<common::TaskScheduler>(1);
  common::TaskScheduler* raw = sched.get();
  sched->Schedule([opened, raw, &spawned] {
    opened.wait();
    raw->Schedule([&spawned] { spawned.fetch_add(1); });
  });
  for (int i = 0; i < 8; ++i)
    sched->Schedule([&queued] { queued.fetch_add(1); });
  common::Future<int> pending = sched->Submit([] { return 7; });
  // Opens the gate once the destructor is (very likely) waiting on the
  // blocker. The counts must hold even if it opens earlier.
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.set_value();
  });
  sched.reset();
  opener.join();
  EXPECT_EQ(queued.load(), 8);
  EXPECT_EQ(spawned.load(), 1);
  EXPECT_EQ(pending.Get(), 7);
}

TEST(ConcurrencyTest, TaskSchedulerScheduleFromManyThreads) {
  common::TaskScheduler sched(3);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasks = 500;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&sched, &counter] {
      for (int i = 0; i < kTasks; ++i)
        sched.Schedule([&counter] { counter.fetch_add(1); });
    });
  }
  for (auto& th : submitters) th.join();
  sched.Drain();
  EXPECT_EQ(counter.load(), kSubmitters * kTasks);
  EXPECT_EQ(sched.tasks_executed(), static_cast<uint64_t>(kSubmitters) * kTasks);
}

TEST(ConcurrencyTest, TaskSchedulerDeferredChargeAccumulates) {
  using Clock = std::chrono::steady_clock;
  common::TaskScheduler sched(2);
  // Under a scope, charges accumulate instead of blocking; each task turns
  // its total into a due time, and the waiter pays the latest one. Many
  // logically long I/Os must finish in far less wall time than their sum.
  constexpr int kTasks = 64;
  std::atomic<uint64_t> total_sim{0};
  common::Mutex mu;
  Clock::time_point ready_at;
  auto start = Clock::now();
  for (int i = 0; i < kTasks; ++i) {
    sched.Schedule([&total_sim, &mu, &ready_at] {
      common::DeferredChargeScope scope;
      common::ChargeSimLatency(5000);  // 5 ms, deferred
      common::ChargeSimLatency(5000);
      const uint64_t sim = scope.accumulated_micros();
      total_sim.fetch_add(sim);
      const Clock::time_point due =
          Clock::now() + std::chrono::microseconds(sim);
      common::MutexLock lock(mu);
      ready_at = std::max(ready_at, due);
    });
  }
  sched.Drain();
  Clock::time_point due;
  {
    common::MutexLock lock(mu);
    due = ready_at;
  }
  common::ChargeSimLatencyUntil(due);
  const auto paid = Clock::now();
  auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(paid - start)
          .count();
  EXPECT_EQ(total_sim.load(), static_cast<uint64_t>(kTasks) * 10000);
  EXPECT_TRUE(paid >= due);
  // 64 x 10 ms = 640 ms sequential; overlapped, this takes ~10 ms +
  // overhead. 300 ms is a loose CI-safe bound.
  EXPECT_LT(elapsed_ms, 300);

  // A deadline already passed charges nothing: it returns at once.
  const auto before = Clock::now();
  common::ChargeSimLatencyUntil(before - std::chrono::hours(1));
  EXPECT_LT(Clock::now() - before, std::chrono::milliseconds(100));
  // Inside a scope, a future deadline accumulates its remainder instead of
  // blocking.
  {
    common::DeferredChargeScope scope;
    common::ChargeSimLatencyUntil(Clock::now() + std::chrono::hours(1));
    EXPECT_GT(scope.accumulated_micros(), 3599ull * 1000 * 1000);
    EXPECT_LE(scope.accumulated_micros(), 3600ull * 1000 * 1000);
  }
  EXPECT_LT(Clock::now() - before, std::chrono::milliseconds(100));
}

TEST(ConcurrencyTest, TaskSchedulerCancellationShortCircuits) {
  common::TaskScheduler sched(2);
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> ran{0}, skipped{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    sched.Schedule([cancelled, &ran, &skipped] {
      if (cancelled->load(std::memory_order_acquire)) {
        skipped.fetch_add(1);
        return;
      }
      ran.fetch_add(1);
    });
    if (i == kTasks / 2)
      cancelled->store(true, std::memory_order_release);
  }
  sched.Drain();
  // Every task either ran or observed the cancel flag — none lost.
  EXPECT_EQ(ran.load() + skipped.load(), kTasks);
  // The flag flipped halfway through: at least the tasks scheduled after it
  // must short-circuit.
  EXPECT_GT(skipped.load(), 0);
}

// ---------------------------------------------------------------------------
// cluster::HierarchicalIndexCache — concurrent load/evict across tiers
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, HierarchicalIndexCacheLoadEvict) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  common::TaskScheduler pool(2);
  storage::TableSchema schema = StressSchema(/*dim=*/8, /*buckets=*/0);
  storage::IngestOptions ingest;
  ingest.max_segment_rows = 50;
  storage::LsmEngine engine(schema, &store, &pool, ingest);
  ASSERT_TRUE(engine.Insert(StressRows(200, 8, /*seed=*/3)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  storage::TableSnapshot snap = engine.Snapshot();
  ASSERT_GE(snap.segments.size(), 2u);

  std::vector<std::string> keys;
  for (const auto& meta : snap.segments)
    keys.push_back(storage::SegmentKeys::Index("t", meta.segment_id));

  cluster::HierarchicalIndexCache::Options opts;
  opts.memory_bytes = 64ull << 10;  // small enough to force evictions
  opts.disk_cost = storage::StorageCostModel::Instant();
  cluster::HierarchicalIndexCache cache(&store, opts);

  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::atomic<int> load_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(static_cast<uint64_t>(t) + 5);
      for (int i = 0; i < kIters; ++i) {
        const std::string& key =
            keys[static_cast<size_t>(rng.UniformInt(0, keys.size() - 1))];
        switch (rng.UniformInt(0, 4)) {
          case 0:
            cache.Evict(key);
            break;
          case 1:
            cache.EvictMemoryOnly(key);
            break;
          case 2:
            (void)cache.GetMeta(key);
            break;
          default: {
            auto got = cache.GetOrLoad(key, *schema.index_spec);
            if (!got.ok() || (*got).index == nullptr) {
              load_failures.fetch_add(1);
              break;
            }
            // The index may view a disk-tier blob that another thread
            // evicts meanwhile; holding the index must keep the bytes alive.
            const std::vector<float> query(8, 0.5f);
            vecindex::SearchParams params;
            params.k = 5;
            auto found = got->index->SearchWithFilter(query.data(), params);
            if (!found.ok() || found->empty()) load_failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(load_failures.load(), 0);
}

// ---------------------------------------------------------------------------
// storage::LsmEngine — concurrent insert / search / compaction
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, LsmEngineInsertSearchCompact) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  common::TaskScheduler pool(2);
  constexpr size_t kDim = 8;
  // CLUSTER BY buckets so the first flush trains + publishes the semantic
  // partitioner while readers are probing it (the copy-on-train path).
  storage::TableSchema schema = StressSchema(kDim, /*buckets=*/3);
  storage::IngestOptions ingest;
  ingest.flush_threshold_rows = 64;
  ingest.max_segment_rows = 64;
  ingest.compaction_trigger_segments = 4;
  storage::LsmEngine engine(schema, &store, &pool, ingest);

  constexpr int kWriters = 2;
  constexpr int kBatches = 10;
  constexpr size_t kBatchRows = 48;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> compactions{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&engine, w] {
      for (int b = 0; b < kBatches; ++b) {
        auto rows = StressRows(kBatchRows, kDim,
                               static_cast<uint64_t>(w * 100 + b + 1));
        ASSERT_TRUE(engine.Insert(std::move(rows)).ok());
      }
    });
  }
  threads.emplace_back([&engine, &done, &compactions] {
    while (!done.load()) {
      auto n = engine.CompactIfNeeded();
      ASSERT_TRUE(n.ok());
      compactions.fetch_add(*n);
      std::this_thread::yield();
    }
  });
  auto query = MakeClusteredVectors(1, kDim, 1, /*seed=*/7);
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&engine, &done, &query] {
      while (!done.load()) {
        storage::TableSnapshot snap = engine.Snapshot();
        if (!snap.segments.empty()) {
          auto seg = engine.FetchSegment(snap.segments[0].segment_id);
          // A segment named by the snapshot may have been compacted away
          // since; only its *data* must be intact when the fetch succeeds.
          if (seg.ok()) {
            ASSERT_GT((*seg)->num_rows(), 0u);
          }
        }
        auto partitioner = engine.semantic_partitioner();
        if (partitioner != nullptr && partitioner->trained())
          (void)partitioner->AssignBucket(query.data());
      }
    });
  }

  // Join writers first, then stop the compactor/readers.
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  ASSERT_TRUE(engine.Flush().ok());
  // Every inserted row is visible exactly once: compaction merges segments
  // but never duplicates or drops live rows.
  storage::TableSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.TotalRows(),
            static_cast<uint64_t>(kWriters) * kBatches * kBatchRows);
  EXPECT_EQ(engine.MemtableRows(), 0u);
  // The partitioner snapshot published during the run stays valid.
  auto partitioner = engine.semantic_partitioner();
  ASSERT_NE(partitioner, nullptr);
  EXPECT_TRUE(partitioner->trained());
}

// Async-flush variant: Insert() hands the memtable to a background flush
// thread, so commit races flush-vs-flush and flush-vs-compaction.
TEST(ConcurrencyTest, LsmEngineAsyncFlushCommitsEverything) {
  storage::ObjectStore store(storage::StorageCostModel::Instant());
  common::TaskScheduler pool(2);
  constexpr size_t kDim = 4;
  storage::TableSchema schema = StressSchema(kDim, /*buckets=*/0);
  storage::IngestOptions ingest;
  ingest.flush_threshold_rows = 32;
  ingest.max_segment_rows = 32;
  ingest.async_flush = true;
  storage::LsmEngine engine(schema, &store, &pool, ingest);

  constexpr int kWriters = 3;
  constexpr int kBatches = 8;
  constexpr size_t kBatchRows = 24;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, w] {
      for (int b = 0; b < kBatches; ++b) {
        auto rows = StressRows(kBatchRows, kDim,
                               static_cast<uint64_t>(w * 31 + b + 1));
        ASSERT_TRUE(engine.Insert(std::move(rows)).ok());
      }
    });
  }
  for (auto& th : writers) th.join();
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.Snapshot().TotalRows(),
            static_cast<uint64_t>(kWriters) * kBatches * kBatchRows);
}

// Epoch-based exec-stats accounting: drains racing in-flight queries (the
// worker scale-down scenario) must neither lose nor double-count a query.
// Every successful search folds into exactly one epoch, and every epoch is
// collected by exactly one drain, so the drained `queries` totals sum to the
// number of successful searches.
TEST(ConcurrencyTest, BlendHouseSystemDrainExecStatsRacesQueries) {
  baselines::BlendHouseSystemOptions opts;
  opts.db = core::BlendHouseOptions::Fast();
  opts.db.ingest.max_segment_rows = 64;
  opts.preload = false;
  baselines::BlendHouseSystem system(opts);

  baselines::DatasetSpec spec;
  spec.n = 256;
  spec.dim = 8;
  spec.clusters = 4;
  spec.num_queries = 8;
  baselines::BenchDataset data = baselines::MakeDataset(spec);
  ASSERT_TRUE(system.Load(data).ok());

  constexpr int kSearchers = 4;
  constexpr int kSearchesEach = 30;
  std::atomic<size_t> successes{0};
  std::atomic<bool> stop{false};
  std::atomic<size_t> drained_queries{0};
  std::atomic<double> drained_exec{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSearchers; ++t) {
    threads.emplace_back([&system, &data, &successes, t] {
      for (int i = 0; i < kSearchesEach; ++i) {
        baselines::SearchRequest req;
        req.query = data.query((t + i) % data.num_queries);
        req.k = 5;
        if (system.Search(req).ok()) successes.fetch_add(1);
      }
    });
  }
  // Drains race the searchers; worker churn makes the epochs non-trivial
  // (queries retried across a scale event still fold exactly once).
  threads.emplace_back([&system, &stop, &drained_queries, &drained_exec] {
    while (!stop.load()) {
      if (system.db().AddReadWorker() != nullptr) {
        auto workers = system.db().read_vw().workers();
        (void)system.db().RemoveReadWorker(workers.front()->id());
      }
      auto stats = system.DrainExecStats();
      drained_queries.fetch_add(stats.queries);
      drained_exec.store(drained_exec.load() + stats.exec_micros);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int t = 0; t < kSearchers; ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  // A final drain collects whatever the last open epoch accumulated.
  auto tail = system.DrainExecStats();
  drained_queries.fetch_add(tail.queries);
  drained_exec.store(drained_exec.load() + tail.exec_micros);

  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(drained_queries.load(), successes.load());
  if (successes.load() > 0) EXPECT_GT(drained_exec.load(), 0.0);
}

}  // namespace
}  // namespace blendhouse
