// Dynamic lock-rank checker tests (DESIGN.md §11).
//
// The death tests only run when the checker is compiled in
// (BLENDHOUSE_LOCK_RANK_CHECKS: Debug/sanitizer presets or
// -DBLENDHOUSE_LOCK_RANKS=ON); in plain Release builds they GTEST_SKIP,
// proving the checks compile out. The rank-order regression tests run in
// every configuration — they pin the documented hierarchy itself, which
// exists independently of the runtime checker.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/lock_rank.h"
#include "common/mutex.h"

namespace lockrank = blendhouse::common::lockrank;
using blendhouse::common::CondVar;
using blendhouse::common::Mutex;
using blendhouse::common::MutexLock;

namespace {

#if defined(BLENDHOUSE_LOCK_RANK_CHECKS)
constexpr bool kChecksCompiledIn = true;
#else
constexpr bool kChecksCompiledIn = false;
#endif

#define SKIP_IF_CHECKS_COMPILED_OUT()                                     \
  do {                                                                    \
    if (!kChecksCompiledIn)                                               \
      GTEST_SKIP() << "BLENDHOUSE_LOCK_RANK_CHECKS not compiled in "      \
                      "(release build); rank checking is zero-cost here"; \
  } while (0)

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Death tests fork; the default "fast" style is unsafe once any test in
    // the binary has started threads (the CondVar test does).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockRankTest, MonotoneAcquisitionSucceeds) {
  SKIP_IF_CHECKS_COMPILED_OUT();
  Mutex outer{lockrank::kVirtualWarehouse};
  Mutex inner{lockrank::kLruCache};
  EXPECT_EQ(lockrank::HeldDepthForTest(), 0);
  {
    MutexLock o(outer);
    EXPECT_EQ(lockrank::HeldDepthForTest(), 1);
    EXPECT_EQ(lockrank::MinHeldRankForTest(), lockrank::kVirtualWarehouse);
    {
      MutexLock i(inner);
      EXPECT_EQ(lockrank::HeldDepthForTest(), 2);
      EXPECT_EQ(lockrank::MinHeldRankForTest(), lockrank::kLruCache);
    }
    EXPECT_EQ(lockrank::HeldDepthForTest(), 1);
  }
  EXPECT_EQ(lockrank::HeldDepthForTest(), 0);
}

TEST_F(LockRankTest, OutOfOrderAcquisitionDies) {
  SKIP_IF_CHECKS_COMPILED_OUT();
  EXPECT_DEATH(
      {
        Mutex inner{lockrank::kLruCache};
        Mutex outer{lockrank::kVirtualWarehouse};
        MutexLock i(inner);
        MutexLock o(outer);  // 800 acquired while holding 250: inversion
      },
      "lock-rank violation");
}

TEST_F(LockRankTest, EqualRankAcquisitionDies) {
  SKIP_IF_CHECKS_COMPILED_OUT();
  // Two locks of the same rank may not nest: "strictly decreasing" is what
  // makes the global order total. (Same-band locks — e.g. two LruCaches —
  // must never be held together; HierarchicalIndexCache walks tiers
  // sequentially for exactly this reason.)
  EXPECT_DEATH(
      {
        Mutex a{lockrank::kLruCache};
        Mutex b{lockrank::kLruCache};
        MutexLock la(a);
        MutexLock lb(b);
      },
      "lock-rank violation");
}

TEST_F(LockRankTest, CallbackUnderLockDies) {
  SKIP_IF_CHECKS_COMPILED_OUT();
  EXPECT_DEATH(
      {
        Mutex mu{lockrank::kQueryFanIn};
        MutexLock lock(mu);
        lockrank::AssertNoneHeld("test callback");
      },
      "callback-under-lock");
}

TEST_F(LockRankTest, CondVarWaitPopsAndRepushesRank) {
  SKIP_IF_CHECKS_COMPILED_OUT();
  // Waiting atomically releases the mutex, so its rank must leave the held
  // stack for the duration — otherwise the wake-up's re-acquisition would
  // look like a self-inversion. A timed wait exercises both halves.
  Mutex outer{lockrank::kVirtualWarehouse};
  Mutex inner{lockrank::kQueryFanIn};
  CondVar cv;
  MutexLock o(outer);
  MutexLock i(inner);
  EXPECT_EQ(lockrank::HeldDepthForTest(), 2);
  cv.WaitUntil(inner, std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(1));
  EXPECT_EQ(lockrank::HeldDepthForTest(), 2);
  EXPECT_EQ(lockrank::MinHeldRankForTest(), lockrank::kQueryFanIn);
}

TEST_F(LockRankTest, WaitingOnNonInnermostLockDies) {
  SKIP_IF_CHECKS_COMPILED_OUT();
  // Waiting on `outer` while also holding `inner` releases the locks out of
  // order: the thread would sleep holding the lower rank and re-acquire the
  // higher one on wake — an inversion against any peer taking outer→inner.
  EXPECT_DEATH(
      {
        Mutex outer{lockrank::kVirtualWarehouse};
        Mutex inner{lockrank::kQueryFanIn};
        CondVar cv;
        MutexLock o(outer);
        MutexLock i(inner);
        cv.WaitUntil(outer, std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(1));
      },
      "lock-rank violation");
}

// ---- Rank-order regression (runs in every build configuration) ------------
//
// Pins the documented hierarchy from lock_rank.h so a rank renumbering that
// silently reorders layers fails here, not in a production deadlock. The
// relations mirror the acquisition edges tools/lockgraph.py finds on the
// real tree.

TEST(LockRankOrderTest, WarehouseAboveWorkerInternals) {
  // Scale events construct/destroy workers under vw->mu_, touching every
  // worker-internal lock below it.
  EXPECT_GT(lockrank::kVirtualWarehouse, lockrank::kLruCache);
  EXPECT_GT(lockrank::kVirtualWarehouse, lockrank::kTaskScheduler);
  EXPECT_GT(lockrank::kVirtualWarehouse, lockrank::kMetricsRegistry);
  EXPECT_GT(lockrank::kVirtualWarehouse, lockrank::kObjectStore);
}

TEST(LockRankOrderTest, CatalogIsOutermost) {
  EXPECT_GT(lockrank::kCatalog, lockrank::kVirtualWarehouse);
  EXPECT_GT(lockrank::kCatalog, lockrank::kPlanCache);
  EXPECT_GT(lockrank::kCatalog, lockrank::kLsmFlush);
}

TEST(LockRankOrderTest, StorageFlushAboveItsCommitLocks) {
  // flush_mu_ is held across version commits, partitioner publishes,
  // object-store writes, index-build submits and waits, and sync latency
  // charges.
  EXPECT_GT(lockrank::kLsmFlush, lockrank::kVersionSet);
  EXPECT_GT(lockrank::kLsmFlush, lockrank::kLsmPartitioner);
  EXPECT_GT(lockrank::kLsmFlush, lockrank::kObjectStore);
  EXPECT_GT(lockrank::kLsmFlush, lockrank::kTaskScheduler);
  EXPECT_GT(lockrank::kLsmFlush, lockrank::kFuture);
  EXPECT_GT(lockrank::kLsmFlush, lockrank::kSimWait);
}

TEST(LockRankOrderTest, FanInAboveFutureAndLeaves) {
  // Fan-in folds complete promises (kFuture) only after release, but their
  // critical sections may touch metrics and caches.
  EXPECT_GT(lockrank::kQueryFanIn, lockrank::kFuture);
  EXPECT_GT(lockrank::kFuture, lockrank::kTaskScheduler);
  EXPECT_GT(lockrank::kTableStats, lockrank::kObjectStore);
  EXPECT_GT(lockrank::kTableStats, lockrank::kSimWait);
  EXPECT_GT(lockrank::kObjectStore, lockrank::kSimWait);
}

TEST(LockRankOrderTest, SchedulerBelowItsSubmitters) {
  // The one task scheduler (DESIGN.md §12): Schedule is called with outer
  // locks held — the LsmEngine schedules index builds under flush_mu_ (see
  // above) and background flushes under pending_mu_ — so kTaskScheduler
  // sits below them. Its critical sections update queue gauges, so metrics
  // stay below.
  EXPECT_GT(lockrank::kLsmPending, lockrank::kTaskScheduler);
  EXPECT_GT(lockrank::kTaskScheduler, lockrank::kMetricsRegistry);
}

TEST(LockRankOrderTest, RankNamesRoundTrip) {
  EXPECT_STREQ(lockrank::RankName(lockrank::kVirtualWarehouse),
               "kVirtualWarehouse(800)");
  EXPECT_STREQ(lockrank::RankName(lockrank::kTaskScheduler),
               "kTaskScheduler(180)");
  EXPECT_STREQ(lockrank::RankName(lockrank::kUnranked), "unranked");
  // Unknown values render numerically rather than aborting.
  EXPECT_STREQ(lockrank::RankName(123456), "rank(123456)");
}

}  // namespace
