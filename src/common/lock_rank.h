#pragma once

// Whole-program lock-rank hierarchy (DESIGN.md §11).
//
// Every common::Mutex in src/ is constructed with one of the ranks below.
// The discipline: a thread may only acquire a mutex whose rank is STRICTLY
// LOWER than the lowest rank it already holds. Outer (coarse, long-lived)
// locks have high ranks; leaf locks have low ranks. Acquisition order is
// therefore globally acyclic by construction — the RemoveWorker-class
// deadlock (PR5) cannot be reintroduced without tripping a check.
//
// The hierarchy is verified twice:
//   - statically, by tools/lockgraph.py (runs as the `lockgraph` ctest and
//     in CI): it parses these constants plus the CAPABILITY/REQUIRES/
//     GUARDED_BY annotations and call edges, builds the global acquisition
//     graph, and rejects cycles, non-monotone edges, unranked mutexes, and
//     callback-under-lock sites;
//   - dynamically, in rank-checked builds (BLENDHOUSE_LOCK_RANK_CHECKS:
//     sanitizer/Debug presets, or -DBLENDHOUSE_LOCK_RANKS=ON): Mutex keeps a
//     per-thread held-rank stack and aborts on any non-monotone acquisition
//     actually executed. Release builds compile all of it out.
//
// Picking a rank for a new mutex: find every lock that can be held when
// yours is acquired (callers' locks) and every lock your critical sections
// acquire (including through calls — TaskScheduler::Schedule takes the
// scheduler lock, ObjectStore::Get takes the store lock and may block in the
// sim-latency wait). Your rank must sit strictly between them. Prefer
// reusing an existing band (e.g. a new LRU-style cache takes kLruCache); add
// a new constant only for a new layer, leaving numeric gaps.
// tools/lockgraph.py re-derives the full table, so a wrong guess fails the
// lint leg, not production.

namespace blendhouse::common::lockrank {

/// Mutexes constructed without a rank opt out of checking entirely. Allowed
/// only outside src/ (tests, benches); tools/lockgraph.py rejects unranked
/// mutexes in the tree.
inline constexpr int kUnranked = -1;

// ---- Rank table (outermost first; larger = acquired earlier) --------------

/// core::BlendHouse::catalog_mu_ — table-map lookups and DDL.
inline constexpr int kCatalog = 1000;

/// storage::LsmEngine::flush_mu_ — serializes flush/compaction commits.
/// Held across segment writes, index builds, and version commits, so it is
/// the outermost storage lock.
inline constexpr int kLsmFlush = 950;

/// storage::LsmEngine::memtable_mu_ — memtable swap. Never held while
/// flushing (Insert/Flush move the batch out first), but documented above
/// the flush internals it feeds.
inline constexpr int kLsmMemtable = 940;

/// storage::LsmEngine::pending_mu_ — queued background-flush futures; held
/// while submitting to the flush pool.
inline constexpr int kLsmPending = 930;

/// baselines::BlendHouseSystem::stats_mu_ — the accumulator of finished
/// searches' exec time and ledgers; a search folds in after its query has
/// returned, with no other lock held.
inline constexpr int kBaselineStats = 900;

/// storage::LsmEngine::partitioner_mu_ — copy-on-train partitioner publish;
/// taken under flush_mu_ on the training flush.
inline constexpr int kLsmPartitioner = 880;

/// storage::VersionSet::mu_ — multi-version commit state; taken under
/// flush_mu_ by flush/compaction commits.
inline constexpr int kVersionSet = 860;

/// core::BlendHouse::TableState::stats_mu — statistics refresh; held across
/// ObjectStore segment fetches (kObjectStore, kSimWait).
inline constexpr int kTableStats = 840;

/// cluster::VirtualWarehouse::mu_ — worker map, rings, query leases. Above
/// every worker-internal lock: scale events construct/clear workers (cache,
/// pool, registry locks) under it. Workers never call back into the VW with
/// their own locks held (the peer resolver asserts none are).
inline constexpr int kVirtualWarehouse = 800;

/// sql::PlanCache::mu_ — plan-signature LRU.
inline constexpr int kPlanCache = 700;

/// Per-query fan-in state (sql::Executor::AttemptState::mu): streaming
/// top-k and ledger folds. The completion promise is fired after this lock
/// is released.
inline constexpr int kQueryFanIn = 600;

/// trace::Span::mu_ — span record mutation. End() copies under the lock and
/// records into the trace after releasing it.
inline constexpr int kSpan = 500;

/// trace::Trace::mu_ — finished-span collection.
inline constexpr int kTrace = 480;

/// trace::TraceSink::mu_ — sampled-trace ring.
inline constexpr int kTraceSink = 460;

/// core::QueryLog::mu_ — finished-query ring + fingerprint profiles. Taken
/// with no other lock held (RunSelect appends after the trace is closed and
/// the sink decision is made); its critical sections touch nothing but the
/// ring and the profile map's lock-free histograms.
inline constexpr int kQueryLog = 440;

/// common::internal::FutureState::mu_ — promise/future shared state. Held
/// only to store or take the value; waiters are woken after it is released.
inline constexpr int kFuture = 400;

/// storage::ObjectStore::mu_ — simulated remote store map + cost model.
/// Latency is charged outside it (with a copy of the model).
inline constexpr int kObjectStore = 300;

/// common::LruCache::mu_ — every LRU space (index memory/metadata/disk
/// tiers, segment cache, filter-bitmap cache). Cache operations never nest
/// two LRU locks: tier walks in HierarchicalIndexCache are sequential.
inline constexpr int kLruCache = 250;

/// common::TaskScheduler::mu_ — the scheduler's ready queue and its
/// park/Drain() condition variables (DESIGN.md §12). Schedule is
/// callable under any higher lock; tasks run with it released. Its critical
/// sections update the queue-depth gauge and queue-wait histogram, whose
/// objects are lock-free.
inline constexpr int kTaskScheduler = 180;

/// common::metrics::MetricsRegistry::mu_ — metric name map. Get* is called
/// from constructors that may run under a warehouse or engine lock; the
/// hot-path metric objects themselves are lock-free.
inline constexpr int kMetricsRegistry = 150;

/// The private deadline mutex inside common::ChargeSimLatency's blocking
/// path — the innermost wait in the system, reachable with storage locks
/// held (sync cost-model charges).
inline constexpr int kSimWait = 100;

/// Human-readable name for a rank value ("kVirtualWarehouse(800)");
/// "unranked" for kUnranked, the bare number for unknown values.
const char* RankName(int rank);

// ---- Per-thread held-rank checking ----------------------------------------
//
// Compiled in only under BLENDHOUSE_LOCK_RANK_CHECKS (see mutex.h); the
// functions are always defined so linking is configuration-independent.

/// Called by Mutex before blocking on acquisition. Aborts (via the BH_ASSERT
/// failure path) unless `rank` is strictly below every currently held rank.
/// kUnranked participates in no checking.
void NoteAcquire(int rank);

/// Called by Mutex after release; removes the most recent matching entry.
void NoteRelease(int rank);

/// CondVar cooperation: waiting atomically releases the mutex, so its rank
/// leaves the held stack for the duration of the wait. Asserts the rank is
/// the innermost held (waiting while holding a lower-ranked lock would be a
/// hierarchy inversion on re-acquisition).
void NoteWaitRelease(int rank);

/// Re-entry after the wait re-acquired the mutex.
void NoteWaitReacquire(int rank);

/// Aborts if the calling thread holds any ranked lock. Placed at the points
/// where externally supplied callbacks are invoked (every TaskScheduler
/// task, the peer resolver) — the dynamic twin of
/// tools/lockgraph.py's callback-under-lock check. `what` names the callback
/// site for the failure message.
void AssertNoneHeld(const char* what);

/// Introspection for tests: number of ranked locks this thread holds, and
/// the minimum held rank (or a value > any table rank when none is held).
int HeldDepthForTest();
int MinHeldRankForTest();

}  // namespace blendhouse::common::lockrank
