#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/future.h"
#include "common/metrics.h"
#include "common/move_only_fn.h"
#include "common/mutex.h"

namespace blendhouse::common {

/// The execution substrate (DESIGN.md §12): a fixed set of threads serving
/// one FIFO ready queue and one deadline-ordered delay queue.
///
/// Every thread pool in the system is an instance: a worker's compute pool
/// and background loader, the LSM engine's flush and index-build pools, and
/// the warehouse-wide continuation scheduler. Query work is decomposed into
/// move-only tasks (MoveOnlyFn), and *simulated* latency (RPC fabric, object
/// store, cache disk tier, DiskANN beam reads) is charged by scheduling the
/// next continuation at `now + latency` on the delay queue instead of
/// parking a thread in sleep_for. A 2-thread worker can therefore have an
/// unbounded number of simulated I/Os in flight — the property Figs. 11/12/18
/// measure.
///
/// Both queues live under one mutex (lockrank::kTaskScheduler). Idle threads
/// park on one condition variable, timed to the earliest deadline while the
/// delay queue is non-empty. A thread that wakes moves every expired
/// deadline onto the ready queue and runs the oldest ready task. Tasks run
/// with no scheduler lock held, so they may take any lock.
///
/// Shutdown runs every accepted task exactly once: the destructor returns
/// only after the ready queue, the delay queue (its tasks run immediately,
/// without waiting out their delay) and any task scheduled by a task running
/// during shutdown have all run. Completion continuations — Worker::
/// SearchSegmentAsync's `done`, a Submit future — therefore always fire.
class TaskScheduler {
 public:
  explicit TaskScheduler(size_t num_threads = 2);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues `fn` to run as soon as a scheduler thread is free. Ready tasks
  /// start in submission order.
  void Schedule(MoveOnlyFn fn) EXCLUDES(mu_);

  /// Enqueues `fn` to run no earlier than `delay_micros` from now. This is
  /// how simulated latency is charged: the continuation fires at deadline
  /// while the scheduler threads stay free to run other tasks. Tasks with
  /// equal deadlines become ready in submission order.
  void ScheduleAfter(uint64_t delay_micros, MoveOnlyFn fn) EXCLUDES(mu_);

  /// Schedules `fn` and returns a future for its result (Unit when `fn`
  /// returns void), for callers that wait on the task.
  template <typename Fn, typename R = std::invoke_result_t<Fn&>>
  Future<ValueOrUnit<R>> Submit(Fn fn) {
    Promise<ValueOrUnit<R>> promise;
    Future<ValueOrUnit<R>> future = promise.GetFuture();
    Schedule([fn = std::move(fn), promise = std::move(promise)]() mutable {
      if constexpr (std::is_void_v<R>) {
        fn();
        promise.SetValue(Unit{});
      } else {
        promise.SetValue(fn());
      }
    });
    return future;
  }

  /// Blocks until both queues are empty and no task is running. Must not be
  /// called from one of this scheduler's own tasks.
  void Drain() EXCLUDES(mu_);

  /// Cumulative count of tasks that have finished running.
  uint64_t tasks_executed() const EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct ReadyTask {
    Clock::time_point enqueue_time;
    MoveOnlyFn fn;
  };

  struct DelayedTask {
    Clock::time_point deadline;
    uint64_t seq = 0;  // FIFO tie-break for equal deadlines
    MoveOnlyFn fn;
  };

  /// Heap comparator: a sorts after b, so std::push_heap keeps the
  /// *earliest* deadline at front().
  static bool Later(const DelayedTask& a, const DelayedTask& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.seq > b.seq;
  }

  /// Moves every delayed task due by `now` (every one, once stopping) onto
  /// the ready queue. Its queue wait counts from its deadline: the delay
  /// itself is simulated I/O, not scheduler contention.
  void PromoteExpiredLocked(Clock::time_point now) REQUIRES(mu_);
  /// Pops the ready head and records its queue wait.
  MoveOnlyFn PopReadyLocked(Clock::time_point now) REQUIRES(mu_);
  /// Runs ready and due tasks until stopping with both queues empty; the
  /// destructor runs it too, for tasks scheduled after the threads exited.
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_{lockrank::kTaskScheduler};
  /// Idle threads park here; Schedule/ScheduleAfter wake them.
  CondVar work_cv_;
  /// Drain() waits here for the last running task to finish.
  CondVar idle_cv_;
  std::deque<ReadyTask> ready_ GUARDED_BY(mu_);
  /// Min-heap on (deadline, seq), kept with push_heap/pop_heap and Later().
  std::vector<DelayedTask> delayed_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  size_t running_ GUARDED_BY(mu_) = 0;
  size_t parked_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  uint64_t tasks_executed_ GUARDED_BY(mu_) = 0;

  // Registry metrics, shared by every scheduler instance in the process;
  // resolved once here so the hot path never touches the registry map.
  metrics::Counter* tasks_total_metric_;
  metrics::Gauge* queue_depth_metric_;
  metrics::HistogramMetric* queue_wait_metric_;
  std::vector<std::thread> threads_;  // written only in the constructor
};

/// ---------------------------------------------------------------------------
/// Deferred simulated-latency charging.
///
/// Cost-model sites (RpcFabric::Charge, ObjectStore reads, the index cache's
/// disk tier, DiskAnnIndex beam reads) sit deep inside synchronous call
/// stacks; turning each into a continuation would mean hand-written state
/// machines. Instead they call ChargeSimLatency(micros), which:
///
///   - inside a DeferredChargeScope (the async query path): *accumulates* the
///     micros into the scope — no blocking at all. When the enclosing task
///     finishes, the executor schedules its completion continuation at
///     `now + accumulated` on the delay queue, so wall-clock latency is
///     preserved at task granularity while the thread stays free.
///   - outside any scope (sync callers: ingestion, tests, baselines): blocks
///     the calling thread for the full duration via a timed CondVar wait —
///     same observable behaviour as the old sleep_for.
/// ---------------------------------------------------------------------------

/// RAII scope that redirects ChargeSimLatency() on this thread into an
/// accumulator. Scopes nest; charges go to the innermost.
class DeferredChargeScope {
 public:
  DeferredChargeScope();
  ~DeferredChargeScope();

  DeferredChargeScope(const DeferredChargeScope&) = delete;
  DeferredChargeScope& operator=(const DeferredChargeScope&) = delete;

  /// Total micros charged inside this scope so far.
  uint64_t accumulated_micros() const { return accumulated_; }

 private:
  friend void ChargeSimLatency(uint64_t);
  uint64_t accumulated_ = 0;
  DeferredChargeScope* prev_ = nullptr;
};

/// Charge `micros` of simulated latency. Deferred (accumulated) when a
/// DeferredChargeScope is active on this thread, otherwise blocks for the
/// full duration. Never burns CPU; never uses sleep_for.
void ChargeSimLatency(uint64_t micros);

/// True when a DeferredChargeScope is active on the calling thread. Cost
/// models use this only for stats, never for behaviour.
bool SimChargeDeferred();

}  // namespace blendhouse::common
