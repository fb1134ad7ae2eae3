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
/// one FIFO ready queue.
///
/// Every thread pool in the system is an instance: a worker's compute pool
/// and background loader, and the LSM engine's flush and index-build pools.
/// Query work is decomposed into move-only tasks (MoveOnlyFn). A task never
/// parks its thread on *simulated* latency (RPC fabric, object store, cache
/// disk tier, DiskANN beam reads): it runs under a DeferredChargeScope that
/// accumulates the latency and completes on the thread that ran it, and
/// the thread waiting for its result pays what is still due
/// (ChargeSimLatencyUntil). A 2-thread worker can therefore have an
/// unbounded number of simulated I/Os in flight — the property
/// Figs. 11/12/18 measure.
///
/// The queue lives under one mutex (lockrank::kTaskScheduler). Idle threads
/// park untimed on one condition variable, and Schedule wakes one of them.
/// Tasks run with no scheduler lock held, so they may take any lock.
///
/// Shutdown runs every accepted task exactly once: the destructor returns
/// only after the ready queue and any task scheduled by a task running
/// during shutdown have all run. Completion callbacks — Worker::
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

  /// Blocks until the queue is empty and no task is running. Must not be
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

  /// Pops the ready head and records its queue wait.
  MoveOnlyFn PopReadyLocked(Clock::time_point now) REQUIRES(mu_);
  /// Runs ready tasks until stopping with the queue empty; the
  /// destructor runs it too, for tasks scheduled after the threads exited.
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_{lockrank::kTaskScheduler};
  /// Idle threads park here; Schedule wakes one.
  CondVar work_cv_;
  /// Drain() waits here for the last running task to finish.
  CondVar idle_cv_;
  std::deque<ReadyTask> ready_ GUARDED_BY(mu_);
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
///   - inside a DeferredChargeScope (pool tasks, planning, materialization):
///     *accumulates* the micros into the scope — no blocking at all. A task
///     that finishes turns its total into a due time, its end plus the
///     accumulated micros, and the thread that waits for its result pays
///     what is left of that with ChargeSimLatencyUntil. Wall-clock latency
///     is preserved at task granularity while the pool thread stays free.
///   - outside any scope (sync callers: ingestion, tests, baselines, and
///     the waiter paying a due time): blocks the calling thread for the
///     full duration via a timed CondVar wait — same observable behaviour
///     as the old sleep_for.
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

/// Charges the simulated latency still due before `deadline`: nothing once
/// it has passed, otherwise the remainder, deferred or blocking exactly as
/// ChargeSimLatency.
void ChargeSimLatencyUntil(std::chrono::steady_clock::time_point deadline);

}  // namespace blendhouse::common
