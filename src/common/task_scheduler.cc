#include "common/task_scheduler.h"

#include <algorithm>

namespace blendhouse::common {

namespace {
using Clock = std::chrono::steady_clock;

thread_local DeferredChargeScope* g_charge_scope = nullptr;

// Runs `task` with no scheduler lock held. Taking it by value destroys the
// closure, and everything it captured, here as well — before the caller
// re-locks.
void RunTask(MoveOnlyFn task) {
  BH_LOCK_RANK_ONLY(lockrank::AssertNoneHeld("TaskScheduler task"));
  task();
}

}  // namespace

namespace internal {
void ScheduleContinuation(TaskScheduler* sched, MoveOnlyFn cont) {
  sched->Schedule(std::move(cont));
}
}  // namespace internal

TaskScheduler::TaskScheduler(size_t num_threads)
    : tasks_total_metric_(metrics::MetricsRegistry::Instance().GetCounter(
          "bh_scheduler_tasks_total")),
      queue_depth_metric_(metrics::MetricsRegistry::Instance().GetGauge(
          "bh_scheduler_queue_depth")),
      queue_wait_metric_(metrics::MetricsRegistry::Instance().GetHistogram(
          "bh_scheduler_queue_wait_micros")) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

TaskScheduler::~TaskScheduler() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
  // A Schedule racing the joins can land after every thread has left; run
  // those stragglers here so no accepted task is dropped.
  WorkerLoop();
}

void TaskScheduler::Schedule(MoveOnlyFn fn) {
  bool wake = false;
  {
    MutexLock lock(mu_);
    ready_.push_back(ReadyTask{Clock::now(), std::move(fn)});
    queue_depth_metric_->Add(1);
    wake = parked_ > 0;
  }
  if (wake) work_cv_.NotifyOne();
}

void TaskScheduler::ScheduleAfter(uint64_t delay_micros, MoveOnlyFn fn) {
  if (delay_micros == 0) return Schedule(std::move(fn));
  bool wake = false;
  {
    MutexLock lock(mu_);
    const uint64_t seq = next_seq_++;
    delayed_.push_back(DelayedTask{
        Clock::now() + std::chrono::microseconds(delay_micros), seq,
        std::move(fn)});
    std::push_heap(delayed_.begin(), delayed_.end(), Later);
    // Parked threads are timed to the previous earliest deadline, or not
    // timed at all; only a new earliest deadline makes them re-arm.
    wake = parked_ > 0 && delayed_.front().seq == seq;
  }
  // All of them, not one: the thread woken to re-arm may pick up a ready
  // task instead, and the deadline must not wait for that task to finish.
  if (wake) work_cv_.NotifyAll();
}

void TaskScheduler::PromoteExpiredLocked(Clock::time_point now) {
  while (!delayed_.empty() &&
         (stopping_ || delayed_.front().deadline <= now)) {
    // pop_heap moves the earliest entry to the back, where its fn is moved
    // out directly.
    std::pop_heap(delayed_.begin(), delayed_.end(), Later);
    DelayedTask& due = delayed_.back();
    ready_.push_back(
        ReadyTask{std::min(due.deadline, now), std::move(due.fn)});
    delayed_.pop_back();
    queue_depth_metric_->Add(1);
  }
}

MoveOnlyFn TaskScheduler::PopReadyLocked(Clock::time_point now) {
  ReadyTask& head = ready_.front();
  queue_wait_metric_->Record(
      std::chrono::duration<double, std::micro>(now - head.enqueue_time)
          .count());
  MoveOnlyFn fn = std::move(head.fn);
  ready_.pop_front();
  queue_depth_metric_->Sub(1);
  return fn;
}

void TaskScheduler::WorkerLoop() {
  mu_.Lock();
  for (;;) {
    // Read under the lock, so no task enqueued before it is stamped later.
    const Clock::time_point now = Clock::now();
    PromoteExpiredLocked(now);
    if (!ready_.empty()) {
      MoveOnlyFn task = PopReadyLocked(now);
      ++running_;
      mu_.Unlock();
      RunTask(std::move(task));
      tasks_total_metric_->Add(1);
      mu_.Lock();
      --running_;
      ++tasks_executed_;
      if (running_ == 0 && ready_.empty() && delayed_.empty())
        idle_cv_.NotifyAll();
      continue;
    }
    // Stopping promotes every deadline, so both queues are empty here.
    if (stopping_) break;
    ++parked_;
    if (delayed_.empty()) {
      work_cv_.Wait(mu_);
    } else {
      work_cv_.WaitUntil(mu_, delayed_.front().deadline);
    }
    --parked_;
  }
  mu_.Unlock();
}

void TaskScheduler::Drain() {
  MutexLock lock(mu_);
  while (running_ > 0 || !ready_.empty() || !delayed_.empty())
    idle_cv_.Wait(mu_);
}

uint64_t TaskScheduler::tasks_executed() const {
  MutexLock lock(mu_);
  return tasks_executed_;
}

DeferredChargeScope::DeferredChargeScope() : prev_(g_charge_scope) {
  g_charge_scope = this;
}

DeferredChargeScope::~DeferredChargeScope() { g_charge_scope = prev_; }

void ChargeSimLatency(uint64_t micros) {
  if (micros == 0) return;
  if (g_charge_scope != nullptr) {
    g_charge_scope->accumulated_ += micros;
    return;
  }
  // Sync caller: block for the full duration. A private Mutex/CondVar pair
  // waited on with a deadline is the sanctioned stand-in for sleep_for (no
  // one ever notifies, so WaitUntil returns exactly at deadline).
  Mutex mu{lockrank::kSimWait};
  CondVar cv;
  auto deadline = Clock::now() + std::chrono::microseconds(micros);
  MutexLock lock(mu);
  while (Clock::now() < deadline) cv.WaitUntil(mu, deadline);
}

bool SimChargeDeferred() { return g_charge_scope != nullptr; }

}  // namespace blendhouse::common
