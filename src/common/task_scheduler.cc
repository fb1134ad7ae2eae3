#include "common/task_scheduler.h"

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
    if (!ready_.empty()) {
      // Clock read under the lock, so no task enqueued before it is stamped
      // later.
      MoveOnlyFn task = PopReadyLocked(Clock::now());
      ++running_;
      mu_.Unlock();
      RunTask(std::move(task));
      tasks_total_metric_->Add(1);
      mu_.Lock();
      --running_;
      ++tasks_executed_;
      if (running_ == 0 && ready_.empty()) idle_cv_.NotifyAll();
      continue;
    }
    if (stopping_) break;
    ++parked_;
    work_cv_.Wait(mu_);
    --parked_;
  }
  mu_.Unlock();
}

void TaskScheduler::Drain() {
  MutexLock lock(mu_);
  while (running_ > 0 || !ready_.empty()) idle_cv_.Wait(mu_);
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

void ChargeSimLatencyUntil(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::microseconds>(deadline - Clock::now());
  if (left.count() > 0) ChargeSimLatency(static_cast<uint64_t>(left.count()));
}

}  // namespace blendhouse::common
