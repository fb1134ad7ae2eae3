#pragma once

#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/move_only_fn.h"
#include "common/mutex.h"

namespace blendhouse::common {

class TaskScheduler;

/// Result type for continuations that return void.
struct Unit {};

/// The value type a Future carries for a callable returning R.
template <typename R>
using ValueOrUnit = std::conditional_t<std::is_void_v<R>, Unit, R>;

template <typename T>
class Future;
template <typename T>
class Promise;

namespace internal {

/// sched->Schedule(cont), out of line: task_scheduler.h includes this
/// header for TaskScheduler::Submit.
void ScheduleContinuation(TaskScheduler* sched, MoveOnlyFn cont);

/// Shared state behind a Promise/Future pair. Supports one value, one
/// blocking getter, and at most one continuation; the continuation runs on
/// the TaskScheduler passed to Then() (or inline when none is given).
template <typename T>
class FutureState {
 public:
  void Set(T value) EXCLUDES(mu_) {
    MoveOnlyFn cont;
    TaskScheduler* sched = nullptr;
    {
      MutexLock lock(mu_);
      value_.emplace(std::move(value));
      ready_ = true;
      cont = std::move(continuation_);
      sched = continuation_scheduler_;
    }
    cv_.NotifyAll();
    if (cont) {
      if (sched != nullptr) {
        ScheduleContinuation(sched, std::move(cont));
      } else {
        // Inline continuation: runs on the Set() caller's stack, so any lock
        // that caller holds is held across arbitrary user code — the PR5
        // deadlock shape. Callers must release everything before SetValue.
        BH_LOCK_RANK_ONLY(
            lockrank::AssertNoneHeld("inline Future continuation (Set)"));
        cont();
      }
    }
  }

  T Get() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!ready_) cv_.Wait(mu_);
    return std::move(*value_);
  }

  bool Ready() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ready_;
  }

  /// Consumes the stored value. Only valid once Set() has run — used by a
  /// continuation, which by construction fires after the value exists.
  T TakeValue() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return std::move(*value_);
  }

  /// Registers `cont` to run once the value is set; fires immediately (via
  /// `sched`, or inline if null) when the value is already there.
  void SetContinuation(TaskScheduler* sched, MoveOnlyFn cont) EXCLUDES(mu_) {
    bool fire_now = false;
    {
      MutexLock lock(mu_);
      if (ready_) {
        fire_now = true;
      } else {
        continuation_ = std::move(cont);
        continuation_scheduler_ = sched;
      }
    }
    if (fire_now) {
      if (sched != nullptr) {
        ScheduleContinuation(sched, std::move(cont));
      } else {
        BH_LOCK_RANK_ONLY(
            lockrank::AssertNoneHeld("inline Future continuation (Then)"));
        cont();
      }
    }
  }

 private:
  mutable Mutex mu_{lockrank::kFuture};
  CondVar cv_;
  std::optional<T> value_ GUARDED_BY(mu_);
  bool ready_ GUARDED_BY(mu_) = false;
  MoveOnlyFn continuation_ GUARDED_BY(mu_);
  TaskScheduler* continuation_scheduler_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace internal

/// Write side of a one-shot async value. Movable; SetValue may be called
/// exactly once.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<internal::FutureState<T>>()) {}

  Promise(Promise&&) = default;
  Promise& operator=(Promise&&) = default;
  Promise(const Promise&) = delete;
  Promise& operator=(const Promise&) = delete;

  Future<T> GetFuture() { return Future<T>(state_); }

  void SetValue(T value) { state_->Set(std::move(value)); }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

/// Read side. Get() blocks (the sync bridge at API boundaries); Then()
/// chains a continuation that the given TaskScheduler runs when the value
/// arrives, returning a Future for the continuation's own result.
template <typename T>
class Future {
 public:
  Future() = default;

  Future(Future&&) = default;
  Future& operator=(Future&&) = default;
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  bool valid() const { return state_ != nullptr; }
  bool Ready() const { return state_->Ready(); }

  /// Blocks until the value is set, then consumes it.
  T Get() { return state_->Get(); }

  /// Schedules `fn(value)` on `sched` once the value arrives (inline if
  /// `sched` is null). Returns a Future for fn's result; void-returning
  /// continuations yield Future<Unit>. May be called at most once.
  template <typename Fn>
  auto Then(TaskScheduler* sched, Fn fn)
      -> Future<ValueOrUnit<std::invoke_result_t<Fn, T>>> {
    using R0 = std::invoke_result_t<Fn, T>;
    using R = ValueOrUnit<R0>;
    Promise<R> promise;
    Future<R> out = promise.GetFuture();
    auto state = state_;
    state_->SetContinuation(
        sched, [state, fn = std::move(fn),
                promise = std::move(promise)]() mutable {
          if constexpr (std::is_void_v<R0>) {
            fn(state->TakeValue());
            promise.SetValue(Unit{});
          } else {
            promise.SetValue(fn(state->TakeValue()));
          }
        });
    return out;
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::FutureState<T>> state_;
};

}  // namespace blendhouse::common
