#pragma once

#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/mutex.h"

namespace blendhouse::common {

/// Value type of a Future for a task that returns void.
struct Unit {};

/// The value type a Future carries for a callable returning R.
template <typename R>
using ValueOrUnit = std::conditional_t<std::is_void_v<R>, Unit, R>;

template <typename T>
class Future;
template <typename T>
class Promise;

namespace internal {

/// Shared state behind a Promise/Future pair: one value, one blocking
/// getter.
template <typename T>
class FutureState {
 public:
  void Set(T value) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      value_.emplace(std::move(value));
      ready_ = true;
    }
    cv_.NotifyAll();
  }

  T Get() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!ready_) cv_.Wait(mu_);
    return std::move(*value_);
  }

 private:
  Mutex mu_{lockrank::kFuture};
  CondVar cv_;
  std::optional<T> value_ GUARDED_BY(mu_);
  bool ready_ GUARDED_BY(mu_) = false;
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

/// Read side. Get() blocks: the sync bridge at API boundaries.
template <typename T>
class Future {
 public:
  Future() = default;

  Future(Future&&) = default;
  Future& operator=(Future&&) = default;
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  /// Blocks until the value is set, then consumes it.
  T Get() { return state_->Get(); }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::FutureState<T>> state_;
};

}  // namespace blendhouse::common
