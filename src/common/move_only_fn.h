#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace blendhouse::common {

/// Move-only type-erased callable with signature void().
///
/// std::function requires the wrapped callable to be copyable, so a closure
/// owning a Promise would have to hold it behind a shared_ptr — two heap
/// allocations per task. MoveOnlyFn erases move-only callables directly (one
/// allocation), so TaskScheduler::Submit's promise lives inside the closure
/// itself.
class MoveOnlyFn {
 public:
  MoveOnlyFn() = default;

  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, MoveOnlyFn> &&
                std::is_invocable_r_v<void, std::decay_t<Fn>&>>>
  MoveOnlyFn(Fn&& fn)  // NOLINT(google-explicit-constructor)
      : impl_(std::make_unique<Impl<std::decay_t<Fn>>>(std::forward<Fn>(fn))) {
  }

  MoveOnlyFn(MoveOnlyFn&&) = default;
  MoveOnlyFn& operator=(MoveOnlyFn&&) = default;
  MoveOnlyFn(const MoveOnlyFn&) = delete;
  MoveOnlyFn& operator=(const MoveOnlyFn&) = delete;

  explicit operator bool() const { return impl_ != nullptr; }

  void operator()() { impl_->Call(); }

 private:
  struct Base {
    virtual ~Base() = default;
    virtual void Call() = 0;
  };

  template <typename Fn>
  struct Impl final : Base {
    explicit Impl(Fn&& fn) : fn(std::move(fn)) {}
    explicit Impl(const Fn& fn) : fn(fn) {}
    void Call() override { fn(); }
    Fn fn;
  };

  std::unique_ptr<Base> impl_;
};

}  // namespace blendhouse::common
