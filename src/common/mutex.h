#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>  // lint:allow(raw-mutex) -- the one sanctioned wrapper site

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

// Rank checking is compiled in only when CMake defines
// BLENDHOUSE_LOCK_RANK_CHECKS (sanitizer presets, Debug builds, or
// -DBLENDHOUSE_LOCK_RANKS=ON). The define is global — set per-build, never
// per-target — because Mutex methods are inline: mixing checked and
// unchecked definitions across translation units would be an ODR violation.
#if defined(BLENDHOUSE_LOCK_RANK_CHECKS)
#define BH_LOCK_RANK_ONLY(expr) expr
#else
#define BH_LOCK_RANK_ONLY(expr) \
  do {                          \
  } while (false)
#endif

namespace blendhouse::common {

/// The project's only mutual-exclusion primitive. A thin wrapper over
/// std::mutex that carries the Clang thread-safety `capability` attribute,
/// so members declared GUARDED_BY(mu_) are compile-time checked under
/// -Wthread-safety. tools/lint.py rejects raw std::mutex / std::lock_guard /
/// std::condition_variable members anywhere else in src/.
///
/// Every mutex in src/ is constructed with a rank from common/lock_rank.h
/// (enforced by tools/lockgraph.py). In rank-checked builds, acquisition
/// must be strictly decreasing in rank per thread — see DESIGN.md §11.
/// The default (unranked) constructor is for code outside src/ only.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    BH_LOCK_RANK_ONLY(lockrank::NoteAcquire(rank_));
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    BH_LOCK_RANK_ONLY(lockrank::NoteRelease(rank_));
  }
  bool TryLock() TRY_ACQUIRE(true) {
    // TryLock never blocks, so it cannot deadlock — but a successful
    // out-of-order try-acquisition still enters the held stack, where it
    // would poison later monotonicity checks. Hold try-locks to the same
    // discipline.
    if (!mu_.try_lock()) return false;
    BH_LOCK_RANK_ONLY(lockrank::NoteAcquire(rank_));
    return true;
  }

  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;  // lint:allow(raw-mutex)
  const int rank_ = lockrank::kUnranked;
};

/// RAII lock for Mutex, the analysis-aware std::lock_guard replacement.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. Callers hold the mutex and spell the
/// predicate as an explicit loop so guarded reads stay inside the annotated
/// function (Clang cannot see through a predicate lambda):
///
///   MutexLock lock(mu_);
///   while (queue_.empty() && !stop_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, and re-acquires `mu`.
  /// Spurious wakeups happen; always wait in a predicate loop.
  ///
  /// Rank cooperation: the wait releases `mu`, so its rank leaves the
  /// per-thread held stack for the duration and re-enters afterwards. The
  /// waited mutex must be the thread's innermost ranked lock — waiting with
  /// a lower-ranked lock still held would re-acquire out of order.
  void Wait(Mutex& mu) REQUIRES(mu) {
    BH_LOCK_RANK_ONLY(lockrank::NoteWaitRelease(mu.rank_));
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
    BH_LOCK_RANK_ONLY(lockrank::NoteWaitReacquire(mu.rank_));
  }

  /// Like Wait(), but also returns (with `mu` re-acquired) once `deadline`
  /// passes. Returns false on timeout, true when notified. This is the one
  /// sanctioned way to wait on wall-clock time: sim-latency charges without
  /// a deferred scope block here instead of in sleep_for (which lint bans
  /// because it burns a pool thread invisibly).
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    BH_LOCK_RANK_ONLY(lockrank::NoteWaitRelease(mu.rank_));
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    bool notified = cv_.wait_until(lock, deadline) == std::cv_status::no_timeout;
    lock.release();
    BH_LOCK_RANK_ONLY(lockrank::NoteWaitReacquire(mu.rank_));
    return notified;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // lint:allow(raw-mutex)
};

}  // namespace blendhouse::common
