#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/consistent_hash.h"
#include "cluster/rpc.h"
#include "cluster/worker.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/task_scheduler.h"
#include "storage/object_store.h"

namespace blendhouse::cluster {

/// A group of stateless workers behind a multi-probe consistent-hash ring —
/// the paper's virtual warehouse (VW). Read, write (index-build), and
/// compaction workloads each get their own VW for physical isolation;
/// scaling adds/removes workers and re-runs ring placement, remembering the
/// pre-scale ring so vector search serving can route misses to old owners.
///
/// Lock hierarchy: mu_ is above every worker-internal lock (cache mutexes,
/// scheduler mutexes). Methods called while holding mu_ may take worker
/// locks; workers never call back into the VW while holding their own locks
/// (the peer resolver runs from AcquireIndex with no worker lock held).
class VirtualWarehouse {
 public:
  VirtualWarehouse(std::string name, size_t num_workers,
                   storage::ObjectStore* remote, RpcFabric* rpc,
                   WorkerOptions worker_options = {});
  ~VirtualWarehouse();

  /// Pins the worker set against destruction: RemoveWorker (and ~VirtualWarehouse)
  /// wait for every lease taken before the scale-down began, so a `Worker*`
  /// resolved while a lease is held stays valid for the lease's lifetime.
  /// Leases are generation-stamped — a scale-down only waits out leases older
  /// than its own unlink, so continuous queries cannot starve it. Query
  /// execution holds one per dispatch attempt (released by the attempt's last
  /// straggler, not at query return); synchronous scan paths hold one across
  /// their worker calls. Control-plane callers of workers()/worker() that
  /// never race a scale-down (benches, tests, preload) may skip the lease.
  class QueryLease {
   public:
    QueryLease() = default;
    explicit QueryLease(VirtualWarehouse* vw);
    ~QueryLease() { Release(); }
    QueryLease(QueryLease&& other) noexcept
        : vw_(other.vw_), gen_(other.gen_) {
      other.vw_ = nullptr;
    }
    QueryLease& operator=(QueryLease&& other) noexcept {
      if (this != &other) {
        Release();
        vw_ = other.vw_;
        gen_ = other.gen_;
        other.vw_ = nullptr;
      }
      return *this;
    }
    QueryLease(const QueryLease&) = delete;
    QueryLease& operator=(const QueryLease&) = delete;

   private:
    void Release();

    VirtualWarehouse* vw_ = nullptr;
    uint64_t gen_ = 0;
  };

  QueryLease AcquireQueryLease() { return QueryLease(this); }

  const std::string& name() const { return name_; }
  size_t num_workers() const EXCLUDES(mu_);
  std::vector<Worker*> workers() const EXCLUDES(mu_);
  Worker* worker(const std::string& id) const EXCLUDES(mu_);

  /// Adds one worker; snapshots the current ring as the "previous" topology
  /// first, so the new worker can resolve pre-scale owners.
  Worker* AddWorker() EXCLUDES(mu_);

  /// Removes a worker (planned scale-down or simulated failure).
  common::Status RemoveWorker(const std::string& id) EXCLUDES(mu_);

  /// Current owner of an object-store key under the live ring.
  Worker* OwnerOf(const std::string& key) const EXCLUDES(mu_);
  std::string OwnerIdOf(const std::string& key) const EXCLUDES(mu_);

  /// Owner under the topology captured just before the last scaling event;
  /// null when the topology never changed or the owner is gone.
  Worker* PreviousOwnerOf(const std::string& key) const EXCLUDES(mu_);

  /// Snapshot of the live ring (copy: the live ring mutates under mu_).
  ConsistentHashRing ring() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return ring_;
  }

  /// Drops every worker's caches (benches use this to force cold starts).
  void DropAllCaches() EXCLUDES(mu_);

  /// The warehouse-wide continuation scheduler: runs top-k merge folds,
  /// preload completions, and everything charged through the delay queue.
  /// Thread-safe; internally synchronized.
  common::TaskScheduler& task_scheduler() const { return scheduler_; }

 private:
  Worker* AddWorkerLocked() REQUIRES(mu_);

  std::string name_;
  storage::ObjectStore* remote_;
  RpcFabric* rpc_;
  WorkerOptions worker_options_;

  // Declared before workers_ so it is destroyed after them: straggler tasks
  // draining on a worker's pool during ~Worker still call ScheduleAfter on
  // this scheduler. Continuations queued here never touch Worker state (they
  // only complete promises / fold into shared attempt state), so running
  // whatever is still queued when the scheduler finally stops is safe.
  mutable common::TaskScheduler scheduler_{2};

  mutable common::Mutex mu_{common::lockrank::kVirtualWarehouse};
  mutable common::CondVar lease_cv_;
  /// Bumped by every scale-down unlink; open leases are counted per
  /// generation so RemoveWorker can wait for exactly the leases that might
  /// have resolved the retiring worker.
  uint64_t lease_gen_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, size_t> active_leases_ GUARDED_BY(mu_);
  size_t worker_counter_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::unique_ptr<Worker>> workers_ GUARDED_BY(mu_);
  ConsistentHashRing ring_ GUARDED_BY(mu_);
  ConsistentHashRing previous_ring_ GUARDED_BY(mu_);
  bool has_previous_ring_ GUARDED_BY(mu_) = false;
};

}  // namespace blendhouse::cluster
