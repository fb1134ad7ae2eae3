#pragma once

#include <cstddef>
#include <cstdint>

#include "vecindex/types.h"

namespace blendhouse::vecindex::scanstats {

/// Thread-local distance-computation accounting (DESIGN.md §15).
///
/// Every distance chokepoint — the fp32 wrappers in distance.cc, the
/// reduced-precision PrecisionStore scan entry points, and the graph
/// indexes' per-hop helpers — bumps a plain thread_local tally here. A
/// query's segment task runs start-to-finish on one pool thread (the
/// executor's RunSegment closure), so a ScanCounterScope installed around
/// that work reads the per-tier deltas afterwards and attributes them to
/// the owning query's ledger, without the kernels knowing anything about
/// queries.
///
/// Cost: one thread_local add per *batch* call on the batched tiers and
/// one per hop on the graph tiers — noise next to the kernel work itself
/// (the telemetry_smoke <2% overhead gate covers it).

/// One tally per storage precision: fp32, fp16, int8.
inline constexpr size_t kNumTiers = 3;

/// The tally slot of a precision.
inline size_t TierSlot(Precision tier) {
  switch (tier) {
    case Precision::kFp32:
      return 0;
    case Precision::kFp16:
      return 1;
    case Precision::kInt8:
      return 2;
  }
  return 0;
}

struct TierCounts {
  uint64_t dist[kNumTiers] = {0, 0, 0};

  uint64_t total() const { return dist[0] + dist[1] + dist[2]; }
};

namespace internal {
inline thread_local TierCounts tls_counts;
}  // namespace internal

/// Charges n distance computations to the given precision tier.
inline void Add(Precision tier, uint64_t n) {
  internal::tls_counts.dist[TierSlot(tier)] += n;
}

inline void AddFp32(uint64_t n) { Add(Precision::kFp32, n); }

/// Delta-reader: snapshots the thread's tallies at construction; Delta()
/// returns what was charged on this thread since. Scopes nest naturally
/// (each sees its own slice) because the tallies are monotonic.
class ScanCounterScope {
 public:
  ScanCounterScope() : start_(internal::tls_counts) {}
  ScanCounterScope(const ScanCounterScope&) = delete;
  ScanCounterScope& operator=(const ScanCounterScope&) = delete;

  TierCounts Delta() const {
    TierCounts d;
    for (size_t i = 0; i < kNumTiers; ++i)
      d.dist[i] = internal::tls_counts.dist[i] - start_.dist[i];
    return d;
  }

 private:
  TierCounts start_;
};

}  // namespace blendhouse::vecindex::scanstats
