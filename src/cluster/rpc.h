#pragma once

#include <atomic>
#include <cstdint>

#include "common/metrics.h"
#include "common/task_scheduler.h"

namespace blendhouse::cluster {

/// Simulated intra-cluster RPC fabric. Worker-to-worker calls (vector search
/// serving, Fig. 4/11) go through Charge() to pay a network round-trip cost
/// before the in-process handler runs. Counters feed the benches.
class RpcFabric {
 public:
  struct CostModel {
    /// Round-trip latency in microseconds (~intra-AZ TCP).
    int64_t base_latency_micros = 200;
    /// Payload throughput (bytes per microsecond).
    double bytes_per_micro = 500.0;
    bool simulate_latency = true;
  };

  RpcFabric() : RpcFabric(CostModel()) {}
  explicit RpcFabric(CostModel cost) : cost_(cost) {}

  /// Pays the network cost of a call moving `payload_bytes` of argument +
  /// response data. Deferred (accumulated, for the waiter to pay) when the
  /// caller runs under a DeferredChargeScope; blocks otherwise.
  void Charge(size_t payload_bytes) const {
    const Metrics& m = RegistryMetrics();
    calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    m.calls->Add(1);
    m.bytes->Add(payload_bytes);
    if (!cost_.simulate_latency) return;
    int64_t micros =
        cost_.base_latency_micros +
        static_cast<int64_t>(static_cast<double>(payload_bytes) /
                             cost_.bytes_per_micro);
    if (micros > 0) {
      m.latency->Record(static_cast<double>(micros));
      // In-flight covers the charge itself: the full simulated round-trip
      // for blocking callers, the hand-off instant for deferred ones (their
      // latency is paid downstream, by the thread waiting for the result).
      m.inflight->Add(1);
      common::ChargeSimLatency(static_cast<uint64_t>(micros));
      m.inflight->Sub(1);
    }
  }

  uint64_t calls() const { return calls_.load(); }
  uint64_t bytes() const { return bytes_.load(); }
  const CostModel& cost_model() const { return cost_; }

 private:
  struct Metrics {
    common::metrics::Counter* calls;
    common::metrics::Counter* bytes;
    common::metrics::Gauge* inflight;
    common::metrics::HistogramMetric* latency;
  };
  static const Metrics& RegistryMetrics() {
    auto& reg = common::metrics::MetricsRegistry::Instance();
    static const Metrics m{
        reg.GetCounter("bh_rpc_calls_total"),
        reg.GetCounter("bh_rpc_bytes_total"),
        reg.GetGauge("bh_rpc_inflight"),
        reg.GetHistogram("bh_rpc_latency_micros"),
    };
    return m;
  }

  CostModel cost_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> bytes_{0};
};

}  // namespace blendhouse::cluster
