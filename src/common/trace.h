#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"

namespace blendhouse::trace {

/// Per-query distributed tracing (DESIGN.md §10).
///
/// A query creates one Trace; every stage opens a Span parented to its
/// caller's span. Spans are shared_ptrs captured by async task callbacks, so
/// they survive the hop onto a worker pool; End() is exactly-once (atomic
/// exchange), and an un-ended span self-closes when the last reference drops
/// — a straggler task can therefore never leak an open span or double-record
/// one.
///
/// Span taxonomy: query → plan | execute | materialize; execute →
/// segment_scan (one per segment task, repeated per retry attempt) →
/// acquire_index | build_filter_bitmap. Tags carry cache outcomes.

/// Finished-span record. Times are micros; start is relative to trace start.
struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  double start_micros = 0;
  double wall_micros = 0;
  // Breakdown fields are optional (zero when a stage has no async breakdown).
  double compute_micros = 0;
  double sim_io_micros = 0;
  double queue_wait_micros = 0;
  std::vector<std::pair<std::string, std::string>> tags;
};

class Trace;
using TracePtr = std::shared_ptr<Trace>;

class Span {
 public:
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void SetTag(std::string key, std::string value) EXCLUDES(mu_);
  /// Async time breakdown, set once by the completing continuation.
  void SetBreakdown(double compute_micros, double sim_io_micros,
                    double queue_wait_micros) EXCLUDES(mu_);
  /// Accumulates simulated I/O attributed to this span (plan-stage object
  /// store reads, materialize fetches).
  void AddSimIo(double micros) EXCLUDES(mu_);

  /// Closes the span and records it into the owning trace. Exactly-once: a
  /// second End() (or the destructor after an End()) is a no-op.
  void End();

  double ElapsedMicros() const;
  uint64_t span_id() const { return record_.span_id; }

 private:
  friend class Trace;
  Span(TracePtr trace, uint64_t span_id, uint64_t parent_id, std::string name,
       double start_micros);

  TracePtr trace_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> ended_{false};
  mutable common::Mutex mu_{common::lockrank::kSpan};
  SpanRecord record_ GUARDED_BY(mu_);
};

using SpanPtr = std::shared_ptr<Span>;

/// One query's span collection. Created per query (cheap: one allocation and
/// a steady_clock read); whether the finished trace is retained in the
/// TraceSink is a separate, sampled decision.
class Trace : public std::enable_shared_from_this<Trace> {
 public:
  static TracePtr Make(std::string name);

  /// Opens a span. `parent` may be null (root span).
  SpanPtr StartSpan(std::string name, const SpanPtr& parent = nullptr);

  uint64_t trace_id() const { return trace_id_; }
  const std::string& name() const { return name_; }

  /// Spans started but not yet ended — 0 after a complete query.
  int64_t open_spans() const {
    return open_spans_.load(std::memory_order_acquire);
  }

  /// Snapshot of finished spans, in End() order.
  std::vector<SpanRecord> Collect() const EXCLUDES(mu_);

  double ElapsedMicros() const;

 private:
  friend class Span;
  explicit Trace(std::string name);

  void Finish(SpanRecord record) EXCLUDES(mu_);

  const uint64_t trace_id_;
  const std::string name_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<int64_t> open_spans_{0};
  mutable common::Mutex mu_{common::lockrank::kTrace};
  std::vector<SpanRecord> finished_ GUARDED_BY(mu_);
};

/// Why (or whether) a completed trace was retained (DESIGN.md §15). The
/// keep/drop decision is made at trace *completion*, when the root latency
/// and outcome are known — a head sampler is exactly as likely to drop a
/// p99.9 outlier as a median query; the tail-based classes below cannot.
enum class Retention : uint8_t {
  /// Not retained: lost the residual sampling coin flip.
  kDropped = 0,
  /// Retained by the residual head-style sampler (ordinary traces).
  kSampled = 1,
  /// Retained because the root latency exceeded the slow threshold
  /// (per-fingerprint rolling p99 or the SET slow_query_threshold_ms floor).
  kSlow = 2,
  /// Retained because the query failed — error traces are always kept.
  kError = 3,
};

const char* RetentionName(Retention r);

/// A finished trace as retained by the sink.
struct FinishedTrace {
  uint64_t trace_id = 0;
  std::string name;
  /// Why this trace survived retention (never kDropped for a stored trace).
  Retention retention = Retention::kSampled;
  /// Normalized query fingerprint (hex), stamped by the query layer; empty
  /// for traces recorded outside the SQL path.
  std::string fingerprint;
  /// Root wall latency at completion.
  double latency_micros = 0;
  std::vector<SpanRecord> spans;
};

/// Bounded in-memory store of retained finished traces.
///
/// Tail-based retention: Offer() is called once per completed trace with
/// its outcome; error traces are always kept, traces slower than the
/// caller-resolved threshold are kept and stamped `kSlow`, and only the
/// residual ordinary traces face the deterministic sampling coin. The
/// legacy ShouldSample()/Record() pair remains for callers that decide
/// up front (tests, ad-hoc recording); it feeds the same counters.
class TraceSink {
 public:
  struct Options {
    /// Ring capacity; oldest traces are dropped first.
    size_t max_traces = 64;
    /// Probability an *ordinary* finished trace is retained, in [0, 1]:
    /// the residual sampler behind the error/slow classes. 0 disables
    /// residual sampling entirely (ShouldSample never consults the RNG, so
    /// a given seed yields the same decisions regardless of interleaved
    /// 0-rate use).
    double sample_rate = 1.0;
    /// Seed for the sampling RNG — sampling decisions are deterministic for
    /// a fixed seed and call sequence.
    uint64_t seed = 42;
  };

  /// Completion-time facts the retention decision needs; resolved by the
  /// caller (the query layer knows the fingerprint profile and settings).
  struct Completion {
    bool error = false;
    double latency_micros = 0;
    /// Latencies at or above this are retained as kSlow; <= 0 disables the
    /// slow class (no floor set and no trusted per-fingerprint p99 yet).
    double slow_threshold_micros = 0;
    /// Normalized query fingerprint (hex) for the stored record.
    std::string fingerprint;
  };

  TraceSink();
  explicit TraceSink(Options opts);

  /// Tail-based keep/drop for a completed trace: records it under the
  /// class it earns (error > slow > sampled) or drops it. Returns the
  /// decision so the caller can tag its own records.
  Retention Offer(const Trace& trace, const Completion& info) EXCLUDES(mu_);

  /// Deterministic sampling decision for the next finished trace (the
  /// residual class only — Offer() consults this after error/slow).
  bool ShouldSample() EXCLUDES(mu_);

  /// Retains a finished trace (caller already decided to sample it).
  void Record(const Trace& trace) EXCLUDES(mu_);

  std::vector<FinishedTrace> Traces() const EXCLUDES(mu_);
  /// The retained trace with this id, if still in the ring.
  std::optional<FinishedTrace> FindTrace(uint64_t trace_id) const
      EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  /// Traces evicted by the ring bound (not ones skipped by sampling).
  uint64_t dropped() const EXCLUDES(mu_);

  // ---- Retention accounting (reconciliation: the four classes partition
  // every Offer() call, so retained_* + sample_dropped == offered) ----
  uint64_t offered() const EXCLUDES(mu_);
  uint64_t retained_error() const EXCLUDES(mu_);
  uint64_t retained_slow() const EXCLUDES(mu_);
  uint64_t retained_sampled() const EXCLUDES(mu_);
  uint64_t sample_dropped() const EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

  /// JSON array of retained traces; input format of tools/trace2json.py.
  std::string DumpJson() const EXCLUDES(mu_);

  const Options& options() const { return opts_; }

 private:
  void RecordLocked(FinishedTrace finished) REQUIRES(mu_);

  const Options opts_;
  mutable common::Mutex mu_{common::lockrank::kTraceSink};
  common::Rng rng_ GUARDED_BY(mu_);
  std::deque<FinishedTrace> traces_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t offered_ GUARDED_BY(mu_) = 0;
  uint64_t retained_error_ GUARDED_BY(mu_) = 0;
  uint64_t retained_slow_ GUARDED_BY(mu_) = 0;
  uint64_t retained_sampled_ GUARDED_BY(mu_) = 0;
  uint64_t sample_dropped_ GUARDED_BY(mu_) = 0;
};

/// Renders a span tree as indented text — the body of EXPLAIN ANALYZE.
/// One line per span: name, wall/compute/sim-I/O/queue-wait micros, tags.
std::string RenderSpanTree(const std::vector<SpanRecord>& spans);

}  // namespace blendhouse::trace
