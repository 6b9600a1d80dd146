#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fs2::trace {

/// Steady-clock seconds since the process clock epoch — the same time base
/// as cluster::local_clock_s(), duplicated here so the trace layer sits
/// BELOW telemetry and cluster in the include graph (both instrument their
/// hot paths with TRACE_SPAN).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed span recorded on the hot path. `name` must be a string with
/// static storage duration (TRACE_SPAN passes literals) — the ring stores
/// the pointer, never copies the text, so recording is a couple of stores.
struct SpanEvent {
  const char* name = nullptr;
  double begin_s = 0.0;  ///< local steady-clock seconds (trace::now_s)
  double end_s = 0.0;
};

/// Process-wide low-overhead span tracer.
///
/// Each thread owns a fixed-capacity SPSC ring of SpanEvents; record() is the
/// producer (two value stores plus a release publish), drain() is the single
/// consumer that walks every thread's ring off the hot path. When a ring is
/// full the producer drops the NEW event and counts it — overwriting the
/// oldest would race the drainer — so a drained trace is lossless up to an
/// explicit, queryable drop count.
///
/// Disabled cost (the common case) is one relaxed atomic load and a branch
/// per site; bench/micro_trace.cpp measures both paths and
/// bench/macro_cluster.cpp turns the measurement into the <1% ingest
/// overhead gate.
class Tracer {
 public:
  /// Spans per thread ring. At fleet scale the drainer runs at least once
  /// per phase; 16k spans cover >1s of the densest instrumented loop.
  static constexpr std::size_t kRingCapacity = 16384;

  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Record a closed span on the calling thread's ring. Callers check
  /// enabled() first (TRACE_SPAN does); record() itself does not.
  static void record(const char* name, double begin_s, double end_s);

  /// Drain every thread's ring (including rings of exited threads) into
  /// `out`, oldest-first per thread. Safe to call concurrently with
  /// producers; must not be called from two threads at once.
  static std::size_t drain(std::vector<SpanEvent>& out);

  /// Events dropped on full rings since the last reset().
  static std::uint64_t dropped();

  /// Rings held: one per thread that has ever recorded a span, kept until
  /// the process exits (reset() empties them but keeps them). Test hook.
  static std::size_t rings();

  /// Discard all buffered events, drop counts, and the enabled flag.
  /// Test/benchmark hook; not thread-safe against live producers.
  static void reset();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span: stamps begin on construction, records on destruction. When
/// tracing is disabled at construction the destructor does nothing — a
/// span cannot straddle an enable flip.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(Tracer::enabled() ? name : nullptr), begin_s_(name_ ? now_s() : 0.0) {}
  ~ScopedSpan() {
    if (name_ != nullptr) Tracer::record(name_, begin_s_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  double begin_s_;
};

#define FS2_TRACE_CONCAT2(a, b) a##b
#define FS2_TRACE_CONCAT(a, b) FS2_TRACE_CONCAT2(a, b)

/// Instrument the enclosing scope: TRACE_SPAN("cluster.phase_barrier").
/// `name` must be a string literal (or otherwise outlive the process).
#define TRACE_SPAN(name) ::fs2::trace::ScopedSpan FS2_TRACE_CONCAT(trace_span_, __LINE__)(name)

}  // namespace fs2::trace
