#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fs2::trace {

/// Monotonic event count. add() is one relaxed fetch_add; hot paths resolve
/// the Counter& once (registry lookup takes a mutex) and keep the reference.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, batch threshold).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A histogram's bucket counts frozen at snapshot time. Buckets are the
/// fixed log grid of Histogram, so snapshots from different histograms (or
/// different NODES — this is what kMetricUpdate folding merges) combine by
/// elementwise addition, which is associative and commutative: merging
/// per-node snapshots in any order, or merging partial-stream snapshots
/// against a whole-stream one, yields identical buckets.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;  ///< best-effort (see Histogram::record)
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  ///< empty == all zero

  void merge(const HistogramSnapshot& other);
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]),
  /// clamped to the observed max. 0 when empty.
  double quantile(double q) const;
};

/// Log-bucketed value distribution (latencies, frame sizes, control error).
/// The grid is fixed: two buckets per octave (mantissa below/above 0.75),
/// 128 buckets spanning 2^-32 .. 2^32 — sub-nanosecond seconds up to
/// multi-gigabyte sizes — with under/overflow clamped to the edge buckets.
/// A fixed grid is what makes snapshots mergeable without rebinning.
///
/// record() is frexp + ONE relaxed fetch_add on the bucket, so it stays
/// within ~2x of Counter::add (the bench gate). sum/max are maintained with
/// relaxed load+store pairs — exact on the single-threaded record paths we
/// instrument, best-effort under concurrent writers; bucket counts are
/// always exact.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 128;
  static constexpr int kExpOffset = 32;  ///< bucket 0 starts at 2^-32

  void record(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
    if (v > max_.load(std::memory_order_relaxed))
      max_.store(v, std::memory_order_relaxed);
  }

  /// Bucket for a value: (exponent + offset) * 2 + (mantissa >= 0.75).
  static std::size_t bucket_index(double v);
  /// Exclusive upper bound of a bucket (ldexp of 0.75 or 1.0).
  static double bucket_upper(std::size_t index);

  HistogramSnapshot snapshot(std::string name) const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One registry entry at snapshot time.
struct MetricSnapshot {
  std::string name;
  double value = 0.0;
  bool is_counter = true;  ///< false = gauge
};

/// One registry entry in the INDEXED snapshot used by the metrics plane.
/// `id` is the entry's registration index — stable for the registry's
/// lifetime (entries are never removed), so delta trackers and the
/// coordinator's per-node fold key on it instead of re-hashing names.
struct IndexedMetric {
  std::uint32_t id = 0;
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;        ///< kind == kCounter
  double gauge = 0.0;               ///< kind == kGauge
  HistogramSnapshot hist;           ///< kind == kHistogram (name left empty)
};

/// Counter/gauge/histogram directory. Names are dotted paths mirroring the
/// span names ("cluster.bus.queued_samples", "reactor.wakeups").
/// Registration is mutex-guarded create-or-get; updates on the returned
/// references are lock-free. Snapshots are what agents ship to the
/// coordinator (kCounterSnapshot, kMetricUpdate) and what the status plane
/// reports.
///
/// instance() is the process-wide registry most instrumentation uses; the
/// class is also instantiable so each loopback agent can own a private
/// registry and ship per-node metrics that the shared-process global could
/// not attribute.
class Registry {
 public:
  static Registry& instance();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Counters and gauges only (histograms have their own snapshot shape),
  /// registration order. What kCounterSnapshot and --status ship.
  std::vector<MetricSnapshot> snapshot() const;

  /// Every histogram's buckets, registration order, names filled in.
  std::vector<HistogramSnapshot> histogram_snapshots() const;

  /// Every entry with its stable id — the metrics-plane snapshot a
  /// MetricDeltaTracker diffs against its previous collection.
  std::vector<IndexedMetric> indexed_snapshot() const;

  /// Zero every entry (entries stay registered — references remain valid).
  /// Test/benchmark hook.
  void reset();

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;  ///< exactly one of the three set
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace fs2::trace
