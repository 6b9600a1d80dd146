#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metric.hpp"

namespace fs2::metrics {

/// A hardware performance event by PMU encoding. The paper validates its
/// front-end claims with exactly this mechanism: AMD Zen 2 event 0xAA
/// ("UOps Dispatched From Decoder", PPR 2.1.15.4.4) to confirm op-cache
/// residency and 0x76 ("Cycles not in Halt", 2.1.15.4.2) to detect the
/// 2.5 -> 2.4 GHz throttle of Fig. 8.
struct HwEvent {
  std::string name;
  std::uint32_t type = 4;      ///< perf_event attr.type (4 = PERF_TYPE_RAW)
  std::uint64_t config = 0;    ///< raw event encoding (event | umask << 8)

  /// Generalized cross-vendor events.
  static HwEvent instructions();
  static HwEvent cycles();
  /// AMD family 17h raw events used in Sec. IV-C (only meaningful on Zen).
  static HwEvent zen2_uops_from_decoder();   ///< PMC 0xAA, umask 0x01
  static HwEvent zen2_uops_from_opcache();   ///< PMC 0xAA, umask 0x02
  static HwEvent zen2_cycles_not_in_halt();  ///< PMC 0x76
};

/// A group of hardware counters attached to the calling process, read as
/// per-second rates. Gracefully unavailable when perf_event_open is denied
/// or the PMU lacks the raw event.
class HwEventGroup {
 public:
  explicit HwEventGroup(std::vector<HwEvent> events);
  ~HwEventGroup();
  HwEventGroup(const HwEventGroup&) = delete;
  HwEventGroup& operator=(const HwEventGroup&) = delete;

  bool available() const { return !fds_.empty(); }
  std::size_t size() const { return events_.size(); }
  const HwEvent& event(std::size_t i) const { return events_.at(i); }

  /// Reset and enable all counters.
  void begin();

  /// Raw counter values since begin(), one per event (0 when unavailable).
  std::vector<std::uint64_t> read() const;

 private:
  std::vector<HwEvent> events_;
  std::vector<int> fds_;
};

/// Ratio metric over two hardware events (e.g. op-cache uops / total
/// uops): plugs PMU validation into the normal measurement pipeline. Each
/// sample is the ratio of the counter deltas since the previous one.
class HwRatioMetric : public Metric {
 public:
  HwRatioMetric(std::string name, HwEvent numerator, HwEvent denominator,
                std::string unit = "ratio");

  std::string name() const override { return name_; }
  std::string unit() const override { return unit_; }
  bool available() const override { return group_.available(); }
  void begin() override;
  double sample() override;

 private:
  std::string name_;
  std::string unit_;
  HwEventGroup group_;
  std::uint64_t last_num_ = 0;
  std::uint64_t last_den_ = 0;
};

/// IPC via perf_event_open (Sec. III-C): instructions retired over CPU
/// cycles, counted for the calling process across all CPUs it runs on.
/// Unavailable when the kernel denies the syscall (perf_event_paranoid,
/// seccomp, missing PMU) — callers fall back to IpcEstimateMetric.
class PerfIpcMetric : public HwRatioMetric {
 public:
  PerfIpcMetric()
      : HwRatioMetric("perf-ipc", HwEvent::instructions(), HwEvent::cycles(),
                      "instructions/cycle") {}
};

}  // namespace fs2::metrics
