#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/sample_sink.hpp"

namespace fs2::telemetry {

/// Fan-out hub between sample producers (metric pollers, the feedback
/// loop, the simulator's trace generators) and bounded consumers (summary
/// aggregation, per-tick CSV streaming, trace recording, debug tails).
///
/// One bus per run. Producers register channels up front — registration
/// order is the summary CSV's row order — then publish (time, value) pairs
/// with phase-local timestamps. The orchestrator brackets aggregation
/// windows with begin_phase()/end_phase(); finish() closes the last phase
/// and flushes every sink. Single-threaded by design: all publishing
/// happens on the orchestrator's sampling loop.
class TelemetryBus {
 public:
  /// Get-or-create the channel keyed by (name, unit). On create, `info`'s
  /// policy fields are honored and every attached sink is notified; on
  /// lookup the existing id (and its original policy) is returned, which is
  /// what lets campaign phases re-register their channels idempotently.
  ChannelId channel(const ChannelInfo& info);
  ChannelId channel(const std::string& name, const std::string& unit,
                    TrimMode trim = TrimMode::kPhase, bool summarize = true);

  /// Attach a sink (not owned; must outlive the bus). Already-registered
  /// channels and an already-open phase are replayed so attach order and
  /// registration order don't have to be coordinated.
  void attach(SampleSink* sink);

  /// Open an aggregation window. Implicitly ends a still-open phase first
  /// (advancing campaign time by its nominal duration).
  void begin_phase(const std::string& name, double duration_s, double start_delta_s,
                   double stop_delta_s);

  /// Close the current phase. `actual_elapsed_s` advances campaign time
  /// when the wall clock overran the nominal duration (host sampling loops
  /// quantize at 50 ms); pass a negative value (default) to advance by the
  /// nominal duration.
  void end_phase(double actual_elapsed_s = -1.0);

  void publish(ChannelId id, double time_s, double value);

  /// Batched publish: one validation and one virtual dispatch per sink for
  /// the whole span instead of per sample. Timestamps must be non-decreasing
  /// within the span (same contract as repeated publish calls). Produces
  /// byte-identical aggregation to publishing each sample individually —
  /// batching is a transport optimization, never a semantic one.
  void publish_batch(ChannelId id, std::span<const Sample> samples);

  /// End the open phase (if any) and notify sinks the run is over.
  void finish();

  const ChannelInfo& info(ChannelId id) const { return channels_[id]; }
  std::size_t channel_count() const { return channels_.size(); }
  const PhaseInfo& phase() const { return phase_; }

 private:
  std::vector<ChannelInfo> channels_;
  /// (name, unit) -> id. The vector stays the source of truth for
  /// registration order (summary row order); the map only accelerates the
  /// get-or-create lookup, which producers hit on every phase of a campaign.
  std::unordered_map<std::string, ChannelId> index_;
  std::vector<SampleSink*> sinks_;
  PhaseInfo phase_;
  bool in_phase_ = false;
  double next_offset_s_ = 0.0;
};

}  // namespace fs2::telemetry
