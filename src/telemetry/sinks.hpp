#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "metrics/measurement.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/ring_buffer.hpp"
#include "telemetry/streaming_aggregator.hpp"

namespace fs2::telemetry {

/// Bus sink producing the measurement-CSV summary rows: one
/// StreamingAggregator per (channel, phase), cut at phase boundaries, with
/// the channel's trim policy applied. Nothing is kept per sample: memory is
/// O(channels), not O(samples).
///
/// Row order: phases in chronological order, and within a phase the
/// channels in the order their first sample of that phase arrived (which is
/// how the per-phase series vectors this replaces were built — a campaign
/// mixing power- and temperature-regulated phases keeps each phase's ctl
/// block contiguous). Channels that received no samples in a phase produce
/// no row (a campaign's ctl-* channels are silent during open-loop phases);
/// channels whose trim window removed every sample fall back to the
/// untrimmed aggregate with a logged warning instead of aborting the run.
class SummarySink : public SampleSink {
 public:
  void on_channel(ChannelId id, const ChannelInfo& info) override;
  void on_phase_begin(const PhaseInfo& phase) override;
  void on_sample(ChannelId id, const Sample& sample) override;
  void on_samples(ChannelId id, const Sample* samples, std::size_t count) override;
  void on_phase_end(const PhaseInfo& phase) override;
  void on_finish() override;

  /// Finished per-phase rows (phases end at on_phase_end; call after
  /// TelemetryBus::finish() for the complete set).
  const std::vector<metrics::Summary>& rows() const { return rows_; }

 private:
  /// Get-or-create the current phase's aggregator for `id` — the once-per-
  /// batch half of the ingest path; the per-sample half is add()/add_batch().
  StreamingAggregator& aggregator(ChannelId id);

  std::vector<ChannelInfo> channels_;
  /// Current phase's aggregators, indexed by ChannelId (engaged = received
  /// samples this phase). Flat so the per-batch resolution is one bounds
  /// check and one load, not a tree walk.
  std::vector<std::optional<StreamingAggregator>> active_;
  std::vector<ChannelId> arrival_order_;  ///< first-sample order within the phase
  PhaseInfo phase_;
  std::vector<metrics::Summary> rows_;
};

/// Bounded tail of recent samples per channel (global run timestamps) —
/// the trace/debug window: cheap enough to leave attached on week-long
/// runs, deep enough to answer "what did the last minutes look like" in a
/// debugger or post-mortem dump.
class RingBufferSink : public SampleSink {
 public:
  explicit RingBufferSink(std::size_t capacity_per_channel)
      : capacity_(capacity_per_channel) {}

  void on_channel(ChannelId id, const ChannelInfo& info) override;
  void on_phase_begin(const PhaseInfo& phase) override { phase_ = phase; }
  void on_sample(ChannelId id, const Sample& sample) override;

  const RingBuffer<Sample>& tail(ChannelId id) const { return *tails_.at(id); }

 private:
  std::size_t capacity_;
  PhaseInfo phase_;
  std::vector<std::unique_ptr<RingBuffer<Sample>>> tails_;  ///< index = ChannelId
};

}  // namespace fs2::telemetry
