#pragma once

#include <optional>
#include <vector>

#include "metrics/measurement.hpp"
#include "telemetry/bus.hpp"
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

}  // namespace fs2::telemetry
