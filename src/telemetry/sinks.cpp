#include "telemetry/sinks.hpp"

#include "util/logging.hpp"

namespace fs2::telemetry {

// ---- SummarySink ------------------------------------------------------------

void SummarySink::on_channel(ChannelId id, const ChannelInfo& info) {
  if (channels_.size() <= id) channels_.resize(id + 1);
  channels_[id] = info;
}

void SummarySink::on_phase_begin(const PhaseInfo& phase) {
  phase_ = phase;
  active_.clear();
  arrival_order_.clear();
}

StreamingAggregator& SummarySink::aggregator(ChannelId id) {
  if (active_.size() <= id) active_.resize(id + 1);
  if (!active_[id]) {
    const bool trimmed = channels_[id].trim == TrimMode::kPhase;
    active_[id].emplace(trimmed ? phase_.start_delta_s : 0.0,
                        trimmed ? phase_.stop_delta_s : 0.0);
    arrival_order_.push_back(id);
  }
  return *active_[id];
}

void SummarySink::on_sample(ChannelId id, const Sample& sample) {
  // Channels excluded from the summary (trace/log-only streams) produce no
  // row — aggregating them would be pure waste.
  if (!channels_[id].summarize) return;
  aggregator(id).add(sample.time_s, sample.value);
}

void SummarySink::on_samples(ChannelId id, const Sample* samples, std::size_t count) {
  if (count == 0 || !channels_[id].summarize) return;
  aggregator(id).add_batch(samples, count);
}

void SummarySink::on_phase_end(const PhaseInfo& phase) {
  for (const ChannelId id : arrival_order_) {
    const StreamingAggregator& aggregator = *active_[id];
    const ChannelInfo& info = channels_[id];
    if (!info.summarize || aggregator.total_samples() == 0) continue;
    const StreamingSummary stats = aggregator.summarize();
    if (stats.trim_fallback)
      log::warn() << "metric '" << info.name << "': start/stop deltas ("
                  << aggregator.start_delta_s() << " s / " << aggregator.stop_delta_s()
                  << " s) trimmed away every sample; reporting the untrimmed aggregate";
    metrics::Summary row;
    row.name = info.name;
    row.unit = info.unit;
    row.mean = stats.mean;
    row.stddev = stats.stddev;
    row.min = stats.min;
    row.max = stats.max;
    row.p50 = stats.p50;
    row.p95 = stats.p95;
    row.p99 = stats.p99;
    row.samples = stats.samples;
    row.phase = phase.name;
    rows_.push_back(std::move(row));
  }
  active_.clear();
  arrival_order_.clear();
}

void SummarySink::on_finish() {
  active_.clear();
  arrival_order_.clear();
}

}  // namespace fs2::telemetry
