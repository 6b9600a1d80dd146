// Tests for the streaming telemetry layer: Welford/P² parity against the
// batch statistics on identical sample streams, start/stop-delta trim-window
// edge cases, ring-buffer wraparound, and the bus/sink fan-out that the
// measurement CSV, --control-log, and --record-trace ride on.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "sched/trace_recorder.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/ring_buffer.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/streaming_aggregator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fs2::telemetry {
namespace {

// ---- batch reference (the pre-streaming implementation's math) --------------

struct BatchSummary {
  std::size_t samples = 0;
  double mean = 0.0, stddev = 0.0, min = 0.0, max = 0.0;
};

/// Exactly the old TimeSeries::summarize: trim against the last sample's
/// time, then batch-aggregate with util/stats.
BatchSummary batch_summarize(const std::vector<Sample>& samples, double start_delta_s,
                             double stop_delta_s) {
  BatchSummary result;
  if (samples.empty()) return result;
  const double end = samples.back().time_s;
  std::vector<double> values;
  for (const Sample& s : samples)
    if (s.time_s >= start_delta_s && s.time_s <= end - stop_delta_s) values.push_back(s.value);
  if (values.empty()) return result;
  result.samples = values.size();
  result.mean = stats::mean(values);
  result.stddev = stats::stddev(values);
  result.min = stats::min(values);
  result.max = stats::max(values);
  return result;
}

std::vector<Sample> noisy_stream(std::size_t n, double hz, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Sample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    samples.push_back(Sample{static_cast<double>(i) / hz, 300.0 + 25.0 * rng.normal()});
  return samples;
}

// ---- streaming vs batch parity ----------------------------------------------

TEST(StreamingAggregator, WelfordMatchesBatchStatsExactly) {
  const std::vector<Sample> samples = noisy_stream(20000, 20.0, 42);
  StreamingAggregator aggregator(5.0, 2.0);
  for (const Sample& s : samples) aggregator.add(s.time_s, s.value);

  const StreamingSummary streaming = aggregator.summarize();
  const BatchSummary batch = batch_summarize(samples, 5.0, 2.0);
  ASSERT_GT(batch.samples, 0u);
  EXPECT_EQ(streaming.samples, batch.samples);  // identical trim decisions
  EXPECT_NEAR(streaming.mean, batch.mean, 1e-9 * std::abs(batch.mean));
  EXPECT_NEAR(streaming.stddev, batch.stddev, 1e-9 * std::max(batch.stddev, 1.0));
  EXPECT_DOUBLE_EQ(streaming.min, batch.min);  // min/max are exact
  EXPECT_DOUBLE_EQ(streaming.max, batch.max);
  EXPECT_FALSE(streaming.trim_fallback);
}

TEST(StreamingAggregator, QuantilesTrackBatchPercentiles) {
  // P² is an estimator: for a 20k-sample noisy stream the p50/p95/p99
  // estimates must land within a fraction of the distribution's spread of
  // the exact percentiles (sigma = 25 here).
  const std::vector<Sample> samples = noisy_stream(20000, 20.0, 7);
  StreamingAggregator aggregator(0.0, 0.0);
  std::vector<double> values;
  for (const Sample& s : samples) {
    aggregator.add(s.time_s, s.value);
    values.push_back(s.value);
  }
  const StreamingSummary streaming = aggregator.summarize();
  EXPECT_NEAR(streaming.p50, stats::percentile(values, 50.0), 1.0);
  EXPECT_NEAR(streaming.p95, stats::percentile(values, 95.0), 2.5);
  EXPECT_NEAR(streaming.p99, stats::percentile(values, 99.0), 4.0);
  EXPECT_LT(streaming.p50, streaming.p95);
  EXPECT_LT(streaming.p95, streaming.p99);
}

TEST(P2Quantile, ExactForSmallStreams) {
  // Below five observations the estimator falls back to the sorted array —
  // identical to stats::percentile.
  P2Quantile p50(0.5);
  const std::vector<double> values{9.0, 1.0, 5.0, 3.0};
  for (double v : values) p50.add(v);
  EXPECT_DOUBLE_EQ(p50.value(), stats::percentile(values, 50.0));
}

TEST(P2Quantile, ConvergesOnUniformStream) {
  P2Quantile p95(0.95);
  Xoshiro256 rng(13);
  for (int i = 0; i < 50000; ++i) p95.add(rng.uniform());
  EXPECT_NEAR(p95.value(), 0.95, 0.01);
}

// ---- trim-window edge cases -------------------------------------------------

TEST(StreamingAggregator, StopDeltaHoldbackStaysBounded) {
  // 2 s of stop delta at 20 Sa/s: the pending buffer may never hold more
  // than the window's worth of samples (+1 for the newest) — this is the
  // O(window) bound that unblocks week-long runs.
  StreamingAggregator aggregator(0.0, 2.0);
  for (int i = 0; i < 100000; ++i) {
    aggregator.add(i * 0.05, 1.0);
    EXPECT_LE(aggregator.pending(), 42u);
  }
  EXPECT_EQ(aggregator.summarize().samples, 100000u - 40u);  // tail held back
}

TEST(StreamingAggregator, TrimBoundariesAreInclusive) {
  // Batch semantics: t >= start && t <= end - stop, both inclusive.
  StreamingAggregator aggregator(10.0, 2.0);
  for (int t = 0; t <= 100; ++t) aggregator.add(t, t < 10 ? 1000.0 : 300.0);
  const StreamingSummary summary = aggregator.summarize();
  EXPECT_EQ(summary.samples, 89u);  // t in [10, 98]
  EXPECT_DOUBLE_EQ(summary.mean, 300.0);
  EXPECT_DOUBLE_EQ(summary.stddev, 0.0);
}

TEST(StreamingAggregator, OverTrimmedStreamFallsBackUntrimmed) {
  StreamingAggregator aggregator(5.0, 5.0);
  aggregator.add(0.0, 1.0);
  aggregator.add(1.0, 2.0);
  const StreamingSummary summary = aggregator.summarize();
  EXPECT_TRUE(summary.trim_fallback);
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_DOUBLE_EQ(summary.mean, 1.5);
}

TEST(StreamingAggregator, SingleSampleInsideWindow) {
  StreamingAggregator aggregator(0.0, 0.0);
  aggregator.add(1.0, 7.0);
  const StreamingSummary summary = aggregator.summarize();
  EXPECT_FALSE(summary.trim_fallback);
  EXPECT_EQ(summary.samples, 1u);
  EXPECT_DOUBLE_EQ(summary.mean, 7.0);
  EXPECT_DOUBLE_EQ(summary.p99, 7.0);
}

TEST(StreamingAggregator, EmptyStreamSummarizesToZeroSamples) {
  StreamingAggregator aggregator(5.0, 2.0);
  const StreamingSummary summary = aggregator.summarize();
  EXPECT_EQ(summary.samples, 0u);
  EXPECT_FALSE(summary.trim_fallback);
}

TEST(StreamingAggregator, SummarizeIsIdempotentMidStream) {
  // Peeking must not consume held-back samples: summarize, keep streaming,
  // and the final result equals a never-peeked aggregator's.
  const std::vector<Sample> samples = noisy_stream(2000, 20.0, 99);
  StreamingAggregator peeked(5.0, 2.0), untouched(5.0, 2.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    peeked.add(samples[i].time_s, samples[i].value);
    untouched.add(samples[i].time_s, samples[i].value);
    if (i % 100 == 0) (void)peeked.summarize();
  }
  EXPECT_EQ(peeked.summarize().samples, untouched.summarize().samples);
  EXPECT_DOUBLE_EQ(peeked.summarize().mean, untouched.summarize().mean);
}

// ---- ring buffer ------------------------------------------------------------

TEST(RingBuffer, FillsThenWrapsOverwritingOldest) {
  RingBuffer<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.front(), 0);
  EXPECT_EQ(ring.back(), 2);
  EXPECT_FALSE(ring.wrapped());
  for (int i = 3; i < 11; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.wrapped());
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7, 8, 9, 10}));
  EXPECT_EQ(ring.front(), 7);
  EXPECT_EQ(ring.back(), 10);
  EXPECT_EQ(ring[2], 9);
}

TEST(RingBuffer, WrapsExactlyAtCapacityBoundary) {
  RingBuffer<int> ring(3);
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{0, 1, 2}));
  ring.push(3);  // first eviction
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{1, 2, 3}));
  int sum = 0;
  for (int v : ring) sum += v;  // iterator covers the wrapped layout
  EXPECT_EQ(sum, 6);
  ring.push(4);
  ring.push(5);  // total pushes = 2x capacity: head is back at 0...
  EXPECT_TRUE(ring.wrapped());  // ...but eviction must still be reported
  ring.clear();
  EXPECT_FALSE(ring.wrapped());
}

TEST(FeedbackLoop, TelemetryRingIsBounded) {
  // A loop driven far past its ring capacity keeps O(window) ticks and its
  // trailing statistics keep working on the retained window.
  auto profile = std::make_shared<control::ControlledProfile>(0.5);
  control::FeedbackLoop loop(control::Setpoint::parse("power=100W"), profile, 100.0, 0.5);
  const std::size_t capacity = loop.telemetry().capacity();
  EXPECT_LE(capacity, 65536u);
  for (std::size_t i = 1; i <= capacity + 500; ++i)
    loop.tick(0.25 * static_cast<double>(i), 100.0);
  EXPECT_EQ(loop.telemetry().size(), capacity);
  EXPECT_NEAR(loop.trailing_mean(10.0), 100.0, 1e-9);
  EXPECT_TRUE(loop.converged(10.0));
}

// ---- bus + sinks ------------------------------------------------------------

TEST(TelemetryBus, ChannelKeyedByNameAndUnit) {
  TelemetryBus bus;
  const ChannelId a = bus.channel("power", "W");
  const ChannelId same = bus.channel("power", "W");
  const ChannelId other_unit = bus.channel("power", "mW");
  EXPECT_EQ(a, same);
  EXPECT_NE(a, other_unit);
  EXPECT_EQ(bus.channel_count(), 2u);
}

TEST(TelemetryBus, PublishOutsidePhaseThrows) {
  TelemetryBus bus;
  const ChannelId ch = bus.channel("x", "u");
  EXPECT_THROW(bus.publish(ch, 0.0, 1.0), Error);
  EXPECT_THROW(bus.publish(ch + 1, 0.0, 1.0), Error);  // unknown channel
}

TEST(SummarySink, PerPhaseRowsWithPhaseTrimDeltas) {
  TelemetryBus bus;
  SummarySink sink;
  bus.attach(&sink);
  const ChannelId power = bus.channel("power", "W");

  bus.begin_phase("warm", 10.0, /*start=*/2.0, /*stop=*/0.0);
  for (int t = 0; t <= 9; ++t) bus.publish(power, t, t < 2 ? 1000.0 : 100.0);
  bus.begin_phase("hot", 10.0, 2.0, 0.0);  // implicitly ends "warm"
  for (int t = 0; t <= 9; ++t) bus.publish(power, t, t < 2 ? 1000.0 : 200.0);
  bus.finish();

  ASSERT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(sink.rows()[0].phase, "warm");
  EXPECT_DOUBLE_EQ(sink.rows()[0].mean, 100.0);  // warm-up spike trimmed
  EXPECT_EQ(sink.rows()[0].samples, 8u);
  EXPECT_EQ(sink.rows()[1].phase, "hot");
  EXPECT_DOUBLE_EQ(sink.rows()[1].mean, 200.0);
}

TEST(SummarySink, RowOrderFollowsFirstSampleArrival) {
  TelemetryBus bus;
  SummarySink sink;
  bus.attach(&sink);
  const ChannelId a = bus.channel("a", "u");
  const ChannelId b = bus.channel("b", "u");
  bus.begin_phase("", 10.0, 0.0, 0.0);
  bus.publish(b, 0.0, 1.0);  // b arrives first despite later registration
  bus.publish(a, 0.0, 2.0);
  bus.finish();
  ASSERT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(sink.rows()[0].name, "b");
  EXPECT_EQ(sink.rows()[1].name, "a");
}

TEST(SummarySink, HonorsChannelPolicies) {
  TelemetryBus bus;
  SummarySink sink;
  bus.attach(&sink);
  const ChannelId trimmed = bus.channel("trimmed", "u", TrimMode::kPhase);
  const ChannelId untrimmed = bus.channel("untrimmed", "u", TrimMode::kNone);
  const ChannelId hidden = bus.channel("hidden", "u", TrimMode::kNone, /*summarize=*/false);
  const ChannelId silent = bus.channel("silent", "u");
  (void)silent;

  bus.begin_phase("", 10.0, /*start=*/5.0, 0.0);
  for (int t = 0; t <= 9; ++t) {
    bus.publish(trimmed, t, t < 5 ? 0.0 : 10.0);
    bus.publish(untrimmed, t, t < 5 ? 0.0 : 10.0);
    bus.publish(hidden, t, 1.0);
  }
  bus.finish();

  ASSERT_EQ(sink.rows().size(), 2u);  // hidden suppressed, silent empty
  EXPECT_EQ(sink.rows()[0].name, "trimmed");
  EXPECT_DOUBLE_EQ(sink.rows()[0].mean, 10.0);   // start delta applied
  EXPECT_DOUBLE_EQ(sink.rows()[1].mean, 5.0);    // untrimmed sees the zeros
}

TEST(SummarySink, TrimFallbackReportsUntrimmedAggregate) {
  TelemetryBus bus;
  SummarySink sink;
  bus.attach(&sink);
  const ChannelId ch = bus.channel("short", "u");
  bus.begin_phase("", 1.0, /*start=*/5.0, /*stop=*/2.0);  // deltas eat the phase
  bus.publish(ch, 0.0, 4.0);
  bus.publish(ch, 0.5, 6.0);
  bus.finish();
  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.rows()[0].mean, 5.0);
  EXPECT_EQ(sink.rows()[0].samples, 2u);
}

TEST(ControlLogSink, AssemblesTickRowsWithPhaseOffset) {
  TelemetryBus bus;
  std::ostringstream log;
  control::ControlLogSink sink(log);
  bus.attach(&sink);

  auto profile = std::make_shared<control::ControlledProfile>(0.5);
  control::FeedbackLoop loop(control::Setpoint::parse("power=100W"), profile, 100.0, 0.5);
  loop.attach_bus(&bus);
  bus.begin_phase("hold", 10.0, 0.0, 0.0);
  // Fake a second phase's offset by ending one first.
  loop.tick(0.25, 90.0);
  bus.finish();

  const std::string text = log.str();
  // time, setpoint, measurement, error = 10, level, phase — one row per tick.
  EXPECT_NE(text.find("0.250000,100,90,10,"), std::string::npos);
  EXPECT_NE(text.find(",hold\n"), std::string::npos);
}

TEST(TraceSink, RecordsLoadChannelShiftedToCampaignTime) {
  TelemetryBus bus;
  sched::TraceRecorder recorder;
  sched::TraceSink sink("load-level", &recorder, /*out=*/nullptr);  // record only
  bus.attach(&sink);
  const ChannelId load = bus.channel("load-level", "fraction");
  const ChannelId noise = bus.channel("power", "W");

  bus.begin_phase("a", 10.0, 0.0, 0.0);
  bus.publish(load, 0.0, 0.2);
  bus.publish(noise, 0.0, 400.0);  // other channels must be ignored
  bus.publish(load, 5.0, 0.8);
  bus.begin_phase("b", 10.0, 0.0, 0.0);  // offset advances to 10 s
  bus.publish(load, 1.0, 0.4);
  bus.finish();

  ASSERT_EQ(recorder.breakpoints().size(), 3u);
  EXPECT_DOUBLE_EQ(recorder.breakpoints()[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(recorder.breakpoints()[1].time_s, 5.0);
  EXPECT_DOUBLE_EQ(recorder.breakpoints()[2].time_s, 11.0);  // 10 s offset + 1 s
  EXPECT_DOUBLE_EQ(recorder.breakpoints()[2].load, 0.4);
}

TEST(TraceSink, StreamingReleasesWrittenRows) {
  // With an output stream the sink flushes rows as they collapse AND prunes
  // them from memory: a long streamed trace retains O(1) breakpoints while
  // the file carries them all.
  TelemetryBus bus;
  sched::TraceRecorder recorder;
  std::ostringstream out;
  sched::TraceSink sink("load-level", &recorder, &out);
  bus.attach(&sink);
  const ChannelId load = bus.channel("load-level", "fraction");
  bus.begin_phase("", 1e9, 0.0, 0.0);
  for (int i = 0; i < 1000; ++i)
    bus.publish(load, i, i % 2 == 0 ? 0.2 : 0.8);  // every sample is a breakpoint
  bus.finish();

  EXPECT_LE(recorder.breakpoints().size(), 1u);  // pruned down to the newest
  std::size_t rows = 0;
  for (std::size_t pos = out.str().find('\n'); pos != std::string::npos;
       pos = out.str().find('\n', pos + 1))
    ++rows;
  EXPECT_EQ(rows, 1000u);  // file still has every row
  EXPECT_NE(out.str().find("999.000000,80\n"), std::string::npos);
}

TEST(TelemetryBus, LateAttachReplaysChannelsAndPhase) {
  TelemetryBus bus;
  const ChannelId ch = bus.channel("x", "u");
  bus.begin_phase("late", 10.0, 0.0, 0.0);
  SummarySink sink;
  bus.attach(&sink);  // after registration and phase begin
  bus.publish(ch, 0.0, 3.0);
  bus.finish();
  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_EQ(sink.rows()[0].name, "x");
  EXPECT_EQ(sink.rows()[0].phase, "late");
}

TEST(TelemetryBus, HashedChannelLookupPreservesIdsAndOrder) {
  TelemetryBus bus;
  const ChannelId b = bus.channel("beta", "W");
  const ChannelId a = bus.channel("alpha", "W");
  const ChannelId a_other_unit = bus.channel("alpha", "degC");
  // Re-registration is idempotent and returns the original id regardless of
  // how many channels were added in between.
  EXPECT_EQ(bus.channel("beta", "W"), b);
  EXPECT_EQ(bus.channel("alpha", "W"), a);
  EXPECT_EQ(bus.channel("alpha", "degC"), a_other_unit);
  EXPECT_EQ(bus.channel_count(), 3u);
  // Ids are registration order — the summary row order contract.
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(a_other_unit, 2u);
  EXPECT_EQ(bus.info(a).unit, "W");
}

/// Deterministic value stream with enough structure to exercise the P²
/// marker moves and the trim window edges.
double probe_value(std::size_t channel, std::size_t i) {
  const double t = static_cast<double>(i) * 0.05;
  return 100.0 * static_cast<double>(channel + 1) + 25.0 * std::sin(t * 1.3) +
         0.01 * static_cast<double>(i % 97);
}

TEST(TelemetryBatch, PublishBatchBitIdenticalToPerSamplePublish) {
  // Two buses consume the SAME per-channel sample sequences — one sample
  // at a time vs. ragged batches — across multiple phases with real trim
  // deltas. Every summary statistic (including the order-sensitive P²
  // quantiles) must agree TO THE BIT: batching is transport, not
  // semantics.
  TelemetryBus single_bus, batch_bus;
  SummarySink single_sink, batch_sink;
  single_bus.attach(&single_sink);
  batch_bus.attach(&batch_sink);

  std::vector<ChannelId> single_ch, batch_ch;
  for (int c = 0; c < 3; ++c) {
    const std::string name = "ch" + std::to_string(c);
    const TrimMode trim = c == 2 ? TrimMode::kNone : TrimMode::kPhase;
    single_ch.push_back(single_bus.channel(name, "u", trim));
    batch_ch.push_back(batch_bus.channel(name, "u", trim));
  }

  const std::size_t batch_sizes[] = {1, 7, 64, 501, 3};
  for (int phase = 0; phase < 3; ++phase) {
    const std::string phase_name = "p" + std::to_string(phase);
    single_bus.begin_phase(phase_name, 60.0, 2.5, 1.0);
    batch_bus.begin_phase(phase_name, 60.0, 2.5, 1.0);
    const std::size_t samples = 1200 - static_cast<std::size_t>(phase) * 150;
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < samples; ++i)
        single_bus.publish(single_ch[c], i * 0.05, probe_value(c, i));
      std::size_t at = 0;
      std::size_t pick = 0;
      while (at < samples) {
        const std::size_t n = std::min(batch_sizes[pick++ % 5], samples - at);
        std::vector<Sample> chunk;
        for (std::size_t i = 0; i < n; ++i)
          chunk.push_back(Sample{(at + i) * 0.05, probe_value(c, at + i)});
        batch_bus.publish_batch(batch_ch[c], chunk);
        at += n;
      }
    }
    single_bus.end_phase();
    batch_bus.end_phase();
  }
  single_bus.finish();
  batch_bus.finish();

  const auto& expected = single_sink.rows();
  const auto& actual = batch_sink.rows();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(expected[i].name + " / " + expected[i].phase);
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].phase, expected[i].phase);
    EXPECT_EQ(actual[i].samples, expected[i].samples);
    // EXPECT_EQ, not NEAR: bit-identical is the contract.
    EXPECT_EQ(actual[i].mean, expected[i].mean);
    EXPECT_EQ(actual[i].stddev, expected[i].stddev);
    EXPECT_EQ(actual[i].min, expected[i].min);
    EXPECT_EQ(actual[i].max, expected[i].max);
    EXPECT_EQ(actual[i].p50, expected[i].p50);
    EXPECT_EQ(actual[i].p95, expected[i].p95);
    EXPECT_EQ(actual[i].p99, expected[i].p99);
  }
}

TEST(TelemetryBatch, AggregatorBatchMatchesPerSampleMidStream) {
  // add_batch must reach the same state as per-sample add even when
  // summarize() peeks mid-stream (pending holdback in play).
  StreamingAggregator per_sample(1.0, 0.5);
  StreamingAggregator batched(1.0, 0.5);
  std::vector<Sample> chunk;
  for (std::size_t i = 0; i < 400; ++i) {
    const Sample s{i * 0.05, probe_value(0, i)};
    per_sample.add(s.time_s, s.value);
    chunk.push_back(s);
    if (chunk.size() == 37 || i + 1 == 400) {
      batched.add_batch(chunk.data(), chunk.size());
      chunk.clear();
      const StreamingSummary a = per_sample.summarize();
      const StreamingSummary b = batched.summarize();
      EXPECT_EQ(a.samples, b.samples);
      EXPECT_EQ(a.mean, b.mean);
      EXPECT_EQ(a.p99, b.p99);
      EXPECT_EQ(per_sample.total_samples(), batched.total_samples());
    }
  }
  EXPECT_EQ(per_sample.pending(), batched.pending());
}

TEST(TelemetryBatch, NonSummarizedChannelsProduceNoRowsEitherWay) {
  TelemetryBus bus;
  SummarySink sink;
  bus.attach(&sink);
  const ChannelId silent = bus.channel("trace-only", "u", TrimMode::kNone,
                                       /*summarize=*/false);
  const ChannelId loud = bus.channel("kept", "u");
  bus.begin_phase("p", 10.0, 0.0, 0.0);
  std::vector<Sample> chunk{{0.0, 1.0}, {1.0, 2.0}};
  bus.publish_batch(silent, chunk);
  bus.publish_batch(loud, chunk);
  for (int i = 0; i < 4; ++i) bus.publish(silent, 2.0 + i, 3.0);
  bus.finish();
  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_EQ(sink.rows()[0].name, "kept");
}

}  // namespace
}  // namespace fs2::telemetry
