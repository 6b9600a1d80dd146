// Micro benchmark for the span tracer and the metrics plane — the numbers
// behind the <1% gates in scripts/bench_report.sh (see
// docs/observability.md).
//
//   span_disabled_ns    cost of one TRACE_SPAN site with tracing off: a
//                       relaxed atomic load and a branch. This is what every
//                       instrumented hot path pays in production.
//   span_enabled_ns     cost of one recorded span: two clock reads plus the
//                       ring push (two value stores and a release publish).
//   drain_spans_per_s   consumer throughput of Tracer::drain — how fast the
//                       coordinator can pull a fleet's buffered spans off
//                       the rings.
//   counter_add_ns      one Counter::add: a relaxed fetch_add.
//   histogram_record_ns one Histogram::record: frexp + one relaxed
//                       fetch_add on the bucket (+ best-effort sum/max).
//                       Gated at <= 2x counter_add_ns — histograms must be
//                       cheap enough to sit on the same hot paths.
//   metric_update_fold_ns  one full shipping cycle for an agent-sized
//                       registry: MetricDeltaTracker::collect -> encode ->
//                       decode -> MetricStore::fold. What the coordinator
//                       pays per node per --metrics-interval.
//
// Standalone driver (not google-benchmark): the output merges into
// BENCH_cluster.json via scripts/bench_report.sh, which needs plain JSON.

#include <chrono>
#include <cstdio>
#include <vector>

#include "cluster/messages.hpp"
#include "cluster/metrics_plane.hpp"
#include "cluster/wire.hpp"
#include "trace/metric_delta.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"

using Clock = std::chrono::steady_clock;
using fs2::trace::SpanEvent;
using fs2::trace::Tracer;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// ns per TRACE_SPAN site with tracing disabled. The loop body is exactly
/// one instrumented scope; the atomic load inside ScopedSpan's constructor
/// keeps the compiler from deleting it.
double bench_disabled_ns(std::size_t iterations) {
  Tracer::set_enabled(false);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    TRACE_SPAN("bench.disabled");
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(iterations);
}

/// ns per recorded span, draining the ring before it can overflow so every
/// iteration takes the full record path (a dropped span skips the stores).
double bench_enabled_ns(std::size_t iterations) {
  Tracer::reset();
  Tracer::set_enabled(true);
  std::vector<SpanEvent> sink;
  sink.reserve(Tracer::kRingCapacity);
  const std::size_t drain_every = Tracer::kRingCapacity / 2;
  double drain_s = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    TRACE_SPAN("bench.enabled");
    if (i % drain_every == drain_every - 1) {
      const auto d0 = Clock::now();
      sink.clear();
      Tracer::drain(sink);
      drain_s += seconds_since(d0);
    }
  }
  const double total_s = seconds_since(t0);
  Tracer::set_enabled(false);
  if (Tracer::dropped() > 0)
    std::fprintf(stderr, "micro_trace: enabled bench overflowed the ring!\n");
  Tracer::reset();
  return (total_s - drain_s) * 1e9 / static_cast<double>(iterations);
}

/// Spans/sec through Tracer::drain with full rings — the off-hot-path
/// consumer the coordinator runs at end of campaign.
double bench_drain_rate(std::size_t rounds) {
  Tracer::reset();
  Tracer::set_enabled(true);
  std::vector<SpanEvent> sink;
  sink.reserve(Tracer::kRingCapacity);
  std::size_t drained = 0;
  double drain_s = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < Tracer::kRingCapacity; ++i)
      Tracer::record("bench.drain", 1.0, 2.0);
    const auto t0 = Clock::now();
    sink.clear();
    drained += Tracer::drain(sink);
    drain_s += seconds_since(t0);
  }
  Tracer::set_enabled(false);
  Tracer::reset();
  return static_cast<double>(drained) / drain_s;
}

/// ns per Counter::add — the yardstick histogram_record_ns is gated against.
double bench_counter_add_ns(std::size_t iterations) {
  fs2::trace::Registry reg;
  fs2::trace::Counter& counter = reg.counter("bench.counter");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) counter.add();
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(iterations);
  if (counter.value() != iterations) std::fprintf(stderr, "counter bench lost adds\n");
  return ns;
}

/// ns per Histogram::record over a spread of realistic magnitudes (latencies
/// through frame sizes), so the frexp path sees varied exponents instead of
/// one branch-predicted bucket.
double bench_histogram_record_ns(std::size_t iterations) {
  fs2::trace::Registry reg;
  fs2::trace::Histogram& hist = reg.histogram("bench.hist");
  std::vector<double> values(1024);
  double v = 3.1e-7;
  for (double& out : values) {
    out = v;
    v *= 1.37;
    if (v > 2.0e6) v = 3.1e-7;
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) hist.record(values[i & 1023]);
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(iterations);
  if (hist.snapshot("x").count != iterations)
    std::fprintf(stderr, "histogram bench lost records\n");
  return ns;
}

/// ns per full kMetricUpdate shipping cycle for one agent-sized registry
/// (the mix an agent actually carries: a few counters, gauges, and two
/// histograms): collect the delta, encode it, decode it, fold it into the
/// coordinator's MetricStore. Multiplied by fleet size over the shipping
/// interval, this is the coordinator-side cost of the live metrics plane.
double bench_metric_update_fold_ns(std::size_t cycles) {
  fs2::trace::Registry reg;
  fs2::trace::Counter& exchanges = reg.counter("agent.budget_exchanges");
  fs2::trace::Gauge& achieved = reg.gauge("agent.achieved_w");
  fs2::trace::Gauge& setpoint = reg.gauge("agent.setpoint_w");
  fs2::trace::Gauge& level = reg.gauge("agent.level");
  fs2::trace::Gauge& phase = reg.gauge("agent.phase");
  fs2::trace::Histogram& error = reg.histogram("agent.ctl_error_w");
  fs2::trace::Histogram& poll = reg.histogram("reactor.poll_wait_s");
  fs2::trace::MetricDeltaTracker tracker(reg);
  fs2::cluster::MetricStore store;
  store.resize(1);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cycles; ++i) {
    // An interval's worth of registry movement (a couple of control ticks).
    exchanges.add(2);
    achieved.set(250.0 + static_cast<double>(i % 16));
    setpoint.set(250.0);
    level.set(0.6);
    phase.set(static_cast<double>(i % 8));
    error.record(0.4 + 0.01 * static_cast<double>(i % 32));
    error.record(1.9);
    poll.record(2.5e-4);
    poll.record(9.0e-4);

    fs2::cluster::MetricUpdateMsg msg;
    msg.seq = static_cast<std::uint32_t>(i);
    msg.t_agent_s = 0.001 * static_cast<double>(i);
    msg.delta = tracker.collect();
    const fs2::cluster::Frame frame = msg.encode();
    fs2::cluster::WireReader reader(frame.payload);
    store.fold(0, fs2::cluster::MetricUpdateMsg::decode(reader),
               /*now_s=*/msg.t_agent_s);
  }
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(cycles);
  if (store.nodes()[0].updates != cycles)
    std::fprintf(stderr, "fold bench lost updates\n");
  return ns;
}

}  // namespace

int main() {
  constexpr std::size_t kIterations = 20'000'000;
  // Warm up once so the thread ring exists before anything is timed.
  { TRACE_SPAN("bench.warmup"); }

  const double disabled_ns = bench_disabled_ns(kIterations);
  const double enabled_ns = bench_enabled_ns(kIterations / 10);
  const double drain_rate = bench_drain_rate(/*rounds=*/64);
  const double counter_ns = bench_counter_add_ns(kIterations);
  const double histogram_ns = bench_histogram_record_ns(kIterations);
  const double fold_ns = bench_metric_update_fold_ns(/*cycles=*/200'000);

  std::printf("{\n");
  std::printf("  \"span_disabled_ns\": %.3f,\n", disabled_ns);
  std::printf("  \"span_enabled_ns\": %.2f,\n", enabled_ns);
  std::printf("  \"drain_spans_per_s\": %.0f,\n", drain_rate);
  std::printf("  \"counter_add_ns\": %.3f,\n", counter_ns);
  std::printf("  \"histogram_record_ns\": %.3f,\n", histogram_ns);
  std::printf("  \"metric_update_fold_ns\": %.1f\n", fold_ns);
  std::printf("}\n");
  return 0;
}
