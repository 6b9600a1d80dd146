// Tests for the metric framework: measurement windows with start/stop-delta
// trimming, RAPL sysfs parsing against fixture trees (including counter
// wraparound), the perf/estimate IPC pair, external plugin and command
// metrics, and the simulated system's idle point.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "metrics/external.hpp"
#include "metrics/hw_events.hpp"
#include "metrics/ipc_estimate.hpp"
#include "metrics/measurement.hpp"
#include "metrics/rapl.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/streaming_aggregator.hpp"
#include "util/error.hpp"

namespace fs2::metrics {
namespace {

namespace fs = std::filesystem;

// ---- measurement windows ------------------------------------------------------

TEST(TimeSeries, TrimmingMatchesPaperSemantics) {
  // Sec. III-D: average over the runtime excluding start/stop deltas. The
  // window streams one-pass, so the deltas bind when it opens.
  telemetry::StreamingAggregator series(/*start_delta_s=*/10.0, /*stop_delta_s=*/2.0);
  for (int t = 0; t <= 100; ++t) series.add(t, t < 10 ? 1000.0 : 300.0);
  const telemetry::StreamingSummary summary = series.summarize();
  EXPECT_DOUBLE_EQ(summary.mean, 300.0);  // warm-up spike trimmed away
  EXPECT_EQ(summary.samples, 89u);        // t in [10, 98]
  EXPECT_DOUBLE_EQ(summary.p50, 300.0);   // constant plateau: all quantiles agree
  EXPECT_DOUBLE_EQ(summary.p99, 300.0);
}

TEST(TimeSeries, OverTrimmingFallsBackToUntrimmedAggregate) {
  // A run shorter than start+stop deltas must not abort a smoke run; the
  // summary degrades to the untrimmed aggregate.
  telemetry::StreamingAggregator series(5.0, 5.0);
  series.add(0.0, 1.0);
  series.add(1.0, 2.0);
  const telemetry::StreamingSummary summary = series.summarize();
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_DOUBLE_EQ(summary.mean, 1.5);
}

TEST(TimeSeries, CsvOutputFormat) {
  Summary summary;
  summary.name = "power";
  summary.unit = "W";
  summary.mean = 150.0;
  summary.samples = 2;
  std::ostringstream out;
  print_csv(out, {summary});
  const std::string text = out.str();
  EXPECT_NE(text.find("metric,unit,samples,mean,stddev,min,max,p50,p95,p99,phase"),
            std::string::npos);
  EXPECT_NE(text.find("power,W,2,150.0000"), std::string::npos);
}

// ---- RAPL -------------------------------------------------------------------------

class RaplFixture : public testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("fs2_rapl_" + std::string(
                               testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void add_domain(const std::string& dir, const std::string& name, std::uint64_t energy_uj,
                  std::uint64_t range_uj = 262143328850ull) {
    const fs::path d = root_ / "class" / "powercap" / dir;
    fs::create_directories(d);
    write(d / "name", name);
    write(d / "energy_uj", std::to_string(energy_uj));
    write(d / "max_energy_range_uj", std::to_string(range_uj));
  }

  void set_energy(const std::string& dir, std::uint64_t energy_uj) {
    write(root_ / "class" / "powercap" / dir / "energy_uj", std::to_string(energy_uj));
  }

  static void write(const fs::path& path, const std::string& text) {
    std::ofstream out(path);
    out << text << "\n";
  }

  fs::path root_;
};

TEST_F(RaplFixture, FindsPackageDomainsOnly) {
  add_domain("intel-rapl:0", "package-0", 1000);
  add_domain("intel-rapl:1", "package-1", 2000);
  add_domain("intel-rapl:0:0", "dram", 500);   // subdomain: must be ignored
  add_domain("intel-rapl:0:1", "core", 300);   // subdomain: must be ignored
  RaplReader reader(root_.string());
  ASSERT_TRUE(reader.available());
  EXPECT_EQ(reader.domains().size(), 2u);
  EXPECT_EQ(reader.read_total_uj(), 3000u);
}

TEST_F(RaplFixture, MissingTreeIsUnavailable) {
  RaplReader reader(root_.string());
  EXPECT_FALSE(reader.available());
  RaplPowerMetric metric(root_.string());
  EXPECT_FALSE(metric.available());
}

TEST_F(RaplFixture, PowerFromEnergyDeltas) {
  add_domain("intel-rapl:0", "package-0", 1'000'000);
  RaplPowerMetric metric(root_.string());
  ASSERT_TRUE(metric.available());
  metric.begin();
  // 0.2 J over ~20 ms -> ~10 W. Use generous bounds: the clock is real.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  set_energy("intel-rapl:0", 1'200'000);
  const double watts = metric.sample();
  EXPECT_GT(watts, 1.0);
  EXPECT_LT(watts, 25.0);
}

TEST_F(RaplFixture, WraparoundCorrected) {
  add_domain("intel-rapl:0", "package-0", 1000, /*range=*/10'000'000);
  RaplPowerMetric metric(root_.string());
  metric.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  set_energy("intel-rapl:0", 500);  // counter wrapped past 10 J
  const double watts = metric.sample();
  // Delta = 500 + 10'000'000 - 1000 ~ 10 J over ~10 ms: large but positive.
  EXPECT_GT(watts, 0.0);
}

// ---- perf + estimate ------------------------------------------------------------------

TEST(PerfIpc, GracefulWhetherAvailableOrNot) {
  PerfIpcMetric metric;
  if (!metric.available()) {
    EXPECT_EQ(metric.sample(), 0.0);  // must not crash or throw
    return;
  }
  metric.begin();
  // Burn some instructions so the counters move.
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 2'000'000; ++i) x = x + static_cast<std::uint64_t>(i);
  const double ipc = metric.sample();
  EXPECT_GT(ipc, 0.0);
  EXPECT_LT(ipc, 10.0);
}

TEST(IpcEstimate, ComputesFromLoopCounter) {
  std::atomic<std::uint64_t> iterations{0};
  IpcEstimateMetric metric([&] { return iterations.load(); },
                           /*instr_per_iter=*/1000.0, /*assumed_mhz=*/2000.0, /*cores=*/2);
  ASSERT_TRUE(metric.available());
  metric.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Pretend workers executed enough loops for IPC ~ 2.0 at 2 GHz x 2 cores:
  // instructions = dt * 2e9 * 2 * 2.0; iterations = instructions / 1000.
  iterations.store(static_cast<std::uint64_t>(0.05 * 2e9 * 2 * 2.0 / 1000.0));
  const double ipc = metric.sample();
  EXPECT_GT(ipc, 0.5);
  EXPECT_LT(ipc, 4.0);
}

TEST(IpcEstimate, ZeroWithoutProgress) {
  IpcEstimateMetric metric([] { return std::uint64_t{42}; }, 100.0, 2000.0, 1);
  metric.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_DOUBLE_EQ(metric.sample(), 0.0);
}

TEST(IpcEstimate, ReconfigureChangesScale) {
  std::atomic<std::uint64_t> iterations{0};
  IpcEstimateMetric metric([&] { return iterations.load(); }, 1000.0, 2000.0, 1);
  metric.reconfigure(2000.0, 2000.0, 1);  // doubled instructions per loop
  metric.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  iterations.store(10000);
  const double doubled = metric.sample();
  EXPECT_GT(doubled, 0.0);
}

// ---- external metrics -------------------------------------------------------------------

TEST(PluginMetric, LoadsFixturePlugin) {
  PluginMetric metric(FS2_TEST_PLUGIN_PATH);
  ASSERT_TRUE(metric.available());
  EXPECT_EQ(metric.name(), "fixture-power");
  EXPECT_EQ(metric.unit(), "W");
  metric.begin();
  const double first = metric.sample();
  const double second = metric.sample();
  EXPECT_DOUBLE_EQ(first, 100.0);
  EXPECT_DOUBLE_EQ(second, 101.0);
}

TEST(PluginMetric, MissingLibraryIsUnavailableNotFatal) {
  PluginMetric metric("/nonexistent/libmetric.so");
  EXPECT_FALSE(metric.available());
  EXPECT_EQ(metric.sample(), 0.0);
  EXPECT_NE(metric.name().find("plugin("), std::string::npos);
}

TEST(CommandMetric, ParsesCommandOutput) {
  CommandMetric metric("echo 42.5", "test-cmd", "W");
  ASSERT_TRUE(metric.available());
  EXPECT_DOUBLE_EQ(metric.sample(), 42.5);
}

TEST(CommandMetric, FailingCommandDegradesGracefully) {
  CommandMetric metric("false", "broken", "W");
  EXPECT_DOUBLE_EQ(metric.sample(), 0.0);
  EXPECT_FALSE(metric.available());  // degraded after first failure
  EXPECT_DOUBLE_EQ(metric.sample(), 0.0);
}

// ---- hardware events ------------------------------------------------------------------

TEST(HwEvents, NamedEventEncodings) {
  // The raw encodings from the AMD Family 17h PPR the paper cites.
  EXPECT_EQ(HwEvent::zen2_uops_from_decoder().config, 0x01AAu);
  EXPECT_EQ(HwEvent::zen2_uops_from_opcache().config, 0x02AAu);
  EXPECT_EQ(HwEvent::zen2_cycles_not_in_halt().config, 0x76u);
}

TEST(HwEvents, GroupGracefulWhetherAvailableOrNot) {
  HwEventGroup group({HwEvent::instructions(), HwEvent::cycles()});
  if (!group.available()) {
    EXPECT_EQ(group.read(), (std::vector<std::uint64_t>{0, 0}));
    return;
  }
  group.begin();
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 500000; ++i) x = x + static_cast<std::uint64_t>(i);
  const auto values = group.read();
  EXPECT_GT(values[0], 100000u);  // instructions moved
  EXPECT_GT(values[1], 0u);       // cycles moved
}

TEST(HwEvents, RatioMetricBounded) {
  HwRatioMetric metric("test-ipc", HwEvent::instructions(), HwEvent::cycles());
  if (!metric.available()) {
    EXPECT_EQ(metric.sample(), 0.0);
    return;
  }
  metric.begin();
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 500000; ++i) x = x + static_cast<std::uint64_t>(i);
  const double ratio = metric.sample();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(HwEvents, UnknownRawEventIsUnavailableNotFatal) {
  // A nonsense raw event must not crash, just come back unavailable or
  // zero-counting depending on the PMU.
  HwEventGroup group({HwEvent{"bogus", 4 /*RAW*/, 0xDEAD}});
  (void)group.read();
  SUCCEED();
}

// ---- simulated metrics ----------------------------------------------------------------------

TEST(SimMetrics, IdleBeforeAnyPointIsPublished) {
  sim::SimulatedSystem system(sim::MachineConfig::zen2_epyc7502_2s());
  EXPECT_DOUBLE_EQ(system.point().power_w, system.simulator().idle().power_w);
}

}  // namespace
}  // namespace fs2::metrics
