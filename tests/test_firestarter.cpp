// Tests for the top-level orchestration: CLI parsing (every paper flag),
// the simulated stress/optimization paths end to end, and the evaluation
// backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "firestarter/backends.hpp"
#include "firestarter/config.hpp"
#include "firestarter/firestarter.hpp"
#include "metrics/measurement.hpp"
#include "payload/compiler.hpp"
#include "telemetry/streaming_aggregator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fs2::firestarter {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"fs2"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

// ---- CLI parsing -----------------------------------------------------------

TEST(Cli, DefaultsMatchPaper) {
  const Config cfg = parse({});
  EXPECT_FALSE(cfg.optimize);
  EXPECT_DOUBLE_EQ(cfg.load, 1.0);
  EXPECT_EQ(cfg.individuals, 40u);      // Sec. IV-E defaults
  EXPECT_EQ(cfg.generations, 20u);
  EXPECT_DOUBLE_EQ(cfg.nsga2_m, 0.35);
  EXPECT_DOUBLE_EQ(cfg.preheat_s, 240.0);
  EXPECT_DOUBLE_EQ(cfg.start_delta_s, 5.0);   // Sec. III-D defaults
  EXPECT_DOUBLE_EQ(cfg.stop_delta_s, 2.0);
  EXPECT_EQ(cfg.target, TargetSystem::kHost);
}

TEST(Cli, PaperSectionIVEFlagSet) {
  // The exact flag set of Sec. IV-E (modulo the metric plugin path).
  const Config cfg = parse({"--optimize=NSGA2", "--individuals=40", "--generations=20",
                            "--nsga2-m=0.35", "-t", "10", "--preheat=240",
                            "--optimization-metric=metricq,perf-ipc",
                            "--metric-path=libmetric-metricq.so"});
  EXPECT_TRUE(cfg.optimize);
  EXPECT_EQ(cfg.individuals, 40u);
  EXPECT_EQ(cfg.generations, 20u);
  EXPECT_DOUBLE_EQ(cfg.nsga2_m, 0.35);
  EXPECT_DOUBLE_EQ(cfg.candidate_duration_s, 10.0);
  EXPECT_DOUBLE_EQ(cfg.preheat_s, 240.0);
  ASSERT_EQ(cfg.optimization_metrics.size(), 2u);
  EXPECT_EQ(cfg.optimization_metrics[0], "metricq");
  EXPECT_EQ(cfg.optimization_metrics[1], "perf-ipc");
  EXPECT_EQ(*cfg.metric_path, "libmetric-metricq.so");
}

TEST(Cli, MeasurementFlags) {
  // Footnote 12: --measurement -t 240 --start-delta=120000 --stop-delta=2000.
  const Config cfg =
      parse({"--measurement", "-t", "240", "--start-delta=120000", "--stop-delta=2000"});
  EXPECT_TRUE(cfg.measurement);
  EXPECT_DOUBLE_EQ(cfg.timeout_s, 240.0);
  EXPECT_DOUBLE_EQ(cfg.start_delta_s, 120.0);
  EXPECT_DOUBLE_EQ(cfg.stop_delta_s, 2.0);
}

TEST(Cli, WorkloadFlags) {
  const Config cfg = parse({"-i", "4", "--run-instruction-groups=REG:4,L1_L:2,L2_L:1",
                            "--set-line-count=1234", "--allow-infinity-bug"});
  EXPECT_EQ(*cfg.function_id, 4);
  EXPECT_EQ(*cfg.instruction_groups, "REG:4,L1_L:2,L2_L:1");
  EXPECT_EQ(*cfg.line_count, 1234u);
  EXPECT_TRUE(cfg.v174_bug_mode);
}

TEST(Cli, FunctionByName) {
  const Config cfg = parse({"--function", "FUNC_FMA_256_ZEN2"});
  EXPECT_FALSE(cfg.function_id.has_value());
  EXPECT_EQ(*cfg.function_name, "FUNC_FMA_256_ZEN2");
}

TEST(Cli, SimulationTargets) {
  EXPECT_EQ(parse({"--simulate"}).target, TargetSystem::kSimZen2);
  EXPECT_EQ(parse({"--simulate=zen2"}).target, TargetSystem::kSimZen2);
  EXPECT_EQ(parse({"--simulate=haswell"}).target, TargetSystem::kSimHaswell);
  EXPECT_EQ(parse({"--simulate=haswell-gpu"}).target, TargetSystem::kSimHaswellGpu);
  EXPECT_THROW(parse({"--simulate=sparc"}), ConfigError);
}

TEST(Cli, LoadIsPercent) {
  EXPECT_DOUBLE_EQ(parse({"--load", "50"}).load, 0.5);
  EXPECT_THROW(parse({"--load", "150"}), ConfigError);
}

TEST(Cli, PeriodIsMicroseconds) {
  EXPECT_DOUBLE_EQ(parse({}).period_s, 0.1);  // paper default: 100 ms
  EXPECT_DOUBLE_EQ(parse({"-p", "50000"}).period_s, 0.05);
  EXPECT_DOUBLE_EQ(parse({"--period=200000"}).period_s, 0.2);
  EXPECT_THROW(parse({"--period", "0"}), ConfigError);
  EXPECT_THROW(parse({"-p", "-10"}), ConfigError);
  EXPECT_THROW(parse({"-p", "nan"}), ConfigError);  // strtod accepts "nan"; we don't
}

TEST(Cli, LoadScheduleFlags) {
  // One parse per run mode: a single run takes the profile, a campaign the
  // file (its phases carry their own profiles).
  const Config single = parse({"--load-profile=sine:low=10,high=90,period=2",
                               "--phase-offset=250000"});
  EXPECT_EQ(*single.load_profile, "sine:low=10,high=90,period=2");
  EXPECT_DOUBLE_EQ(single.phase_offset_s, 0.25);
  const Config campaign = parse({"--campaign", "burnin.campaign"});
  EXPECT_EQ(*campaign.campaign_file, "burnin.campaign");
  EXPECT_FALSE(parse({}).load_profile.has_value());
  EXPECT_FALSE(parse({}).campaign_file.has_value());
  EXPECT_THROW(parse({"--phase-offset=-1"}), ConfigError);
}

TEST(Cli, RejectsBadInput) {
  EXPECT_THROW(parse({"--bogus-flag"}), ConfigError);
  EXPECT_THROW(parse({"--set-line-count", "abc"}), ConfigError);
  EXPECT_THROW(parse({"--optimize=SIMPLEX"}), ConfigError);
  EXPECT_THROW(parse({"--nsga2-m=1.5"}), ConfigError);
  EXPECT_THROW(parse({"-t"}), ConfigError);  // missing value
  // A candidate window shorter than two 20 Sa/s samples.
  EXPECT_THROW(parse({"--optimize=NSGA2", "-t", "0.04"}), ConfigError);
  EXPECT_THROW(parse({"-t", "0.06", "--optimize=NSGA2"}), ConfigError);
  EXPECT_DOUBLE_EQ(parse({"--optimize=NSGA2", "-t", "0.1"}).candidate_duration_s, 0.1);
  EXPECT_DOUBLE_EQ(parse({"-t", "0.04"}).timeout_s, 0.04);  // no window without --optimize
}

TEST(Cli, OptimizeDefaultsMetrics) {
  const Config cfg = parse({"--optimize=NSGA2"});
  ASSERT_EQ(cfg.optimization_metrics.size(), 2u);
  EXPECT_EQ(cfg.optimization_metrics[0], "power");
  EXPECT_EQ(cfg.optimization_metrics[1], "ipc");
}

TEST(Cli, UsageMentionsEveryUserFlag) {
  const std::string text = usage();
  for (const char* flag :
       {"--avail", "--function", "--run-instruction-groups", "--set-line-count", "--timeout",
        "--load", "--period", "--load-profile", "--phase-offset", "--campaign", "--threads",
        "--dump-registers", "--measurement", "--start-delta", "--stop-delta", "--optimize",
        "--individuals", "--generations", "--nsga2-m", "--preheat", "--optimization-metric",
        "--metric-path", "--simulate", "--freq"})
    EXPECT_NE(text.find(flag), std::string::npos) << flag;
}

// ---- orchestration (simulated, fast) ------------------------------------------

int run_fs2(std::initializer_list<const char*> args, std::string* output) {
  Config cfg = parse(args);
  std::ostringstream out;
  Firestarter app(std::move(cfg), out);
  const int rc = app.run();
  *output = out.str();
  return rc;
}

TEST(App, ListFunctions) {
  std::string out;
  EXPECT_EQ(run_fs2({"--avail"}, &out), 0);
  EXPECT_NE(out.find("FUNC_FMA_256_ZEN2"), std::string::npos);
  EXPECT_NE(out.find("FUNC_SSE2_128"), std::string::npos);
}

TEST(App, ListMetrics) {
  std::string out;
  EXPECT_EQ(run_fs2({"--list-metrics"}, &out), 0);
  EXPECT_NE(out.find("sysfs-powercap-rapl"), std::string::npos);
  EXPECT_NE(out.find("ipc-estimate"), std::string::npos);
}

TEST(App, SimulatedStressRunReportsSteadyState) {
  std::string out;
  EXPECT_EQ(run_fs2({"--simulate=zen2", "--freq", "1500", "-t", "30", "--measurement",
                     "--start-delta=2000", "--stop-delta=1000"},
                    &out),
            0);
  EXPECT_NE(out.find("2x AMD EPYC 7502"), std::string::npos);
  EXPECT_NE(out.find("FUNC_FMA_256_ZEN2"), std::string::npos);
  EXPECT_NE(out.find("steady state:"), std::string::npos);
  EXPECT_NE(out.find("sim-wall-power"), std::string::npos);
}

TEST(App, SimulatedInfinityBugLowersReportedPower) {
  auto power_of = [](bool bug) {
    std::string out;
    if (bug)
      run_fs2({"--simulate=zen2", "--run-instruction-groups=REG:1", "--allow-infinity-bug"},
              &out);
    else
      run_fs2({"--simulate=zen2", "--run-instruction-groups=REG:1"}, &out);
    const auto pos = out.find("steady state: ");
    EXPECT_NE(pos, std::string::npos);
    return std::stod(out.substr(pos + 14));
  };
  EXPECT_GT(power_of(false), power_of(true));
}

TEST(App, SimulatedOptimizationEndToEnd) {
  std::string out;
  EXPECT_EQ(run_fs2({"--simulate=zen2", "--freq", "1500", "--optimize=NSGA2",
                     "--individuals=8", "--generations=3", "-t", "5",
                     "--optimization-log=/tmp/fs2_test_opt.csv"},
                    &out),
            0);
  EXPECT_NE(out.find("selected optimum:"), std::string::npos);
  EXPECT_NE(out.find("candidate evaluations logged"), std::string::npos);
  // 8 individuals x (initial + 3 generations) = 32 evaluations.
  EXPECT_NE(out.find("32 candidate evaluations"), std::string::npos);
}

// ---- backends -------------------------------------------------------------------

TEST(SimBackendTest, MoreMemoryLevelsScoreHigherPower) {
  sim::SimulatedSystem system(sim::MachineConfig::zen2_epyc7502_2s());
  sim::RunConditions cond;
  cond.freq_mhz = 1500;
  SimBackend backend(system, payload::find_function("FUNC_FMA_256_ZEN2").mix,
                     arch::CacheHierarchy::zen2(), cond, /*duration=*/5.0, /*seed=*/1);
  backend.preheat();
  const auto reg = backend.evaluate(payload::InstructionGroups::parse("REG:1"));
  const auto l2 = backend.evaluate(payload::InstructionGroups::parse("L2_LS:3,L1_LS:12,REG:6"));
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_GT(l2[0], reg[0]);          // more power
  EXPECT_GT(reg[1], 3.5);            // REG-only IPC near 4
  EXPECT_EQ(backend.objective_names().size(), 2u);
}

TEST(SimBackendTest, EvaluationIsApproximatelyDeterministic) {
  sim::SimulatedSystem system(sim::MachineConfig::zen2_epyc7502_2s());
  sim::RunConditions cond;
  cond.freq_mhz = 1500;
  SimBackend backend(system, payload::find_function("FUNC_FMA_256_ZEN2").mix,
                     arch::CacheHierarchy::zen2(), cond, 5.0, 1);
  const auto a = backend.evaluate(payload::InstructionGroups::parse("REG:1"));
  const auto b = backend.evaluate(payload::InstructionGroups::parse("REG:1"));
  // Different measurement noise per evaluation, but within the noise band.
  EXPECT_NEAR(a[0], b[0], a[0] * 0.01);
  EXPECT_DOUBLE_EQ(a[1], b[1]);  // IPC has no noise
}

TEST(SimBackendTest, WindowMatchesStreamingReference) {
  // The objectives are exactly the means a telemetry::StreamingAggregator window
  // reports over the same samples: the simulated LMG95 at 20 Sa/s with
  // 0.4 % noise from Xoshiro256(seed + n) on the n-th evaluation, and the
  // noiseless IPC counter, with a start trim of 10 % (at most 1 s).
  // 0.06 s leaves one sample at t = 0, which the trim removes, so the
  // window falls back to the untrimmed mean.
  const auto& mix = payload::find_function("FUNC_FMA_256_ZEN2").mix;
  const auto caches = arch::CacheHierarchy::zen2();
  sim::RunConditions cond;
  cond.freq_mhz = 2000;
  const std::uint64_t seed = 17;
  for (const double duration : {10.0, 5.0, 0.5, 0.12, 0.06}) {
    SCOPED_TRACE(duration);
    sim::SimulatedSystem system(sim::MachineConfig::zen2_epyc7502_2s());
    SimBackend backend(system, mix, caches, cond, duration, seed);
    tuning::GroupsProblem problem(backend);
    Xoshiro256 genomes(static_cast<std::uint64_t>(duration * 100.0));
    for (std::uint64_t n = 1; n <= 50; ++n) {
      tuning::Genome genome(problem.genome_length());
      for (std::size_t i = 0; i < genome.size(); ++i)
        genome[i] = static_cast<std::uint32_t>(genomes.below(problem.gene_max(i) + 1));
      const std::vector<double> objectives = problem.evaluate(genome);

      const sim::WorkloadPoint point = system.simulator().run(
          payload::analyze_payload(mix, tuning::GroupsProblem::to_groups(genome), caches), cond);
      EXPECT_EQ(system.point().power_w, point.power_w);  // published for other readers
      const double trim = std::min(1.0, duration * 0.1);
      telemetry::StreamingAggregator power(trim, 0.0);
      telemetry::StreamingAggregator ipc(trim, 0.0);
      Xoshiro256 noise(seed + n);
      const auto samples = static_cast<std::size_t>(duration * 20.0);
      for (std::size_t i = 0; i < samples; ++i) {
        const double t = static_cast<double>(i) / 20.0;
        power.add(t, point.power_w * (1.0 + 0.004 * noise.normal()));
        ipc.add(t, point.ipc_per_core);
      }
      ASSERT_EQ(objectives.size(), 2u);
      EXPECT_EQ(objectives[0], power.summarize().mean);
      EXPECT_EQ(objectives[1], ipc.summarize().mean);
    }
  }
  // 0.04 s at 20 Sa/s is no sample at all.
  sim::SimulatedSystem system(sim::MachineConfig::zen2_epyc7502_2s());
  SimBackend backend(system, mix, caches, cond, 0.04, seed);
  EXPECT_THROW(backend.evaluate(payload::InstructionGroups::parse("REG:1")), Error);
}

}  // namespace
}  // namespace fs2::firestarter
