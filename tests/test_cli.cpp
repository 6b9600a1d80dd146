// End-to-end tests of the installed `fs2` binary via subprocess — the
// outermost integration layer (argument handling, exit codes, output
// formatting), exercised exactly the way a user runs it. The flag-table
// test also reads the table and calls parse_args in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "firestarter/config.hpp"
#include "temp_file.hpp"
#include "util/error.hpp"

namespace {

using fs2::tests::TempCampaign;
using fs2::tests::TempFile;

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult run_cli(const std::string& args) {
  const std::string command = std::string(FS2_BINARY_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  CliResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr)
    result.output += buffer.data();
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(Cli, HelpExitsZeroAndListsFlags) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--run-instruction-groups"), std::string::npos);
  EXPECT_NE(r.output.find("--optimize=NSGA2"), std::string::npos);
}

TEST(Cli, VersionPrints) {
  const CliResult r = run_cli("--version");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("fs2 2.0.0"), std::string::npos);
}

TEST(Cli, AvailListsAllFunctions) {
  const CliResult r = run_cli("--avail");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("FUNC_FMA_256_ZEN2"), std::string::npos);
  EXPECT_NE(r.output.find("FUNC_AVX512_512_SKX"), std::string::npos);
}

TEST(Cli, UnknownFlagExitsTwoWithHint) {
  const CliResult r = run_cli("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos);
  EXPECT_NE(r.output.find("--help"), std::string::npos);
}

TEST(Cli, MalformedGroupsExitsTwo) {
  const CliResult r = run_cli("--simulate=zen2 --run-instruction-groups=L1_P:1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown access kind"), std::string::npos);
}

TEST(Cli, SimulatedRunPrintsSteadyStateAndCsv) {
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 -t 30 --measurement --start-delta=2000 --stop-delta=1000");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("steady state:"), std::string::npos);
  EXPECT_NE(r.output.find("metric,unit,samples,mean"), std::string::npos);
}

TEST(Cli, PaperMeasurementWindowKeepsCliDeltas) {
  // Footnote 12's invocation: a 240 s run trimmed by 120 s at the start and
  // 2 s at the end. A single run keeps those deltas as given; the campaign
  // clamp to a quarter of the phase would trim only 60 s (3560 samples).
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 -t 240 --measurement --start-delta=120000 "
      "--stop-delta=2000 --log-level warn");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\nsim-wall-power,W,2360,426.3082,"), std::string::npos) << r.output;
}

TEST(Cli, ShortClosedLoopRunKeepsCliDeltas) {
  // Every single run trims by the CLI deltas as given, closed-loop ones
  // too: a 10 s run keeps the 5 s / 2 s defaults (13 controller ticks of
  // 0.25 s); the campaign clamp to a quarter of the phase would keep 23.
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 -t 10 --target power=300W --measurement --log-level warn");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\nsim-wall-power,W,13,"), std::string::npos) << r.output;
}

TEST(Cli, SimulatedHaswellGpuRun) {
  const CliResult r = run_cli("--simulate=haswell-gpu --freq 2000 -t 10");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("E5-2680 v3"), std::string::npos);
}

TEST(Cli, SimulatedOptimizationSmoke) {
  const TempFile log("opt.csv");
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 --optimize=NSGA2 --individuals=6 --generations=2 -t 5 "
      "--optimization-log=" + log.path());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("selected optimum:"), std::string::npos);
  EXPECT_NE(r.output.find("18 candidate evaluations"), std::string::npos);
}

TEST(Cli, SimulatedOptimizationRejectsPreheat) {
  // The simulated candidate window starts warm: there is no ramp for a
  // preheat to absorb.
  const CliResult r = run_cli("--simulate=zen2 --optimize=NSGA2 --preheat 10");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--preheat only applies to host --optimize"), std::string::npos)
      << r.output;
}

TEST(Cli, SimulatedOptimizationRejectsOptimizationMetric) {
  // The simulated candidate window always measures power and IPC.
  const CliResult r = run_cli("--optimize=NSGA2 --optimization-metric ipc --simulate=zen2");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--optimization-metric only applies to host --optimize"),
            std::string::npos)
      << r.output;
}

/// A host NSGA-II run small enough for a test: one worker, 0.2 s candidate
/// windows, four candidate evaluations.
const std::string kHostTuning =
    "--optimize=NSGA2 --threads 1 -t 0.2 --individuals 2 --generations 1 --log-level warn ";

TEST(Cli, HostOptimizationRejectsUnknownMetric) {
  const CliResult r = run_cli(kHostTuning + "--preheat 0 --optimization-metric bogus");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("no metric 'bogus'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ipc-estimate"), std::string::npos) << r.output;  // what it offers
  EXPECT_EQ(r.output.find("preheat ("), std::string::npos) << r.output;  // before any stress
}

TEST(Cli, HostOptimizationLogsTheNamedObjectives) {
  // The paper's form: the objectives are the metrics --optimization-metric
  // names, here the --metric-path plugin's reading and the IPC estimate.
  const TempFile log("objectives.csv");
  const CliResult r = run_cli(kHostTuning +
                              "--preheat 0 --optimization-metric=fixture-power,ipc-estimate "
                              "--metric-path=" FS2_TEST_PLUGIN_PATH " --optimization-log " +
                              log.path());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("only one objective"), std::string::npos) << r.output;
  std::ifstream in(log.path());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "order,generation,fixture-power,ipc-estimate,genome");
}

TEST(Cli, HostPreheatRunsForItsDuration) {
  // --preheat 1 runs the default payload for 1 s before the first
  // candidate, so the first two worker set-ups start at least 1 s apart.
  const TempFile trace("trace.json");
  const CliResult r = run_cli(kHostTuning + "--preheat 1 --trace-out " + trace.path());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(trace.path());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const std::string key = "\"kernel.buffer_init\",\"ph\":\"X\",\"ts\":";
  std::vector<long long> begins_us;
  for (auto at = json.find(key); at != std::string::npos; at = json.find(key, at + 1))
    begins_us.push_back(std::stoll(json.substr(at + key.size())));
  std::sort(begins_us.begin(), begins_us.end());
  ASSERT_GE(begins_us.size(), 2u) << json;
  EXPECT_GE(begins_us[1] - begins_us[0], 1000000) << json;
}

TEST(Cli, HostStressShortRun) {
  // Two worker threads for half a second on the real machine.
  const CliResult r = run_cli("-t 0.5 --threads 2 --log-level warn");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("kernel loop iterations"), std::string::npos);
}

TEST(Cli, SelftestPassesAndExitsZero) {
  const CliResult r = run_cli("--selftest=20000 --threads 2 --log-level warn");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("PASS"), std::string::npos);
}

TEST(Cli, SelftestRejectsSimulate) {
  // The self-test JIT-runs the payload on the host's CPUs; a simulated CPU
  // has none to check, so the pair is a config error naming both flags.
  const CliResult r = run_cli("--simulate=zen2 --selftest=2000 --threads 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--simulate only applies to"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("--selftest only applies to host --selftest runs"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("PASS"), std::string::npos) << r.output;
}

TEST(Cli, PeriodMustBePositive) {
  const CliResult r = run_cli("--simulate=zen2 -p 0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--period"), std::string::npos);
}

TEST(Cli, UnknownLoadProfileExitsTwo) {
  const CliResult r = run_cli("--simulate=zen2 -t 10 --load-profile=sawtooth");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown profile kind"), std::string::npos);
}

TEST(Cli, SimulatedSineProfileRun) {
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 -t 30 --load-profile=sine:low=10,high=90,period=5 "
      "--measurement --start-delta=2000 --stop-delta=1000");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("load profile: sine"), std::string::npos);
  EXPECT_NE(r.output.find("load-level,fraction"), std::string::npos);
}

TEST(Cli, SimulatedSquareProfileRun) {
  const CliResult r = run_cli(
      "--simulate=zen2 -t 20 --load-profile=square:low=0,high=100,period=4 "
      "--measurement --start-delta=0 --stop-delta=0");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("load profile: square"), std::string::npos);
}

TEST(Cli, SimulatedTraceProfileRun) {
  const TempFile trace("trace.csv", "# recorded load\n0,20\n5,80\n10,40\n");
  const CliResult r = run_cli("--simulate=zen2 -t 30 --load-profile=trace:file=" + trace.path() +
                              ",loop=1 --measurement --start-delta=0 --stop-delta=0");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("load profile: trace"), std::string::npos);
  EXPECT_NE(r.output.find("load-level,fraction"), std::string::npos);
}

TEST(Cli, CampaignEmitsOneSummaryRowPerPhaseAndMetric) {
  const TempCampaign campaign(
      "# three-phase acceptance campaign\n"
      "phase name=warmup duration=10 profile=constant:30\n"
      "phase name=swing  duration=20 profile=sine:low=10,high=90,period=5\n"
      "phase name=peak   duration=10 profile=square:low=0,high=100,period=2\n");
  const CliResult r = run_cli("--simulate=zen2 --freq 1500 --campaign " + campaign.path());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("campaign: 3 phases"), std::string::npos);
  EXPECT_NE(r.output.find("metric,unit,samples,mean"), std::string::npos);
  for (const char* row : {"sim-wall-power,W", "load-level,fraction"})
    for (const char* phase : {"warmup", "swing", "peak"}) {
      // One attributed row per (metric, phase) pair.
      bool found = false;
      for (std::size_t pos = r.output.find(row); pos != std::string::npos;
           pos = r.output.find(row, pos + 1)) {
        const std::size_t eol = r.output.find('\n', pos);
        if (r.output.substr(pos, eol - pos).find(phase) != std::string::npos) found = true;
      }
      EXPECT_TRUE(found) << "no CSV row for metric " << row << " in phase " << phase;
    }
}

TEST(Cli, MalformedCampaignExitsTwoWithLineNumber) {
  const TempCampaign campaign("phase name=ok duration=5\nphase name=broken profile=constant\n");
  const CliResult r = run_cli("--simulate=zen2 --campaign " + campaign.path());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("line 2"), std::string::npos);
  EXPECT_NE(r.output.find("missing duration"), std::string::npos);
}

TEST(Cli, HostLoadProfileShortRun) {
  const CliResult r = run_cli(
      "-t 0.6 --threads 2 -p 50000 --load-profile=square:low=0,high=100,period=0.2 "
      "--log-level warn");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("kernel loop iterations"), std::string::npos);
}

TEST(Cli, HelpListsClosedLoopFlags) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--target"), std::string::npos);
  EXPECT_NE(r.output.find("--record-trace"), std::string::npos);
  EXPECT_NE(r.output.find("--require-convergence"), std::string::npos);
}

TEST(Cli, SimClosedLoopConvergesToPowerSetpoint) {
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 -t 30 --target power=250W --require-convergence "
      "--measurement --start-delta=2000 --stop-delta=1000");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("converged"), std::string::npos);
  EXPECT_NE(r.output.find("ctl-setpoint,W"), std::string::npos);
  EXPECT_NE(r.output.find("ctl-output,fraction"), std::string::npos);
}

TEST(Cli, SimClosedLoopUnreachableFailsRequireConvergence) {
  const CliResult r = run_cli(
      "--simulate=zen2 --freq 1500 -t 30 --target power=5000W --require-convergence "
      "--log-level error");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, MalformedTargetExitsTwo) {
  const CliResult r = run_cli("--target power=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--target"), std::string::npos);
}

TEST(Cli, MalformedCampaignTargetExitsTwoWithPhaseName) {
  const TempCampaign campaign("phase name=hold duration=30 target=volts=1.0\n");
  const CliResult r = run_cli("--simulate=zen2 --campaign " + campaign.path());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("phase 'hold'"), std::string::npos);
  EXPECT_NE(r.output.find("power=WATTS or temp=DEGC"), std::string::npos);
}

TEST(Cli, ControlledPhaseShorterThanTickIntervalExitsTwo) {
  const CliResult r = run_cli("--simulate=zen2 -t 0.1 --target power=250W");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("shorter than two controller intervals"), std::string::npos);
}

TEST(Cli, BadRecordTracePathFailsBeforeStressing) {
  const CliResult r = run_cli(
      "--simulate=zen2 -t 30 --target power=250W "
      "--record-trace /nonexistent-dir/trace.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--record-trace"), std::string::npos);
  // Fails up front: no convergence verdict was produced first.
  EXPECT_EQ(r.output.find("converged"), std::string::npos);
}

TEST(Cli, BadDumpPathFailsBeforeStressing) {
  const CliResult r = run_cli(
      "-t 0.4 --threads 1 --dump-registers=0.2 --dump-path /nonexistent-dir/regs.dump "
      "--log-level warn");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--dump-path"), std::string::npos) << r.output;
  // Fails up front: no kernel iterations were reported first.
  EXPECT_EQ(r.output.find("kernel loop iterations"), std::string::npos) << r.output;
}

TEST(Cli, SetpointCampaignProducesDistinctPlateaus) {
  const TempCampaign campaign("phase name=low  duration=30 target=power=200W\n"
                              "phase name=high duration=30 target=power=320W\n");
  const CliResult r = run_cli("--simulate=zen2 --freq 1500 --campaign " + campaign.path() +
                              " --require-convergence --log-level warn");
  EXPECT_EQ(r.exit_code, 0);
  // One converged wall-power plateau per phase, at the phase's setpoint.
  auto plateau = [&r](const std::string& phase) {
    // Find the sim-wall-power row carrying this phase's attribution.
    std::size_t row = r.output.find("sim-wall-power");
    while (row != std::string::npos) {
      const std::size_t eol = r.output.find('\n', row);
      const std::string line = r.output.substr(row, eol - row);
      if (line.find("," + phase) != std::string::npos) {
        const std::size_t mean_start = line.find(',', line.find(',', line.find(',') + 1) + 1) + 1;
        return std::stod(line.substr(mean_start));
      }
      row = r.output.find("sim-wall-power", eol);
    }
    return -1.0;
  };
  EXPECT_NEAR(plateau("low"), 200.0, 0.02 * 200.0);
  EXPECT_NEAR(plateau("high"), 320.0, 0.02 * 320.0);
}

TEST(Cli, RecordTraceReplaysThroughTraceProfile) {
  const TempFile trace("recorded.csv");
  const CliResult record = run_cli("--simulate=zen2 --freq 1500 -t 20 --target power=300W "
                                   "--record-trace " + trace.path() + " --log-level warn");
  EXPECT_EQ(record.exit_code, 0);
  const CliResult replay = run_cli("--simulate=zen2 --freq 1500 -t 20 "
                                   "--load-profile trace:file=" + trace.path() +
                                   " --log-level warn");
  EXPECT_EQ(replay.exit_code, 0);
  EXPECT_NE(replay.output.find("trace:"), std::string::npos);
}

/// Mean column of the measurement-CSV row for `metric` attributed to
/// `phase` (empty = the first row for the metric).
double csv_row_mean(const std::string& output, const std::string& metric,
                    const std::string& phase) {
  std::size_t pos = output.find(metric + ",");
  while (pos != std::string::npos) {
    const std::size_t eol = output.find('\n', pos);
    const std::string line = output.substr(pos, eol - pos);
    if (phase.empty() || line.find("," + phase) != std::string::npos) {
      std::size_t field = 0;
      for (int commas = 0; commas < 3; ++commas) field = line.find(',', field) + 1;
      return std::stod(line.substr(field));
    }
    pos = output.find(metric + ",", eol);
  }
  return -1.0;
}

TEST(Cli, RecordedCampaignTraceReplaysAchievedLevels) {
  // Close the record -> replay loop quantitatively: a controlled campaign's
  // achieved duty-cycle trace, replayed open-loop, must reproduce the
  // achieved-level series — not merely parse.
  const TempCampaign campaign("phase name=low  duration=20 target=power=200W\n"
                              "phase name=high duration=20 target=power=320W\n");
  const TempFile trace("trace.csv");
  const CliResult record = run_cli("--simulate=zen2 --freq 1500 --campaign " + campaign.path() +
                                   " --record-trace " + trace.path() + " --log-level warn");
  ASSERT_EQ(record.exit_code, 0);
  const double low = csv_row_mean(record.output, "load-level", "low");
  const double high = csv_row_mean(record.output, "load-level", "high");
  ASSERT_GT(low, 0.0);
  ASSERT_GT(high, low);  // 320 W needs a higher duty cycle than 200 W

  const CliResult replay =
      run_cli("--simulate=zen2 --freq 1500 -t 40 --load-profile trace:file=" + trace.path() +
              " --measurement --start-delta=0 --stop-delta=0 --log-level warn");
  ASSERT_EQ(replay.exit_code, 0);
  const double replayed = csv_row_mean(replay.output, "load-level", "");
  ASSERT_GT(replayed, 0.0);
  // The replayed 40 s mean must match the recorded campaign's
  // duration-weighted mean level (equal 20 s phases -> plain average).
  // Tolerance covers trim differences and breakpoint collapsing.
  EXPECT_NEAR(replayed, (low + high) / 2.0, 0.03) << replay.output;
}

/// Mean of the campaign-CSV row for (metric, phase); -1 when absent.
double phase_mean(const std::string& output, const std::string& metric,
                  const std::string& phase) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(metric + ",", 0) != 0 || !line.ends_with("," + phase)) continue;
    std::size_t pos = 0;
    for (int commas = 0; commas < 3; ++commas) pos = line.find(',', pos) + 1;
    return std::stod(line.substr(pos));  // metric,unit,samples,mean,...
  }
  return -1.0;
}

/// The measurement-CSV rows of `output` with the trailing phase column cut.
std::vector<std::string> csv_rows_without_phase(const std::string& output) {
  std::vector<std::string> rows;
  std::istringstream lines(output);
  std::string line;
  bool in_csv = false;
  while (std::getline(lines, line)) {
    if (line.rfind("metric,unit,", 0) == 0) in_csv = true;
    else if (in_csv) rows.push_back(line.substr(0, line.rfind(',')));
  }
  return rows;
}

TEST(Cli, SingleRunMatchesOnePhaseCampaign) {
  // A single run is a campaign of one phase: the golden sine and
  // power-setpoint runs print the same CSV rows as the same phase written
  // as a one-line campaign file, apart from the phase column.
  struct Case {
    const char* single_args;
    const char* phase_line;
    const char* shared_args;
  };
  const Case cases[] = {
      {"-t 30 --load-profile=sine:low=10,high=90,period=5 --measurement",
       "phase name=p duration=30 profile=sine:low=10,high=90,period=5\n",
       "--start-delta=2000 --stop-delta=1000"},
      {"-t 30 --target power=300W --measurement", "phase name=p duration=30 target=power=300W\n",
       "--require-convergence"},
  };
  for (const Case& c : cases) {
    const TempCampaign phase(c.phase_line);
    const std::string common = std::string("--simulate=zen2 --freq 1500 --log-level error ") +
                               c.shared_args + " ";
    const CliResult single = run_cli(common + c.single_args);
    const CliResult campaign = run_cli(common + "--campaign " + phase.path());
    ASSERT_EQ(single.exit_code, 0) << single.output;
    ASSERT_EQ(campaign.exit_code, 0) << campaign.output;
    const std::vector<std::string> rows = csv_rows_without_phase(single.output);
    EXPECT_GE(rows.size(), 3u) << single.output;
    EXPECT_EQ(rows, csv_rows_without_phase(campaign.output))
        << "single run:\n" << single.output << "campaign:\n" << campaign.output;
  }
}

TEST(Cli, HostSingleRunSamplesMetricsOnlyUnderMeasurement) {
  // Without --measurement nobody reads the metric channels, so a host run
  // must not sample them: a --metric-command meter never runs.
  const TempFile calls("meter_calls");
  const std::string meter =
      "-t 0.2 --threads 1 --log-level warn --metric-command 'echo x >> " + calls.path() +
      "; echo 1'";
  const CliResult quiet = run_cli(meter);
  ASSERT_EQ(quiet.exit_code, 0) << quiet.output;
  EXPECT_FALSE(std::ifstream(calls.path()).good()) << "the meter ran without --measurement";
  const CliResult measured = run_cli(meter + " --measurement");
  ASSERT_EQ(measured.exit_code, 0) << measured.output;
  EXPECT_TRUE(std::ifstream(calls.path()).good()) << measured.output;
  EXPECT_NE(measured.output.find("external-command,value,"), std::string::npos)
      << measured.output;
}

TEST(Cli, HostCampaignRunsEveryPhaseOnTheRealMachine) {
  // Real stress on one worker through the host branch of the phase runner:
  // 50 ms sampling ticks, the loop-count IPC estimate, and the commanded
  // load level, each attributed to its phase.
  const TempCampaign campaign("phase name=half duration=1 profile=constant:50\n"
                              "phase name=full duration=1 profile=constant:100\n");
  const CliResult r =
      run_cli("--campaign " + campaign.path() + " --threads 1 --log-level warn");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("campaign: 2 phases, 2 s total on host"), std::string::npos)
      << r.output;
  for (const char* phase : {"half", "full"})
    EXPECT_GT(phase_mean(r.output, "ipc-estimate", phase), 0.0) << r.output;
  EXPECT_NEAR(phase_mean(r.output, "load-level", "half"), 0.5, 1e-9) << r.output;
  EXPECT_NEAR(phase_mean(r.output, "load-level", "full"), 1.0, 1e-9) << r.output;
}

TEST(Cli, ClusterPowerWithoutCoordinatorExitsTwo) {
  const CliResult r = run_cli("--simulate=zen2 -t 10 --target cluster-power=500W");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--coordinator"), std::string::npos);
}

TEST(Cli, CoordinatorWithoutCampaignExitsTwo) {
  const CliResult r = run_cli("--coordinator --nodes 2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("requires --campaign"), std::string::npos);
}

TEST(Cli, LoopbackClusterSmoke) {
  const TempCampaign campaign("phase name=half duration=10 profile=constant:50\n");
  const CliResult r = run_cli("--loopback zen2@1500,haswell@2000 --campaign " +
                              campaign.path() + " --log-level warn");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metric,unit,samples,mean"), std::string::npos);
  EXPECT_NE(r.output.find(",half,n0-zen2"), std::string::npos);
  EXPECT_NE(r.output.find(",half,n1-haswell"), std::string::npos);
  EXPECT_NE(r.output.find("cluster-power,W"), std::string::npos);
  EXPECT_NE(r.output.find("start spread"), std::string::npos);
}

TEST(Cli, HelpListsClusterFlags) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--coordinator"), std::string::npos);
  EXPECT_NE(r.output.find("--agent HOST:PORT"), std::string::npos);
  EXPECT_NE(r.output.find("--loopback"), std::string::npos);
  EXPECT_NE(r.output.find("cluster-power=WATTS"), std::string::npos);
}

TEST(Cli, StatusRejectsMalformedEndpoint) {
  const CliResult r = run_cli("--status localhost");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("HOST:PORT"), std::string::npos);
}

TEST(Cli, HelpListsObservabilityFlags) {
  const CliResult r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--trace-out"), std::string::npos);
  EXPECT_NE(r.output.find("--status HOST:PORT"), std::string::npos);
}

TEST(Cli, TraceOutWritesLocalTimelineOnSimRun) {
  const TempFile trace("trace.json");
  const CliResult r = run_cli("--simulate=zen2 --freq 1500 -t 10 --trace-out " + trace.path() +
                              " --log-level warn");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("trace written to " + trace.path()), std::string::npos) << r.output;
  std::ifstream in(trace.path());
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"local\""), std::string::npos);
}

TEST(Cli, HostRegisterDump) {
  const TempFile path("regs.dump");
  const CliResult r = run_cli("-t 0.4 --threads 1 --dump-registers=0.2 --dump-path " +
                              path.path() + " --log-level warn");
  EXPECT_EQ(r.exit_code, 0);
  FILE* dump = std::fopen(path.path().c_str(), "r");
  ASSERT_NE(dump, nullptr);
  char line[256] = {};
  EXPECT_NE(std::fgets(line, sizeof line, dump), nullptr);
  std::fclose(dump);
  EXPECT_NE(std::string(line).find("worker 0:"), std::string::npos);
}

TEST(Cli, HostCampaignWritesRegisterDump) {
  // The phase runner owns the dump loop, so a host campaign writes
  // --dump-registers snapshots like a single run.
  const TempCampaign campaign("phase name=hold duration=0.3 profile=constant:100\n");
  const TempFile path("regs.dump");
  const CliResult r = run_cli("--campaign " + campaign.path() +
                              " --threads 1 --dump-registers=0.1 --dump-path " + path.path() +
                              " --log-level warn");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream dump(path.path());
  ASSERT_TRUE(dump.good()) << r.output;
  std::string line;
  std::getline(dump, line);
  EXPECT_NE(line.find("worker 0:"), std::string::npos) << line;
}

// ---- every flag acts or is rejected ----------------------------------------------

namespace firestarter = fs2::firestarter;
using fs2::ConfigError;
using firestarter::Flag;
using firestarter::RunKind;
using firestarter::RunMode;

/// A value for each flag that differs from its default. A flag whose effect
/// needs another flag to show (e.g. --seed moves the noisy samples of the
/// --measurement CSV) names it in `shown_with`, which joins both runs of a
/// comparison wherever it acts itself.
struct Sample {
  std::vector<std::string> args;
  std::vector<std::string> shown_with = {};
};

/// The sample value of every flag, by long name; `campaign` is a campaign
/// file for --campaign.
std::map<std::string, Sample> flag_samples(const std::string& campaign) {
  return {
      {"--help", {{"--help"}}},
      {"--version", {{"--version"}}},
      {"--avail", {{"--avail"}}},
      {"--list-metrics", {{"--list-metrics"}}},
      {"--log-level", {{"--log-level", "warn"}}},
      {"--function", {{"--function", "1"}}},
      {"--run-instruction-groups", {{"--run-instruction-groups", "REG:4,L1_L:2"}}},
      {"--set-line-count", {{"--set-line-count", "100"}}},
      {"--allow-infinity-bug", {{"--allow-infinity-bug"}}},
      {"--timeout", {{"--timeout", "20"}, {"--measurement"}}},
      {"--load", {{"--load", "50"}, {"--measurement"}}},
      {"--period", {{"--period", "50000"}, {"--load-profile", "sine"}}},
      {"--threads", {{"--threads", "8"}}},
      {"--one-thread-per-core", {{"--one-thread-per-core"}}},
      {"--seed", {{"--seed", "7"}, {"--measurement"}}},
      {"--dump-asm", {{"--dump-asm"}}},
      {"--selftest", {{"--selftest"}}},
      {"--dump-registers", {{"--dump-registers"}}},
      {"--dump-path", {{"--dump-path", "regs.dump"}}},
      {"--load-profile", {{"--load-profile", "sine:low=10,high=90,period=5"}}},
      {"--phase-offset", {{"--phase-offset", "1000"}}},
      {"--campaign", {{"--campaign", campaign}}},
      {"--record-trace", {{"--record-trace", "trace.csv"}}},
      {"--target", {{"--target", "power=300W"}}},
      {"--control-log", {{"--control-log", "ctl.csv"}}},
      {"--require-convergence", {{"--require-convergence"}}},
      {"--coordinator", {{"--coordinator"}}},
      {"--listen", {{"--listen", "0"}}},
      {"--nodes", {{"--nodes", "2"}}},
      {"--agent", {{"--agent", "127.0.0.1:1"}}},
      {"--node-name", {{"--node-name", "n"}}},
      {"--loopback", {{"--loopback", "zen2"}}},
      {"--cluster-start-delay", {{"--cluster-start-delay", "1"}}},
      {"--sync-tolerance", {{"--sync-tolerance", "0.5"}}},
      {"--trace-out", {{"--trace-out", "trace.json"}}},
      {"--status", {{"--status", "127.0.0.1:1"}}},
      {"--metrics-interval", {{"--metrics-interval", "2"}}},
      {"--flight-out", {{"--flight-out", "flight.txt"}}},
      {"--chaos", {{"--chaos", "seed=1"}}},
      {"--rejoin-grace", {{"--rejoin-grace", "1"}}},
      {"--fuzz", {{"--fuzz"}}},
      {"--fuzz-seed", {{"--fuzz-seed", "9"}}},
      {"--fuzz-population", {{"--fuzz-population", "2"}}},
      {"--fuzz-generations", {{"--fuzz-generations", "3"}}},
      {"--fuzz-corpus", {{"--fuzz-corpus", "1"}}},
      {"--fuzz-duration", {{"--fuzz-duration", "3"}}},
      {"--fuzz-objective", {{"--fuzz-objective", "thermal"}}},
      {"--fuzz-report", {{"--fuzz-report", "report.csv"}}},
      {"--measurement", {{"--measurement"}}},
      {"--start-delta", {{"--start-delta", "300"}, {"--measurement"}}},
      {"--stop-delta", {{"--stop-delta", "500"}, {"--measurement"}}},
      {"--optimize", {{"--optimize=NSGA2"}}},
      {"--individuals", {{"--individuals", "6"}}},
      {"--generations", {{"--generations", "3"}}},
      {"--nsga2-m", {{"--nsga2-m", "0.5"}}},
      {"--preheat", {{"--preheat", "10"}}},
      {"--optimization-metric", {{"--optimization-metric", "ipc"}}},
      {"--metric-path", {{"--metric-path", "plugin.so"}}},
      {"--metric-command", {{"--metric-command", "true"}}},
      {"--optimization-log", {{"--optimization-log", "opt.csv"}}},
      {"--simulate", {{"--simulate=haswell"}}},
      {"--freq", {{"--freq", "1500"}}},
      {"--sim-sample-hz", {{"--sim-sample-hz", "50"}, {"--measurement"}}},
      {"--gpus", {{"--gpus", "1"}}},
      {"--gpu-matrixsize", {{"--gpu-matrixsize", "64"}}},
  };
}

/// The flags that select `mode`, with `campaign` as the --campaign file. The
/// closed-loop target is out of reach so that --require-convergence has a
/// miss to report.
std::vector<std::string> mode_args(RunMode mode, const std::string& campaign) {
  std::vector<std::string> args;
  switch (mode.kind) {
    case RunKind::kAvail: args = {"--avail"}; break;
    case RunKind::kListMetrics: args = {"--list-metrics"}; break;
    case RunKind::kStatus: args = {"--status", "127.0.0.1:1"}; break;
    case RunKind::kCoordinator: args = {"--coordinator"}; break;
    case RunKind::kLoopback: args = {"--loopback", "zen2"}; break;
    case RunKind::kFuzzLoopback: args = {"--fuzz", "--loopback", "zen2"}; break;
    case RunKind::kFuzz: args = {"--fuzz"}; break;
    case RunKind::kAgent: args = {"--agent", "127.0.0.1:1"}; break;
    case RunKind::kOptimize: args = {"--optimize=NSGA2"}; break;
    case RunKind::kDumpAsm: args = {"--dump-asm"}; break;
    case RunKind::kSelftest: args = {"--selftest"}; break;
    case RunKind::kCampaign: args = {"--campaign", campaign}; break;
    case RunKind::kClosedLoop: args = {"--target", "power=5000W"}; break;
    case RunKind::kOpenLoop: break;
  }
  if (mode.simulated) args.push_back("--simulate=zen2");
  return args;
}

/// The long name of a table row ("-t, --timeout" -> "--timeout").
std::string long_name(const Flag& flag) {
  const std::string names = flag.names;
  const auto comma = names.rfind(", ");
  return comma == std::string::npos ? names : names.substr(comma + 2);
}

/// Whether `flag` acts in `mode` by the table.
bool acts_in(const std::string& flag, RunMode mode) {
  for (const Flag& row : firestarter::flag_table())
    if (row.set != nullptr && long_name(row) == flag)
      return (row.modes & firestarter::bit(mode)) != 0;
  return false;
}

/// What a user sees of one fs2 run: its exit code, its stdout, and every
/// file it leaves in its (fresh) working directory.
struct RunOutput {
  int exit_code = -1;
  std::string out;
  std::map<std::string, std::string> files;
  bool operator==(const RunOutput&) const = default;
};

RunOutput run_in_fresh_dir(const std::vector<std::string>& args) {
  char dir[] = "/tmp/fs2_cli_flag_XXXXXX";
  RunOutput result;
  if (::mkdtemp(dir) == nullptr) return result;
  std::string command = std::string("cd ") + dir + " && " + FS2_BINARY_PATH;
  for (const std::string& arg : args) command += " '" + arg + "'";
  command += " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe != nullptr) {
    std::array<char, 4096> buffer;
    while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) result.out += buffer.data();
    const int status = ::pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream content;
    content << in.rdbuf();
    result.files[entry.path().filename()] = content.str();
  }
  std::filesystem::remove_all(dir);
  return result;
}

TEST(Cli, HelpAndVersionLeaveFlightOutAlone) {
  // Neither runs anything, so neither arms the flight recorder, which
  // would create (or truncate) its file.
  for (const char* flag : {"--help", "--version"}) {
    const RunOutput r = run_in_fresh_dir({flag, "--flight-out", "flight.txt"});
    EXPECT_EQ(r.exit_code, 0) << flag;
    EXPECT_FALSE(r.out.empty()) << flag;
    EXPECT_EQ(r.files.count("flight.txt"), 0u) << flag << " created its --flight-out file";
  }
}

TEST(Cli, EveryFlagActsOrIsRejected) {
  // An open-loop phase at the -l duty cycle, a sine phase at the -p period,
  // and a target out of reach.
  const TempCampaign campaign("phase name=open duration=20\n"
                              "phase name=swing duration=20 profile=sine\n"
                              "phase name=held duration=20 target=power=5000W\n");
  const std::map<std::string, Sample> samples = flag_samples(campaign.path());
  const std::vector<Flag>& table = firestarter::flag_table();

  // (a) Outside its modes a flag is rejected, and the message names it. A
  // flag that selects a mode (--optimize, --simulate, ...) cannot be added
  // to another mode's command without moving the run into its own.
  for (const Flag& flag : table) {
    if (flag.set == nullptr) continue;  // a second --help entry
    const std::string name = long_name(flag);
    ASSERT_TRUE(samples.count(name)) << "no sample value for " << name;
    for (const RunMode& mode : firestarter::run_modes()) {
      if (flag.modes & firestarter::bit(mode)) continue;
      std::vector<std::string> args = mode_args(mode, campaign.path());
      const std::vector<std::string>& sample = samples.at(name).args;
      args.insert(args.end(), sample.begin(), sample.end());
      std::vector<const char*> argv = {"fs2"};
      for (const std::string& arg : args) argv.push_back(arg.c_str());
      const std::string where = name + " in a " + firestarter::to_string(mode) + " run";
      try {
        const RunMode moved =
            firestarter::run_mode(firestarter::parse_args(static_cast<int>(argv.size()), argv.data()));
        EXPECT_FALSE(moved == mode) << where << " was accepted";
        EXPECT_TRUE(flag.modes & firestarter::bit(moved)) << where;
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << where << ": " << e.what();
      }
    }
  }

  // (b) In its modes a flag changes stdout, a written file or the exit code,
  // compared with the same command without it; the flags that select a mode
  // are that mode. Checked in the six modes that run deterministically on
  // the simulator in one process, which are all the simulated modes but
  // --agent (--selftest has no simulated mode: it runs on the host CPUs).
  // Exempt: the modes with peers (--status, --coordinator, --loopback,
  // --fuzz --loopback, --agent), the modes that probe or stress the host
  // (every host mode and --list-metrics), and --avail, whose only other
  // flags are --help, --version and --log-level. --log-level acts on stderr
  // only, which stays empty in modes that log nothing.
  const RunMode deterministic[] = {
      {RunKind::kOpenLoop, true},  {RunKind::kClosedLoop, true}, {RunKind::kCampaign, true},
      {RunKind::kOptimize, true},  {RunKind::kFuzz, true},       {RunKind::kDumpAsm, true}};
  std::map<std::vector<std::string>, RunOutput> without_cache;
  for (const RunMode& mode : deterministic) {
    const std::vector<std::string> base = mode_args(mode, campaign.path());
    for (const Flag& flag : table) {
      const std::string name = long_name(flag);
      const bool selects_mode = std::any_of(base.begin(), base.end(), [&](const std::string& a) {
        return a.substr(0, a.find('=')) == name;
      });
      if (flag.set == nullptr || !(flag.modes & firestarter::bit(mode)) || selects_mode ||
          name == "--log-level")
        continue;
      const Sample& sample = samples.at(name);
      std::vector<std::string> without = base;
      if (!sample.shown_with.empty() && acts_in(sample.shown_with.front(), mode))
        without.insert(without.end(), sample.shown_with.begin(), sample.shown_with.end());
      std::vector<std::string> with = without;
      with.insert(with.end(), sample.args.begin(), sample.args.end());
      if (!without_cache.count(without)) without_cache[without] = run_in_fresh_dir(without);
      const RunOutput& before = without_cache[without];
      const RunOutput after = run_in_fresh_dir(with);
      EXPECT_NE(after.exit_code, 2) << name << " in a " << firestarter::to_string(mode) << " run";
      EXPECT_FALSE(after == before) << name << " changes nothing in a "
                                    << firestarter::to_string(mode) << " run";
    }
  }
}

}  // namespace
