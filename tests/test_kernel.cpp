// Tests for the kernel runtime: worker threads actually execute JIT'd
// payloads with pinning and duty-cycling, and the register dump captures
// SIMD state.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "arch/cpuid.hpp"
#include "kernel/register_dump.hpp"
#include "kernel/selftest.hpp"
#include "kernel/thread_manager.hpp"
#include "payload/mix.hpp"
#include "util/error.hpp"

namespace fs2::kernel {
namespace {

bool host_has_fma() {
  return arch::host_identity().features.covers(
      payload::find_function("FUNC_FMA_256_ZEN2").mix.required);
}

payload::CompiledPayload small_payload(bool dump = false) {
  payload::CompileOptions options;
  options.unroll = 64;
  options.ram_region_bytes = 1 << 20;
  options.dump_registers = dump;
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  return payload::compile_payload(fn.mix, payload::InstructionGroups::parse("REG:2,L1_L:1"),
                                  arch::CacheHierarchy::zen2(), options);
}

RunOptions two_workers(double load = 1.0) {
  RunOptions options;
  options.cpus = {-1, -1};  // unpinned: CI containers restrict affinity
  options.load = load;
  return options;
}

TEST(ThreadManager, RunsAndCountsIterations) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  EXPECT_EQ(manager.num_workers(), 2u);
  EXPECT_EQ(manager.total_iterations(), 0u);
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  manager.stop();
  EXPECT_GT(manager.total_iterations(), 1000u);
}

TEST(ThreadManager, StopIsIdempotentAndFast) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  manager.stop();
  manager.stop();
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(stop_s, 1.0);  // chunked execution keeps stop responsive
}

TEST(ThreadManager, StopWithoutStartJoinsCleanly) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  manager.stop();
  EXPECT_EQ(manager.total_iterations(), 0u);
}

TEST(ThreadManager, DutyCycleReducesThroughput) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  auto run_with_load = [&](double load) {
    RunOptions options = two_workers(load);
    options.period_s = 0.04;
    ThreadManager manager(payload, options);
    manager.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    manager.stop();
    return manager.total_iterations();
  };
  const auto full = run_with_load(1.0);
  const auto half = run_with_load(0.5);
  // 50 % duty cycle should land well below full throughput (generous margin
  // for scheduler noise).
  EXPECT_LT(static_cast<double>(half), static_cast<double>(full) * 0.85);
}

TEST(ThreadManager, ValidatesOptions) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  RunOptions no_cpus;
  EXPECT_THROW(ThreadManager(payload, no_cpus), Error);
  RunOptions bad_load = two_workers(1.5);
  EXPECT_THROW(ThreadManager(payload, bad_load), Error);
}

TEST(RegisterDump, CaptureAndFormat) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  ThreadManager manager(payload, two_workers());
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  manager.stop();
  const RegisterSnapshot snapshot = capture_registers(manager);
  ASSERT_EQ(snapshot.values.size(), 2u);
  EXPECT_EQ(snapshot.values[0].size(), 44u);  // 11 accumulators x 4 lanes
  EXPECT_FALSE(has_invalid_values(snapshot));

  std::ostringstream out;
  write_dump(out, snapshot);
  EXPECT_NE(out.str().find("worker 0:"), std::string::npos);
  EXPECT_NE(out.str().find("ymm10"), std::string::npos);
}

TEST(RegisterDump, DivergenceDetection) {
  RegisterSnapshot a, b;
  a.values = {{1.0, 2.0, 3.0}};
  b.values = {{1.0, 2.5, 3.0}};
  const auto diverging = diverging_values(a, b);
  ASSERT_EQ(diverging.size(), 1u);
  EXPECT_EQ(diverging[0], 1u);
  EXPECT_TRUE(diverging_values(a, a).empty());
}

TEST(RegisterDump, InvalidValueDetection) {
  RegisterSnapshot inf_snapshot;
  inf_snapshot.values = {{1.0, std::numeric_limits<double>::infinity()}};
  EXPECT_TRUE(has_invalid_values(inf_snapshot));
  RegisterSnapshot denormal;
  denormal.values = {{1e-320}};
  EXPECT_TRUE(has_invalid_values(denormal));
  RegisterSnapshot fine;
  fine.values = {{1.5, -2.25, 0.0}};
  EXPECT_FALSE(has_invalid_values(fine));
}

TEST(Selftest, PassesOnHealthyHardware) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  const SelftestResult result = run_selftest(payload, {-1, -1, -1}, 20000, 7);
  EXPECT_TRUE(result.passed) << result.describe();
  EXPECT_EQ(result.workers, 3u);
  EXPECT_EQ(result.iterations, 20000u);
  EXPECT_TRUE(result.diverging_workers.empty());
  EXPECT_FALSE(result.invalid_values);
  EXPECT_NE(result.describe().find("PASS"), std::string::npos);
}

TEST(Selftest, DeterministicAcrossInvocations) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  // Two full self-test rounds must agree with themselves and each other.
  EXPECT_TRUE(run_selftest(payload, {-1, -1}, 5000, 3).passed);
  EXPECT_TRUE(run_selftest(payload, {-1, -1}, 5000, 3).passed);
}

TEST(Selftest, ValidatesArguments) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  EXPECT_THROW(run_selftest(payload, {}, 100, 1), Error);
  EXPECT_THROW(run_selftest(payload, {-1}, 0, 1), Error);
}

TEST(Selftest, RejectsPayloadWithoutDump) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/false);
  EXPECT_THROW(run_selftest(payload, {-1}, 100, 1), Error);
}

TEST(Selftest, FailureDescriptionNamesWorkers) {
  SelftestResult result;
  result.workers = 4;
  result.iterations = 10;
  result.diverging_workers = {2, 3};
  EXPECT_NE(result.describe().find("2,3"), std::string::npos);
  result.diverging_workers.clear();
  result.invalid_values = true;
  EXPECT_NE(result.describe().find("non-finite"), std::string::npos);
}

}  // namespace
}  // namespace fs2::kernel
