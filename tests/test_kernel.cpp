// Tests for the kernel runtime: worker threads actually execute JIT'd
// payloads with pinning and duty-cycling, and the register dump captures
// SIMD state.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/cpuid.hpp"
#include "kernel/register_dump.hpp"
#include "kernel/selftest.hpp"
#include "kernel/thread_manager.hpp"
#include "payload/mix.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace fs2::kernel {
namespace {

bool host_has_fma() {
  return arch::host_identity().features.covers(
      payload::find_function("FUNC_FMA_256_ZEN2").mix.required);
}

payload::CompiledPayload small_payload(bool dump = false,
                                       std::size_t ram_region_bytes = 1 << 20) {
  payload::CompileOptions options;
  options.unroll = 64;
  options.ram_region_bytes = ram_region_bytes;
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

// Every operand byte of `a` and `b`: the constants block and each region
// with the pad past its end.
bool same_operands(const payload::WorkBuffer& a, const payload::WorkBuffer& b,
                   const payload::SequenceStats& stats) {
  if (std::memcmp(a.args().consts, b.args().consts,
                  payload::ConstLayout::kDoubles * sizeof(double)) != 0)
    return false;
  const double* regions_a[] = {a.args().l1, a.args().l2, a.args().l3, a.args().ram};
  const double* regions_b[] = {b.args().l1, b.args().l2, b.args().l3, b.args().ram};
  for (int level = 1; level < payload::kNumMemoryLevels; ++level) {
    const std::size_t size = a.sizes().bytes[level];
    const std::size_t span =
        static_cast<std::size_t>(stats.lines(static_cast<payload::MemoryLevel>(level))) * 64;
    if (std::memcmp(regions_a[level - 1], regions_b[level - 1],
                    size + std::min(span, size) + 64) != 0)
      return false;
  }
  return true;
}

TEST(ThreadManager, WorkerBuffersUsePerWorkerSeeds) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  RunOptions options = two_workers();
  options.seed = 77;
  ThreadManager manager(payload, options);
  for (std::size_t i = 0; i < manager.num_workers(); ++i) {
    auto expected = payload.make_buffer(options.policy, options.seed + i * 0x9e3779b97f4a7c15ULL);
    EXPECT_TRUE(same_operands(manager.buffer(i), *expected, payload.stats().sequence))
        << "worker " << i;
  }
}

TEST(ThreadManager, BufferAllocationFailureThrowsFromConstructor) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  // A 64 TiB RAM region aligned to 128 TiB needs more address space than
  // x86-64 user space has, so the workers' allocations fail under every
  // overcommit policy, and the constructor must join them all and throw
  // instead of terminating.
  auto payload = small_payload(/*dump=*/false, 1ull << 46);
  EXPECT_THROW(ThreadManager(payload, two_workers()), Error);
}

TEST(ThreadManager, TracesOneBufferInitSpanPerWorker) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  // Every host phase and tuning candidate starts fresh workers. The tracer
  // keeps a thread's ring until the process exits, so the workers' spans
  // must go on the constructing thread's ring, not on rings of their own.
  auto payload = small_payload();
  trace::Tracer::reset();
  trace::Tracer::set_enabled(true);
  { ThreadManager first(payload, two_workers()); }  // may give this thread its ring
  const std::size_t rings = trace::Tracer::rings();
  for (int i = 0; i < 16; ++i) {
    ThreadManager manager(payload, two_workers());
  }
  trace::Tracer::set_enabled(false);
  EXPECT_EQ(trace::Tracer::rings(), rings);
  std::vector<trace::SpanEvent> events;
  trace::Tracer::drain(events);
  const auto spans = std::count_if(events.begin(), events.end(), [](const trace::SpanEvent& e) {
    return std::strcmp(e.name, "kernel.buffer_init") == 0 && 0.0 < e.begin_s &&
           e.begin_s <= e.end_s;
  });
  EXPECT_EQ(spans, 2 * 17);
  trace::Tracer::reset();
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
