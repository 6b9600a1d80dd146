// Execution tests for compiled payloads: the JIT-generated stress kernels
// actually run on the host CPU. Verifies the kernel ABI, loop accounting,
// operand-safety invariants after millions of iterations (Sec. III-D), the
// v1.7.4 infinity-bug reproduction, and the register-dump feature.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "arch/cpuid.hpp"
#include "payload/compiler.hpp"
#include "payload/data.hpp"
#include "payload/mix.hpp"

namespace fs2::payload {
namespace {

const arch::CacheHierarchy& test_caches() {
  static const arch::CacheHierarchy caches = arch::CacheHierarchy::zen2();
  return caches;
}

bool host_supports(const InstructionMix& mix) {
  return arch::host_identity().features.covers(mix.required);
}

CompileOptions small_options(std::uint32_t unroll = 64) {
  CompileOptions options;
  options.unroll = unroll;
  options.ram_region_bytes = 1 << 20;  // keep test allocations small
  return options;
}

struct ExecCase {
  const char* mix_name;
  const char* groups;
};

class PayloadExecution : public testing::TestWithParam<ExecCase> {};

TEST_P(PayloadExecution, RunsAndReturnsIterationCount) {
  const auto& fn = find_function(GetParam().mix_name);
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks " << fn.mix.name;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse(GetParam().groups),
                                 test_caches(), small_options());
  auto buffer = payload.make_buffer(DataInitPolicy::kSafe, 42);
  EXPECT_EQ(payload.fn()(&buffer->args(), 1000), 1000u);
  EXPECT_EQ(payload.fn()(&buffer->args(), 1), 1u);
  EXPECT_EQ(payload.fn()(&buffer->args(), 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MixAndGroups, PayloadExecution,
    testing::Values(ExecCase{"FUNC_FMA_256_ZEN2", "REG:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "REG:4,L1_L:2,L2_L:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L1_LS:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L1_2LS:2,REG:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "RAM_L:1,L3_LS:1,L2_LS:2,L1_LS:8,REG:4"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L3_P:1,RAM_P:1,REG:2"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L2_S:1,L3_S:1,RAM_S:1,REG:3"},
                    ExecCase{"FUNC_AVX_256", "REG:2,L1_LS:2,L2_L:1"},
                    ExecCase{"FUNC_AVX_256", "RAM_LS:1,L3_L:1,REG:4"},
                    ExecCase{"FUNC_AVX512_512_GENERIC", "REG:1"},
                    ExecCase{"FUNC_AVX512_512_GENERIC", "REG:4,L1_L:2,L2_L:1"},
                    ExecCase{"FUNC_AVX512_512_GENERIC", "RAM_LS:1,L3_P:1,L2_S:2,L1_2LS:4,REG:4"},
                    ExecCase{"FUNC_SSE2_128", "REG:2,L1_LS:2,L2_L:1"},
                    ExecCase{"FUNC_SSE2_128", "RAM_L:1,L3_LS:1,L2_S:1,L1_2LS:2,REG:4"}),
    [](const testing::TestParamInfo<ExecCase>& info) {
      std::string name = std::string(info.param.mix_name) + "_" + info.param.groups;
      for (char& c : name)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(PayloadSafety, AccumulatorsStayFiniteAfterMillionsOfSets) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  CompileOptions options = small_options(128);
  options.dump_registers = true;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:4,L1_LS:2,L2_L:1"),
                                 test_caches(), options);
  auto buffer = payload.make_buffer(DataInitPolicy::kSafe, 7);

  // 100k iterations x 128 sets x 2 FMA = ~25.6M FMA operations.
  EXPECT_EQ(payload.fn()(&buffer->args(), 100000), 100000u);

  const double* dump = buffer->dump();
  int checked = 0;
  for (int reg = 0; reg < 11; ++reg) {
    for (int lane = 0; lane < 4; ++lane) {
      const double v = dump[reg * 8 + lane];  // 64 B dump slots
      EXPECT_TRUE(std::isfinite(v)) << "reg " << reg << " lane " << lane << " = " << v;
      EXPECT_NE(v, 0.0) << "trivial operand in reg " << reg;
      // No denormals: magnitude stays in a sane band around the seeds.
      EXPECT_GT(std::abs(v), 1e-300);
      EXPECT_LT(std::abs(v), 1e10);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 44);
}

TEST(PayloadSafety, V174BugDrivesRegistersToInfinity) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  CompileOptions options = small_options(64);
  options.dump_registers = true;
  auto payload =
      compile_payload(fn.mix, InstructionGroups::parse("REG:1"), test_caches(), options);
  auto buffer = payload.make_buffer(DataInitPolicy::kV174InfinityBug, 7);

  EXPECT_EQ(payload.fn()(&buffer->args(), 50000), 50000u);

  // With the buggy constants both FMA multipliers are +2^200, so every
  // accumulator races to +inf — exactly the behaviour Sec. III-D describes.
  const double* dump = buffer->dump();
  int infinities = 0;
  for (int reg = 0; reg < 11; ++reg)
    for (int lane = 0; lane < 4; ++lane)
      if (std::isinf(dump[reg * 8 + lane])) ++infinities;
  EXPECT_EQ(infinities, 11 * 4);
}

TEST(PayloadDump, DumpIsDeterministicAcrossRuns) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  CompileOptions options = small_options(32);
  options.dump_registers = true;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:2,L1_L:1"),
                                 test_caches(), options);

  auto run = [&](std::uint64_t seed) {
    auto buffer = payload.make_buffer(DataInitPolicy::kSafe, seed);
    payload.fn()(&buffer->args(), 5000);
    return std::vector<double>(buffer->dump(), buffer->dump() + 11 * 8);
  };

  // Same seed -> bit-identical SIMD results (the check the paper's register
  // flushing enables for overclocked systems); different seed -> different.
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(124));
}

TEST(PayloadDump, WithoutDumpFlagDumpAreaUntouched) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:1"), test_caches(),
                                 small_options(16));
  auto buffer = payload.make_buffer(DataInitPolicy::kSafe, 1);
  payload.fn()(&buffer->args(), 100);
  for (int i = 0; i < 16 * 8; ++i) EXPECT_EQ(buffer->dump()[i], 0.0);
}

TEST(PayloadMemory, StoresActuallyWriteTheRegion) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("L1_S:1"), test_caches(),
                                 small_options(16));
  auto buffer = payload.make_buffer(DataInitPolicy::kSafe, 3);
  // Snapshot the first lines of the L1 region, run, and expect changes.
  std::vector<double> before(buffer->args().l1, buffer->args().l1 + 64);
  payload.fn()(&buffer->args(), 10);
  std::vector<double> after(buffer->args().l1, buffer->args().l1 + 64);
  EXPECT_NE(before, after);
}

TEST(PayloadMemory, RegOnlyWorkloadLeavesRegionsUntouched) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:1"), test_caches(),
                                 small_options(16));
  auto buffer = payload.make_buffer(DataInitPolicy::kSafe, 3);
  std::vector<double> before(buffer->args().ram, buffer->args().ram + 512);
  payload.fn()(&buffer->args(), 1000);
  std::vector<double> after(buffer->args().ram, buffer->args().ram + 512);
  EXPECT_EQ(before, after);
}

TEST(PayloadMemory, StreamingCursorCoversWholeRegionWithoutFaulting) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  // Small RAM region so 10k iterations wrap the cursor many times; any
  // out-of-bounds address arithmetic would fault or corrupt the heap.
  CompileOptions options = small_options(32);
  options.ram_region_bytes = 64 * 1024;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("RAM_LS:1,REG:1"),
                                 test_caches(), options);
  auto buffer = payload.make_buffer(DataInitPolicy::kSafe, 11);
  EXPECT_EQ(payload.fn()(&buffer->args(), 10000), 10000u);
}

TEST(PayloadBuffer, AllocationsAlignedToTwiceRegionSize) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats = analyze_payload(fn.mix, InstructionGroups::parse("L1_L:1,L2_L:1"), test_caches(),
                               small_options(16));
  WorkBuffer buffer(stats.regions, stats.sequence, DataInitPolicy::kSafe, 1);
  const auto l1_size = stats.regions.bytes[static_cast<int>(MemoryLevel::kL1)];
  const auto l2_size = stats.regions.bytes[static_cast<int>(MemoryLevel::kL2)];
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.args().l1) % (2 * l1_size), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.args().l2) % (2 * l2_size), 0u);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A region as the kernel may touch it: its size plus the pad past the end
// (the furthest line span, capped at the size, and one vector).
std::size_t region_bytes(const WorkBuffer& buffer, const SequenceStats& stats, int level) {
  const std::size_t size = buffer.sizes().bytes[level];
  const std::size_t span =
      static_cast<std::size_t>(stats.lines(static_cast<MemoryLevel>(level))) * 64;
  return size + std::min(span, size) + 64;
}

TEST(PayloadBuffer, OperandDigestMatchesRecord) {
  struct Record {
    DataInitPolicy policy;
    std::uint64_t seed;
    std::uint64_t digests[kNumMemoryLevels];  ///< constants block, then L1, L2, L3, RAM
  };
  // FNV-1a of every operand byte, recorded before buffers were filled at
  // construction: the fill must keep its draw order, cover every pad, and
  // give the same bytes for the same (policy, seed) in every process.
  const Record records[] = {
      {DataInitPolicy::kSafe,
       5,
       {0x7f4f4dd382d5c2faULL, 0x38e9c41ba949c9dfULL, 0xf64a9a787bb10df0ULL,
        0x582de3ce217123beULL, 0x77d4d9c5e0f8cef5ULL}},
      {DataInitPolicy::kSafe,
       0x5eed,
       {0x6a429c1f32ef32eeULL, 0xe37fcec5e031a2a7ULL, 0x562d3e62f1588e5eULL,
        0xef1fa6b4fd255e3dULL, 0x5b197493fea30a2aULL}},
      {DataInitPolicy::kV174InfinityBug,
       5,
       {0xdda7b36656a9785aULL, 0x38e9c41ba949c9dfULL, 0xf64a9a787bb10df0ULL,
        0x582de3ce217123beULL, 0x77d4d9c5e0f8cef5ULL}},
      {DataInitPolicy::kV174InfinityBug,
       0x5eed,
       {0xbe3506c2abfe122eULL, 0xe37fcec5e031a2a7ULL, 0x562d3e62f1588e5eULL,
        0xef1fa6b4fd255e3dULL, 0x5b197493fea30a2aULL}},
  };
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats =
      analyze_payload(fn.mix, InstructionGroups::parse("RAM_L:1,L3_LS:1,L2_LS:2,L1_LS:8,REG:4"),
                      test_caches(), small_options(16));
  for (const Record& record : records) {
    WorkBuffer buffer(stats.regions, stats.sequence, record.policy, record.seed);
    const double* regions[] = {buffer.args().l1, buffer.args().l2, buffer.args().l3,
                               buffer.args().ram};
    std::uint64_t digests[kNumMemoryLevels] = {
        fnv1a(buffer.args().consts, ConstLayout::kDoubles * sizeof(double))};
    for (int level = 1; level < kNumMemoryLevels; ++level)
      digests[level] = fnv1a(regions[level - 1], region_bytes(buffer, stats.sequence, level));
    for (int part = 0; part < kNumMemoryLevels; ++part)
      EXPECT_EQ(digests[part], record.digests[part])
          << "seed " << record.seed << " part " << part << ": measured 0x" << std::hex
          << digests[part];
  }
}

TEST(PayloadBuffer, SafeInitHasNoTrivialOperands) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats = analyze_payload(fn.mix, InstructionGroups::parse("L1_L:1"), test_caches(),
                               small_options(16));
  WorkBuffer buffer(stats.regions, stats.sequence, DataInitPolicy::kSafe, 5);
  const double* consts = buffer.args().consts;
  for (std::size_t i = 0; i < ConstLayout::kDoubles; ++i) {
    EXPECT_TRUE(std::isfinite(consts[i]));
  }
  // The multiplier toggles are non-zero and of opposite sign.
  EXPECT_GT(consts[ConstLayout::kMultPos], 0.0);
  EXPECT_LT(consts[ConstLayout::kMultNeg], 0.0);
  EXPECT_DOUBLE_EQ(consts[ConstLayout::kMultPos], -consts[ConstLayout::kMultNeg]);
  // m and 1/m are non-trivial (not exactly 1.0).
  EXPECT_NE(consts[ConstLayout::kMulUp], 1.0);
  EXPECT_NE(consts[ConstLayout::kMulDown], 1.0);
}

}  // namespace
}  // namespace fs2::payload
