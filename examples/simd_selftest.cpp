// SIMD self-test via register dumps (Sec. III-D): "the possibility to flush
// register contents in regular intervals to a file ... enables users to
// check whether their SIMD units still work correctly when processors are
// used out of their regular specifications (e.g., in overclocked
// environments)".
//
// The check: two runs with identical seeds must produce bit-identical
// accumulator registers. Any divergence means an execution unit computed a
// different result — on an overclocked machine, a failed self-test is the
// signal to back off. We also show the sanity screen for non-finite or
// denormal values (the v1.7.4 failure mode).
//
// Run: ./build/examples/example_simd_selftest

#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>

#include "arch/cpuid.hpp"
#include "kernel/register_dump.hpp"
#include "kernel/thread_manager.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"

int main() {
  using namespace fs2;

  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  if (!arch::host_identity().features.covers(fn.mix.required)) {
    std::printf("host lacks AVX2+FMA; the FMA self-test needs them\n");
    return 0;
  }

  payload::CompileOptions options;
  options.unroll = 256;
  options.ram_region_bytes = 1 << 20;
  options.dump_registers = true;
  const auto workload =
      payload::compile_payload(fn.mix, payload::InstructionGroups::parse("REG:4,L1_LS:2"),
                               arch::CacheHierarchy::from_sysfs(), options);

  // One deterministic burst: a fixed iteration count, not wall time, so the
  // register contents are a pure function of the seed.
  auto burst = [&](std::uint64_t seed) {
    auto buffer = workload.make_buffer(payload::DataInitPolicy::kSafe, seed);
    workload.fn()(&buffer->args(), 2'000'000);
    kernel::RegisterSnapshot snapshot;
    snapshot.values.emplace_back(buffer->dump(), buffer->dump() + 11 * 4);
    return snapshot;
  };

  std::printf("running two 2M-iteration bursts with identical seeds...\n");
  const auto first = burst(1234);
  const auto second = burst(1234);

  const auto diverging = kernel::diverging_values(first, second);
  if (diverging.empty()) {
    std::printf("PASS: all 44 accumulator lanes bit-identical across runs\n");
  } else {
    std::printf("FAIL: %zu lanes diverged -- the SIMD units are not computing "
                "reproducibly (back off the overclock!)\n",
                diverging.size());
  }

  if (kernel::has_invalid_values(first)) {
    std::printf("FAIL: non-finite or denormal register values detected\n");
  } else {
    std::printf("PASS: all register values finite and normal\n");
  }

  // Show what a dump looks like (first worker, first registers).
  std::printf("\nregister dump excerpt:\n");
  kernel::write_dump(std::cout, first);
  return 0;
}
