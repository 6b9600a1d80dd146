// Section III-D: data-dependent FMA power and the v1.7.4 infinity bug.
//
// Paper: running without memory references at nominal frequency on the
// Table II system, version 2.0 (safe operands) draws 314.1 W while 1.7.4
// (registers accumulate to +-inf, FMA clock-gates on trivial operands,
// Hickmann patent US 9,323,500) draws only 305.6 W.
//
// Two parts: (1) the power comparison on the simulated testbed, and
// (2) a live demonstration on the host CPU that the buggy operand
// initialization really does drive the JIT kernel's registers to infinity
// while the safe one keeps them bounded.

#include <cmath>
#include <cstdio>

#include "arch/cpuid.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "sim/simulator.hpp"

using namespace fs2;

int main() {
  std::printf("=== Sec. III-D: operand-dependent power (v1.7.4 infinity bug) ===\n\n");

  // Part 1: simulated Table II system at nominal frequency, REG-only.
  const sim::Simulator simulator(sim::MachineConfig::zen2_epyc7502_2s());
  const auto caches = arch::CacheHierarchy::zen2();
  const auto& mix = payload::find_function("FUNC_FMA_256_ZEN2").mix;
  const auto stats =
      payload::analyze_payload(mix, payload::InstructionGroups::parse("REG:1"), caches);

  sim::RunConditions safe;
  safe.freq_mhz = 2500;
  sim::RunConditions buggy = safe;
  buggy.policy = payload::DataInitPolicy::kV174InfinityBug;

  const double p_safe = simulator.run(stats, safe).power_w;
  const double p_bug = simulator.run(stats, buggy).power_w;
  std::printf("power without memory references at nominal 2500 MHz:\n");
  std::printf("  v2.0   (safe operands):        %6.1f W   (paper: 314.1 W)\n", p_safe);
  std::printf("  v1.7.4 (operands reach +inf):  %6.1f W   (paper: 305.6 W)\n", p_bug);
  std::printf("  delta:                         %6.1f W   (paper:   8.5 W)\n\n", p_safe - p_bug);

  // Part 2: live register check on this host.
  if (!arch::host_identity().features.covers(mix.required)) {
    std::printf("host lacks AVX2+FMA; skipping the live register demonstration\n");
    return 0;
  }
  payload::CompileOptions options;
  options.unroll = 64;
  options.ram_region_bytes = 1 << 20;
  options.dump_registers = true;
  auto payload = payload::compile_payload(mix, payload::InstructionGroups::parse("REG:1"),
                                          caches, options);
  auto check = [&](payload::DataInitPolicy policy) {
    auto buffer = payload.make_buffer(policy, 42);
    payload.fn()(&buffer->args(), 20000);
    int finite = 0, infinite = 0;
    for (int reg = 0; reg < 11; ++reg)
      for (int lane = 0; lane < 4; ++lane) {
        const double v = buffer->dump()[reg * 8 + lane];
        if (std::isinf(v)) ++infinite;
        else if (std::isfinite(v)) ++finite;
      }
    return std::make_pair(finite, infinite);
  };
  const auto [safe_finite, safe_inf] = check(payload::DataInitPolicy::kSafe);
  const auto [bug_finite, bug_inf] = check(payload::DataInitPolicy::kV174InfinityBug);
  std::printf("live JIT kernel on %s, 20000 iterations x 64 sets:\n",
              arch::host_identity().brand.c_str());
  std::printf("  safe init:  %2d/44 accumulator lanes finite, %2d at +-inf\n", safe_finite,
              safe_inf);
  std::printf("  buggy init: %2d/44 accumulator lanes finite, %2d at +-inf\n", bug_finite,
              bug_inf);
  std::printf("  (paper: the bug makes register contents accumulate to +-inf)\n");
  return 0;
}
