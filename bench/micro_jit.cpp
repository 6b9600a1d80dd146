// Micro-benchmarks for the JIT substrate: how fast can FIRESTARTER 2
// generate a workload? This is the quantitative backing for the Fig. 6->7
// improvement — runtime code generation takes microseconds to
// milliseconds, versus the ~25 s compile-and-link cycle of the 1.x
// template flow.

#include <benchmark/benchmark.h>

#include "arch/cache.hpp"
#include "arch/cpuid.hpp"
#include "jit/assembler.hpp"
#include "jit/exec_memory.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"

using namespace fs2;

namespace {

void BM_EncodeFmaSet(benchmark::State& state) {
  // One instruction set of the Haswell mix: 2 FMA + xor + shift.
  for (auto _ : state) {
    jit::Assembler a;
    a.vfmadd231pd(jit::Ymm::ymm0, jit::Ymm::ymm14, jit::Ymm::ymm12);
    a.vfmadd231pd(jit::Ymm::ymm5, jit::Ymm::ymm14, jit::Ymm::ymm13);
    a.xor_(jit::Gp::rdx, jit::Gp::rsi);
    a.shl(jit::Gp::r11, 1);
    benchmark::DoNotOptimize(a.finalize());
  }
}
BENCHMARK(BM_EncodeFmaSet);

void BM_CompileWorkload(benchmark::State& state) {
  // Full workload compilation (the Fig. 5 "generate" arrow): sequence
  // construction, codegen for `u` sets, label fixups, W^X mapping.
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  const auto groups = payload::InstructionGroups::parse(fn.default_groups);
  const auto caches = arch::CacheHierarchy::zen2();
  payload::CompileOptions options;
  options.unroll = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto payload = payload::compile_payload(fn.mix, groups, caches, options);
    benchmark::DoNotOptimize(payload.fn());
  }
  state.SetLabel("u=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompileWorkload)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AnalyzeWorkload(benchmark::State& state) {
  // Static analysis only (what the simulator backend does per candidate).
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  const auto groups = payload::InstructionGroups::parse(fn.default_groups);
  const auto caches = arch::CacheHierarchy::zen2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(payload::analyze_payload(fn.mix, groups, caches));
  }
}
BENCHMARK(BM_AnalyzeWorkload);

void BM_ExecutableBufferRoundTrip(benchmark::State& state) {
  jit::Assembler a;
  a.mov(jit::Gp::rax, std::uint64_t{42});
  a.ret();
  const auto code = a.finalize();
  for (auto _ : state) {
    jit::ExecutableBuffer buffer{std::span<const std::uint8_t>(code)};
    benchmark::DoNotOptimize(buffer.as<std::uint64_t (*)()>()());
  }
}
BENCHMARK(BM_ExecutableBufferRoundTrip);

void BM_KernelIteration(benchmark::State& state) {
  // Cost of one executed loop iteration of the compiled stress kernel
  // (REG-only so the measurement is not memory-bound).
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  if (!arch::host_identity().features.covers(fn.mix.required)) {
    state.SkipWithError("host lacks AVX2+FMA");
    return;
  }
  payload::CompileOptions options;
  options.unroll = 256;
  options.ram_region_bytes = 1 << 20;
  auto payload = payload::compile_payload(fn.mix, payload::InstructionGroups::parse("REG:1"),
                                          arch::CacheHierarchy::zen2(), options);
  auto buffer = payload.make_buffer(payload::DataInitPolicy::kSafe, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(payload.fn()(&buffer->args(), 100));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KernelIteration);

}  // namespace
