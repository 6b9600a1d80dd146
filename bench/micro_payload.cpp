// Micro-benchmarks for the payload model: grammar parsing, the
// even-distribution sequence builder (with the naive block-distribution
// ablation DESIGN.md calls out), and work-buffer initialization.

#include <benchmark/benchmark.h>

#include "arch/cache.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "payload/sequence.hpp"

using namespace fs2;

namespace {

const char* kGroups = "RAM_L:3,L3_LS:3,L2_LS:10,L1_LS:77,REG:37";

void BM_ParseGroups(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(payload::InstructionGroups::parse(kGroups));
}
BENCHMARK(BM_ParseGroups);

void BM_BaseSequence(benchmark::State& state) {
  const auto groups = payload::InstructionGroups::parse(kGroups);
  for (auto _ : state) benchmark::DoNotOptimize(payload::base_sequence(groups));
}
BENCHMARK(BM_BaseSequence);

/// Ablation: naive block distribution (all REG sets, then all L1 sets, ...)
/// instead of ideal-position interleaving. Same cost class, but the
/// resulting sequence clusters same-kind accesses — the paper's Sec. III
/// requires spreading so the L1 accesses sit sets apart. The fig09 power
/// results rely on the interleaved form; this measures the builder cost
/// delta only.
std::vector<payload::AccessKind> block_sequence(const payload::InstructionGroups& groups) {
  std::vector<payload::AccessKind> sequence;
  sequence.reserve(groups.total());
  for (const auto& group : groups.groups())
    for (std::uint32_t i = 0; i < group.count; ++i) sequence.push_back(group.kind);
  return sequence;
}

void BM_BaseSequence_BlockAblation(benchmark::State& state) {
  const auto groups = payload::InstructionGroups::parse(kGroups);
  for (auto _ : state) benchmark::DoNotOptimize(block_sequence(groups));
}
BENCHMARK(BM_BaseSequence_BlockAblation);

void BM_UnrollSequence(benchmark::State& state) {
  const auto base = payload::base_sequence(payload::InstructionGroups::parse(kGroups));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        payload::unroll_sequence(base, static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_UnrollSequence)->Arg(1024)->Arg(8192);

// One buffer built: allocation plus the seeded fill of every operand.
void BM_WorkBufferConstruct(benchmark::State& state) {
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  payload::CompileOptions options;
  options.unroll = 256;
  options.ram_region_bytes = static_cast<std::size_t>(state.range(0)) << 20;
  const auto stats = payload::analyze_payload(
      fn.mix, payload::InstructionGroups::parse(kGroups), arch::CacheHierarchy::zen2(), options);
  std::size_t bytes = 0;
  for (auto _ : state) {
    payload::WorkBuffer buffer(stats.regions, stats.sequence, payload::DataInitPolicy::kSafe, 42);
    benchmark::DoNotOptimize(buffer.args().ram);
    benchmark::ClobberMemory();
    bytes = buffer.allocated_bytes();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(std::to_string(state.range(0)) + " MiB RAM region");
}
BENCHMARK(BM_WorkBufferConstruct)->Arg(1)->Arg(16);

}  // namespace
