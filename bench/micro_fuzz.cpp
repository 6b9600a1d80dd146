// Micro-benchmarks for the payload pattern fuzzer's hot paths. A fuzz run
// burns most of its time in simulated phase evaluation, but generation,
// signature distillation, and corpus maintenance run once per candidate —
// at fleet scale (thousands of candidates per sweep) they must stay in the
// microsecond range or the bookkeeping starts rivaling the measurement.

#include <benchmark/benchmark.h>

#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/pattern.hpp"
#include "fuzz/signature.hpp"
#include "metrics/measurement.hpp"
#include "util/strings.hpp"

using namespace fs2;

namespace {

void BM_GeneratorRandom(benchmark::State& state) {
  fuzz::PatternGenerator generator(42);
  for (auto _ : state) benchmark::DoNotOptimize(generator.random());
}
BENCHMARK(BM_GeneratorRandom);

void BM_GeneratorMutate(benchmark::State& state) {
  fuzz::PatternGenerator generator(42);
  fuzz::PatternSpec parent = generator.random();
  for (auto _ : state) {
    parent = generator.mutate(parent);
    benchmark::DoNotOptimize(parent);
  }
}
BENCHMARK(BM_GeneratorMutate);

void BM_SpecRoundTrip(benchmark::State& state) {
  fuzz::PatternGenerator generator(42);
  const fuzz::PatternSpec spec = generator.random();
  for (auto _ : state)
    benchmark::DoNotOptimize(fuzz::PatternSpec::parse(spec.to_string()));
}
BENCHMARK(BM_SpecRoundTrip);

std::vector<metrics::Summary> sample_rows() {
  std::vector<metrics::Summary> rows;
  const char* names[] = {"sim-wall-power", "sim-perf-ipc", "sim-package-temp",
                         "load-level"};
  for (int phase = 0; phase < 8; ++phase)
    for (const char* name : names) {
      metrics::Summary row;
      row.name = name;
      row.phase = strings::format("r%d", phase);
      row.mean = 300.0 + phase;
      row.min = 120.0;
      row.max = 470.0 + phase;
      row.samples = 60;
      rows.push_back(row);
    }
  return rows;
}

void BM_SignatureFromRows(benchmark::State& state) {
  const std::vector<metrics::Summary> rows = sample_rows();
  for (auto _ : state)
    benchmark::DoNotOptimize(fuzz::signature_from_rows(rows, "r5", 6.0));
}
BENCHMARK(BM_SignatureFromRows);

void BM_DedupeKey(benchmark::State& state) {
  const fuzz::ResponseSignature signature =
      fuzz::signature_from_rows(sample_rows(), "r5", 6.0);
  for (auto _ : state) benchmark::DoNotOptimize(fuzz::dedupe_key(signature));
}
BENCHMARK(BM_DedupeKey);

/// Corpus add under sustained pressure: every candidate of a sweep is
/// offered, most are pruned — the bound on retained entries is what keeps
/// this O(cap) no matter how long the run.
void BM_CorpusAddPruned(benchmark::State& state) {
  fuzz::PatternGenerator generator(7);
  fuzz::Corpus corpus(8);
  std::uint64_t tick = 0;
  for (auto _ : state) {
    fuzz::CorpusEntry entry;
    entry.spec = generator.random();
    entry.signature.mean_power_w = 200.0 + static_cast<double>(tick % 512);
    entry.signature.max_power_w = 300.0 + static_cast<double>(tick % 512);
    entry.signature.min_power_w = 120.0;
    entry.signature.power_swing_w = entry.signature.max_power_w - 120.0;
    entry.signature.ipc = 2.0 + static_cast<double>(tick % 97) / 100.0;
    entry.signature.thermal_slope_c_per_s = 0.3 + static_cast<double>(tick % 53) / 100.0;
    entry.signature.samples = 60;
    ++tick;
    benchmark::DoNotOptimize(corpus.add(std::move(entry)));
  }
}
BENCHMARK(BM_CorpusAddPruned);

void BM_CorpusRanked(benchmark::State& state) {
  fuzz::PatternGenerator generator(7);
  fuzz::Corpus corpus(8);
  for (int i = 0; i < 256; ++i) {
    fuzz::CorpusEntry entry;
    entry.spec = generator.random();
    entry.signature.max_power_w = 300.0 + i;
    entry.signature.power_swing_w = 200.0 + (i * 37) % 256;
    entry.signature.thermal_slope_c_per_s = 0.2 + ((i * 11) % 64) / 100.0;
    entry.signature.mean_power_w = 250.0;
    entry.signature.min_power_w = 120.0;
    entry.signature.ipc = 2.0;
    entry.signature.samples = 60;
    corpus.add(std::move(entry));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(corpus.ranked(fuzz::Objective::kPowerSwing));
}
BENCHMARK(BM_CorpusRanked);

}  // namespace

BENCHMARK_MAIN();
