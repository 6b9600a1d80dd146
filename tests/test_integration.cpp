// Cross-module integration tests: the full pipelines a user exercises.
//
//  * workload -> JIT -> threads -> metrics (the real stress path)
//  * workload -> analysis -> simulator -> metrics -> NSGA-II (tuning path)
//  * AVX-512 end to end (detection, compilation, execution, dump)
//  * the reproduced paper workflow: optimize at a frequency, re-evaluate
//    the optimum elsewhere

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/cpuid.hpp"
#include "arch/processor.hpp"
#include "firestarter/backends.hpp"
#include "kernel/register_dump.hpp"
#include "kernel/thread_manager.hpp"
#include "metrics/ipc_estimate.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "telemetry/streaming_aggregator.hpp"
#include "tuning/nsga2.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fs2 {
namespace {

bool host_supports(const payload::InstructionMix& mix) {
  return arch::host_identity().features.covers(mix.required);
}

payload::CompileOptions fast_options(std::uint32_t unroll = 128) {
  payload::CompileOptions options;
  options.unroll = unroll;
  options.ram_region_bytes = 1 << 20;
  return options;
}

TEST(Integration, StressRunWithEstimatedIpcMetric) {
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto workload = payload::compile_payload(
      fn.mix, payload::InstructionGroups::parse("REG:4,L1_LS:2"), arch::CacheHierarchy::zen2(),
      fast_options());

  kernel::RunOptions run;
  run.cpus = {-1, -1};
  kernel::ThreadManager manager(workload, run);
  metrics::IpcEstimateMetric ipc([&manager] { return manager.total_iterations(); },
                                 workload.stats().instructions_per_iteration, 2000.0, 2);
  telemetry::StreamingAggregator series(0.0, 0.0);

  manager.start();
  ipc.begin();
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    series.add(0.04 * (i + 1), ipc.sample());
  }
  manager.stop();

  const auto summary = series.summarize();
  EXPECT_GT(summary.mean, 0.1);   // real work happened
  EXPECT_LT(summary.mean, 16.0);  // and the estimate is in a plausible band
}

TEST(Integration, Avx512PayloadEndToEnd) {
  const auto& fn = payload::find_function("FUNC_AVX512_512_GENERIC");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks AVX-512F";
  payload::CompileOptions options = fast_options(64);
  options.dump_registers = true;
  auto workload = payload::compile_payload(
      fn.mix, payload::InstructionGroups::parse("REG:2,L1_LS:2,L2_L:1"),
      arch::CacheHierarchy::zen2(), options);
  EXPECT_EQ(workload.stats().vector_doubles, 8);
  EXPECT_EQ(workload.stats().flops_per_iteration % 16, 0u);  // 512-bit FMA = 16 flops

  kernel::RunOptions run;
  run.cpus = {-1};
  kernel::ThreadManager manager(workload, run);
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  manager.stop();
  EXPECT_GT(manager.total_iterations(), 100u);

  const auto snapshot = kernel::capture_registers(manager);
  EXPECT_EQ(snapshot.lanes, 8u);
  EXPECT_EQ(snapshot.values[0].size(), 11u * 8);
  EXPECT_FALSE(kernel::has_invalid_values(snapshot));
}

TEST(Integration, HostSelectionPrefersWidestMix) {
  // On this CI host (AVX-512F capable) the auto-selected function must be
  // the 512-bit one; on narrower hosts the check degrades gracefully.
  const auto host = arch::detect_host();
  const auto& fn = payload::select_function(host);
  if (host.features.avx512f && host.microarch == arch::Microarch::kGeneric) {
    EXPECT_EQ(fn.mix.isa, payload::IsaClass::kAvx512);
  }
  EXPECT_TRUE(host.features.covers(fn.mix.required));
}

TEST(Integration, OptimizeThenCrossEvaluate) {
  // The Fig. 12 workflow in miniature: tune at 1500 MHz on the simulator,
  // then verify the optimum beats the default workload at its training
  // point.
  sim::SimulatedSystem system(sim::MachineConfig::zen2_epyc7502_2s());
  sim::RunConditions cond;
  cond.freq_mhz = 1500;
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  firestarter::SimBackend backend(system, fn.mix, arch::CacheHierarchy::zen2(), cond, 5.0, 99);
  backend.preheat();
  tuning::GroupsProblem problem(backend);
  tuning::Nsga2Config config;
  config.individuals = 16;
  config.generations = 8;
  config.seed = 99;
  tuning::Nsga2 optimizer(config);
  const auto population = optimizer.run(problem);
  const auto& best = tuning::Nsga2::best_by_objective(population, 0);

  const double default_power =
      backend.evaluate(payload::InstructionGroups::parse(fn.default_groups))[0];
  EXPECT_GT(best.objectives[0], default_power * 0.95);
  // The optimum must actually be compilable and runnable end to end.
  const auto groups = tuning::GroupsProblem::to_groups(best.genome);
  if (host_supports(fn.mix)) {
    auto workload =
        payload::compile_payload(fn.mix, groups, arch::CacheHierarchy::zen2(), fast_options());
    auto buffer = workload.make_buffer(payload::DataInitPolicy::kSafe, 1);
    EXPECT_EQ(workload.fn()(&buffer->args(), 100), 100u);
  }
}

TEST(Integration, HostBackendEvaluatesRealCandidates) {
  // The real-hardware tuning path (Fig. 10 with host metrics): each
  // candidate runs as a one-phase host campaign, scored with the
  // estimated-IPC metric.
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  firestarter::Config cfg;
  cfg.function_name = fn.name;
  cfg.threads = 2;
  cfg.seed = 5;
  cfg.candidate_duration_s = 0.3;
  cfg.optimization_metrics = {"ipc-estimate"};
  firestarter::HostBackend backend(cfg);
  ASSERT_EQ(backend.objective_names(), std::vector<std::string>{"ipc-estimate"});
  const auto a = backend.evaluate(payload::InstructionGroups::parse("REG:1"));
  const auto b = backend.evaluate(payload::InstructionGroups::parse("REG:2,L1_LS:1"));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_GT(a[0], 0.05);  // both candidates actually executed and scored
  EXPECT_GT(b[0], 0.05);
}

// ---- payload generation: analysis == compilation, byte for byte -------------

/// One row of the payload byte-identity record: FNV-1a digests of the code
/// bytes and of every PayloadStats field of one (function, case) pair,
/// folded over all twelve CompileOptions variants in test order.
struct IdentityRecord {
  const char* function;
  std::size_t case_index;
  std::uint64_t code;
  std::uint64_t stats;
};

constexpr IdentityRecord kIdentityRecord[] = {
#include "payload_identity_record.inc"
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t hash, const std::uint8_t* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) hash = (hash ^ data[i]) * 0x100000001b3ULL;
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  return fnv1a(hash, bytes, sizeof bytes);
}

/// Every PayloadStats field by name.
std::vector<std::pair<std::string, std::uint64_t>> stats_fields(const payload::PayloadStats& s) {
  std::vector<std::pair<std::string, std::uint64_t>> fields = {
      {"sequence.sets", s.sequence.sets},
      {"unroll", s.unroll},
      {"instructions_per_iteration", s.instructions_per_iteration},
      {"simd_per_iteration", s.simd_per_iteration},
      {"fma_per_iteration", s.fma_per_iteration},
      {"fp_compute_per_iteration", s.fp_compute_per_iteration},
      {"vector_doubles", static_cast<std::uint64_t>(s.vector_doubles)},
      {"alu_per_iteration", s.alu_per_iteration},
      {"overhead_per_iteration", s.overhead_per_iteration},
      {"flops_per_iteration", s.flops_per_iteration},
      {"loop_bytes", s.loop_bytes},
  };
  for (int level = 0; level < payload::kNumMemoryLevels; ++level) {
    const std::string at = strings::format("[%d]", level);
    fields.emplace_back("sequence.loads" + at, s.sequence.loads[level]);
    fields.emplace_back("sequence.stores" + at, s.sequence.stores[level]);
    fields.emplace_back("sequence.prefetches" + at, s.sequence.prefetches[level]);
    fields.emplace_back("bytes_per_iteration" + at, s.bytes_per_iteration[level]);
    fields.emplace_back("regions.bytes" + at, s.regions.bytes[level]);
  }
  return fields;
}

/// A group list of the record, with its seeded explicit unroll factor.
struct IdentityCase {
  payload::InstructionGroups groups;
  std::uint32_t seeded_unroll = 0;
};

/// The record's fixed case list: every function's default groups, the
/// paper's examples, and 40 seeded draws within GroupsProblem's per-level
/// limits (copied here, so the list does not move with the tuner).
std::vector<IdentityCase> identity_cases() {
  std::vector<std::string> texts;
  for (const payload::FunctionDef& fn : payload::available_functions())
    if (std::find(texts.begin(), texts.end(), fn.default_groups) == texts.end())
      texts.push_back(fn.default_groups);
  for (const char* example :
       {"REG:4,L1_L:2,L2_L:1", "REG:1", "L1_2LS:1", "RAM_P:1", "REG:100,RAM_P:1"})
    texts.emplace_back(example);

  const auto limit = [](payload::MemoryLevel level) -> std::uint64_t {
    switch (level) {
      case payload::MemoryLevel::kReg: return 100;
      case payload::MemoryLevel::kL1: return 100;
      case payload::MemoryLevel::kL2: return 40;
      case payload::MemoryLevel::kL3: return 20;
      case payload::MemoryLevel::kRam: return 12;
    }
    return 1;
  };
  Xoshiro256 rng(0x1de7);
  for (int draw = 0; draw < 40; ++draw) {
    // Even draws fill every gene, like NSGA-II's random initial genomes;
    // odd draws keep about a quarter of the kinds.
    std::vector<payload::Group> groups;
    for (const payload::AccessKind& kind : payload::all_access_kinds()) {
      if (draw % 2 == 1 && rng.below(4) != 0) continue;
      const auto count = static_cast<std::uint32_t>(rng.below(limit(kind.level) + 1));
      if (count > 0) groups.push_back(payload::Group{kind, count});
    }
    if (groups.empty()) groups.push_back(payload::Group{payload::all_access_kinds().front(), 1});
    texts.push_back(payload::InstructionGroups(std::move(groups)).to_string());
  }

  std::vector<IdentityCase> cases;
  for (const std::string& text : texts)
    cases.push_back({payload::InstructionGroups::parse(text),
                     static_cast<std::uint32_t>(1 + rng.below(3000))});
  return cases;
}

class SimAndHostAgreeOnPayloadStats : public testing::TestWithParam<std::size_t> {};

TEST_P(SimAndHostAgreeOnPayloadStats, MatchesRecord) {
  // analyze_payload (simulator path) and compile_payload (host path) must
  // report identical static statistics — the sim substitution hinges on it
  // — and both must reproduce the recorded code and stats exactly, at the
  // default unroll and at explicit ones. compile_payload only maps the
  // code and never runs it, so this needs no particular host ISA.
  const payload::FunctionDef& fn = payload::available_functions().at(GetParam());
  const auto caches = arch::CacheHierarchy::zen2();
  const std::vector<IdentityCase> cases = identity_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const IdentityCase& identity = cases[c];
    std::uint64_t code_digest = kFnvOffset;
    std::uint64_t stats_digest = kFnvOffset;
    for (const std::uint32_t unroll : {0u, 64u, identity.seeded_unroll}) {
      for (const bool dump : {false, true}) {
        for (const std::size_t ram : {std::size_t{16} << 20, std::size_t{1} << 20}) {
          SCOPED_TRACE(identity.groups.to_string() + " u=" + std::to_string(unroll) +
                       " dump=" + std::to_string(dump) + " ram=" + std::to_string(ram));
          payload::CompileOptions options;
          options.unroll = unroll;
          options.dump_registers = dump;
          options.ram_region_bytes = ram;
          const auto analyzed = payload::analyze_payload(fn.mix, identity.groups, caches, options);
          const auto compiled = payload::compile_payload(fn.mix, identity.groups, caches, options);
          const auto fields = stats_fields(analyzed);
          const auto compiled_fields = stats_fields(compiled.stats());
          for (std::size_t f = 0; f < fields.size(); ++f)
            EXPECT_EQ(fields[f].second, compiled_fields[f].second) << fields[f].first;
          for (const auto& field : fields) stats_digest = fnv1a(stats_digest, field.second);
          // The mapping is page-rounded and zero-filled; the code ends in ret.
          const std::span<const std::uint8_t> code = compiled.code_bytes();
          std::size_t size = code.size();
          while (size > 0 && code[size - 1] == 0) --size;
          code_digest = fnv1a(code_digest, code.data(), size);
        }
      }
    }
    const auto record = std::find_if(
        std::begin(kIdentityRecord), std::end(kIdentityRecord), [&](const IdentityRecord& r) {
          return fn.name == r.function && r.case_index == c;
        });
    const std::string row = strings::format("{\"%s\", %zu, 0x%016llxULL, 0x%016llxULL},",
                                            fn.name.c_str(), c,
                                            static_cast<unsigned long long>(code_digest),
                                            static_cast<unsigned long long>(stats_digest));
    if (record == std::end(kIdentityRecord)) {
      ADD_FAILURE() << "no record for " << identity.groups.to_string() << "; measured " << row;
      continue;
    }
    EXPECT_EQ(record->code, code_digest) << identity.groups.to_string() << ": measured " << row;
    EXPECT_EQ(record->stats, stats_digest) << identity.groups.to_string() << ": measured " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(Integration, SimAndHostAgreeOnPayloadStats,
                         testing::Range<std::size_t>(0, payload::available_functions().size()),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           return payload::available_functions().at(info.param).name;
                         });

}  // namespace
}  // namespace fs2
