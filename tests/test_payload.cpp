// Tests for the payload model: the Eq. 1 grammar, the even-distribution
// sequence builder (property-tested), the instruction-mix registry, and
// static payload analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "payload/access.hpp"
#include "payload/compiler.hpp"
#include "payload/groups.hpp"
#include "payload/mix.hpp"
#include "payload/sequence.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fs2::payload {
namespace {

// ---- access kinds -----------------------------------------------------------

TEST(Access, ParseCanonicalForms) {
  auto reg = parse_access_kind("REG");
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->level, MemoryLevel::kReg);

  auto l1 = parse_access_kind("L1_LS");
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->level, MemoryLevel::kL1);
  EXPECT_EQ(l1->pattern, AccessPattern::kLoadStore);

  auto ram = parse_access_kind("RAM_P");
  ASSERT_TRUE(ram.has_value());
  EXPECT_EQ(ram->pattern, AccessPattern::kPrefetch);
}

TEST(Access, ParseIsCaseInsensitive) {
  EXPECT_TRUE(parse_access_kind("l1_l").has_value());
  EXPECT_TRUE(parse_access_kind("ram_ls").has_value());
  EXPECT_TRUE(parse_access_kind(" reg ").has_value());
}

TEST(Access, RejectsUndefinedPatterns) {
  EXPECT_FALSE(parse_access_kind("L1_P").has_value());   // prefetch to L1 undefined
  EXPECT_FALSE(parse_access_kind("L2_2LS").has_value()); // 2LS only at L1
  EXPECT_FALSE(parse_access_kind("RAM_2LS").has_value());
  EXPECT_FALSE(parse_access_kind("L4_L").has_value());
  EXPECT_FALSE(parse_access_kind("bogus").has_value());
  EXPECT_FALSE(parse_access_kind("").has_value());
}

TEST(Access, RoundTripsThroughToString) {
  for (const AccessKind& kind : all_access_kinds()) {
    const auto parsed = parse_access_kind(kind.to_string());
    ASSERT_TRUE(parsed.has_value()) << kind.to_string();
    EXPECT_TRUE(*parsed == kind) << kind.to_string();
  }
}

TEST(Access, MemoryOpCounts) {
  EXPECT_EQ(parse_access_kind("L1_2LS")->memory_ops(), 3);
  EXPECT_EQ(parse_access_kind("L1_2LS")->loads(), 2);
  EXPECT_EQ(parse_access_kind("L1_2LS")->stores(), 1);
  EXPECT_EQ(parse_access_kind("RAM_P")->prefetches(), 1);
  EXPECT_EQ(parse_access_kind("REG")->memory_ops(), 0);
}

TEST(Access, AllKindsAreValidAndUnique) {
  const auto& kinds = all_access_kinds();
  EXPECT_GT(kinds.size(), 10u);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_TRUE(is_valid(kinds[i].level, kinds[i].pattern));
    for (std::size_t j = i + 1; j < kinds.size(); ++j)
      EXPECT_FALSE(kinds[i] == kinds[j]) << i << "," << j;
  }
}

// ---- groups grammar --------------------------------------------------------------

TEST(Groups, ParsesPaperExample) {
  // The worked example from Sec. III: REG:4,L1_L:2,L2_L:1.
  const auto groups = InstructionGroups::parse("REG:4,L1_L:2,L2_L:1");
  EXPECT_EQ(groups.total(), 7u);
  EXPECT_EQ(groups.count_of(*parse_access_kind("REG")), 4u);
  EXPECT_EQ(groups.count_of(*parse_access_kind("L1_L")), 2u);
  EXPECT_EQ(groups.count_of(*parse_access_kind("L2_L")), 1u);
  EXPECT_EQ(groups.count_of(*parse_access_kind("RAM_L")), 0u);
}

TEST(Groups, RoundTrip) {
  const std::string text = "RAM_L:3,L3_LS:3,L2_LS:10,L1_LS:77,REG:37";
  EXPECT_EQ(InstructionGroups::parse(text).to_string(), text);
}

TEST(Groups, RejectsMalformedInput) {
  EXPECT_THROW(InstructionGroups::parse(""), ConfigError);
  EXPECT_THROW(InstructionGroups::parse("REG:4294967295,L1_L:2"), ConfigError);  // total wraps
  EXPECT_THROW(InstructionGroups::parse("REG"), ConfigError);          // missing count
  EXPECT_THROW(InstructionGroups::parse("REG:0"), ConfigError);        // zero count
  EXPECT_THROW(InstructionGroups::parse("REG:4,REG:2"), ConfigError);  // duplicate
  EXPECT_THROW(InstructionGroups::parse("L9_L:1"), ConfigError);       // unknown level
  EXPECT_THROW(InstructionGroups::parse("L1_P:1"), ConfigError);       // invalid pattern
  EXPECT_THROW(InstructionGroups::parse("REG:abc"), ConfigError);
  EXPECT_THROW(InstructionGroups::parse(",REG:1"), ConfigError);
}

TEST(Groups, TouchesLevels) {
  const auto groups = InstructionGroups::parse("REG:4,L2_L:1");
  EXPECT_TRUE(groups.touches(MemoryLevel::kReg));
  EXPECT_TRUE(groups.touches(MemoryLevel::kL2));
  EXPECT_FALSE(groups.touches(MemoryLevel::kRam));
}

// ---- sequence distribution (property tests) ------------------------------------------

using SeqCase = const char*;
class SequenceProperties : public testing::TestWithParam<SeqCase> {};

TEST_P(SequenceProperties, ExactCountsAndBoundedGaps) {
  const auto groups = InstructionGroups::parse(GetParam());
  const auto seq = base_sequence(groups);
  ASSERT_EQ(seq.size(), groups.total());

  // Property 1: every kind appears exactly a_i times.
  for (const Group& g : groups.groups()) {
    const auto count = std::count_if(seq.begin(), seq.end(),
                                     [&](const AccessKind& k) { return k == g.kind; });
    EXPECT_EQ(count, static_cast<long>(g.count)) << g.kind.to_string();
  }

  // Property 2: occurrences of each kind are spread out — the gap between
  // consecutive occurrences never exceeds the ideal gap ceil(total/a_i)
  // plus one slot of slip per other group (the provable bound of the
  // ideal-position scheduler).
  const double total = groups.total();
  for (const Group& g : groups.groups()) {
    const long bound = static_cast<long>(std::ceil(total / g.count)) +
                       static_cast<long>(groups.groups().size());
    long last = -1;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (!(seq[i] == g.kind)) continue;
      if (last >= 0) {
        EXPECT_LE(static_cast<long>(i) - last, bound)
            << g.kind.to_string() << " gap at " << i << " for " << GetParam();
      }
      last = static_cast<long>(i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, SequenceProperties,
    testing::Values("REG:4,L1_L:2,L2_L:1", "REG:1", "L1_LS:7",
                    "RAM_L:3,L3_LS:3,L2_LS:10,L1_LS:77,REG:37",
                    "REG:100,RAM_P:1", "REG:2,L1_L:2,L2_S:2,L3_P:2,RAM_LS:2",
                    "L1_2LS:5,REG:3", "REG:40,L1_LS:90,L2_LS:9,L3_LS:3,RAM_L:2"));

TEST(Sequence, PaperExampleSpacing) {
  // Sec. III: with REG:4,L1_L:2,L2_L:1 the two L1 accesses must be at least
  // three instruction sets apart.
  const auto seq = base_sequence(InstructionGroups::parse("REG:4,L1_L:2,L2_L:1"));
  std::vector<long> l1_positions;
  for (std::size_t i = 0; i < seq.size(); ++i)
    if (seq[i].level == MemoryLevel::kL1) l1_positions.push_back(static_cast<long>(i));
  ASSERT_EQ(l1_positions.size(), 2u);
  EXPECT_GE(l1_positions[1] - l1_positions[0], 3);
}

/// base_sequence's order as a stable sort of all occurrences by ideal
/// position, compared exactly in 128-bit integers — the builder's original
/// implementation, kept as the reference its order must match.
std::vector<AccessKind> reference_base_sequence(const InstructionGroups& groups) {
  const std::uint64_t total = groups.total();
  struct Occurrence {
    AccessKind kind;
    std::uint64_t numerator;  // (2j+1) * total
    std::uint64_t rate;       // a_i
  };
  std::vector<Occurrence> occurrences;
  for (const Group& g : groups.groups())
    for (std::uint32_t j = 0; j < g.count; ++j)
      occurrences.push_back(Occurrence{g.kind, (2ull * j + 1) * total, g.count});
  std::stable_sort(occurrences.begin(), occurrences.end(),
                   [](const Occurrence& a, const Occurrence& b) {
                     const auto lhs = static_cast<unsigned __int128>(a.numerator) * b.rate;
                     const auto rhs = static_cast<unsigned __int128>(b.numerator) * a.rate;
                     if (lhs != rhs) return lhs < rhs;
                     return a.rate > b.rate;
                   });
  std::vector<AccessKind> sequence;
  for (const Occurrence& occ : occurrences) sequence.push_back(occ.kind);
  return sequence;
}

TEST(Sequence, MatchesStableSortReference) {
  // Seeded group lists in random kind order: small counts, the tuner's
  // range, counts sharing a factor (equal ideal positions across kinds,
  // settled by the tie rule), and every 20th list with large counts.
  Xoshiro256 rng(0x5e9);
  const std::vector<AccessKind>& kinds = all_access_kinds();
  for (int draw = 0; draw < 10000; ++draw) {
    std::vector<AccessKind> order = kinds;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    const std::size_t n = 1 + rng.below(draw % 20 == 19 ? 6 : order.size());
    const std::uint32_t factor = static_cast<std::uint32_t>(1 + rng.below(20));
    std::vector<Group> list;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t count = 0;
      if (draw % 20 == 19) count = 1 + rng.below(3000);
      else if (draw % 3 == 0) count = 1 + rng.below(8);
      else if (draw % 3 == 1) count = 1 + rng.below(100);
      else count = factor * (1 + rng.below(3));
      list.push_back(Group{order[i], static_cast<std::uint32_t>(count)});
    }
    const InstructionGroups groups(std::move(list));
    const std::vector<AccessKind> expected = reference_base_sequence(groups);
    const std::vector<AccessKind> actual = base_sequence(groups);
    ASSERT_EQ(actual.size(), expected.size()) << groups.to_string();
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_TRUE(actual[i] == expected[i]) << groups.to_string() << " differs at " << i;
  }
}

TEST(Sequence, UnrollRepeatsCyclically) {
  const auto base = base_sequence(InstructionGroups::parse("REG:2,L1_L:1"));
  const auto unrolled = unroll_sequence(base, 10);
  ASSERT_EQ(unrolled.size(), 10u);
  for (std::size_t i = 0; i < unrolled.size(); ++i)
    EXPECT_TRUE(unrolled[i] == base[i % base.size()]);
}

TEST(Sequence, UnrollValidation) {
  const auto base = base_sequence(InstructionGroups::parse("REG:1"));
  EXPECT_THROW(unroll_sequence(base, 0), ConfigError);
  EXPECT_THROW(unroll_sequence({}, 5), ConfigError);
}

TEST(Sequence, AnalyzeCountsPerLevel) {
  CompileOptions options;
  options.unroll = 6;
  const SequenceStats stats =
      analyze_payload(find_function("FUNC_FMA_256_ZEN2").mix,
                      InstructionGroups::parse("REG:1,L1_2LS:1,RAM_P:1"),
                      arch::CacheHierarchy::zen2(), options)
          .sequence;
  EXPECT_EQ(stats.sets, 6u);
  // 6 sets = 2 full passes over the 3-entry base sequence.
  EXPECT_EQ(stats.loads[static_cast<int>(MemoryLevel::kL1)], 4u);   // 2 per 2LS x 2
  EXPECT_EQ(stats.stores[static_cast<int>(MemoryLevel::kL1)], 2u);
  EXPECT_EQ(stats.prefetches[static_cast<int>(MemoryLevel::kRam)], 2u);
  EXPECT_EQ(stats.total_memory_ops(), 8u);
  EXPECT_EQ(stats.lines(MemoryLevel::kL1), 6u);
}

TEST(Sequence, AnalyzeUnrolledCountsEveryUnrolledSet) {
  // analyze_payload's per-level counts against a walk over the unrolled
  // sequence, set by set. Seeded bases with u below, at and above the base
  // length, partial passes included.
  const InstructionMix& mix = find_function("FUNC_FMA_256_ZEN2").mix;
  const auto caches = arch::CacheHierarchy::zen2();
  Xoshiro256 rng(0xa11);
  const std::vector<AccessKind>& kinds = all_access_kinds();
  for (int draw = 0; draw < 500; ++draw) {
    std::vector<Group> list;
    for (const AccessKind& kind : kinds)
      if (rng.below(3) == 0)
        list.push_back(Group{kind, static_cast<std::uint32_t>(1 + rng.below(40))});
    if (list.empty()) list.push_back(Group{kinds[rng.below(kinds.size())], 1});
    const InstructionGroups groups(std::move(list));
    const std::vector<AccessKind> base = base_sequence(groups);
    const std::uint32_t n = static_cast<std::uint32_t>(base.size());
    for (const std::uint32_t u : {1u, std::max(1u, n - 1), n, n + 1, 2 * n,
                                  static_cast<std::uint32_t>(1 + rng.below(3000))}) {
      SequenceStats expected;
      expected.sets = u;
      for (const AccessKind& kind : unroll_sequence(base, u)) {
        const auto level = static_cast<std::size_t>(kind.level);
        expected.loads[level] += static_cast<std::uint32_t>(kind.loads());
        expected.stores[level] += static_cast<std::uint32_t>(kind.stores());
        expected.prefetches[level] += static_cast<std::uint32_t>(kind.prefetches());
      }
      CompileOptions options;
      options.unroll = u;
      const SequenceStats actual = analyze_payload(mix, groups, caches, options).sequence;
      ASSERT_EQ(actual.sets, expected.sets);
      for (int level = 0; level < kNumMemoryLevels; ++level) {
        ASSERT_EQ(actual.loads[level], expected.loads[level]) << "u=" << u << " level " << level;
        ASSERT_EQ(actual.stores[level], expected.stores[level]) << "u=" << u << " level " << level;
        ASSERT_EQ(actual.prefetches[level], expected.prefetches[level])
            << "u=" << u << " level " << level;
      }
    }
  }
}

TEST(Sequence, AnalyzeUnrolledValidation) {
  EXPECT_THROW(analyze_payload(find_function("FUNC_FMA_256_ZEN2").mix, InstructionGroups(),
                               arch::CacheHierarchy::zen2()),
               ConfigError);
}

// ---- mix registry --------------------------------------------------------------------

TEST(Mix, RegistryHasUniqueIdsAndNames) {
  const auto& fns = available_functions();
  ASSERT_GE(fns.size(), 5u);
  for (std::size_t i = 0; i < fns.size(); ++i) {
    EXPECT_EQ(fns[i].id, static_cast<int>(i) + 1);  // ids are 1-based and dense
    for (std::size_t j = i + 1; j < fns.size(); ++j) EXPECT_NE(fns[i].name, fns[j].name);
    // Every default group string must parse.
    EXPECT_NO_THROW(InstructionGroups::parse(fns[i].default_groups)) << fns[i].name;
  }
}

TEST(Mix, FindByIdAndName) {
  EXPECT_EQ(find_function(1).id, 1);
  EXPECT_EQ(find_function("FUNC_FMA_256_ZEN2").name, "FUNC_FMA_256_ZEN2");
  EXPECT_EQ(find_function("func_fma_256_zen2").name, "FUNC_FMA_256_ZEN2");  // case-insensitive
  EXPECT_THROW(find_function(999), ConfigError);
  EXPECT_THROW(find_function("NOPE"), ConfigError);
}

TEST(Mix, SelectsTunedFunctionForPaperTestbeds) {
  EXPECT_EQ(select_function(arch::epyc_7502_model()).name, "FUNC_FMA_256_ZEN2");
  EXPECT_EQ(select_function(arch::xeon_e5_2680v3_model()).name, "FUNC_FMA_256_HASWELL");
}

TEST(Mix, FallsBackByFeatureSet) {
  arch::ProcessorModel cpu;
  cpu.microarch = arch::Microarch::kGeneric;
  cpu.features = arch::FeatureSet{.sse2 = true};
  EXPECT_EQ(select_function(cpu).mix.isa, IsaClass::kSse2);

  cpu.features.avx = true;
  EXPECT_EQ(select_function(cpu).mix.isa, IsaClass::kAvx);

  cpu.features.fma = true;
  EXPECT_EQ(select_function(cpu).mix.isa, IsaClass::kFma);
}

TEST(Mix, NoSse2Throws) {
  arch::ProcessorModel cpu;  // all features false
  EXPECT_THROW(select_function(cpu), UnsupportedError);
}

TEST(Mix, FlopsPerSet) {
  const InstructionMix& fma = find_function("FUNC_FMA_256_ZEN2").mix;
  EXPECT_EQ(fma.flops_per_set(), 2 * 2 * 4);  // 2 FMA x 2 flops x 4 doubles
  const InstructionMix& sse = find_function("FUNC_SSE2_128").mix;
  EXPECT_EQ(sse.flops_per_set(), 2 * 2);  // mul+add x 2 doubles
}

// ---- static payload analysis ------------------------------------------------------------

TEST(Analyze, DefaultUnrollTargetsL1I) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  const auto caches = arch::CacheHierarchy::zen2();
  const PayloadStats stats =
      analyze_payload(fn.mix, InstructionGroups::parse(fn.default_groups), caches);
  // The loop must overflow typical micro-op caches (>4 KiB of code) but fit
  // within the 32 KiB L1-I (paper Sec. III-B / IV-C).
  EXPECT_GT(stats.loop_bytes, 4u * 1024);
  EXPECT_LE(stats.loop_bytes, 32u * 1024);
  EXPECT_EQ(stats.sequence.sets, stats.unroll);
  EXPECT_GT(stats.instructions_per_iteration, 0u);
  EXPECT_EQ(stats.instructions_per_iteration,
            stats.simd_per_iteration + stats.alu_per_iteration + stats.overhead_per_iteration);
}

TEST(Analyze, ExplicitUnrollHonored) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  const auto caches = arch::CacheHierarchy::zen2();
  CompileOptions options;
  options.unroll = 200;
  const PayloadStats stats =
      analyze_payload(fn.mix, InstructionGroups::parse("REG:1,L1_L:1"), caches, options);
  EXPECT_EQ(stats.unroll, 200u);
  EXPECT_EQ(stats.sequence.sets, 200u);
  // 100 of the 200 sets carry an L1 load.
  EXPECT_EQ(stats.sequence.loads[static_cast<int>(MemoryLevel::kL1)], 100u);
}

TEST(Analyze, AluAndFmaCountsMatchMix) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  const auto caches = arch::CacheHierarchy::zen2();
  CompileOptions options;
  options.unroll = 100;
  const PayloadStats stats =
      analyze_payload(fn.mix, InstructionGroups::parse("REG:1"), caches, options);
  // REG set: 2 FMA + 2 ALU per set.
  EXPECT_EQ(stats.fma_per_iteration, 200u);
  EXPECT_EQ(stats.alu_per_iteration, 200u);
  EXPECT_EQ(stats.flops_per_iteration, 200u * 8);
}

TEST(Analyze, RegionsFollowHierarchy) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  const auto caches = arch::CacheHierarchy::zen2();
  const PayloadStats stats = analyze_payload(
      fn.mix, InstructionGroups::parse("REG:4,L1_LS:4,L2_LS:2,L3_LS:1,RAM_L:1"), caches);
  const auto level = [](MemoryLevel l) { return static_cast<int>(l); };
  // L1 region fits in L1-D; L2 region exceeds L1 but fits in L2; L3 region
  // exceeds L2; RAM region exceeds the per-thread L3 share.
  EXPECT_LE(stats.regions.bytes[level(MemoryLevel::kL1)], 32u * 1024);
  EXPECT_GT(stats.regions.bytes[level(MemoryLevel::kL2)], 32u * 1024);
  EXPECT_LE(stats.regions.bytes[level(MemoryLevel::kL2)], 512u * 1024);
  EXPECT_GT(stats.regions.bytes[level(MemoryLevel::kL3)], 512u * 1024);
  EXPECT_GT(stats.regions.bytes[level(MemoryLevel::kRam)],
            stats.regions.bytes[level(MemoryLevel::kL3)]);
  // The generated code wraps addresses by masking, which is exact only for
  // power-of-two regions; every region is also at least one 4 KiB page.
  for (int l = level(MemoryLevel::kL1); l < kNumMemoryLevels; ++l) {
    const std::size_t bytes = stats.regions.bytes[l];
    EXPECT_GE(bytes, 4096u) << to_string(static_cast<MemoryLevel>(l));
    EXPECT_EQ(bytes & (bytes - 1), 0u) << to_string(static_cast<MemoryLevel>(l));
  }
}

TEST(Analyze, BytesPerIterationMatchLines) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  const auto caches = arch::CacheHierarchy::zen2();
  CompileOptions options;
  options.unroll = 12;
  const PayloadStats stats =
      analyze_payload(fn.mix, InstructionGroups::parse("L1_2LS:1,L2_L:1"), caches, options);
  // 6 sets of each kind: L1 2LS = 3 lines/set, L2 L = 1 line/set.
  EXPECT_EQ(stats.bytes_per_iteration[static_cast<int>(MemoryLevel::kL1)], 6u * 3 * 64);
  EXPECT_EQ(stats.bytes_per_iteration[static_cast<int>(MemoryLevel::kL2)], 6u * 64);
}

// ---- sizing without emitting ---------------------------------------------------------

/// Every PayloadStats field that differs between `a` and `b`, as
/// "name a!=b" items, empty when the two are equal.
std::string stats_differences(const PayloadStats& a, const PayloadStats& b) {
  std::string out;
  const auto field = [&](const std::string& name, std::uint64_t x, std::uint64_t y) {
    if (x != y)
      out += strings::format(" %s %llu!=%llu", name.c_str(), static_cast<unsigned long long>(x),
                             static_cast<unsigned long long>(y));
  };
  field("sequence.sets", a.sequence.sets, b.sequence.sets);
  field("unroll", a.unroll, b.unroll);
  field("instructions_per_iteration", a.instructions_per_iteration, b.instructions_per_iteration);
  field("simd_per_iteration", a.simd_per_iteration, b.simd_per_iteration);
  field("fma_per_iteration", a.fma_per_iteration, b.fma_per_iteration);
  field("fp_compute_per_iteration", a.fp_compute_per_iteration, b.fp_compute_per_iteration);
  field("vector_doubles", static_cast<std::uint64_t>(a.vector_doubles),
        static_cast<std::uint64_t>(b.vector_doubles));
  field("alu_per_iteration", a.alu_per_iteration, b.alu_per_iteration);
  field("overhead_per_iteration", a.overhead_per_iteration, b.overhead_per_iteration);
  field("flops_per_iteration", a.flops_per_iteration, b.flops_per_iteration);
  field("loop_bytes", a.loop_bytes, b.loop_bytes);
  for (int level = 0; level < kNumMemoryLevels; ++level) {
    const std::string at = strings::format("[%d]", level);
    field("sequence.loads" + at, a.sequence.loads[level], b.sequence.loads[level]);
    field("sequence.stores" + at, a.sequence.stores[level], b.sequence.stores[level]);
    field("sequence.prefetches" + at, a.sequence.prefetches[level], b.sequence.prefetches[level]);
    field("bytes_per_iteration" + at, a.bytes_per_iteration[level], b.bytes_per_iteration[level]);
    field("regions.bytes" + at, a.regions.bytes[level], b.regions.bytes[level]);
  }
  return out;
}

/// One seeded sizing case: a function, a cache hierarchy, a genome and
/// the compile options.
struct SizingCase {
  const FunctionDef* fn = nullptr;
  arch::CacheHierarchy caches;
  InstructionGroups groups;
  CompileOptions options;
  std::string describe() const {
    return strings::format("%s M=%s u=%u dump=%d ram=%zu l1d=%zu", fn->name.c_str(),
                           groups.to_string().c_str(), options.unroll, options.dump_registers,
                           options.ram_region_bytes, caches.data_cache_size(1));
  }
};

/// `count` seeded cases. Genomes draw every kind within the tuner's
/// per-level limits (even draws fill every gene, odd ones about a quarter
/// of the kinds); the cases cycle through every function, both cache
/// hierarchies and five unroll choices: the default, below the base
/// length, at it, above it, and anywhere up to 3000.
std::vector<SizingCase> sizing_cases(std::uint64_t seed, int count) {
  const auto limit = [](MemoryLevel level) -> std::uint64_t {
    switch (level) {
      case MemoryLevel::kReg: return 100;
      case MemoryLevel::kL1: return 100;
      case MemoryLevel::kL2: return 40;
      case MemoryLevel::kL3: return 20;
      case MemoryLevel::kRam: return 12;
    }
    return 1;
  };
  const std::vector<FunctionDef>& functions = available_functions();
  Xoshiro256 rng(seed);
  std::vector<SizingCase> cases;
  for (int draw = 0; draw < count; ++draw) {
    std::vector<Group> list;
    for (const AccessKind& kind : all_access_kinds()) {
      if (draw % 2 == 1 && rng.below(4) != 0) continue;
      const auto n = static_cast<std::uint32_t>(rng.below(limit(kind.level) + 1));
      if (n > 0) list.push_back(Group{kind, n});
    }
    if (list.empty()) list.push_back(Group{all_access_kinds()[1 + rng.below(15)], 1});
    SizingCase c;
    c.fn = &functions[static_cast<std::size_t>(draw) % functions.size()];
    c.caches = draw / functions.size() % 2 == 0 ? arch::CacheHierarchy::zen2()
                                                : arch::CacheHierarchy::haswell_ep();
    c.groups = InstructionGroups(std::move(list));
    const std::uint32_t base = c.groups.total();
    switch (draw / (2 * functions.size()) % 5) {
      case 0: c.options.unroll = 0; break;
      case 1: c.options.unroll = static_cast<std::uint32_t>(1 + rng.below(base)); break;
      case 2: c.options.unroll = base; break;
      case 3: c.options.unroll = static_cast<std::uint32_t>(base + 1 + rng.below(2 * base)); break;
      case 4: c.options.unroll = static_cast<std::uint32_t>(1 + rng.below(3000)); break;
    }
    c.options.dump_registers = rng.below(2) == 1;
    c.options.ram_region_bytes = rng.below(2) == 1 ? std::size_t{16} << 20 : std::size_t{1} << 20;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// What analyze_payload sized against what compile_payload emitted for
/// `c`, as a failure line, empty when every field agrees.
std::string sizing_failure(const SizingCase& c, const PayloadStats& analyzed) {
  try {
    const CompiledPayload compiled = compile_payload(c.fn->mix, c.groups, c.caches, c.options);
    const std::string differences = stats_differences(analyzed, compiled.stats());
    if (differences.empty()) return "";
    return strings::format("%s:%s\n", c.describe().c_str(), differences.c_str());
  } catch (const std::exception& e) {
    return strings::format("%s: %s\n", c.describe().c_str(), e.what());
  }
}

/// Run `check` in a fresh process, where no payload has been sized yet,
/// and expect it to report no failure. The child prints what it found.
void expect_in_fresh_process(const std::function<std::string()>& check) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const std::string failures = check();
        std::fputs(failures.substr(0, 4000).c_str(), stderr);
        std::exit(failures.empty() ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

TEST(Sizing, AnalyzeMatchesCompileFromColdStart) {
  // 10,000 seeded genomes, each sized by analyze_payload and emitted by
  // compile_payload; every PayloadStats field must agree. In a fresh
  // process the first analysis for each ISA runs on a new thread with an
  // explicit u, so sizing from a cold start is checked as well as warm.
  expect_in_fresh_process([] {
    std::vector<SizingCase> cases = sizing_cases(0x51e5, 10000);
    std::set<IsaClass> cold;
    std::string failures;
    for (SizingCase& c : cases) {
      PayloadStats analyzed;
      if (cold.insert(c.fn->mix.isa).second) {
        if (c.options.unroll == 0) c.options.unroll = 16;
        std::thread([&] { analyzed = analyze_payload(c.fn->mix, c.groups, c.caches, c.options); })
            .join();
      } else {
        analyzed = analyze_payload(c.fn->mix, c.groups, c.caches, c.options);
      }
      failures += sizing_failure(c, analyzed);
    }
    return failures;
  });
}

TEST(Sizing, ConcurrentColdAnalysesAgree) {
  // Four threads size the same seeded genomes at once, starting in a fresh
  // process, so they race to build the price tables; every result must
  // equal what compile_payload emits.
  expect_in_fresh_process([] {
    const std::vector<SizingCase> cases = sizing_cases(0xc01d, 360);
    constexpr int kThreads = 4;
    std::vector<std::vector<PayloadStats>> results(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (const SizingCase& c : cases)
          results[t].push_back(analyze_payload(c.fn->mix, c.groups, c.caches, c.options));
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::string failures;
    for (std::size_t i = 0; i < cases.size(); ++i)
      for (int t = 0; t < kThreads; ++t) failures += sizing_failure(cases[i], results[t][i]);
    return failures;
  });
}

}  // namespace
}  // namespace fs2::payload
