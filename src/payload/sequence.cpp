#include "payload/sequence.hpp"

#include "util/error.hpp"

namespace fs2::payload {

std::vector<AccessKind> base_sequence(const InstructionGroups& groups) {
  if (groups.empty()) throw ConfigError("base_sequence: empty instruction groups");
  const std::uint64_t total = groups.total();

  // Ideal-position scheduling: occurrence j of kind i wants the slot at
  // (j + 1/2) * total / a_i. Ordering all occurrences by ideal position
  // (ties: higher-rate kinds first, then group order) assigns each its rank
  // as the real slot. Consecutive ideal positions of one kind are exactly
  // total/a_i apart, so the real gap is the ideal gap plus at most one
  // boundary slip per other group — a tight, provable spacing guarantee.
  struct Occurrence {
    AccessKind kind;
    std::uint64_t numerator;  // (2j+1) * total
    std::uint64_t rate;       // a_i (position = numerator / (2*rate))
    std::uint64_t slot;       // floor(position), in [0, total)
  };
  // Exact order: compare the cross-multiplied fractions in 128 bits.
  const auto before = [](const Occurrence& a, const Occurrence& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    const auto lhs = static_cast<unsigned __int128>(a.numerator) * b.rate;
    const auto rhs = static_cast<unsigned __int128>(b.numerator) * a.rate;
    if (lhs != rhs) return lhs < rhs;
    // Ties: higher-rate kinds first, keeping their own spacing tight; the
    // rarer kind can absorb the slip.
    return a.rate > b.rate;
  };

  // Counting sort by integer slot, stable in group order. A kind's ideal
  // positions are at least one apart, so a slot holds at most one
  // occurrence per group. The slots step by total/a_i with a remainder
  // carried Bresenham-style: one division per group, none per occurrence.
  std::vector<Occurrence> occurrences;
  occurrences.reserve(total);
  std::vector<std::uint32_t> slot_start(total + 1, 0);
  for (const Group& g : groups.groups()) {
    const std::uint64_t denominator = 2ull * g.count;
    std::uint64_t slot = total / denominator;
    std::uint64_t remainder = total % denominator;
    const std::uint64_t step = 2 * total / denominator;
    const std::uint64_t step_remainder = 2 * total % denominator;
    for (std::uint32_t j = 0; j < g.count; ++j) {
      occurrences.push_back(Occurrence{g.kind, (2ull * j + 1) * total, g.count, slot});
      ++slot_start[slot + 1];
      slot += step;
      remainder += step_remainder;
      if (remainder >= denominator) {
        remainder -= denominator;
        ++slot;
      }
    }
  }
  for (std::uint64_t s = 0; s < total; ++s) slot_start[s + 1] += slot_start[s];
  std::vector<Occurrence> ordered(occurrences.size());
  for (const Occurrence& occ : occurrences) ordered[slot_start[occ.slot]++] = occ;

  // Order within each slot: stable insertion, which stops at the first
  // occurrence of an earlier slot.
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const Occurrence occ = ordered[i];
    std::size_t k = i;
    for (; k > 0 && before(occ, ordered[k - 1]); --k) ordered[k] = ordered[k - 1];
    ordered[k] = occ;
  }

  std::vector<AccessKind> sequence;
  sequence.reserve(total);
  for (const Occurrence& occ : ordered) sequence.push_back(occ.kind);
  return sequence;
}

std::vector<AccessKind> unroll_sequence(const std::vector<AccessKind>& base, std::uint32_t u) {
  if (base.empty()) throw ConfigError("unroll_sequence: empty base sequence");
  if (u == 0) throw ConfigError("unroll_sequence: unroll factor must be >= 1");
  std::vector<AccessKind> out;
  out.reserve(u);
  for (std::uint32_t i = 0; i < u; ++i) out.push_back(base[i % base.size()]);
  return out;
}

std::uint32_t SequenceStats::total_loads() const {
  std::uint32_t sum = 0;
  for (std::uint32_t v : loads) sum += v;
  return sum;
}

std::uint32_t SequenceStats::total_stores() const {
  std::uint32_t sum = 0;
  for (std::uint32_t v : stores) sum += v;
  return sum;
}

std::uint32_t SequenceStats::total_memory_ops() const {
  std::uint32_t sum = total_loads() + total_stores();
  for (std::uint32_t v : prefetches) sum += v;
  return sum;
}

std::uint32_t SequenceStats::lines(MemoryLevel level) const {
  const auto i = static_cast<std::size_t>(level);
  return loads[i] + stores[i] + prefetches[i];
}

SequenceStats analyze_unrolled(const std::vector<AccessKind>& base, std::uint32_t u) {
  if (base.empty()) throw ConfigError("analyze_unrolled: empty base sequence");
  if (u == 0) throw ConfigError("analyze_unrolled: unroll factor must be >= 1");
  // Occurrences per (level, pattern): set i of the base occurs once per
  // full pass, plus once more if it lies in the trailing partial pass.
  constexpr int kPatterns = static_cast<int>(AccessPattern::kPrefetch) + 1;
  std::uint32_t times[kNumMemoryLevels][kPatterns] = {};
  const std::uint32_t passes = u / static_cast<std::uint32_t>(base.size());
  const std::uint32_t partial = u % static_cast<std::uint32_t>(base.size());
  for (std::uint32_t i = 0; i < base.size(); ++i)
    times[static_cast<int>(base[i].level)][static_cast<int>(base[i].pattern)] +=
        passes + (i < partial ? 1 : 0);

  SequenceStats stats;
  stats.sets = u;
  for (int level = 0; level < kNumMemoryLevels; ++level) {
    for (int pattern = 0; pattern < kPatterns; ++pattern) {
      const AccessKind kind{static_cast<MemoryLevel>(level), static_cast<AccessPattern>(pattern)};
      const std::uint32_t n = times[level][pattern];
      stats.loads[level] += n * static_cast<std::uint32_t>(kind.loads());
      stats.stores[level] += n * static_cast<std::uint32_t>(kind.stores());
      stats.prefetches[level] += n * static_cast<std::uint32_t>(kind.prefetches());
    }
  }
  return stats;
}

}  // namespace fs2::payload
