#include "payload/sequence.hpp"

#include <array>
#include <memory>

#include "util/error.hpp"

namespace fs2::payload {

std::vector<AccessKind> base_sequence(const InstructionGroups& groups) {
  const std::vector<std::uint8_t> order = base_order(groups);
  std::vector<AccessKind> sequence(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) sequence[i] = groups.groups()[order[i]].kind;
  return sequence;
}

std::vector<std::uint8_t> base_order(const InstructionGroups& groups) {
  if (groups.empty()) throw ConfigError("base_sequence: empty instruction groups");
  const std::vector<Group>& list = groups.groups();
  const std::uint64_t total = groups.total();

  // Ideal-position scheduling: occurrence j of group i wants the slot at
  // (j + 1/2) * total / a_i. Ordering all occurrences by ideal position
  // (ties: higher-rate kinds first, then group order) assigns each its rank
  // as the real slot. Consecutive ideal positions of one kind are exactly
  // total/a_i apart, so the real gap is the ideal gap plus at most one
  // boundary slip per other group — a tight, provable spacing guarantee.
  //
  // Each group walks its positions Bresenham-style in fixed point: `key` is
  // floor(position * 2^31) and `rem / denominator` the exact rest, so one
  // division per group and none per occurrence. The integer slot is
  // key >> 31.
  constexpr int kFraction = 31;
  struct Walk {
    std::uint64_t key, rem, step, step_rem, denominator;
    void next() {
      key += step;
      rem += step_rem;
      const bool carry = rem >= denominator;
      rem -= carry ? denominator : 0;
      key += carry;
    }
  };
  const std::uint64_t scaled = total << kFraction;
  // Groups hold distinct kinds, so there are at most this many.
  constexpr std::size_t kMaxGroups =
      kNumMemoryLevels * (static_cast<std::size_t>(AccessPattern::kPrefetch) + 1);
  // Ties: higher-rate kinds first, keeping their own spacing tight (the
  // rarer kind can absorb the slip), then group order. The groups are
  // placed in that order, and every later step is stable.
  std::array<std::uint8_t, kMaxGroups> tie_order{};
  // Each group's occurrences, in its own order, staged for the sort; both
  // buffers are written whole before they are read.
  struct Occurrence {
    std::uint64_t key;
    std::uint64_t rem_group;  // rem << 8 | group index
  };
  const auto staged = std::make_unique_for_overwrite<Occurrence[]>(total);
  std::array<std::uint32_t, kMaxGroups> first_staged{};
  std::vector<std::uint32_t> slot_start(total + 1, 0);
  for (std::size_t g = 0, at = 0; g < list.size(); ++g) {
    const std::uint64_t denominator = 2ull * list[g].count;
    const std::uint64_t key = scaled / denominator;
    const std::uint64_t rem = scaled % denominator;
    const bool carry = 2 * rem >= denominator;
    Walk walk{key, rem, 2 * key + carry, 2 * rem - (carry ? denominator : 0), denominator};
    std::size_t t = g;
    for (; t > 0 && list[tie_order[t - 1]].count < list[g].count; --t)
      tie_order[t] = tie_order[t - 1];
    tie_order[t] = static_cast<std::uint8_t>(g);
    first_staged[g] = static_cast<std::uint32_t>(at);
    const std::uint32_t count = list[g].count;
    for (std::uint32_t j = 0; j < count; ++j, walk.next()) {
      staged[at++] = Occurrence{walk.key, walk.rem << 8 | g};
      ++slot_start[(walk.key >> kFraction) + 1];
    }
  }

  // Counting sort by integer slot. A kind's ideal positions are at least
  // one apart, so a slot holds at most one occurrence per group.
  for (std::uint64_t s = 0; s < total; ++s) slot_start[s + 1] += slot_start[s];
  const auto ordered = std::make_unique_for_overwrite<Occurrence[]>(total);
  for (std::size_t t = 0; t < list.size(); ++t) {
    const std::uint8_t g = tie_order[t];
    const Occurrence* occurrences = &staged[first_staged[g]];
    for (std::uint32_t j = 0; j < list[g].count; ++j)
      ordered[slot_start[occurrences[j].key >> kFraction]++] = occurrences[j];
  }

  // Order within each slot by exact position: stable insertion, which
  // stops at the first occurrence of an earlier slot. Equal keys compare
  // the exact rests rem / (2 a), cross-multiplied in 128 bits.
  const auto before = [&](const Occurrence& a, const Occurrence& b) {
    if (a.key != b.key) return a.key < b.key;
    const auto lhs =
        static_cast<unsigned __int128>(a.rem_group >> 8) * list[b.rem_group & 0xff].count;
    const auto rhs =
        static_cast<unsigned __int128>(b.rem_group >> 8) * list[a.rem_group & 0xff].count;
    return lhs < rhs;
  };
  for (std::size_t i = 1; i < total; ++i) {
    const Occurrence occ = ordered[i];
    if (!before(occ, ordered[i - 1])) continue;
    std::size_t k = i;
    for (; k > 0 && before(occ, ordered[k - 1]); --k) ordered[k] = ordered[k - 1];
    ordered[k] = occ;
  }

  std::vector<std::uint8_t> order(total);
  for (std::size_t i = 0; i < total; ++i)
    order[i] = static_cast<std::uint8_t>(ordered[i].rem_group);
  return order;
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

void SequenceStats::add(const AccessKind& kind, std::uint32_t times) {
  const auto i = static_cast<std::size_t>(kind.level);
  loads[i] += times * static_cast<std::uint32_t>(kind.loads());
  stores[i] += times * static_cast<std::uint32_t>(kind.stores());
  prefetches[i] += times * static_cast<std::uint32_t>(kind.prefetches());
}

}  // namespace fs2::payload
