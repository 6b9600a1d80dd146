#pragma once

#include <cstdint>
#include <vector>

#include "payload/groups.hpp"

namespace fs2::payload {

/// Build the base access sequence for one pass over M (paper Sec. III):
/// a sequence of length `groups.total()` in which each access kind appears
/// exactly its a_i times, distributed as evenly as possible so that, e.g.,
/// with REG:4,L1_L:2,L2_L:1 the L1 accesses sit at least three instruction
/// sets apart.
///
/// The distribution is ideal-position scheduling: occurrence j of kind i
/// wants position (j + 1/2) * total / a_i, and the occurrences take their
/// slots in order of those positions (ties: higher a_i first, then group
/// order). This is deterministic, exact in the counts, and bounds every gap
/// between consecutive occurrences of kind i by ceil(total/a_i) plus one
/// slot per other group. Linear in `groups.total()`.
std::vector<AccessKind> base_sequence(const InstructionGroups& groups);

/// The same sequence as indices into `groups.groups()`: entry k is the
/// group whose kind the k-th instruction set of the base accesses.
std::vector<std::uint8_t> base_order(const InstructionGroups& groups);

/// Unroll `base` cyclically so that the result holds exactly `u` entries
/// (paper: "the consecutive accesses are then unrolled so that the total
/// number of instruction sets equals u").
std::vector<AccessKind> unroll_sequence(const std::vector<AccessKind>& base, std::uint32_t u);

/// Statistics of a built sequence, consumed by the simulator and by the
/// IPC-estimate metric without executing any code.
struct SequenceStats {
  std::uint32_t sets = 0;              ///< number of instruction sets (== u)
  std::uint32_t loads[kNumMemoryLevels] = {};      ///< per-level loads per loop iteration
  std::uint32_t stores[kNumMemoryLevels] = {};     ///< per-level stores per loop iteration
  std::uint32_t prefetches[kNumMemoryLevels] = {}; ///< per-level prefetches per loop iteration

  std::uint32_t total_loads() const;
  std::uint32_t total_stores() const;
  std::uint32_t total_memory_ops() const;

  /// Cache lines advanced per iteration at `level` (streaming rate).
  std::uint32_t lines(MemoryLevel level) const;

  /// Count `times` more instruction sets of `kind` (sets itself is unchanged).
  void add(const AccessKind& kind, std::uint32_t times);
};

}  // namespace fs2::payload
