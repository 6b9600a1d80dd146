#include "payload/data.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fs2::payload {

namespace {

std::size_t ceil_pow2(std::size_t value) {
  std::size_t p = 1;
  while (p < value) p <<= 1;
  return p;
}

/// Uninitialized: the caller writes every byte it asked for.
void* aligned_allocate(std::size_t alignment, std::size_t bytes) {
  void* mem = nullptr;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (::posix_memalign(&mem, alignment, bytes) != 0)
    throw Error(strings::format("WorkBuffer: allocation of %zu bytes (align %zu) failed", bytes,
                                alignment));
  return mem;
}

}  // namespace

RegionSizes RegionSizes::from_hierarchy(const arch::CacheHierarchy& caches,
                                        std::size_t ram_bytes) {
  RegionSizes sizes;
  const std::size_t page = 4096;

  const std::size_t l1d = caches.data_cache_size(1);
  const std::size_t l2 = caches.data_cache_size(2);
  const std::size_t l3 = caches.data_cache_size(3);

  sizes.bytes[static_cast<int>(MemoryLevel::kL1)] =
      l1d != 0 ? ceil_pow2(l1d / 2) : page * 4;
  sizes.bytes[static_cast<int>(MemoryLevel::kL2)] =
      l2 != 0 ? ceil_pow2(l2 / 2) : page * 64;

  std::size_t l3_region = page * 512;  // 2 MiB default
  if (l3 != 0) {
    int sharing = 1;
    for (const auto& level : caches.levels())
      if (level.level == 3) sharing = level.sharing;
    const std::size_t share = l3 / static_cast<std::size_t>(sharing > 0 ? sharing : 1);
    l3_region = ceil_pow2(share * 2);
    if (l3_region > l3) l3_region = ceil_pow2(l3) / 2;
  }
  sizes.bytes[static_cast<int>(MemoryLevel::kL3)] = l3_region;
  sizes.bytes[static_cast<int>(MemoryLevel::kRam)] = ceil_pow2(ram_bytes);
  sizes.bytes[static_cast<int>(MemoryLevel::kReg)] = 0;
  return sizes;
}

RegionSizes RegionSizes::finalized() const {
  RegionSizes out = *this;
  for (int level = 1; level < kNumMemoryLevels; ++level) {
    std::size_t size = ceil_pow2(out.bytes[level]);
    if (size < 4096) size = 4096;
    out.bytes[level] = size;
  }
  return out;
}

WorkBuffer::WorkBuffer(const RegionSizes& sizes, const SequenceStats& stats,
                       DataInitPolicy policy, std::uint64_t seed)
    : sizes_(sizes.finalized()) {
  Xoshiro256 rng(seed);

  // Constants + dump blocks (cache-line aligned).
  const std::size_t consts_bytes = ConstLayout::kDoubles * sizeof(double);
  allocations_[0].reset(aligned_allocate(64, consts_bytes));
  args_.consts = static_cast<double*>(allocations_[0].get());
  allocated_ += consts_bytes;

  // Small magnitude keeps the accumulator random walk bounded over billions
  // of iterations while still toggling mantissa bits every FMA.
  const double x = 0x1.0p-20 * (1.0 + rng.uniform());
  double* consts = args_.consts;
  for (int i = 0; i < 8; ++i) {
    consts[ConstLayout::kMultPos + static_cast<std::size_t>(i)] =
        policy == DataInitPolicy::kSafe ? x : 0x1.0p+1020;
    consts[ConstLayout::kMultNeg + static_cast<std::size_t>(i)] =
        policy == DataInitPolicy::kSafe ? -x
                                        // v1.7.4 bug: the sign flip is missing and the
                                        // magnitude is near DBL_MAX, so accumulators hit
                                        // +inf within a couple of additions.
                                        : 0x1.0p+1020;
    consts[ConstLayout::kOnes + static_cast<std::size_t>(i)] = 1.0;
  }

  // Multiplicative toggle pair for the non-FMA mixes: alternating *m and
  // *(1/m) keeps accumulators bounded while never presenting the trivial
  // operand 1.0 to the multiplier.
  const double m = 1.0 + 0x1.0p-30;
  for (int i = 0; i < 8; ++i) {
    consts[ConstLayout::kMulUp + static_cast<std::size_t>(i)] =
        policy == DataInitPolicy::kSafe ? m : 2.0;
    consts[ConstLayout::kMulDown + static_cast<std::size_t>(i)] =
        policy == DataInitPolicy::kSafe ? 1.0 / m : 2.0;
  }

  for (std::size_t i = 0; i < 16 * 8; ++i)
    consts[ConstLayout::kAccSeeds + i] = 1.0 + rng.uniform();

  const std::size_t dump_bytes = 16 * 8 * sizeof(double);
  allocations_[1].reset(aligned_allocate(64, dump_bytes));
  args_.dump = static_cast<double*>(allocations_[1].get());
  std::memset(args_.dump, 0, dump_bytes);
  allocated_ += dump_bytes;

  double** region_ptrs[kNumMemoryLevels] = {nullptr, &args_.l1, &args_.l2, &args_.l3, &args_.ram};
  for (int level = 1; level < kNumMemoryLevels; ++level) {
    const std::size_t size = sizes_.bytes[level];
    const std::size_t span =
        static_cast<std::size_t>(stats.lines(static_cast<MemoryLevel>(level))) * 64;
    // Streaming mode reaches past the cursor by the full line span;
    // resident mode wraps displacements inside the region. Either way the
    // furthest access is cursor + min(span, size) + one vector width.
    const std::size_t bytes = size + std::min(span, size) + 64;
    allocations_[level + 1].reset(aligned_allocate(2 * size, bytes));
    double* region = static_cast<double*>(allocations_[level + 1].get());
    *region_ptrs[level] = region;
    allocated_ += bytes;
    // Alternate the sign line-by-line so memory-sourced FMA contributions
    // cancel statistically instead of drifting.
    for (std::size_t i = 0; i < bytes / sizeof(double); ++i) {
      const double sign = ((i / 8) % 2 == 0) ? 1.0 : -1.0;
      region[i] = sign * (1.0 + rng.uniform());
    }
  }
}

}  // namespace fs2::payload
