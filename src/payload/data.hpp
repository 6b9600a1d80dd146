#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "arch/cache.hpp"
#include "payload/sequence.hpp"

namespace fs2::payload {

/// How SIMD operands are initialized (paper Sec. III-D).
enum class DataInitPolicy {
  /// FIRESTARTER 2 behaviour: operands are random non-trivial doubles and
  /// the FMA multiplier alternates sign so accumulators stay bounded —
  /// never 0, never +/-inf, never denormal. Keeps the FMA unit out of the
  /// clock-gated trivial-operand fast path (Hickmann patent, US 9,323,500).
  kSafe,
  /// Reproduction of the v1.7.4 bug: the "negative" multiplier constant is
  /// positive too, so register contents accumulate monotonically and reach
  /// +inf within a few hundred loop iterations, dropping FMA power draw.
  kV174InfinityBug,
};

/// Offsets (in doubles) inside the constants block of a work buffer. Every
/// constant occupies one full 512-bit slot so the same block serves the
/// SSE2 (reads 16 B), AVX (32 B), and AVX-512 (64 B) kernels.
struct ConstLayout {
  static constexpr std::size_t kSlotDoubles = 8;  ///< one 512-bit vector
  static constexpr std::size_t kMultPos = 0;      ///< +x
  static constexpr std::size_t kMultNeg = 8;      ///< -x (or +x in bug mode)
  static constexpr std::size_t kOnes = 16;        ///< 1.0
  static constexpr std::size_t kMulUp = 24;       ///< m = 1 + 2^-30
  static constexpr std::size_t kMulDown = 32;     ///< 1/m (to machine precision)
  static constexpr std::size_t kAccSeeds = 40;    ///< 16 x 8 doubles: accumulator seeds
  static constexpr std::size_t kDoubles = 40 + 16 * 8;
};

/// Argument block handed to a JIT-compiled kernel (see PayloadCompiler for
/// the ABI). Field order is fixed: the generated code addresses these
/// fields by byte offset.
struct KernelArgs {
  double* consts = nullptr;  ///< ConstLayout block
  double* l1 = nullptr;      ///< L1 streaming region (aligned to 2x its size)
  double* l2 = nullptr;
  double* l3 = nullptr;
  double* ram = nullptr;
  double* dump = nullptr;    ///< 16x8 doubles register dump area (may be null)
};

/// Sizes for the four streaming regions. Once finalized, every size is a
/// power of two of at least one 4 KiB page: the generated code wraps a
/// streaming cursor by clearing the region-size address bit, and a resident
/// level's displacements with `& (size - 1)`, both exact only for powers of
/// two.
struct RegionSizes {
  std::size_t bytes[kNumMemoryLevels] = {};  ///< indexed by MemoryLevel; [kReg] unused

  /// Derive region sizes from the cache hierarchy:
  ///  - L1 region: half the L1-D cache (stays resident),
  ///  - L2 region: half of L2 (forces L1 misses, stays in L2),
  ///  - L3 region: twice the per-thread L3 share, capped to L3 (forces L2
  ///    misses, mostly L3-resident),
  ///  - RAM region: `ram_bytes` per thread (streams through memory).
  /// Regions a workload does not touch are still given one page so the
  /// kernel ABI stays uniform.
  static RegionSizes from_hierarchy(const arch::CacheHierarchy& caches,
                                    std::size_t ram_bytes = 16ull << 20);

  /// Round every region up to a power of two of at least 4 KiB (the
  /// invariant above). Idempotent. Both the payload compiler (emitting the
  /// wrap masks) and WorkBuffer (allocating) apply this, so generated code
  /// and buffers always agree. A level whose per-iteration span reaches its
  /// region is not grown: the compiler addresses it in resident mode.
  RegionSizes finalized() const;
};

/// Per-thread working memory of a compiled payload: one constants block,
/// four streaming regions (each aligned to twice its size so the kernel can
/// wrap cursors by masking a single address bit), and a register-dump area.
/// Its operands are written once, by the constructing thread, which is
/// therefore the thread that touches every page first: build a worker's
/// buffer on the worker's own CPU and the pages land on that CPU's node.
class WorkBuffer {
 public:
  /// Allocate regions of `sizes`, with enough padding for `stats`' maximum
  /// per-iteration line span, and fill every operand under `policy` with
  /// deterministic values derived from `seed`: the constants block, then
  /// the L1, L2, L3 and RAM regions, pads included. Only the register-dump
  /// area is zeroed. Throws fs2::Error on allocation failure.
  WorkBuffer(const RegionSizes& sizes, const SequenceStats& stats, DataInitPolicy policy,
             std::uint64_t seed);
  WorkBuffer(const WorkBuffer&) = delete;
  WorkBuffer& operator=(const WorkBuffer&) = delete;
  WorkBuffer(WorkBuffer&&) = delete;
  WorkBuffer& operator=(WorkBuffer&&) = delete;

  KernelArgs& args() { return args_; }
  const KernelArgs& args() const { return args_; }
  const RegionSizes& sizes() const { return sizes_; }

  /// The register dump area (16 vectors x 8 doubles), written by kernels
  /// compiled with dump support. Narrower kernels fill the first 2 (SSE2)
  /// or 4 (AVX) doubles of each vector slot.
  const double* dump() const { return args_.dump; }

  /// Total allocated bytes (diagnostics).
  std::size_t allocated_bytes() const { return allocated_; }

 private:
  struct Free {
    void operator()(void* mem) const { std::free(mem); }
  };

  RegionSizes sizes_;
  KernelArgs args_;
  std::unique_ptr<void, Free> allocations_[6];  ///< freed even when a later one fails
  std::size_t allocated_ = 0;
};

}  // namespace fs2::payload
