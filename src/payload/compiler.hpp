#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/cache.hpp"
#include "jit/exec_memory.hpp"
#include "payload/data.hpp"
#include "payload/groups.hpp"
#include "payload/mix.hpp"
#include "payload/sequence.hpp"

namespace fs2::payload {

/// ABI of a compiled stress kernel: executes `loops` iterations of the
/// unrolled workload loop over the buffers in `args` and returns the number
/// of iterations executed (== loops). System V AMD64 calling convention.
using KernelFn = std::uint64_t (*)(const KernelArgs* args, std::uint64_t loops);

/// Static properties of a compiled payload, consumed by the IPC-estimate
/// metric and by the microarchitecture simulator. Everything here is known
/// at compile time — no execution needed.
struct PayloadStats {
  SequenceStats sequence;                    ///< per-iteration access counts
  std::uint32_t unroll = 0;                  ///< u actually used
  std::uint32_t instructions_per_iteration = 0;
  std::uint32_t simd_per_iteration = 0;      ///< FMA/mul/add/mov SIMD ops
  std::uint32_t fma_per_iteration = 0;
  std::uint32_t fp_compute_per_iteration = 0;  ///< FMA + mul/add (FP-pipe pressure)
  int vector_doubles = 4;  ///< SIMD width of the mix (2/4/8 doubles)
  std::uint32_t alu_per_iteration = 0;       ///< integer xor/shift filler
  std::uint32_t overhead_per_iteration = 0;  ///< cursor updates + loop control
  std::uint32_t flops_per_iteration = 0;
  std::uint32_t loop_bytes = 0;              ///< code bytes of the inner loop
  std::uint64_t bytes_per_iteration[kNumMemoryLevels] = {};  ///< traffic per level
  RegionSizes regions;  ///< finalized streaming-region sizes baked into the code
};

/// Compilation knobs (the runtime parameters of Fig. 5).
struct CompileOptions {
  /// Unroll factor u (--set-line-count). 0 selects the default: the largest
  /// u whose loop body still fits in 3/4 of the L1 instruction cache, so
  /// instructions stream from L1-I but not from L2 (paper Sec. III-B/IV-C).
  std::uint32_t unroll = 0;
  /// Emit accumulator-register dump stores before returning
  /// (--dump-registers support).
  bool dump_registers = false;
  /// Per-thread main-memory streaming region size (power of two). The wrap
  /// masks are baked into the generated code, so this is a compile-time
  /// parameter, not a buffer-allocation one.
  std::size_t ram_region_bytes = 16ull << 20;
};

/// A ready-to-run stress workload omega = (I, u, M): machine code plus its
/// static statistics. Create per process, share across threads (the code is
/// immutable); each thread gets its own WorkBuffer.
class CompiledPayload {
 public:
  CompiledPayload(jit::ExecutableBuffer code, PayloadStats stats, InstructionMix mix,
                  InstructionGroups groups)
      : code_(std::move(code)), stats_(stats), mix_(std::move(mix)), groups_(std::move(groups)) {}

  KernelFn fn() const { return code_.as<KernelFn>(); }

  /// Read-only view of the mapped machine code (for disassembly listings).
  std::span<const std::uint8_t> code_bytes() const {
    return {static_cast<const std::uint8_t*>(code_.entry()), code_.size()};
  }
  const PayloadStats& stats() const { return stats_; }
  const InstructionMix& mix() const { return mix_; }
  const InstructionGroups& groups() const { return groups_; }

  /// A per-thread work buffer matching the region sizes baked into this
  /// payload's code, its operands filled under `policy` from `seed` by the
  /// calling thread (see WorkBuffer).
  std::unique_ptr<WorkBuffer> make_buffer(DataInitPolicy policy, std::uint64_t seed) const;

 private:
  jit::ExecutableBuffer code_;
  PayloadStats stats_;
  InstructionMix mix_;
  InstructionGroups groups_;
};

/// JIT-compile the workload defined by (mix, groups, options) for the given
/// cache hierarchy (which determines the default u and buffer sizing). The
/// stats come from the same sizing pass as analyze_payload's; the loop is
/// then emitted with exactly stats().unroll instruction sets and checked
/// against them. Throws fs2::ConfigError for invalid group lists and
/// fs2::Error on code-generation failure, including an emitted loop whose
/// bytes or instruction counts differ from the sized stats.
CompiledPayload compile_payload(const InstructionMix& mix, const InstructionGroups& groups,
                                const arch::CacheHierarchy& caches, const CompileOptions& options = {});

/// Compute the static stats of a workload without emitting its loop (used
/// by the simulator substrate, which never runs the code): the sizing pass
/// counts the loop's instruction sets per kind and register rotation and
/// prices each kind once, through the encoder that emits the code. Equal to
/// compile_payload(...).stats() field for field.
PayloadStats analyze_payload(const InstructionMix& mix, const InstructionGroups& groups,
                             const arch::CacheHierarchy& caches, const CompileOptions& options = {});

}  // namespace fs2::payload
