#include "payload/compiler.hpp"

#include <algorithm>
#include <array>

#include "jit/assembler.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fs2::payload {

namespace {

using jit::Assembler;
using jit::Gp;
using jit::Mem;
using jit::PrefetchHint;
using jit::Xmm;
using jit::Ymm;
using jit::Zmm;

/// Byte offsets of KernelArgs fields, fixed by the struct definition.
constexpr std::int32_t kArgConsts = 0;
constexpr std::int32_t kArgL1 = 8;
constexpr std::int32_t kArgL2 = 16;
constexpr std::int32_t kArgL3 = 24;
constexpr std::int32_t kArgRam = 32;
constexpr std::int32_t kArgDump = 40;

/// Byte offsets inside the constants block.
constexpr std::int32_t kConstMultPos = ConstLayout::kMultPos * sizeof(double);
constexpr std::int32_t kConstMultNeg = ConstLayout::kMultNeg * sizeof(double);
constexpr std::int32_t kConstOnes = ConstLayout::kOnes * sizeof(double);
constexpr std::int32_t kConstMulUp = ConstLayout::kMulUp * sizeof(double);
constexpr std::int32_t kConstMulDown = ConstLayout::kMulDown * sizeof(double);
constexpr std::int32_t kConstAccSeeds = ConstLayout::kAccSeeds * sizeof(double);

/// Number of SIMD accumulator registers. Odd on purpose: instruction sets
/// alternate the sign of the FMA contribution with set-index parity, and an
/// odd rotation length guarantees every accumulator receives both signs
/// equally often, keeping register values bounded (Sec. III-D).
constexpr unsigned kAccumulators = 11;

/// Integer toggle patterns for the ALU filler instructions (Sec. IV-B,
/// footnote 9: shifts toggle between 0b0101... and 0b1010...).
constexpr std::uint64_t kPattern01 = 0x5555555555555555ULL;
constexpr std::uint64_t kPattern10 = 0xAAAAAAAAAAAAAAAAULL;

/// Code generator for one workload. Tracks instruction counts while
/// emitting so PayloadStats is exact by construction; analyze_payload and
/// compile_payload both run it.
class KernelBuilder {
 public:
  KernelBuilder(const InstructionMix& mix, const InstructionGroups& groups,
                const arch::CacheHierarchy& caches, const CompileOptions& options)
      : mix_(mix), groups_(groups), caches_(caches), options_(options) {}

  /// Emit the full kernel and fill stats().
  void build() {
    const std::vector<AccessKind> base = base_sequence(groups_);
    stats_.vector_doubles = mix_.vector_doubles;
    stats_.regions = RegionSizes::from_hierarchy(caches_, options_.ram_region_bytes).finalized();
    for (int level = 1; level < kNumMemoryLevels; ++level)
      line_mask_[static_cast<std::size_t>(level)] = stats_.regions.bytes[level] - 1;
    emit_prologue();
    emit_loop(base);
    emit_epilogue();
  }

  /// The finished machine code (after build()).
  std::vector<std::uint8_t> code() { return asm_.finalize(); }

  const PayloadStats& stats() const { return stats_; }

 private:
  // ---- register conventions (see compiler.hpp for the ABI) -----------------
  //   rdi: KernelArgs*, later the constants base
  //   rsi: loop count arg, later the 0b1010 xor source pattern
  //   rax: return value (iterations executed)
  //   rcx: loop countdown
  //   rdx: xor target register,  r11: shift register
  //   r8/r9/r10/rbx: L1/L2/L3/RAM streaming cursors
  //   r12: register-dump pointer (only when enabled)
  static constexpr Gp kCursor[kNumMemoryLevels] = {Gp::rax /*unused for REG*/, Gp::r8, Gp::r9,
                                                   Gp::r10, Gp::rbx};

  /// Derive the per-iteration state of a loop of `unroll` sets cycling
  /// over `base`.
  void prepare(const std::vector<AccessKind>& base, std::uint32_t unroll) {
    stats_.sequence = analyze_unrolled(base, unroll);
    stats_.unroll = unroll;
    for (int level = 0; level < kNumMemoryLevels; ++level)
      stats_.bytes_per_iteration[level] =
          static_cast<std::uint64_t>(stats_.sequence.lines(static_cast<MemoryLevel>(level))) * 64;
    // Per-level addressing mode. Streaming: every access in an iteration
    // hits a distinct line and the cursor advances by the full span, so
    // consecutive iterations never overlap (forces misses in the levels
    // above). Resident: the per-iteration span would exceed the region, so
    // displacements wrap inside the region and the cursor stays put — the
    // accesses are intended to *hit* this level (the L1 case).
    for (int level = 1; level < kNumMemoryLevels; ++level)
      streaming_[static_cast<std::size_t>(level)] =
          stats_.bytes_per_iteration[level] > 0 &&
          stats_.bytes_per_iteration[level] < stats_.regions.bytes[level];
  }

  void emit_prologue() {
    asm_.push(Gp::rbx);
    if (options_.dump_registers) asm_.push(Gp::r12);

    asm_.mov(Gp::rax, Gp::rsi);                   // return value
    asm_.mov(Gp::rcx, Gp::rsi);                   // countdown
    asm_.mov(Gp::r8, jit::ptr(Gp::rdi, kArgL1));
    asm_.mov(Gp::r9, jit::ptr(Gp::rdi, kArgL2));
    asm_.mov(Gp::r10, jit::ptr(Gp::rdi, kArgL3));
    asm_.mov(Gp::rbx, jit::ptr(Gp::rdi, kArgRam));
    if (options_.dump_registers) asm_.mov(Gp::r12, jit::ptr(Gp::rdi, kArgDump));
    asm_.mov(Gp::rdi, jit::ptr(Gp::rdi, kArgConsts));  // rdi now = constants base

    exit_label_ = asm_.new_label();
    asm_.test(Gp::rcx, Gp::rcx);
    asm_.jz(exit_label_);  // loops == 0: skip body and dump

    asm_.mov(Gp::rdx, kPattern01);
    asm_.mov(Gp::rsi, kPattern10);
    asm_.mov(Gp::r11, kPattern01);

    if (mix_.isa == IsaClass::kSse2) {
      // xmm12/13 = +x/-x additive toggles, xmm14/15 = m and 1/m
      // multiplicative toggles (never the trivial 1.0, Sec. III-D).
      asm_.movapd(Xmm::xmm12, jit::ptr(Gp::rdi, kConstMultPos));
      asm_.movapd(Xmm::xmm13, jit::ptr(Gp::rdi, kConstMultNeg));
      asm_.movapd(Xmm::xmm14, jit::ptr(Gp::rdi, kConstMulUp));
      asm_.movapd(Xmm::xmm15, jit::ptr(Gp::rdi, kConstMulDown));
      for (unsigned i = 0; i < kAccumulators; ++i)
        asm_.movapd(jit::xmm(i), jit::ptr(Gp::rdi, acc_seed_offset(i)));
    } else if (mix_.isa == IsaClass::kAvx) {
      asm_.vmovapd(Ymm::ymm12, jit::ptr(Gp::rdi, kConstMultPos));
      asm_.vmovapd(Ymm::ymm13, jit::ptr(Gp::rdi, kConstMultNeg));
      asm_.vmovapd(Ymm::ymm14, jit::ptr(Gp::rdi, kConstMulUp));
      asm_.vmovapd(Ymm::ymm15, jit::ptr(Gp::rdi, kConstMulDown));
      for (unsigned i = 0; i < kAccumulators; ++i)
        asm_.vmovapd(jit::ymm(i), jit::ptr(Gp::rdi, acc_seed_offset(i)));
    } else if (mix_.isa == IsaClass::kAvx512) {
      // 512-bit variant of the FMA register plan, on zmm.
      asm_.vmovapd(Zmm::zmm12, jit::ptr(Gp::rdi, kConstMultPos));
      asm_.vmovapd(Zmm::zmm13, jit::ptr(Gp::rdi, kConstMultNeg));
      asm_.vmovapd(Zmm::zmm14, jit::ptr(Gp::rdi, kConstOnes));
      for (unsigned i = 0; i < kAccumulators; ++i)
        asm_.vmovapd(jit::zmm(i), jit::ptr(Gp::rdi, acc_seed_offset_wide(i)));
    } else {
      // FMA mix: ymm12/13 = +x/-x multiplier toggles, ymm14 = 1.0 operand
      // for the multiplicand slot (the *multiplier* is never trivial).
      asm_.vmovapd(Ymm::ymm12, jit::ptr(Gp::rdi, kConstMultPos));
      asm_.vmovapd(Ymm::ymm13, jit::ptr(Gp::rdi, kConstMultNeg));
      asm_.vmovapd(Ymm::ymm14, jit::ptr(Gp::rdi, kConstOnes));
      for (unsigned i = 0; i < kAccumulators; ++i)
        asm_.vmovapd(jit::ymm(i), jit::ptr(Gp::rdi, acc_seed_offset(i)));
    }

    // Align the loop entry to a cache line so the measured loop size is
    // exactly the distance between the label and the backward branch.
    asm_.align(64);
  }

  static std::int32_t acc_seed_offset(unsigned i) {
    return kConstAccSeeds + static_cast<std::int32_t>(i) * 32;
  }
  /// 64 B stride for zmm seeds (the seed area holds 16 x 64 B).
  static std::int32_t acc_seed_offset_wide(unsigned i) {
    return kConstAccSeeds + static_cast<std::int32_t>(i) * 64;
  }

  void emit_loop(const std::vector<AccessKind>& base) {
    loop_label_ = asm_.new_label();
    asm_.bind(loop_label_);
    const std::size_t loop_start = asm_.size();

    std::uint32_t unroll = options_.unroll;
    std::uint32_t set = 0;
    if (unroll == 0) {
      // Default u: the loop fills ~3/4 of L1-I, large enough to spill the
      // micro-op/loop buffers, small enough to avoid instruction fetches
      // from L2 (Sec. IV-C). The first pass over the base is emitted before
      // u is known and its bytes size u. That is exact: its line indices
      // stay below the base's own line count, so every displacement
      // encodes the same whether the level ends up streaming or resident.
      for (; set < base.size(); ++set) emit_set(base[set], set);
      const double per_set =
          static_cast<double>(asm_.size() - loop_start) / static_cast<double>(base.size());
      std::size_t l1i = caches_.l1i_size();
      if (l1i == 0) l1i = 32 * 1024;
      unroll = std::max(static_cast<std::uint32_t>(static_cast<double>(l1i) * 0.75 / per_set),
                        static_cast<std::uint32_t>(base.size()));
    }
    prepare(base, unroll);
    for (std::size_t at = set % base.size(); set < unroll; ++set) {
      emit_set(base[at], set);
      if (++at == base.size()) at = 0;
    }

    // Advance and wrap each streaming-mode cursor. Regions are aligned to
    // twice their (power-of-two) size, so wrapping is a single AND that
    // clears the region-size address bit. Resident-mode levels keep their
    // cursor at the region base and need no update.
    for (int level = 1; level < kNumMemoryLevels; ++level) {
      if (!streaming_[static_cast<std::size_t>(level)]) continue;
      const auto lines = stats_.sequence.lines(static_cast<MemoryLevel>(level));
      const Gp cursor = kCursor[level];
      asm_.add(cursor, static_cast<std::int32_t>(lines) * 64);
      asm_.and_(cursor, ~static_cast<std::int32_t>(stats_.regions.bytes[level]));
      stats_.overhead_per_iteration += 2;
    }

    asm_.dec(Gp::rcx);
    asm_.jnz(loop_label_);
    stats_.overhead_per_iteration += 2;
    stats_.loop_bytes = static_cast<std::uint32_t>(asm_.size() - loop_start);
    stats_.instructions_per_iteration =
        stats_.simd_per_iteration + stats_.alu_per_iteration + stats_.overhead_per_iteration;
  }

  void emit_epilogue() {
    if (options_.dump_registers) {
      // Flush accumulator registers so the harness can check SIMD unit
      // correctness across runs (--dump-registers, Sec. III-D). The dump
      // area is laid out as 16 x 64 B vector slots regardless of width.
      for (unsigned i = 0; i < kAccumulators; ++i) {
        const auto offset = static_cast<std::int32_t>(i) * 64;
        switch (mix_.isa) {
          case IsaClass::kSse2: asm_.movapd(jit::ptr(Gp::r12, offset), jit::xmm(i)); break;
          case IsaClass::kAvx:
          case IsaClass::kFma: asm_.vmovapd(jit::ptr(Gp::r12, offset), jit::ymm(i)); break;
          case IsaClass::kAvx512: asm_.vmovapd(jit::ptr(Gp::r12, offset), jit::zmm(i)); break;
        }
      }
    }
    asm_.bind(exit_label_);
    if (mix_.isa != IsaClass::kSse2) asm_.vzeroupper();
    if (options_.dump_registers) asm_.pop(Gp::r12);
    asm_.pop(Gp::rbx);
    asm_.ret();
  }

  // ---- per-set emission ------------------------------------------------------

  /// Memory operand for the next cache line of `level`. In streaming mode
  /// consecutive accesses within one iteration hit distinct lines; in
  /// resident mode the displacement wraps inside the region so the working
  /// set stays exactly region-sized. One mask serves both: a streaming
  /// level's span is below its region, so the mask never bites there, and
  /// regions are powers of two, so for a resident level it is the modulo.
  Mem next_line(MemoryLevel level) {
    const auto idx = static_cast<std::size_t>(level);
    const std::uint64_t disp =
        (static_cast<std::uint64_t>(line_cursor_[idx]++) * 64) & line_mask_[idx];
    return jit::ptr(kCursor[idx], static_cast<std::int32_t>(disp));
  }

  void emit_set(const AccessKind& kind, std::size_t set_index) {
    switch (mix_.isa) {
      case IsaClass::kFma: emit_set_fma(kind, set_index); break;
      case IsaClass::kAvx: emit_set_avx(kind, set_index); break;
      case IsaClass::kSse2: emit_set_sse2(kind, set_index); break;
      case IsaClass::kAvx512: emit_set_avx512(kind, set_index); break;
    }
    emit_alu(set_index);
  }

  /// Integer filler: xor toggles rdx between the 0101/1010 patterns, the
  /// shift alternates shl/shr to toggle r11 the same way (Sec. IV-B).
  void emit_alu(std::size_t set_index) {
    asm_.xor_(Gp::rdx, Gp::rsi);
    if (set_index % 2 == 0)
      asm_.shl(Gp::r11, 1);
    else
      asm_.shr(Gp::r11, 1);
    stats_.alu_per_iteration += 2;
  }

  Ymm acc_y(std::size_t n) const { return jit::ymm(static_cast<unsigned>(n % kAccumulators)); }
  Xmm acc_x(std::size_t n) const { return jit::xmm(static_cast<unsigned>(n % kAccumulators)); }

  void count_fma(unsigned n = 1) {
    stats_.simd_per_iteration += n;
    stats_.fma_per_iteration += n;
    stats_.fp_compute_per_iteration += n;
    stats_.flops_per_iteration += n * 2u * static_cast<unsigned>(mix_.vector_doubles);
  }
  void count_muladd(unsigned n = 1) {
    stats_.simd_per_iteration += n;
    stats_.fp_compute_per_iteration += n;
    stats_.flops_per_iteration += n * static_cast<unsigned>(mix_.vector_doubles);
  }
  void count_simd_move(unsigned n = 1) { stats_.simd_per_iteration += n; }

  void emit_set_fma(const AccessKind& kind, std::size_t s) {
    const Ymm a1 = acc_y(s);
    const Ymm a2 = acc_y(s + 5);   // 5 and 7 are coprime to 11: even spread
    const Ymm a3 = acc_y(s + 7);
    const Ymm mult = s % 2 == 0 ? Ymm::ymm12 : Ymm::ymm13;      // +x / -x
    const Ymm mult_opp = s % 2 == 0 ? Ymm::ymm13 : Ymm::ymm12;  // opposite sign
    const Ymm ones = Ymm::ymm14;

    if (kind.level == MemoryLevel::kReg) {
      asm_.vfmadd231pd(a1, ones, mult);
      asm_.vfmadd231pd(a2, ones, mult_opp);
      count_fma(2);
      return;
    }
    switch (kind.pattern) {
      case AccessPattern::kLoad:
        asm_.vfmadd231pd(a1, mult, next_line(kind.level));
        asm_.vfmadd231pd(a2, ones, mult_opp);
        count_fma(2);
        break;
      case AccessPattern::kStore:
        asm_.vfmadd231pd(a1, ones, mult);
        asm_.vmovapd(next_line(kind.level), a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.vfmadd231pd(a1, mult, next_line(kind.level));
        asm_.vmovapd(next_line(kind.level), a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.vfmadd231pd(a1, mult, next_line(kind.level));
        asm_.vfmadd231pd(a2, mult_opp, next_line(kind.level));
        asm_.vmovapd(next_line(kind.level), a3);
        count_fma(2);
        count_simd_move(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(next_line(kind.level), PrefetchHint::t2);
        asm_.vfmadd231pd(a1, ones, mult);
        count_fma(1);
        count_simd_move(1);  // prefetch occupies an AGU slot; count as SIMD-adjacent op
        break;
    }
  }

  /// 512-bit mirror of emit_set_fma: same accumulator rotation and sign
  /// alternation, zmm registers, EVEX encodings. One memory operand covers
  /// a full 64 B cache line.
  void emit_set_avx512(const AccessKind& kind, std::size_t s) {
    const Zmm a1 = jit::zmm(static_cast<unsigned>(s % kAccumulators));
    const Zmm a2 = jit::zmm(static_cast<unsigned>((s + 5) % kAccumulators));
    const Zmm a3 = jit::zmm(static_cast<unsigned>((s + 7) % kAccumulators));
    const Zmm mult = s % 2 == 0 ? Zmm::zmm12 : Zmm::zmm13;
    const Zmm mult_opp = s % 2 == 0 ? Zmm::zmm13 : Zmm::zmm12;
    const Zmm ones = Zmm::zmm14;

    if (kind.level == MemoryLevel::kReg) {
      asm_.vfmadd231pd(a1, ones, mult);
      asm_.vfmadd231pd(a2, ones, mult_opp);
      count_fma(2);
      return;
    }
    switch (kind.pattern) {
      case AccessPattern::kLoad:
        asm_.vfmadd231pd(a1, mult, next_line(kind.level));
        asm_.vfmadd231pd(a2, ones, mult_opp);
        count_fma(2);
        break;
      case AccessPattern::kStore:
        asm_.vfmadd231pd(a1, ones, mult);
        asm_.vmovapd(next_line(kind.level), a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.vfmadd231pd(a1, mult, next_line(kind.level));
        asm_.vmovapd(next_line(kind.level), a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.vfmadd231pd(a1, mult, next_line(kind.level));
        asm_.vfmadd231pd(a2, mult_opp, next_line(kind.level));
        asm_.vmovapd(next_line(kind.level), a3);
        count_fma(2);
        count_simd_move(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(next_line(kind.level), PrefetchHint::t2);
        asm_.vfmadd231pd(a1, ones, mult);
        count_fma(1);
        count_simd_move(1);
        break;
    }
  }

  void emit_set_avx(const AccessKind& kind, std::size_t s) {
    const Ymm a1 = acc_y(s);
    const Ymm a2 = acc_y(s + 5);
    const Ymm scratch = Ymm::ymm11;
    const Ymm add_const = s % 2 == 0 ? Ymm::ymm12 : Ymm::ymm13;  // +x / -x
    const Ymm mul_const = s % 2 == 0 ? Ymm::ymm14 : Ymm::ymm15;  // m / 1-per-m

    // Multiplicative path alternates *m and *(1/m) (bounded, never the
    // trivial operand 1.0); additive path toggles +-x. Loads go to a
    // scratch register so accumulators stay bounded.
    if (kind.level == MemoryLevel::kReg) {
      asm_.vmulpd(a1, a1, mul_const);
      asm_.vaddpd(a2, a2, add_const);
      count_muladd(2);
      return;
    }
    switch (kind.pattern) {
      case AccessPattern::kLoad:
        asm_.vmovapd(scratch, next_line(kind.level));
        asm_.vaddpd(a2, a2, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
      case AccessPattern::kStore:
        asm_.vaddpd(a1, a1, add_const);
        asm_.vmovapd(next_line(kind.level), a2);
        count_muladd(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.vmovapd(scratch, next_line(kind.level));
        asm_.vmovapd(next_line(kind.level), a2);
        count_simd_move(2);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.vmovapd(scratch, next_line(kind.level));
        asm_.vaddpd(a1, a1, next_line(kind.level));
        asm_.vmovapd(next_line(kind.level), a2);
        count_simd_move(2);
        count_muladd(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(next_line(kind.level), PrefetchHint::t2);
        asm_.vaddpd(a1, a1, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
    }
  }

  void emit_set_sse2(const AccessKind& kind, std::size_t s) {
    const Xmm a1 = acc_x(s);
    const Xmm a2 = acc_x(s + 5);
    const Xmm scratch = Xmm::xmm11;
    const Xmm add_const = s % 2 == 0 ? Xmm::xmm12 : Xmm::xmm13;  // +x / -x
    const Xmm mul_const = s % 2 == 0 ? Xmm::xmm14 : Xmm::xmm15;  // m / 1-per-m

    if (kind.level == MemoryLevel::kReg) {
      asm_.mulpd(a1, mul_const);
      asm_.addpd(a2, add_const);
      count_muladd(2);
      return;
    }
    switch (kind.pattern) {
      case AccessPattern::kLoad:
        asm_.movapd(scratch, next_line(kind.level));
        asm_.addpd(a2, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
      case AccessPattern::kStore:
        asm_.addpd(a1, add_const);
        asm_.movapd(next_line(kind.level), a2);
        count_muladd(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.movapd(scratch, next_line(kind.level));
        asm_.movapd(next_line(kind.level), a2);
        count_simd_move(2);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.movapd(scratch, next_line(kind.level));
        asm_.addpd(a1, next_line(kind.level));
        asm_.movapd(next_line(kind.level), a2);
        count_simd_move(2);
        count_muladd(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(next_line(kind.level), PrefetchHint::t2);
        asm_.addpd(a1, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
    }
  }

  const InstructionMix& mix_;
  const InstructionGroups& groups_;
  const arch::CacheHierarchy& caches_;
  const CompileOptions& options_;

  Assembler asm_;
  PayloadStats stats_;
  jit::Label loop_label_{};
  jit::Label exit_label_{};
  std::array<std::uint32_t, kNumMemoryLevels> line_cursor_{};
  std::array<std::uint64_t, kNumMemoryLevels> line_mask_{};  ///< region size - 1
  std::array<bool, kNumMemoryLevels> streaming_{};
};

}  // namespace

std::unique_ptr<WorkBuffer> CompiledPayload::make_buffer(DataInitPolicy policy,
                                                         std::uint64_t seed) const {
  return std::make_unique<WorkBuffer>(stats_.regions, stats_.sequence, policy, seed);
}

CompiledPayload compile_payload(const InstructionMix& mix, const InstructionGroups& groups,
                                const arch::CacheHierarchy& caches,
                                const CompileOptions& options) {
  TRACE_SPAN("jit.compile");
  KernelBuilder builder(mix, groups, caches, options);
  builder.build();
  const std::vector<std::uint8_t> code = builder.code();
  log::debug() << "compiled payload " << mix.name << " M=" << groups.to_string()
               << " u=" << builder.stats().unroll << " loop=" << builder.stats().loop_bytes
               << "B instr/iter=" << builder.stats().instructions_per_iteration;
  return CompiledPayload(jit::ExecutableBuffer(code), builder.stats(), mix, groups);
}

PayloadStats analyze_payload(const InstructionMix& mix, const InstructionGroups& groups,
                             const arch::CacheHierarchy& caches, const CompileOptions& options) {
  TRACE_SPAN("payload.analyze");
  KernelBuilder builder(mix, groups, caches, options);
  builder.build();  // emits into a byte vector only; nothing is mapped
  return builder.stats();
}

}  // namespace fs2::payload
