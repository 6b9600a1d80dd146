#include "payload/compiler.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <numeric>
#include <string>

#include "jit/assembler.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

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

/// Set indices congruent modulo this many encode alike: the accumulators
/// rotate through kAccumulators registers and the signs alternate with the
/// set's parity.
constexpr unsigned kResidues = 2 * kAccumulators;

/// Rows of the price table: REG, then every (memory level, pattern) pair.
constexpr std::size_t kPatterns = static_cast<std::size_t>(AccessPattern::kPrefetch) + 1;
constexpr std::size_t kKindKeys = 1 + (kNumMemoryLevels - 1) * kPatterns;
constexpr std::size_t kind_key(const AccessKind& kind) {
  if (kind.level == MemoryLevel::kReg) return 0;
  return 1 + (static_cast<std::size_t>(kind.level) - 1) * kPatterns +
         static_cast<std::size_t>(kind.pattern);
}

/// Memory operands of the widest instruction set (two loads and a store).
constexpr unsigned kMaxOperands = 3;

/// A memory operand addresses line k of its level as (k * 64) & (region
/// size - 1): the region's first line has no displacement, its second a
/// disp8 and every other line a disp32. These are the three classes' sample
/// displacements; an operand's class follows from its line's offset in the
/// region.
constexpr std::int32_t kClassDisp[] = {0, 64, 128};
constexpr unsigned kClasses = std::size(kClassDisp);
constexpr unsigned kDisp32 = kClasses - 1;
unsigned line_class(std::uint64_t line, std::uint64_t region_lines) {
  const std::uint64_t offset = line % region_lines;
  return offset < kDisp32 ? static_cast<unsigned>(offset) : kDisp32;
}

/// The cursor register that addresses each memory level's region.
constexpr Gp kCursor[kNumMemoryLevels] = {Gp::rax /*unused for REG*/, Gp::r8, Gp::r9, Gp::r10,
                                          Gp::rbx};

/// What a stretch of emitted code adds to the loop: its bytes and its
/// instructions per PayloadStats counter.
struct Cost {
  std::uint32_t bytes = 0;
  std::uint32_t simd = 0;
  std::uint32_t fma = 0;
  std::uint32_t fp_compute = 0;
  std::uint32_t alu = 0;
  std::uint32_t overhead = 0;
  std::uint32_t flops = 0;

  // Unsigned and modular, so a sum may take a difference that is negative
  // on its own (an exact price minus an estimate) and still end exact.
  Cost& operator+=(const Cost& o) {
    bytes += o.bytes;
    simd += o.simd;
    fma += o.fma;
    fp_compute += o.fp_compute;
    alu += o.alu;
    overhead += o.overhead;
    flops += o.flops;
    return *this;
  }
  Cost operator-(const Cost& o) const {
    return {bytes - o.bytes, simd - o.simd,         fma - o.fma, fp_compute - o.fp_compute,
            alu - o.alu,     overhead - o.overhead, flops - o.flops};
  }
  Cost operator*(std::uint32_t n) const {
    return {bytes * n, simd * n, fma * n, fp_compute * n, alu * n, overhead * n, flops * n};
  }
  bool operator==(const Cost&) const = default;

  /// The loop cost `stats` records.
  static Cost of(const PayloadStats& stats) {
    return {stats.loop_bytes,
            stats.simd_per_iteration,
            stats.fma_per_iteration,
            stats.fp_compute_per_iteration,
            stats.alu_per_iteration,
            stats.overhead_per_iteration,
            stats.flops_per_iteration};
  }
  std::string to_string() const {
    return strings::format("%u B, simd %u, fma %u, fp %u, alu %u, overhead %u, flops %u", bytes,
                           simd, fma, fp_compute, alu, overhead, flops);
  }
};

/// The levels (one bit per MemoryLevel) a loop addresses in streaming mode.
/// Streaming: every access in an iteration hits a distinct line and the
/// cursor advances by the full span, so consecutive iterations never
/// overlap (forces misses in the levels above). Resident: the
/// per-iteration span would exceed the region, so displacements wrap inside
/// the region and the cursor stays put — the accesses are intended to *hit*
/// this level (the L1 case).
unsigned streaming_levels(const PayloadStats& stats) {
  unsigned levels = 0;
  for (int level = 1; level < kNumMemoryLevels; ++level)
    if (stats.bytes_per_iteration[level] > 0 &&
        stats.bytes_per_iteration[level] < stats.regions.bytes[level])
      levels |= 1u << level;
  return levels;
}

/// The payload's one encoder. It emits whole kernels for compile_payload
/// and single instruction sets and loop tails for the price tables, and
/// counts every instruction it emits, so each Cost it reports is exact by
/// construction.
class KernelBuilder {
 public:
  explicit KernelBuilder(const InstructionMix& mix) : mix_(mix) {}

  /// Emit the kernel whose loop runs `sized.unroll` instruction sets
  /// cycling over `order` (indices into `groups`, see base_order) with
  /// sized.regions' wrap masks. Returns the emitted loop's cost.
  Cost build(const InstructionGroups& groups, const std::vector<std::uint8_t>& order,
             const PayloadStats& sized, bool dump_registers) {
    emit_prologue(dump_registers);
    asm_.bind(loop_label_);
    const Cost loop_start = tally();
    std::array<std::uint32_t, kNumMemoryLevels> next_line{};
    for (std::uint32_t set = 0, i = 0; set < sized.unroll; ++set) {
      const AccessKind& kind = groups.groups()[order[i]].kind;
      const auto level = static_cast<std::size_t>(kind.level);
      const std::uint64_t mask = sized.regions.bytes[level] - 1;
      Mem operands[kMaxOperands]{};
      for (int t = 0; t < kind.memory_ops(); ++t) {
        const std::uint64_t disp = (static_cast<std::uint64_t>(next_line[level]++) * 64) & mask;
        operands[t] = jit::ptr(kCursor[level], static_cast<std::int32_t>(disp));
      }
      emit_set(kind, set, operands);
      if (++i == order.size()) i = 0;
    }
    emit_loop_tail(sized, streaming_levels(sized));
    const Cost loop = tally() - loop_start;
    emit_epilogue(dump_registers);
    return loop;
  }

  /// The finished machine code (after build()).
  std::vector<std::uint8_t> code() { return asm_.finalize(); }

  /// What `emit` adds to the code.
  template <class Emit>
  Cost cost_of(Emit&& emit) {
    const Cost before = tally();
    emit();
    return tally() - before;
  }

  /// One instruction set of `kind` at loop position `set_index`; `lines`
  /// holds its memory operands in the order its instructions use them.
  void emit_set(const AccessKind& kind, std::size_t set_index, const Mem* lines) {
    switch (mix_.isa) {
      case IsaClass::kFma: emit_set_fma(kind, set_index, lines); break;
      case IsaClass::kAvx: emit_set_avx(kind, set_index, lines); break;
      case IsaClass::kSse2: emit_set_sse2(kind, set_index, lines); break;
      case IsaClass::kAvx512: emit_set_avx512(kind, set_index, lines); break;
    }
    emit_alu(set_index);
  }

  /// Advance and wrap the cursor of each `streaming` level (bits per
  /// MemoryLevel), then count down and branch back. Regions are aligned to
  /// twice their (power-of-two) size, so wrapping is a single AND that
  /// clears the region-size address bit. Resident-mode levels keep their
  /// cursor at the region base and need no update.
  void emit_loop_tail(const PayloadStats& sized, unsigned streaming) {
    for (int level = 1; level < kNumMemoryLevels; ++level) {
      if ((streaming >> level & 1) == 0) continue;
      const auto lines = sized.sequence.lines(static_cast<MemoryLevel>(level));
      const Gp cursor = kCursor[level];
      asm_.add(cursor, static_cast<std::int32_t>(lines) * 64);
      asm_.and_(cursor, ~static_cast<std::int32_t>(sized.regions.bytes[level]));
      counted_.overhead += 2;
    }
    asm_.dec(Gp::rcx);
    asm_.jnz(loop_label_);
    counted_.overhead += 2;
  }

 private:
  // ---- register conventions (see compiler.hpp for the ABI) -----------------
  //   rdi: KernelArgs*, later the constants base
  //   rsi: loop count arg, later the 0b1010 xor source pattern
  //   rax: return value (iterations executed)
  //   rcx: loop countdown
  //   rdx: xor target register,  r11: shift register
  //   r8/r9/r10/rbx: L1/L2/L3/RAM streaming cursors (kCursor)
  //   r12: register-dump pointer (only when enabled)

  /// Everything counted so far, with the bytes emitted so far.
  Cost tally() const {
    Cost cost = counted_;
    cost.bytes = static_cast<std::uint32_t>(asm_.size());
    return cost;
  }

  void emit_prologue(bool dump_registers) {
    asm_.push(Gp::rbx);
    if (dump_registers) asm_.push(Gp::r12);

    asm_.mov(Gp::rax, Gp::rsi);                   // return value
    asm_.mov(Gp::rcx, Gp::rsi);                   // countdown
    asm_.mov(Gp::r8, jit::ptr(Gp::rdi, kArgL1));
    asm_.mov(Gp::r9, jit::ptr(Gp::rdi, kArgL2));
    asm_.mov(Gp::r10, jit::ptr(Gp::rdi, kArgL3));
    asm_.mov(Gp::rbx, jit::ptr(Gp::rdi, kArgRam));
    if (dump_registers) asm_.mov(Gp::r12, jit::ptr(Gp::rdi, kArgDump));
    asm_.mov(Gp::rdi, jit::ptr(Gp::rdi, kArgConsts));  // rdi now = constants base

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

  void emit_epilogue(bool dump_registers) {
    if (dump_registers) {
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
    if (dump_registers) asm_.pop(Gp::r12);
    asm_.pop(Gp::rbx);
    asm_.ret();
  }

  // ---- per-set emission ------------------------------------------------------

  /// Integer filler: xor toggles rdx between the 0101/1010 patterns, the
  /// shift alternates shl/shr to toggle r11 the same way (Sec. IV-B).
  void emit_alu(std::size_t set_index) {
    asm_.xor_(Gp::rdx, Gp::rsi);
    if (set_index % 2 == 0)
      asm_.shl(Gp::r11, 1);
    else
      asm_.shr(Gp::r11, 1);
    counted_.alu += 2;
  }

  Ymm acc_y(std::size_t n) const { return jit::ymm(static_cast<unsigned>(n % kAccumulators)); }
  Xmm acc_x(std::size_t n) const { return jit::xmm(static_cast<unsigned>(n % kAccumulators)); }

  void count_fma(unsigned n = 1) {
    counted_.simd += n;
    counted_.fma += n;
    counted_.fp_compute += n;
    counted_.flops += n * 2u * static_cast<unsigned>(mix_.vector_doubles);
  }
  void count_muladd(unsigned n = 1) {
    counted_.simd += n;
    counted_.fp_compute += n;
    counted_.flops += n * static_cast<unsigned>(mix_.vector_doubles);
  }
  void count_simd_move(unsigned n = 1) { counted_.simd += n; }

  void emit_set_fma(const AccessKind& kind, std::size_t s, const Mem* line) {
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
        asm_.vfmadd231pd(a1, mult, line[0]);
        asm_.vfmadd231pd(a2, ones, mult_opp);
        count_fma(2);
        break;
      case AccessPattern::kStore:
        asm_.vfmadd231pd(a1, ones, mult);
        asm_.vmovapd(line[0], a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.vfmadd231pd(a1, mult, line[0]);
        asm_.vmovapd(line[1], a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.vfmadd231pd(a1, mult, line[0]);
        asm_.vfmadd231pd(a2, mult_opp, line[1]);
        asm_.vmovapd(line[2], a3);
        count_fma(2);
        count_simd_move(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(line[0], PrefetchHint::t2);
        asm_.vfmadd231pd(a1, ones, mult);
        count_fma(1);
        count_simd_move(1);  // prefetch occupies an AGU slot; count as SIMD-adjacent op
        break;
    }
  }

  /// 512-bit mirror of emit_set_fma: same accumulator rotation and sign
  /// alternation, zmm registers, EVEX encodings. One memory operand covers
  /// a full 64 B cache line.
  void emit_set_avx512(const AccessKind& kind, std::size_t s, const Mem* line) {
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
        asm_.vfmadd231pd(a1, mult, line[0]);
        asm_.vfmadd231pd(a2, ones, mult_opp);
        count_fma(2);
        break;
      case AccessPattern::kStore:
        asm_.vfmadd231pd(a1, ones, mult);
        asm_.vmovapd(line[0], a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.vfmadd231pd(a1, mult, line[0]);
        asm_.vmovapd(line[1], a2);
        count_fma(1);
        count_simd_move(1);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.vfmadd231pd(a1, mult, line[0]);
        asm_.vfmadd231pd(a2, mult_opp, line[1]);
        asm_.vmovapd(line[2], a3);
        count_fma(2);
        count_simd_move(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(line[0], PrefetchHint::t2);
        asm_.vfmadd231pd(a1, ones, mult);
        count_fma(1);
        count_simd_move(1);
        break;
    }
  }

  void emit_set_avx(const AccessKind& kind, std::size_t s, const Mem* line) {
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
        asm_.vmovapd(scratch, line[0]);
        asm_.vaddpd(a2, a2, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
      case AccessPattern::kStore:
        asm_.vaddpd(a1, a1, add_const);
        asm_.vmovapd(line[0], a2);
        count_muladd(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.vmovapd(scratch, line[0]);
        asm_.vmovapd(line[1], a2);
        count_simd_move(2);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.vmovapd(scratch, line[0]);
        asm_.vaddpd(a1, a1, line[1]);
        asm_.vmovapd(line[2], a2);
        count_simd_move(2);
        count_muladd(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(line[0], PrefetchHint::t2);
        asm_.vaddpd(a1, a1, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
    }
  }

  void emit_set_sse2(const AccessKind& kind, std::size_t s, const Mem* line) {
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
        asm_.movapd(scratch, line[0]);
        asm_.addpd(a2, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
      case AccessPattern::kStore:
        asm_.addpd(a1, add_const);
        asm_.movapd(line[0], a2);
        count_muladd(1);
        count_simd_move(1);
        break;
      case AccessPattern::kLoadStore:
        asm_.movapd(scratch, line[0]);
        asm_.movapd(line[1], a2);
        count_simd_move(2);
        break;
      case AccessPattern::kTwoLoadsStore:
        asm_.movapd(scratch, line[0]);
        asm_.addpd(a1, line[1]);
        asm_.movapd(line[2], a2);
        count_simd_move(2);
        count_muladd(1);
        break;
      case AccessPattern::kPrefetch:
        asm_.prefetch(line[0], PrefetchHint::t2);
        asm_.addpd(a1, add_const);
        count_simd_move(1);
        count_muladd(1);
        break;
    }
  }

  const InstructionMix& mix_;
  Assembler asm_;
  Cost counted_;
  jit::Label loop_label_ = asm_.new_label();
  jit::Label exit_label_ = asm_.new_label();
};

/// The cost of every instruction set one ISA's loop can hold, and of every
/// loop tail. A set's cost is a function of a small key: its kind, its set
/// index modulo kResidues (registers and signs) and the displacement class
/// of each of its memory operands. The table encodes each valid key once
/// through KernelBuilder::emit_set, so the sizing pass prices with the very
/// encoder that emits the code; there is no hand-written size or count.
class PriceTable {
 public:
  explicit PriceTable(IsaClass isa) {
    InstructionMix mix;
    mix.isa = isa;
    mix.vector_doubles = 1;  // flops per vector double; the sizing pass scales them
    KernelBuilder builder(mix);
    for (const AccessKind& kind : all_access_kinds()) {
      const std::size_t key = kind_key(kind);
      const auto operands = static_cast<unsigned>(kind.memory_ops());
      unsigned combinations = 1;
      for (unsigned t = 0; t < operands; ++t) combinations *= kClasses;
      first_[key] = static_cast<std::uint32_t>(costs_.size());
      combinations_[key] = combinations;
      const Gp cursor = kCursor[static_cast<int>(kind.level)];
      for (unsigned classes = 0; classes < combinations; ++classes) {
        Mem lines[kMaxOperands]{};
        for (unsigned t = 0, digits = classes; t < operands; ++t, digits /= kClasses)
          lines[t] = jit::ptr(cursor, kClassDisp[digits % kClasses]);
        for (unsigned residue = 0; residue < kResidues; ++residue)
          costs_.push_back(builder.cost_of([&] { builder.emit_set(kind, residue, lines); }));
      }
    }
    for (const AccessKind& kind : all_access_kinds()) {
      const Cost* row = disp32(kind_key(kind));
      uniform_[kind_key(kind)] =
          std::all_of(row, row + kResidues, [&](const Cost& cost) { return cost == row[0]; });
    }
    const PayloadStats any;  // the tail's immediates do not change its size
    for (unsigned streaming = 0; streaming < tails_.size(); ++streaming)
      tails_[streaming] = builder.cost_of([&] { builder.emit_loop_tail(any, streaming); });
  }

  /// A set of price-table row `key` at `residue` whose operand t has class
  /// digit t of `classes` (base kClasses, operand 0 lowest).
  const Cost& set(std::size_t key, unsigned residue, unsigned classes) const {
    return costs_[first_[key] + classes * kResidues + residue];
  }
  /// The sets of row `key` with every operand a disp32 (all digits
  /// kDisp32), one per residue.
  const Cost* disp32(std::size_t key) const {
    return &costs_[first_[key] + (combinations_[key] - 1) * kResidues];
  }
  /// Whether disp32(key) holds one cost at every residue.
  bool uniform(std::size_t key) const { return uniform_[key]; }
  /// The loop tail for `streaming` levels (see streaming_levels).
  const Cost& tail(unsigned streaming) const { return tails_[streaming]; }

 private:
  std::array<std::uint32_t, kKindKeys> first_{};
  std::array<std::uint32_t, kKindKeys> combinations_{};
  std::array<bool, kKindKeys> uniform_{};
  std::vector<Cost> costs_;
  std::array<Cost, 1u << kNumMemoryLevels> tails_{};
};

/// The price table of `isa`, built whole on its first use under a local
/// static's thread-safe initialization and immutable after: no result
/// depends on which call or thread came first.
const PriceTable& prices_for(IsaClass isa) {
  switch (isa) {
    case IsaClass::kSse2: {
      static const PriceTable table(IsaClass::kSse2);
      return table;
    }
    case IsaClass::kAvx: {
      static const PriceTable table(IsaClass::kAvx);
      return table;
    }
    case IsaClass::kFma: {
      static const PriceTable table(IsaClass::kFma);
      return table;
    }
    case IsaClass::kAvx512: {
      static const PriceTable table(IsaClass::kAvx512);
      return table;
    }
  }
  throw Error("payload: unknown ISA class");
}

/// The sizing pass: the stats of the kernel whose loop cycles over `order`
/// (base_order(groups)), summed from the price table without emitting it.
/// It counts the sets of each group at each residue, prices each (group,
/// residue) pair once as if every operand were a disp32, and then reprices
/// the few sets that address a region's first or second line.
PayloadStats size_kernel(const InstructionMix& mix, const InstructionGroups& groups,
                         const std::vector<std::uint8_t>& order,
                         const arch::CacheHierarchy& caches, const CompileOptions& options) {
  const PriceTable& prices = prices_for(mix.isa);
  const std::vector<Group>& list = groups.groups();
  const auto n = static_cast<std::uint32_t>(order.size());
  PayloadStats stats;
  stats.vector_doubles = mix.vector_doubles;
  stats.regions = RegionSizes::from_hierarchy(caches, options.ram_region_bytes).finalized();

  // Per group: its price-table row, its level and its lines per set. Per
  // level: the lines one pass over the base touches.
  std::array<std::size_t, kKindKeys> key{};
  std::array<std::uint8_t, kKindKeys> level{};
  std::array<std::uint8_t, kKindKeys> lines{};
  std::array<std::uint32_t, kNumMemoryLevels> pass_lines{};
  for (std::size_t g = 0; g < list.size(); ++g) {
    key[g] = kind_key(list[g].kind);
    level[g] = static_cast<std::uint8_t>(list[g].kind.level);
    lines[g] = static_cast<std::uint8_t>(list[g].kind.memory_ops());
    pass_lines[level[g]] += list[g].count * lines[g];
  }

  // owner[owner_at[L] + k]: the base index of the set holding level L's
  // line k of a pass. A set writes its index to its lines and the two after
  // them; the next set of its level overwrites what is not its own.
  std::array<std::uint32_t, kNumMemoryLevels> owner_at{};
  std::uint32_t owner_size = 0;
  for (int l = 0; l < kNumMemoryLevels; ++l) {
    owner_at[l] = owner_size;
    owner_size += pass_lines[l] + kMaxOperands;
  }
  std::vector<std::uint32_t> owner(owner_size);

  // count[g * kResidues + r]: sets of group g at residue r. The first loop
  // covers one pass over the base (or u < n sets) and maps the lines.
  std::array<std::uint32_t, kKindKeys * kResidues> count{};
  const std::uint32_t first = options.unroll == 0 ? n : std::min(options.unroll, n);
  std::array<std::uint32_t, kNumMemoryLevels> next_line{};
  unsigned residue = 0;
  for (std::uint32_t i = 0; i < first; ++i) {
    const std::uint8_t g = order[i];
    ++count[g * kResidues + residue];
    const std::uint32_t at = owner_at[level[g]] + next_line[level[g]];
    owner[at] = owner[at + 1] = owner[at + 2] = i;
    next_line[level[g]] += lines[g];
    if (++residue == kResidues) residue = 0;
  }

  // The counted sets' cost, each priced as if every operand were a
  // disp32. A row with one cost at every residue is priced once per group.
  const auto counted_cost = [&] {
    Cost cost;
    for (std::size_t g = 0; g < list.size(); ++g) {
      const Cost* row = prices.disp32(key[g]);
      const std::uint32_t* sets = &count[g * kResidues];
      if (prices.uniform(key[g])) {
        cost += row[0] * std::accumulate(sets, sets + kResidues, std::uint32_t{0});
        continue;
      }
      for (unsigned r = 0; r < kResidues; ++r) cost += row[r] * sets[r];
    }
    return cost;
  };
  // Reprice the sets that hold a level's line in [priced[L], to[L]) whose
  // offset in the region is 0 or 1: their exact cost replaces the disp32
  // one in `exact`.
  Cost exact;
  std::array<std::uint64_t, kNumMemoryLevels> priced{};
  const auto reprice = [&](const std::array<std::uint64_t, kNumMemoryLevels>& to) {
    for (int l = 1; l < kNumMemoryLevels; ++l) {
      if (pass_lines[l] == 0) continue;
      const std::uint64_t region_lines = stats.regions.bytes[l] / 64;
      std::uint64_t last_set = ~std::uint64_t{0};
      for (std::uint64_t start = priced[l] / region_lines * region_lines; start < to[l];
           start += region_lines) {
        for (std::uint64_t line = std::max(start, priced[l]); line < std::min(start + 2, to[l]);
             ++line) {
          const std::uint64_t offset = line % pass_lines[l];
          const std::uint32_t i = owner[owner_at[l] + offset];
          const std::uint64_t set = line / pass_lines[l] * n + i;
          if (set == last_set) continue;
          last_set = set;
          std::uint64_t own = offset;  // the set's first line in the pass
          while (own > 0 && owner[owner_at[l] + own - 1] == i) --own;
          const std::uint64_t first_line = line - (offset - own);
          const std::uint8_t g = order[i];
          unsigned classes = 0;
          for (unsigned t = lines[g]; t-- > 0;)
            classes = classes * kClasses + line_class(first_line + t, region_lines);
          const auto r = static_cast<unsigned>(set % kResidues);
          exact += prices.set(key[g], r, classes) - prices.disp32(key[g])[r];
        }
      }
      priced[l] = to[l];
    }
  };

  std::uint32_t unroll = options.unroll;
  if (unroll == 0) {
    // Default u: the loop fills ~3/4 of L1-I, large enough to spill the
    // micro-op/loop buffers, small enough to avoid instruction fetches
    // from L2 (Sec. IV-C). It is sized by the bytes per set of one pass
    // over the base.
    std::array<std::uint64_t, kNumMemoryLevels> one_pass{};
    std::copy(pass_lines.begin(), pass_lines.end(), one_pass.begin());
    reprice(one_pass);
    Cost pass = counted_cost();
    pass += exact;
    const double per_set = static_cast<double>(pass.bytes) / static_cast<double>(n);
    std::size_t l1i = caches.l1i_size();
    if (l1i == 0) l1i = 32 * 1024;
    unroll = std::max(static_cast<std::uint32_t>(static_cast<double>(l1i) * 0.75 / per_set), n);
  }
  // The remaining sets follow a whole first pass. Each further whole pass
  // adds the first pass's counts, shifted by the residue it starts at, and
  // the passes that start at one residue are added at once; the last,
  // partial pass counts set by set.
  std::array<std::uint32_t, kResidues> passes_at{};
  std::uint32_t set = first;
  for (; unroll - set >= n; set += n) ++passes_at[set % kResidues];
  const std::array<std::uint32_t, kKindKeys * kResidues> first_pass = count;
  for (unsigned shift = 0; shift < kResidues; ++shift) {
    if (passes_at[shift] == 0) continue;
    for (std::size_t g = 0; g < list.size(); ++g) {
      std::uint32_t* to = &count[g * kResidues];
      const std::uint32_t* from = &first_pass[g * kResidues];
      for (unsigned r = 0; r < kResidues; ++r)
        to[(r + shift) % kResidues] += passes_at[shift] * from[r];
    }
  }
  residue = set % kResidues;
  for (std::uint32_t i = 0; set < unroll; ++set, ++i) {
    ++count[order[i] * kResidues + residue];
    if (++residue == kResidues) residue = 0;
  }

  stats.unroll = unroll;
  stats.sequence.sets = unroll;
  for (std::size_t g = 0; g < list.size(); ++g) {
    std::uint32_t times = 0;
    for (unsigned r = 0; r < kResidues; ++r) times += count[g * kResidues + r];
    stats.sequence.add(list[g].kind, times);
  }
  std::array<std::uint64_t, kNumMemoryLevels> all_lines{};
  for (int l = 0; l < kNumMemoryLevels; ++l) {
    all_lines[l] = stats.sequence.lines(static_cast<MemoryLevel>(l));
    stats.bytes_per_iteration[l] = all_lines[l] * 64;
  }
  reprice(all_lines);

  Cost loop = counted_cost();
  loop += exact;
  loop += prices.tail(streaming_levels(stats));
  stats.loop_bytes = loop.bytes;
  stats.simd_per_iteration = loop.simd;
  stats.fma_per_iteration = loop.fma;
  stats.fp_compute_per_iteration = loop.fp_compute;
  stats.alu_per_iteration = loop.alu;
  stats.overhead_per_iteration = loop.overhead;
  stats.flops_per_iteration = loop.flops * static_cast<std::uint32_t>(mix.vector_doubles);
  stats.instructions_per_iteration =
      stats.simd_per_iteration + stats.alu_per_iteration + stats.overhead_per_iteration;
  return stats;
}

}  // namespace

std::unique_ptr<WorkBuffer> CompiledPayload::make_buffer(DataInitPolicy policy,
                                                         std::uint64_t seed) const {
  return std::make_unique<WorkBuffer>(stats_.regions, stats_.sequence, policy, seed);
}

CompiledPayload compile_payload(const InstructionMix& mix, const InstructionGroups& groups,
                                const arch::CacheHierarchy& caches,
                                const CompileOptions& options) {
  TRACE_SPAN("jit.compile");
  const std::vector<std::uint8_t> order = base_order(groups);
  const PayloadStats stats = size_kernel(mix, groups, order, caches, options);
  KernelBuilder builder(mix);
  const Cost emitted = builder.build(groups, order, stats, options.dump_registers);
  if (!(emitted == Cost::of(stats)))
    throw Error("compile_payload: the emitted loop of " + mix.name + " M=" + groups.to_string() +
                " (" + emitted.to_string() + ") differs from its sized stats (" +
                Cost::of(stats).to_string() + ")");
  const std::vector<std::uint8_t> code = builder.code();
  log::debug() << "compiled payload " << mix.name << " M=" << groups.to_string()
               << " u=" << stats.unroll << " loop=" << stats.loop_bytes
               << "B instr/iter=" << stats.instructions_per_iteration;
  return CompiledPayload(jit::ExecutableBuffer(code), stats, mix, groups);
}

PayloadStats analyze_payload(const InstructionMix& mix, const InstructionGroups& groups,
                             const arch::CacheHierarchy& caches, const CompileOptions& options) {
  TRACE_SPAN("payload.analyze");
  return size_kernel(mix, groups, base_order(groups), caches, options);
}

}  // namespace fs2::payload
