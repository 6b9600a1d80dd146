#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "jit/registers.hpp"

namespace fs2::jit {

/// Forward-referenceable code position. Obtained from Assembler::new_label,
/// bound with Assembler::bind, usable as a branch target before binding.
struct Label {
  std::uint32_t index;
};

/// x86-64 instruction encoder with label management — the subset of AsmJit
/// that FIRESTARTER 2's payload generator needs, implemented from scratch.
///
/// Supported instruction classes:
///  * integer: mov/add/sub/xor/shl/shr/dec/test/cmp, push/pop, jcc/jmp, ret
///  * AVX (VEX): vmovapd/vmovupd, vaddpd/vmulpd/vxorpd, vfmadd231pd (FMA3),
///    register and [base+disp] memory forms
///  * SSE2: movapd/addpd/mulpd for the pre-AVX fallback payload
///  * prefetch with locality hints, multi-byte NOP alignment
///
/// Encoding is deliberately conservative: memory operands are always
/// base+disp (auto-selecting disp0/disp8/disp32 and inserting SIB bytes for
/// rsp/r12 bases), which keeps the encoder small enough to be verified
/// byte-for-byte in tests.
///
/// Each instruction is staged in a 16-byte local buffer (two words, kept in
/// registers) and appended with a single capacity check. The encoders the
/// payload generator calls for every instruction set are defined inline
/// below the class, so they inline into its emission loop.
class Assembler {
 public:
  // ---- labels & control flow -------------------------------------------
  Label new_label();
  void bind(Label label);
  void jmp(Label target);   ///< jmp rel32
  void jnz(Label target);   ///< jnz/jne rel32
  void jz(Label target);    ///< jz/je rel32
  void ret();

  // ---- integer ALU -------------------------------------------------------
  void mov(Gp dst, std::uint64_t imm);      ///< mov r64, imm64
  void mov(Gp dst, Gp src);                 ///< mov r64, r64
  void mov(Gp dst, Mem src);                ///< mov r64, [mem]
  void mov(Mem dst, Gp src);                ///< mov [mem], r64
  void add(Gp dst, std::int32_t imm);       ///< add r64, imm32 (sign-extended)
  void sub(Gp dst, std::int32_t imm);
  void add(Gp dst, Gp src);
  void and_(Gp dst, std::int32_t imm);      ///< and r64, imm32 (sign-extended)
  void xor_(Gp dst, Gp src);
  void shl(Gp dst, std::uint8_t imm);
  void shr(Gp dst, std::uint8_t imm);
  void dec(Gp dst);
  void inc(Gp dst);
  void test(Gp a, Gp b);
  void cmp(Gp a, std::int32_t imm);
  void cmp(Gp a, Gp b);
  void push(Gp reg);
  void pop(Gp reg);

  // ---- AVX / FMA (VEX-encoded, 256-bit) ----------------------------------
  void vmovapd(Ymm dst, Ymm src);
  void vmovapd(Ymm dst, Mem src);
  void vmovapd(Mem dst, Ymm src);
  void vmovupd(Mem dst, Ymm src);
  void vaddpd(Ymm dst, Ymm lhs, Ymm rhs);
  void vaddpd(Ymm dst, Ymm lhs, Mem rhs);
  void vmulpd(Ymm dst, Ymm lhs, Ymm rhs);
  void vmulpd(Ymm dst, Ymm lhs, Mem rhs);
  void vxorpd(Ymm dst, Ymm lhs, Ymm rhs);
  void vfmadd231pd(Ymm dst, Ymm a, Ymm b);  ///< dst += a * b
  void vfmadd231pd(Ymm dst, Ymm a, Mem b);
  void vzeroupper();  ///< avoid AVX->SSE transition stalls before returning

  // ---- AVX-512F (EVEX-encoded, 512-bit, zmm0-15, no masking) --------------
  void vmovapd(Zmm dst, Zmm src);
  void vmovapd(Zmm dst, Mem src);
  void vmovapd(Mem dst, Zmm src);
  void vaddpd(Zmm dst, Zmm lhs, Zmm rhs);
  void vmulpd(Zmm dst, Zmm lhs, Zmm rhs);
  void vfmadd231pd(Zmm dst, Zmm a, Zmm b);
  void vfmadd231pd(Zmm dst, Zmm a, Mem b);

  // ---- SSE2 fallback (128-bit, legacy encoding) ---------------------------
  void movapd(Xmm dst, Mem src);
  void movapd(Mem dst, Xmm src);
  void movapd(Xmm dst, Xmm src);
  void addpd(Xmm dst, Xmm src);
  void addpd(Xmm dst, Mem src);
  void mulpd(Xmm dst, Xmm src);
  void mulpd(Xmm dst, Mem src);

  // ---- memory hints & padding ---------------------------------------------
  void prefetch(Mem addr, PrefetchHint hint);
  void nop(std::size_t bytes = 1);   ///< multi-byte NOP sequence
  void align(std::size_t boundary);  ///< pad with NOPs to `boundary` bytes

  // ---- finalization --------------------------------------------------------
  /// Current emitted size in bytes (before fixups; fixup patching does not
  /// change the size).
  std::size_t size() const { return size_; }

  /// Patch all label fixups and return the finished machine code. Throws
  /// fs2::Error if any referenced label was never bound.
  std::vector<std::uint8_t> finalize();

 private:
  /// One instruction being encoded, held in two little-endian words so it
  /// stays in registers; x86-64 instructions are at most 15 bytes. Each
  /// step appends bytes and returns *this, so an encoder is one chain.
  struct Insn {
    std::uint64_t lo = 0;  ///< bytes 0-7
    std::uint64_t hi = 0;  ///< bytes 8-15
    unsigned size = 0;

    Insn& byte(std::uint8_t b) {
      if (size < 8)
        lo |= static_cast<std::uint64_t>(b) << (8 * size);
      else
        hi |= static_cast<std::uint64_t>(b) << (8 * (size - 8));
      ++size;
      return *this;
    }
    Insn& dword(std::uint32_t v) {
      for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
      return *this;
    }
    Insn& qword(std::uint64_t v) {
      for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
      return *this;
    }

    /// REX prefix. `w` selects 64-bit operands; reg/rm supply the extension
    /// bits. Omitted when it would be a bare 0x40.
    Insn& rex(bool w, std::uint8_t reg, std::uint8_t rm);
    /// ModRM with a register rm operand.
    Insn& modrm_reg(std::uint8_t reg, std::uint8_t rm) {
      return byte(static_cast<std::uint8_t>((3 << 6) | ((reg & 7) << 3) | (rm & 7)));
    }
    /// ModRM (+SIB +disp) addressing `mem` with `reg` in the reg field.
    Insn& modrm_mem(std::uint8_t reg, const Mem& mem);
    /// As modrm_mem, but always with a 32-bit displacement.
    Insn& modrm_mem_disp32(std::uint8_t reg, const Mem& mem);
    /// VEX prefix (2-byte form when legal, else 3-byte).
    /// mmmmm: 1=0F, 2=0F38, 3=0F3A; pp: 0=none, 1=66, 2=F3, 3=F2.
    Insn& vex(std::uint8_t reg, std::uint8_t vvvv, std::uint8_t rm_or_base, bool w, bool l256,
              std::uint8_t mmmmm, std::uint8_t pp);
    /// 4-byte EVEX prefix (512-bit vector length, no masking, no broadcast;
    /// registers restricted to 0-15 so R'/V' stay clear).
    /// mm: 1=0F, 2=0F38, 3=0F3A; pp as for VEX.
    Insn& evex(std::uint8_t reg, std::uint8_t vvvv, std::uint8_t rm_or_base, bool w,
               std::uint8_t mm, std::uint8_t pp);
  };

  /// Append a staged instruction: one capacity check, two word stores.
  void emit(const Insn& insn) {
    if (code_.size() - size_ < 16) grow();
    std::uint8_t* at = code_.data() + size_;
    std::memcpy(at, &insn.lo, 8);
    std::memcpy(at + 8, &insn.hi, 8);
    size_ += insn.size;
  }
  void grow();

  /// 64-bit integer op with a register rm operand: REX.W <opcode> /reg.
  static Insn op64(std::uint8_t opcode, std::uint8_t reg, std::uint8_t rm) {
    return Insn().rex(true, reg, rm).byte(opcode).modrm_reg(reg, rm);
  }

  /// VEX op with register rm operand.
  void vex_rr(std::uint8_t opcode, std::uint8_t dst, std::uint8_t vvvv, std::uint8_t src, bool w,
              bool l256, std::uint8_t mmmmm, std::uint8_t pp) {
    emit(Insn().vex(dst, vvvv, src, w, l256, mmmmm, pp).byte(opcode).modrm_reg(dst, src));
  }
  /// VEX op with memory rm operand.
  void vex_rm(std::uint8_t opcode, std::uint8_t dst, std::uint8_t vvvv, const Mem& mem, bool w,
              bool l256, std::uint8_t mmmmm, std::uint8_t pp) {
    emit(Insn().vex(dst, vvvv, id(mem.base), w, l256, mmmmm, pp).byte(opcode).modrm_mem(dst, mem));
  }

  /// EVEX op with register rm operand.
  void evex_rr(std::uint8_t opcode, std::uint8_t dst, std::uint8_t vvvv, std::uint8_t src, bool w,
               std::uint8_t mm, std::uint8_t pp) {
    emit(Insn().evex(dst, vvvv, src, w, mm, pp).byte(opcode).modrm_reg(dst, src));
  }
  /// EVEX op with memory rm operand. Always uses disp32 addressing to
  /// sidestep EVEX's compressed-disp8 scaling rules.
  void evex_rm(std::uint8_t opcode, std::uint8_t dst, std::uint8_t vvvv, const Mem& mem, bool w,
               std::uint8_t mm, std::uint8_t pp) {
    emit(Insn().evex(dst, vvvv, id(mem.base), w, mm, pp).byte(opcode).modrm_mem_disp32(dst, mem));
  }

  /// SSE op: 66 0F <opcode> /r forms.
  void sse_rr(std::uint8_t opcode, std::uint8_t dst, std::uint8_t src) {
    emit(Insn().byte(0x66).rex(false, dst, src).byte(0x0F).byte(opcode).modrm_reg(dst, src));
  }
  void sse_rm(std::uint8_t opcode, std::uint8_t reg, const Mem& mem) {
    emit(Insn().byte(0x66).rex(false, reg, id(mem.base)).byte(0x0F).byte(opcode)
             .modrm_mem(reg, mem));
  }

  void jcc(std::uint8_t opcode2, Label target);

  struct Fixup {
    std::size_t patch_pos;  ///< byte offset of the rel32 field
    std::uint32_t label;
  };

  /// Emitted bytes are code_[0, size_); the rest is spare capacity that
  /// emit() may scribble on.
  std::vector<std::uint8_t> code_;
  std::size_t size_ = 0;
  std::vector<std::int64_t> label_offsets_;  ///< -1 while unbound
  std::vector<Fixup> fixups_;
};

// ---- inline encoding steps and the per-set encoders ---------------------------

inline Assembler::Insn& Assembler::Insn::rex(bool w, std::uint8_t reg, std::uint8_t rm) {
  std::uint8_t prefix = 0x40;
  if (w) prefix |= 0x08;
  if (reg & 8) prefix |= 0x04;
  if (rm & 8) prefix |= 0x01;
  return prefix != 0x40 ? byte(prefix) : *this;
}

inline Assembler::Insn& Assembler::Insn::modrm_mem(std::uint8_t reg, const Mem& mem) {
  const std::uint8_t base_low = id(mem.base) & 7;
  const bool sib = base_low == 4;  // rsp/r12 need a SIB byte
  // mod 0: [base] (rbp/r13 have no disp-less form), 1: disp8, 2: disp32.
  const int mod = mem.disp == 0 && base_low != 5 ? 0 : mem.disp >= -128 && mem.disp <= 127 ? 1 : 2;
  byte(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (sib ? 4 : base_low)));
  // SIB with no index: scale=0, index=100 (none), base=base.
  if (sib) byte(static_cast<std::uint8_t>((4 << 3) | base_low));
  if (mod == 1) return byte(static_cast<std::uint8_t>(mem.disp));
  if (mod == 2) return dword(static_cast<std::uint32_t>(mem.disp));
  return *this;
}

inline Assembler::Insn& Assembler::Insn::modrm_mem_disp32(std::uint8_t reg, const Mem& mem) {
  const std::uint8_t base_low = id(mem.base) & 7;
  const bool sib = base_low == 4;
  byte(static_cast<std::uint8_t>((2 << 6) | ((reg & 7) << 3) | (sib ? 4 : base_low)));
  if (sib) byte(static_cast<std::uint8_t>((4 << 3) | base_low));
  return dword(static_cast<std::uint32_t>(mem.disp));
}

inline Assembler::Insn& Assembler::Insn::vex(std::uint8_t reg, std::uint8_t vvvv,
                                             std::uint8_t rm_or_base, bool w, bool l256,
                                             std::uint8_t mmmmm, std::uint8_t pp) {
  const bool r = (reg & 8) != 0;
  const bool b = (rm_or_base & 8) != 0;
  const auto last = static_cast<std::uint8_t>(((w ? 1 : 0) << 7) | ((~vvvv & 0xf) << 3) |
                                              ((l256 ? 1 : 0) << 2) | pp);
  // Two-byte form is legal when B=0, X=0 (we never use an index register),
  // W=0, and the opcode map is 0F; it carries ~R in place of W.
  if (!b && !w && mmmmm == 1)
    return byte(0xC5).byte(static_cast<std::uint8_t>(((r ? 0 : 1) << 7) | last));
  return byte(0xC4)
      .byte(static_cast<std::uint8_t>(((r ? 0 : 1) << 7) | (1 << 6) /* ~X */ |
                                      ((b ? 0 : 1) << 5) | mmmmm))
      .byte(last);
}

inline Assembler::Insn& Assembler::Insn::evex(std::uint8_t reg, std::uint8_t vvvv,
                                              std::uint8_t rm_or_base, bool w, std::uint8_t mm,
                                              std::uint8_t pp) {
  return byte(0x62)
      // P0: ~R ~X ~B ~R' 0 0 m m   (X is never used: no index registers)
      .byte(static_cast<std::uint8_t>(((reg & 8) ? 0 : 1) << 7 | (1 << 6) |
                                      ((rm_or_base & 8) ? 0 : 1) << 5 | (1 << 4) | mm))
      // P1: W ~v ~v ~v ~v 1 p p
      .byte(static_cast<std::uint8_t>(((w ? 1 : 0) << 7) | ((~vvvv & 0xf) << 3) | (1 << 2) | pp))
      // P2: z L'L b ~V' aaa = 0 10 0 1 000 -> 512-bit, merge, no mask.
      .byte(0x48);
}

inline void Assembler::xor_(Gp dst, Gp src) { emit(op64(0x31, id(src), id(dst))); }
inline void Assembler::shl(Gp dst, std::uint8_t imm) { emit(op64(0xC1, 4, id(dst)).byte(imm)); }
inline void Assembler::shr(Gp dst, std::uint8_t imm) { emit(op64(0xC1, 5, id(dst)).byte(imm)); }

inline void Assembler::prefetch(Mem addr, PrefetchHint hint) {
  const auto h = static_cast<std::uint8_t>(hint);
  emit(Insn().rex(false, h, id(addr.base)).byte(0x0F).byte(0x18).modrm_mem(h, addr));
}

inline void Assembler::vmovapd(Ymm dst, Mem src) {
  vex_rm(0x28, id(dst), 0, src, false, true, 1, 1);
}
inline void Assembler::vmovapd(Mem dst, Ymm src) {
  vex_rm(0x29, id(src), 0, dst, false, true, 1, 1);
}
inline void Assembler::vaddpd(Ymm dst, Ymm lhs, Ymm rhs) {
  vex_rr(0x58, id(dst), id(lhs), id(rhs), false, true, 1, 1);
}
inline void Assembler::vaddpd(Ymm dst, Ymm lhs, Mem rhs) {
  vex_rm(0x58, id(dst), id(lhs), rhs, false, true, 1, 1);
}
inline void Assembler::vmulpd(Ymm dst, Ymm lhs, Ymm rhs) {
  vex_rr(0x59, id(dst), id(lhs), id(rhs), false, true, 1, 1);
}
/// VEX.DDS.256.66.0F38.W1 B8 /r
inline void Assembler::vfmadd231pd(Ymm dst, Ymm a, Ymm b) {
  vex_rr(0xB8, id(dst), id(a), id(b), true, true, 2, 1);
}
inline void Assembler::vfmadd231pd(Ymm dst, Ymm a, Mem b) {
  vex_rm(0xB8, id(dst), id(a), b, true, true, 2, 1);
}

inline void Assembler::vmovapd(Mem dst, Zmm src) { evex_rm(0x29, id(src), 0, dst, true, 1, 1); }
inline void Assembler::vfmadd231pd(Zmm dst, Zmm a, Zmm b) {
  evex_rr(0xB8, id(dst), id(a), id(b), true, 2, 1);
}
inline void Assembler::vfmadd231pd(Zmm dst, Zmm a, Mem b) {
  evex_rm(0xB8, id(dst), id(a), b, true, 2, 1);
}

inline void Assembler::movapd(Xmm dst, Mem src) { sse_rm(0x28, id(dst), src); }
inline void Assembler::movapd(Mem dst, Xmm src) { sse_rm(0x29, id(src), dst); }
inline void Assembler::addpd(Xmm dst, Xmm src) { sse_rr(0x58, id(dst), id(src)); }
inline void Assembler::addpd(Xmm dst, Mem src) { sse_rm(0x58, id(dst), src); }
inline void Assembler::mulpd(Xmm dst, Xmm src) { sse_rr(0x59, id(dst), id(src)); }

}  // namespace fs2::jit
