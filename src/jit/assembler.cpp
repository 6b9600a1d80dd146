#include "jit/assembler.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::jit {

void Assembler::grow() { code_.resize(std::max<std::size_t>(code_.size() * 2, 4096)); }

// ---- labels & control flow --------------------------------------------------

Label Assembler::new_label() {
  label_offsets_.push_back(-1);
  return Label{static_cast<std::uint32_t>(label_offsets_.size() - 1)};
}

void Assembler::bind(Label label) {
  if (label.index >= label_offsets_.size()) throw Error("Assembler::bind: invalid label");
  if (label_offsets_[label.index] >= 0) throw Error("Assembler::bind: label bound twice");
  label_offsets_[label.index] = static_cast<std::int64_t>(size_);
}

void Assembler::jcc(std::uint8_t opcode2, Label target) {
  fixups_.push_back(Fixup{size_ + 2, target.index});
  emit(Insn().byte(0x0F).byte(opcode2).dword(0));
}

void Assembler::jmp(Label target) {
  fixups_.push_back(Fixup{size_ + 1, target.index});
  emit(Insn().byte(0xE9).dword(0));
}

void Assembler::jnz(Label target) { jcc(0x85, target); }
void Assembler::jz(Label target) { jcc(0x84, target); }

void Assembler::ret() { emit(Insn().byte(0xC3)); }

// ---- integer ALU (xor/shl/shr are inline in the header) --------------------------

void Assembler::mov(Gp dst, std::uint64_t imm) {
  const auto opcode = static_cast<std::uint8_t>(0xB8 | (id(dst) & 7));
  emit(Insn().rex(true, 0, id(dst)).byte(opcode).qword(imm));
}

void Assembler::mov(Gp dst, Gp src) { emit(op64(0x89, id(src), id(dst))); }

void Assembler::mov(Gp dst, Mem src) {
  emit(Insn().rex(true, id(dst), id(src.base)).byte(0x8B).modrm_mem(id(dst), src));
}

void Assembler::mov(Mem dst, Gp src) {
  emit(Insn().rex(true, id(src), id(dst.base)).byte(0x89).modrm_mem(id(src), dst));
}

void Assembler::add(Gp dst, std::int32_t imm) {
  emit(op64(0x81, 0, id(dst)).dword(static_cast<std::uint32_t>(imm)));
}

void Assembler::sub(Gp dst, std::int32_t imm) {
  emit(op64(0x81, 5, id(dst)).dword(static_cast<std::uint32_t>(imm)));
}

void Assembler::add(Gp dst, Gp src) { emit(op64(0x01, id(src), id(dst))); }

void Assembler::and_(Gp dst, std::int32_t imm) {
  emit(op64(0x81, 4, id(dst)).dword(static_cast<std::uint32_t>(imm)));
}

void Assembler::dec(Gp dst) { emit(op64(0xFF, 1, id(dst))); }
void Assembler::inc(Gp dst) { emit(op64(0xFF, 0, id(dst))); }
void Assembler::test(Gp a, Gp b) { emit(op64(0x85, id(b), id(a))); }

void Assembler::cmp(Gp a, std::int32_t imm) {
  emit(op64(0x81, 7, id(a)).dword(static_cast<std::uint32_t>(imm)));
}

void Assembler::cmp(Gp a, Gp b) { emit(op64(0x39, id(b), id(a))); }

void Assembler::push(Gp reg) {
  emit(Insn().rex(false, 0, id(reg)).byte(static_cast<std::uint8_t>(0x50 | (id(reg) & 7))));
}

void Assembler::pop(Gp reg) {
  emit(Insn().rex(false, 0, id(reg)).byte(static_cast<std::uint8_t>(0x58 | (id(reg) & 7))));
}

// ---- AVX / FMA (the per-set forms are inline in the header) ---------------------

void Assembler::vmovapd(Ymm dst, Ymm src) { vex_rr(0x28, id(dst), 0, id(src), false, true, 1, 1); }
void Assembler::vmovupd(Mem dst, Ymm src) { vex_rm(0x11, id(src), 0, dst, false, true, 1, 1); }
void Assembler::vmulpd(Ymm dst, Ymm lhs, Mem rhs) {
  vex_rm(0x59, id(dst), id(lhs), rhs, false, true, 1, 1);
}
void Assembler::vxorpd(Ymm dst, Ymm lhs, Ymm rhs) {
  vex_rr(0x57, id(dst), id(lhs), id(rhs), false, true, 1, 1);
}

void Assembler::vzeroupper() { emit(Insn().byte(0xC5).byte(0xF8).byte(0x77)); }

// ---- EVEX / AVX-512 -----------------------------------------------------------

void Assembler::vmovapd(Zmm dst, Zmm src) { evex_rr(0x28, id(dst), 0, id(src), true, 1, 1); }
void Assembler::vmovapd(Zmm dst, Mem src) { evex_rm(0x28, id(dst), 0, src, true, 1, 1); }
void Assembler::vaddpd(Zmm dst, Zmm lhs, Zmm rhs) {
  evex_rr(0x58, id(dst), id(lhs), id(rhs), true, 1, 1);
}
void Assembler::vmulpd(Zmm dst, Zmm lhs, Zmm rhs) {
  evex_rr(0x59, id(dst), id(lhs), id(rhs), true, 1, 1);
}

// ---- SSE2 ------------------------------------------------------------------------

void Assembler::movapd(Xmm dst, Xmm src) { sse_rr(0x28, id(dst), id(src)); }
void Assembler::mulpd(Xmm dst, Mem src) { sse_rm(0x59, id(dst), src); }

// ---- padding ------------------------------------------------------------------------

void Assembler::nop(std::size_t bytes) {
  // Recommended multi-byte NOP sequences (Intel SDM Table 4-12).
  static constexpr std::uint8_t seqs[9][9] = {
      {0x90},
      {0x66, 0x90},
      {0x0F, 0x1F, 0x00},
      {0x0F, 0x1F, 0x40, 0x00},
      {0x0F, 0x1F, 0x44, 0x00, 0x00},
      {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
      {0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
      {0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  while (bytes > 0) {
    const std::size_t chunk = bytes > 9 ? 9 : bytes;
    Insn insn;
    for (std::size_t i = 0; i < chunk; ++i) insn.byte(seqs[chunk - 1][i]);
    emit(insn);
    bytes -= chunk;
  }
}

void Assembler::align(std::size_t boundary) {
  if (boundary == 0) return;
  const std::size_t rem = size_ % boundary;
  if (rem != 0) nop(boundary - rem);
}

// ---- finalize -------------------------------------------------------------------------

std::vector<std::uint8_t> Assembler::finalize() {
  for (const Fixup& fixup : fixups_) {
    const std::int64_t target = label_offsets_.at(fixup.label);
    if (target < 0)
      throw Error(strings::format("Assembler::finalize: label %u never bound", fixup.label));
    const std::int64_t rel = target - static_cast<std::int64_t>(fixup.patch_pos) - 4;
    const auto rel32 = static_cast<std::uint32_t>(static_cast<std::int32_t>(rel));
    for (int i = 0; i < 4; ++i)
      code_[fixup.patch_pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(rel32 >> (8 * i));
  }
  fixups_.clear();
  const auto end = code_.begin() + static_cast<std::ptrdiff_t>(size_);
  return std::vector<std::uint8_t>(code_.begin(), end);
}

}  // namespace fs2::jit
