#pragma once
// Minimal x86-64 (SysV AMD64) instruction emitter for the forest JIT.
//
// Emits exactly the instruction set the tree compiler needs — scalar SSE2
// double moves/compares/blends, a handful of GPR ops for the row loop,
// and rel32 control flow — into a CodeBuffer laid out pool first:
//
//   Constants  a pool of 8-byte slots at the head of the buffer (offset
//              0 of a fresh mapping, so aligned), deduplicated by bit
//              pattern. Every constant is interned (pool_const) before
//              any code is emitted; end_pool() then drops the dedup
//              index, and each movsd/cmpsd is emitted with its final
//              RIP-relative disp32 (negative: the pool lies behind the
//              code). All pool references are scalar m64 loads, which
//              carry no alignment requirement (unlike packed m128
//              operands) — the blend sequences therefore run
//              register-to-register.
//   Labels     forward/backward rel32 branch targets — the one fixup
//              mechanism. bind() anchors a label at the current offset;
//              resolve_labels() patches every jump recorded since the
//              last call and forgets the labels, so the compiler resolves
//              once per tree and the bookkeeping is sized by the largest
//              tree, not by the forest.
//
// Register discipline: generated kernels are leaf functions touching only
// SysV volatile registers (rdi rsi rdx rcx r8 r9 rax, xmm0-xmm7), so no
// prologue, stack frame, or callee-saved spill is ever emitted.
//
// RIP-relative displacements are measured from the END of the referencing
// instruction; cmpsd carries a trailing imm8 after its disp32, which
// emit_pool_disp() accounts for.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "jit/code_buffer.h"

namespace hmd::jit {

/// GPR encodings (low 3 bits of modrm fields; bit 3 = REX extension).
enum Gpr : std::uint8_t {
  kRax = 0,
  kRcx = 1,
  kRdx = 2,
  kRsi = 6,
  kRdi = 7,
  kR8 = 8,
  kR9 = 9,
};

/// xmm0..xmm7 as plain integers (REX-free range only).
using Xmm = std::uint8_t;

class X64Emitter {
 public:
  explicit X64Emitter(CodeBuffer& code) : code_(code) {}

  std::size_t offset() const { return code_.size(); }

  // --- constant pool -----------------------------------------------------

  /// Intern a double by bit pattern, appending it to the pool at the head
  /// of the buffer; returns its slot. Only valid before end_pool() and
  /// before any instruction is emitted.
  std::uint32_t pool_const(double v) {
    assert(!code_.ok() ||
           code_.size() == pool_base_ + 8 * pool_index_.size());
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    const auto [it, fresh] = pool_index_.try_emplace(
        bits, static_cast<std::uint32_t>(pool_index_.size()));
    if (fresh) code_.put64(bits);
    return it->second;
  }

  /// Close the pool: free the dedup index. Code emission starts here.
  void end_pool() {
    pool_index_ = decltype(pool_index_)(&pool_arena_);  // holds no memory
    pool_arena_.release();
  }

  // --- labels ------------------------------------------------------------

  using Label = std::uint32_t;

  Label make_label() {
    labels_.push_back(kUnbound);
    return static_cast<Label>(labels_.size() - 1);
  }

  void bind(Label label) { labels_[label] = code_.size(); }

  /// Patch every jump recorded since the last call, then forget those
  /// jumps and labels (label ids restart from 0). An unbound target
  /// poisons the buffer, so it can never be sealed, and returns false.
  bool resolve_labels() {
    for (const JumpFixup& fix : jumps_) {
      const std::size_t target = labels_[fix.label];
      if (target == kUnbound) {
        code_.fail();
        return false;
      }
      code_.patch32(fix.patch_at, rel32(fix.patch_at + 4, target));
    }
    jumps_.clear();
    labels_.clear();
    return code_.ok();
  }

  // --- SSE2 scalar double ------------------------------------------------

  /// movsd xmm, [base + r9*8 + disp32]
  void movsd_load_indexed(Xmm dst, Gpr base, std::int32_t disp) {
    code_.put8(0xF2);
    emit_rex_x(base);
    code_.put8(0x0F);
    code_.put8(0x10);
    emit_modrm_sib_indexed(dst, base, disp);
  }

  /// movsd [base + r9*8 + disp32], src
  void movsd_store_indexed(Xmm src, Gpr base, std::int32_t disp) {
    code_.put8(0xF2);
    emit_rex_x(base);
    code_.put8(0x0F);
    code_.put8(0x11);
    emit_modrm_sib_indexed(src, base, disp);
  }

  /// movsd xmm, [rip + <pool slot>]
  void movsd_load_const(Xmm dst, std::uint32_t slot) {
    code_.put8(0xF2);
    code_.put8(0x0F);
    code_.put8(0x10);
    emit_modrm_rip(dst);
    emit_pool_disp(slot, /*tail_bytes=*/0);
  }

  /// cmpsd xmm, [rip + <pool slot>], imm8 — xmm = (xmm CMP const) mask.
  /// imm8 2 (LE) yields all-ones iff xmm <= const; NaN compares false.
  void cmpsd_const(Xmm dst, std::uint32_t slot, std::uint8_t imm) {
    code_.put8(0xF2);
    code_.put8(0x0F);
    code_.put8(0xC2);
    emit_modrm_rip(dst);
    emit_pool_disp(slot, /*tail_bytes=*/1);
    code_.put8(imm);
  }

  /// ucomisd xmm, [base + r9*8 + disp32] — sets CF iff xmm < mem or
  /// unordered (the "descend right" predicate when xmm holds the
  /// threshold and memory holds the sample value).
  void ucomisd_indexed(Xmm lhs, Gpr base, std::int32_t disp) {
    code_.put8(0x66);
    emit_rex_x(base);
    code_.put8(0x0F);
    code_.put8(0x2E);
    emit_modrm_sib_indexed(lhs, base, disp);
  }

  void movapd(Xmm dst, Xmm src) { emit_66_0f(0x28, dst, src); }
  void andpd(Xmm dst, Xmm src) { emit_66_0f(0x54, dst, src); }
  void andnpd(Xmm dst, Xmm src) { emit_66_0f(0x55, dst, src); }
  void orpd(Xmm dst, Xmm src) { emit_66_0f(0x56, dst, src); }

  void addsd(Xmm dst, Xmm src) {
    code_.put8(0xF2);
    code_.put8(0x0F);
    code_.put8(0x58);
    emit_modrm_reg(dst, src);
  }

  // --- GPR / control flow ------------------------------------------------

  /// xor r9d, r9d (zeroes all of r9)
  void zero_r9() {
    code_.put8(0x45);
    code_.put8(0x31);
    code_.put8(0xC9);
  }

  /// cmp r9, rsi
  void cmp_r9_rsi() {
    code_.put8(0x49);
    code_.put8(0x39);
    code_.put8(0xF1);
  }

  /// inc r9
  void inc_r9() {
    code_.put8(0x49);
    code_.put8(0xFF);
    code_.put8(0xC1);
  }

  void jae(Label target) { emit_jcc(0x83, target); }
  void jb(Label target) { emit_jcc(0x82, target); }

  void jmp(Label target) {
    code_.put8(0xE9);
    record_jump_fixup(target);
  }

  void ret() { code_.put8(0xC3); }

 private:
  static constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);

  /// A rel32 jump site; the rel32 field ends its instruction.
  struct JumpFixup {
    std::size_t patch_at;  ///< offset of the rel32 field
    Label label;
  };

  static std::uint32_t rel32(std::size_t from_end, std::size_t target) {
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(target) - static_cast<std::int64_t>(from_end));
  }

  /// REX.X for the r9 index register, plus REX.B when the base is r8/r9.
  void emit_rex_x(Gpr base) {
    code_.put8(static_cast<std::uint8_t>(0x42 | ((base >> 3) & 1)));
  }

  /// modrm(mod=10, reg, rm=SIB) + SIB(scale=8, index=r9, base) + disp32.
  void emit_modrm_sib_indexed(std::uint8_t reg, Gpr base, std::int32_t disp) {
    code_.put8(static_cast<std::uint8_t>(0x80 | (reg << 3) | 0x04));
    code_.put8(static_cast<std::uint8_t>(0xC8 | (base & 7)));
    code_.put32(static_cast<std::uint32_t>(disp));
  }

  /// modrm(mod=00, reg, rm=101) — RIP-relative; emit_pool_disp() follows.
  void emit_modrm_rip(std::uint8_t reg) {
    code_.put8(static_cast<std::uint8_t>(0x05 | (reg << 3)));
  }

  void emit_modrm_reg(std::uint8_t reg, std::uint8_t rm) {
    code_.put8(static_cast<std::uint8_t>(0xC0 | (reg << 3) | rm));
  }

  void emit_66_0f(std::uint8_t opcode, Xmm dst, Xmm src) {
    code_.put8(0x66);
    code_.put8(0x0F);
    code_.put8(opcode);
    emit_modrm_reg(dst, src);
  }

  void emit_jcc(std::uint8_t opcode, Label target) {
    code_.put8(0x0F);
    code_.put8(opcode);
    record_jump_fixup(target);
  }

  void record_jump_fixup(Label target) {
    jumps_.push_back({code_.size(), target});
    code_.put32(0);
  }

  /// The final disp32 of a pool reference whose instruction ends
  /// `tail_bytes` after it.
  void emit_pool_disp(std::uint32_t slot, std::size_t tail_bytes) {
    const std::size_t end = code_.size() + 4 + tail_bytes;
    code_.put32(rel32(end, pool_base_ + std::size_t{8} * slot));
  }

  CodeBuffer& code_;
  const std::size_t pool_base_ = code_.size();  ///< offset of pool slot 0
  /// Bump arena for the dedup index: dropping it (end_pool(), a cancelled
  /// compile) frees a few blocks, not one node per constant.
  std::pmr::monotonic_buffer_resource pool_arena_;
  std::pmr::unordered_map<std::uint64_t, std::uint32_t> pool_index_{
      &pool_arena_};
  std::vector<std::size_t> labels_;
  std::vector<JumpFixup> jumps_;
};

}  // namespace hmd::jit
