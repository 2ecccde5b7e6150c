//===- ebpf/Insn.h - eBPF instruction representation ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic 64-bit eBPF instruction set, the subset the front-end
/// accepts (DESIGN.md §13): ALU/ALU64 arithmetic, JMP/JMP32 branches,
/// helper call and exit, and MEM-mode loads/stores plus the 16-byte
/// LD_IMM64 wide immediate. Each instruction slot is 8 bytes:
///
///   opcode:8 | dst_reg:4 | src_reg:4 | offset:16 (LE) | imm:32 (LE)
///
/// LD_IMM64 occupies two consecutive slots; the second slot must be a
/// zeroed pseudo instruction carrying the upper 32 immediate bits.
/// The decoded form (Insn) is one entry per *slot index* semantics:
/// a wide instruction is a single Insn with Wide = true, and slot
/// indices (used by jump offsets) are mapped by the decoder.
///
/// Out of scope, rejected with structured diagnostics by the decoder:
/// legacy packet access (ABS/IND modes), atomics, bpf-to-bpf and tail
/// calls, and the byte-swap (END) group. See DESIGN.md §13 for why.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_EBPF_INSN_H
#define RASC_EBPF_INSN_H

#include <cstdint>
#include <string>
#include <vector>

namespace rasc {
namespace ebpf {

/// Instruction class: the low three opcode bits.
enum class InsnClass : uint8_t {
  Ld = 0x00,
  Ldx = 0x01,
  St = 0x02,
  Stx = 0x03,
  Alu = 0x04,
  Jmp = 0x05,
  Jmp32 = 0x06,
  Alu64 = 0x07,
};

/// ALU/ALU64 operation: the high four opcode bits.
enum class AluOp : uint8_t {
  Add = 0x0,
  Sub = 0x1,
  Mul = 0x2,
  Div = 0x3,
  Or = 0x4,
  And = 0x5,
  Lsh = 0x6,
  Rsh = 0x7,
  Neg = 0x8,
  Mod = 0x9,
  Xor = 0xa,
  Mov = 0xb,
  Arsh = 0xc,
  End = 0xd, ///< byte swap — out of scope, decoder rejects
};

/// JMP/JMP32 operation: the high four opcode bits.
enum class JmpOp : uint8_t {
  Ja = 0x0,
  Jeq = 0x1,
  Jgt = 0x2,
  Jge = 0x3,
  Jset = 0x4,
  Jne = 0x5,
  Jsgt = 0x6,
  Jsge = 0x7,
  Call = 0x8,
  Exit = 0x9,
  Jlt = 0xa,
  Jle = 0xb,
  Jslt = 0xc,
  Jsle = 0xd,
};

/// Memory access width: opcode bits 3-4.
enum class MemSize : uint8_t {
  W = 0x00,  ///< 4 bytes
  H = 0x08,  ///< 2 bytes
  B = 0x10,  ///< 1 byte
  Dw = 0x18, ///< 8 bytes
};

/// Memory access mode: opcode bits 5-7.
enum class MemMode : uint8_t {
  Imm = 0x00,    ///< LD_IMM64 only
  Abs = 0x20,    ///< legacy packet access — rejected
  Ind = 0x40,    ///< legacy packet access — rejected
  Mem = 0x60,    ///< register + offset
  Atomic = 0xc0, ///< atomics — rejected
};

/// The source-operand bit of ALU and JMP opcodes: 0 = 32-bit
/// immediate, 1 = source register.
constexpr uint8_t SrcK = 0x00;
constexpr uint8_t SrcX = 0x08;

/// Register file: r0 (return value), r1-r5 (arguments, clobbered by
/// calls), r6-r9 (callee saved), r10 (read-only frame pointer).
constexpr uint8_t NumRegs = 11;
constexpr uint8_t FrameReg = 10;

constexpr size_t SlotBytes = 8;

/// One decoded instruction. Fields mirror the wire layout; Imm is
/// sign-extended from 32 bits except for Wide instructions whose full
/// 64-bit immediate lives in Imm64.
struct Insn {
  uint8_t Opcode = 0;
  uint8_t Dst = 0;
  uint8_t Src = 0;
  int16_t Off = 0;
  int32_t Imm = 0;
  bool Wide = false;    ///< LD_IMM64: occupies two slots
  uint64_t Imm64 = 0;   ///< Wide only: the combined immediate

  InsnClass cls() const { return static_cast<InsnClass>(Opcode & 0x07); }
  AluOp aluOp() const { return static_cast<AluOp>(Opcode >> 4); }
  JmpOp jmpOp() const { return static_cast<JmpOp>(Opcode >> 4); }
  MemSize memSize() const { return static_cast<MemSize>(Opcode & 0x18); }
  MemMode memMode() const { return static_cast<MemMode>(Opcode & 0xe0); }
  /// ALU/JMP: true when the second operand is a register.
  bool srcIsReg() const { return Opcode & SrcX; }

  bool isJmpClass() const {
    return cls() == InsnClass::Jmp || cls() == InsnClass::Jmp32;
  }
  bool isExit() const {
    return cls() == InsnClass::Jmp && jmpOp() == JmpOp::Exit;
  }
  bool isCall() const {
    return cls() == InsnClass::Jmp && jmpOp() == JmpOp::Call;
  }
  /// An unconditional or conditional jump (not call/exit).
  bool isBranch() const {
    return isJmpClass() && jmpOp() != JmpOp::Call && jmpOp() != JmpOp::Exit;
  }
  bool isUncondJump() const { return isBranch() && jmpOp() == JmpOp::Ja; }

  /// Slots this instruction occupies (2 for LD_IMM64).
  uint32_t slots() const { return Wide ? 2 : 1; }

  friend bool operator==(const Insn &, const Insn &) = default;
};

/// Builds the opcode byte for an ALU instruction.
constexpr uint8_t aluOpcode(AluOp Op, bool SrcReg, bool Is64 = true) {
  return static_cast<uint8_t>(
      (static_cast<uint8_t>(Op) << 4) | (SrcReg ? SrcX : SrcK) |
      static_cast<uint8_t>(Is64 ? InsnClass::Alu64 : InsnClass::Alu));
}

/// Builds the opcode byte for a JMP instruction.
constexpr uint8_t jmpOpcode(JmpOp Op, bool SrcReg, bool Is32 = false) {
  return static_cast<uint8_t>(
      (static_cast<uint8_t>(Op) << 4) | (SrcReg ? SrcX : SrcK) |
      static_cast<uint8_t>(Is32 ? InsnClass::Jmp32 : InsnClass::Jmp));
}

/// Builds the opcode byte for a MEM-mode load/store.
constexpr uint8_t memOpcode(InsnClass Cls, MemSize Size) {
  return static_cast<uint8_t>(static_cast<uint8_t>(MemMode::Mem) |
                              static_cast<uint8_t>(Size) |
                              static_cast<uint8_t>(Cls));
}

/// The LD_IMM64 opcode (LD class, IMM mode, DW size).
constexpr uint8_t LdImm64Opcode =
    static_cast<uint8_t>(static_cast<uint8_t>(MemMode::Imm) |
                         static_cast<uint8_t>(MemSize::Dw) |
                         static_cast<uint8_t>(InsnClass::Ld));

// Convenience constructors used by the emitter, tests, and benches.

inline Insn mkAlu(AluOp Op, uint8_t Dst, uint8_t Src, bool Is64 = true) {
  Insn I;
  I.Opcode = aluOpcode(Op, /*SrcReg=*/true, Is64);
  I.Dst = Dst;
  I.Src = Src;
  return I;
}

inline Insn mkAluImm(AluOp Op, uint8_t Dst, int32_t Imm, bool Is64 = true) {
  Insn I;
  I.Opcode = aluOpcode(Op, /*SrcReg=*/false, Is64);
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

inline Insn mkJmp(JmpOp Op, uint8_t Dst, uint8_t Src, int16_t Off,
                  bool Is32 = false) {
  Insn I;
  I.Opcode = jmpOpcode(Op, /*SrcReg=*/true, Is32);
  I.Dst = Dst;
  I.Src = Src;
  I.Off = Off;
  return I;
}

inline Insn mkJmpImm(JmpOp Op, uint8_t Dst, int32_t Imm, int16_t Off,
                     bool Is32 = false) {
  Insn I;
  I.Opcode = jmpOpcode(Op, /*SrcReg=*/false, Is32);
  I.Dst = Dst;
  I.Imm = Imm;
  I.Off = Off;
  return I;
}

inline Insn mkJa(int16_t Off) { return mkJmpImm(JmpOp::Ja, 0, 0, Off); }

inline Insn mkCall(int32_t HelperId) {
  Insn I;
  I.Opcode = jmpOpcode(JmpOp::Call, /*SrcReg=*/false);
  I.Imm = HelperId;
  return I;
}

inline Insn mkExit() {
  Insn I;
  I.Opcode = jmpOpcode(JmpOp::Exit, /*SrcReg=*/false);
  return I;
}

inline Insn mkLoad(MemSize Size, uint8_t Dst, uint8_t Base, int16_t Off) {
  Insn I;
  I.Opcode = memOpcode(InsnClass::Ldx, Size);
  I.Dst = Dst;
  I.Src = Base;
  I.Off = Off;
  return I;
}

inline Insn mkStoreReg(MemSize Size, uint8_t Base, uint8_t Src, int16_t Off) {
  Insn I;
  I.Opcode = memOpcode(InsnClass::Stx, Size);
  I.Dst = Base;
  I.Src = Src;
  I.Off = Off;
  return I;
}

inline Insn mkStoreImm(MemSize Size, uint8_t Base, int32_t Imm, int16_t Off) {
  Insn I;
  I.Opcode = memOpcode(InsnClass::St, Size);
  I.Dst = Base;
  I.Imm = Imm;
  I.Off = Off;
  return I;
}

inline Insn mkLdImm64(uint8_t Dst, uint64_t Imm) {
  Insn I;
  I.Opcode = LdImm64Opcode;
  I.Dst = Dst;
  I.Wide = true;
  I.Imm64 = Imm;
  I.Imm = static_cast<int32_t>(Imm & 0xffffffffu);
  return I;
}

/// Appends \p I's wire bytes (8 or 16) to \p Out; the exact inverse
/// of the decoder on accepted programs (bit-identical round trip,
/// property tested).
void encode(const Insn &I, std::vector<uint8_t> &Out);

/// Encodes a whole instruction sequence.
std::vector<uint8_t> encode(const std::vector<Insn> &Prog);

/// One-line human-readable disassembly ("r0 += r1", "if r0 == 0 goto
/// +3", ...). Used by the golden-file tests and rasctool.
std::string toString(const Insn &I);

} // namespace ebpf
} // namespace rasc

#endif // RASC_EBPF_INSN_H
