//===- tests/ebpf_decode_test.cpp - eBPF decoder ----------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact decoding per opcode class (wire bytes in, one checked Insn
/// out), the disassembly strings the golden files pin, the malformed
/// corpus — every rejection the decoder implements, asserted as a
/// structured Diag with the right message, byte offset, and slot —
/// and the golden-file regression over tests/data/ebpf/: each .bpf
/// must disassemble to its .golden byte-for-byte, each .bad must be
/// rejected with the rendered diagnostic its .golden records.
///
//===----------------------------------------------------------------------===//

#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace rasc;
using namespace rasc::ebpf;

namespace {

/// Appends one raw 8-byte slot.
void rawSlot(std::vector<uint8_t> &Out, uint8_t Opcode, uint8_t Dst,
             uint8_t Src, int16_t Off, int32_t Imm) {
  Out.push_back(Opcode);
  Out.push_back(static_cast<uint8_t>((Src << 4) | (Dst & 0x0f)));
  uint16_t O = static_cast<uint16_t>(Off);
  Out.push_back(static_cast<uint8_t>(O & 0xff));
  Out.push_back(static_cast<uint8_t>(O >> 8));
  uint32_t V = static_cast<uint32_t>(Imm);
  for (int B = 0; B != 4; ++B)
    Out.push_back(static_cast<uint8_t>((V >> (8 * B)) & 0xff));
}

/// One valid instruction followed by exit, decoded; returns the first
/// instruction.
Insn decodeOne(const Insn &I) {
  std::vector<Insn> Prog{I, mkExit()};
  Expected<DecodedProgram> D = decode(encode(Prog));
  EXPECT_TRUE(D) << (D ? "" : D.error().render());
  if (!D)
    return Insn{};
  EXPECT_EQ(D->numInsns(), 2u);
  return D->Insns[0];
}

//===----------------------------------------------------------------===//
// Exact decode per opcode class
//===----------------------------------------------------------------===//

TEST(EbpfDecode, AluExact) {
  struct Case {
    Insn In;
    const char *Disasm;
  } Cases[] = {
      {mkAlu(AluOp::Add, 0, 1), "r0 += r1"},
      {mkAlu(AluOp::Sub, 3, 9, /*Is64=*/false), "w3 -= w9"},
      {mkAluImm(AluOp::Mov, 2, -7), "r2 = -7"},
      {mkAluImm(AluOp::Mov, 2, 5, /*Is64=*/false), "w2 = 5"},
      {mkAluImm(AluOp::Div, 4, 3), "r4 /= 3"},
      {mkAluImm(AluOp::Lsh, 5, 63), "r5 <<= 63"},
      {mkAluImm(AluOp::Arsh, 6, 31, /*Is64=*/false), "w6 s>>= 31"},
      {mkAluImm(AluOp::Neg, 7, 0), "r7 = -r7"},
      {mkAlu(AluOp::Xor, 8, 8), "r8 ^= r8"},
      {mkAlu(AluOp::Mov, 0, FrameReg), "r0 = r10"}, // r10 readable
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Disasm);
    Insn Got = decodeOne(C.In);
    EXPECT_EQ(Got, C.In);
    EXPECT_EQ(toString(Got), C.Disasm);
  }
}

TEST(EbpfDecode, JmpExact) {
  struct Case {
    Insn In;
    const char *Disasm;
  } Cases[] = {
      {mkJmpImm(JmpOp::Jeq, 0, 0, 1), "if r0 == 0 goto +1"},
      {mkJmp(JmpOp::Jsgt, 3, 4, 1), "if r3 s> r4 goto +1"},
      {mkJmpImm(JmpOp::Jle, 6, 99, 1, /*Is32=*/true),
       "if w6 <= 99 goto +1"},
      {mkJmp(JmpOp::Jset, 1, 2, 1, /*Is32=*/true), "if w1 & w2 goto +1"},
      {mkCall(7), "call 7"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Disasm);
    // Jump targets must stay in range: follow with two exits so
    // off=+1 lands on a real instruction.
    std::vector<Insn> Prog{C.In, mkExit(), mkExit()};
    Expected<DecodedProgram> D = decode(encode(Prog));
    ASSERT_TRUE(D) << D.error().render();
    EXPECT_EQ(D->Insns[0], C.In);
    EXPECT_EQ(toString(D->Insns[0]), C.Disasm);
  }
  EXPECT_EQ(toString(mkExit()), "exit");
  EXPECT_EQ(toString(mkJa(-3)), "goto -3");
}

TEST(EbpfDecode, MemExact) {
  struct Case {
    Insn In;
    const char *Disasm;
  } Cases[] = {
      {mkLoad(MemSize::W, 1, 2, 8), "r1 = *(u32 *)(r2 + 8)"},
      {mkLoad(MemSize::B, 0, FrameReg, -4), "r0 = *(u8 *)(r10 - 4)"},
      {mkStoreReg(MemSize::Dw, FrameReg, 3, -16),
       "*(u64 *)(r10 - 16) = r3"},
      {mkStoreImm(MemSize::H, 4, 77, 2), "*(u16 *)(r4 + 2) = 77"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Disasm);
    Insn Got = decodeOne(C.In);
    EXPECT_EQ(Got, C.In);
    EXPECT_EQ(toString(Got), C.Disasm);
  }
}

TEST(EbpfDecode, WideImmediate) {
  Insn I = mkLdImm64(3, 0x1122334455667788ull);
  std::vector<Insn> Prog{I, mkExit()};
  std::vector<uint8_t> Bytes = encode(Prog);
  ASSERT_EQ(Bytes.size(), 24u); // 2 slots + 1
  Expected<DecodedProgram> D = decode(Bytes);
  ASSERT_TRUE(D) << D.error().render();
  ASSERT_EQ(D->numInsns(), 2u);
  EXPECT_EQ(D->numSlots(), 3u);
  EXPECT_TRUE(D->Insns[0].Wide);
  EXPECT_EQ(D->Insns[0].Imm64, 0x1122334455667788ull);
  EXPECT_EQ(toString(D->Insns[0]), "r3 = 0x1122334455667788 ll");
  // Both slots of the wide instruction map back to it.
  EXPECT_EQ(D->SlotOf[0], 0u);
  EXPECT_EQ(D->SlotOf[1], 2u);
  EXPECT_EQ(D->InsnAtSlot[0], 0u);
  EXPECT_EQ(D->InsnAtSlot[1], 0u);
  EXPECT_EQ(D->InsnAtSlot[2], 1u);
}

TEST(EbpfDecode, RawWireBytes) {
  // Decoding straight off hand-written wire bytes: BPF_ALU64|ADD|X
  // (0x0f) with dst=r0 src=r1, then exit (0x95).
  std::vector<uint8_t> Bytes;
  rawSlot(Bytes, 0x0f, 0, 1, 0, 0);
  rawSlot(Bytes, 0x95, 0, 0, 0, 0);
  Expected<DecodedProgram> D = decode(Bytes);
  ASSERT_TRUE(D) << D.error().render();
  EXPECT_EQ(D->Insns[0], mkAlu(AluOp::Add, 0, 1));
  EXPECT_TRUE(D->Insns[1].isExit());
  // Negative offset and immediate survive the LE round trip.
  std::vector<uint8_t> B2;
  rawSlot(B2, memOpcode(InsnClass::Ldx, MemSize::W), 1, 2, -8, 0);
  rawSlot(B2, 0x95, 0, 0, 0, 0);
  Expected<DecodedProgram> D2 = decode(B2);
  ASSERT_TRUE(D2) << D2.error().render();
  EXPECT_EQ(D2->Insns[0].Off, -8);
}

TEST(EbpfDecode, BranchTargetMapping) {
  // goto over a wide instruction: slot arithmetic, not insn indices.
  std::vector<Insn> Prog{mkJa(2), mkLdImm64(1, 5), mkExit()};
  Expected<DecodedProgram> D = decode(encode(Prog));
  ASSERT_TRUE(D) << D.error().render();
  EXPECT_EQ(D->branchTargetInsn(0), 2u); // lands on exit, not the lddw
  EXPECT_EQ(D->byteOffset(2), 24u);
}

//===----------------------------------------------------------------===//
// Malformed corpus: structured diagnostics, never UB
//===----------------------------------------------------------------===//

struct Malformed {
  const char *Name;
  std::vector<uint8_t> Bytes;
  const char *MsgSubstr;
  uint32_t Slot; ///< expected 1-based slot in SourceLoc (0 = none)
};

std::vector<uint8_t> bytesOf(const std::vector<Insn> &Prog) {
  return encode(Prog);
}

std::vector<Malformed> malformedCorpus() {
  std::vector<Malformed> C;
  auto Add = [&C](const char *Name, std::vector<uint8_t> B,
                  const char *Msg, uint32_t Slot) {
    C.push_back({Name, std::move(B), Msg, Slot});
  };

  Add("empty", {}, "empty program", 0);
  {
    std::vector<uint8_t> B = bytesOf({mkExit()});
    B.pop_back(); // 7 bytes
    Add("truncated-slot", std::move(B), "not a multiple of 8", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, 0xe7, 0, 0, 0, 0); // ALU64 op 0xe: past Arsh/End
    Add("invalid-alu-op", std::move(B), "invalid opcode 0xe7", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, aluOpcode(AluOp::End, false), 0, 0, 0, 16);
    Add("byte-swap", std::move(B), "byte-swap (END)", 1);
  }
  Add("write-r10", bytesOf({mkAluImm(AluOp::Mov, FrameReg, 1), mkExit()}),
      "read-only frame register r10", 1);
  {
    std::vector<uint8_t> B;
    rawSlot(B, aluOpcode(AluOp::Add, false), 11, 0, 0, 1);
    Add("dst-out-of-range", std::move(B), "register r11 out of range", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, aluOpcode(AluOp::Add, true), 0, 12, 0, 0);
    Add("src-out-of-range", std::move(B), "register r12 out of range", 1);
  }
  {
    Insn I = mkAluImm(AluOp::Add, 0, 1);
    I.Off = 4;
    Add("alu-reserved-off", bytesOf({I, mkExit()}),
        "reserved offset field not zero in ALU", 1);
  }
  {
    Insn I = mkAluImm(AluOp::Add, 0, 1);
    I.Src = 3; // K form with a junk src nibble
    Add("alu-reserved-src", bytesOf({I, mkExit()}),
        "reserved source register not zero in ALU", 1);
  }
  Add("div-zero", bytesOf({mkAluImm(AluOp::Div, 1, 0), mkExit()}),
      "division by zero immediate", 1);
  Add("mod-zero", bytesOf({mkAluImm(AluOp::Mod, 1, 0), mkExit()}),
      "division by zero immediate", 1);
  Add("shift-64", bytesOf({mkAluImm(AluOp::Lsh, 1, 64), mkExit()}),
      "shift amount 64 out of range for 64-bit shift", 1);
  Add("shift-32",
      bytesOf({mkAluImm(AluOp::Rsh, 1, 32, /*Is64=*/false), mkExit()}),
      "shift amount 32 out of range for 32-bit shift", 1);
  {
    std::vector<uint8_t> B;
    rawSlot(B, aluOpcode(AluOp::Neg, /*SrcReg=*/true), 1, 2, 0, 0);
    Add("neg-with-src", std::move(B), "invalid opcode", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, jmpOpcode(JmpOp::Call, false, /*Is32=*/true), 0, 0, 0, 1);
    Add("jmp32-call", std::move(B), "invalid opcode", 1);
  }
  {
    Insn I = mkCall(1);
    I.Src = 1; // BPF_PSEUDO_CALL
    Add("bpf-to-bpf-call", bytesOf({I, mkExit()}),
        "unsupported bpf-to-bpf or tail call", 1);
  }
  {
    Insn I = mkCall(1);
    I.Dst = 2;
    Add("call-reserved-dst", bytesOf({I, mkExit()}),
        "reserved field not zero in call", 1);
  }
  {
    Insn I = mkExit();
    I.Imm = 1;
    Add("exit-reserved-imm", bytesOf({I}),
        "reserved field not zero in exit", 1);
  }
  {
    Insn I = mkJa(0);
    I.Imm = 9;
    Add("ja-reserved-imm", bytesOf({I}),
        "reserved field not zero in jump", 1);
  }
  {
    Insn I = mkJmpImm(JmpOp::Jeq, 0, 0, 0);
    I.Src = 5;
    Add("condjmp-reserved-src", bytesOf({I, mkExit()}),
        "reserved source register not zero in jump", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, 0x20, 0, 0, 0, 0); // LD|ABS|W: legacy packet access
    Add("legacy-abs", std::move(B), "legacy packet access", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, 0x40, 0, 1, 0, 0); // LD|IND|W
    Add("legacy-ind", std::move(B), "legacy packet access", 1);
  }
  {
    std::vector<uint8_t> B;
    rawSlot(B, 0xc3, 1, 2, 0, 0); // STX|ATOMIC|W
    Add("atomic", std::move(B), "atomic operations", 1);
  }
  {
    Insn I = mkStoreImm(MemSize::W, 1, 7, 0);
    I.Src = 2;
    Add("st-reserved-src", bytesOf({I, mkExit()}),
        "reserved source register not zero in store", 1);
  }
  {
    Insn I = mkLdImm64(1, 42);
    I.Src = 1; // BPF_PSEUDO_MAP_FD
    Add("lddw-map-fd", bytesOf({I, mkExit()}),
        "map-fd and other pseudo immediates", 1);
  }
  {
    Insn I = mkLdImm64(1, 42);
    I.Off = 2;
    Add("lddw-reserved-off", bytesOf({I, mkExit()}),
        "reserved offset field not zero in wide", 1);
  }
  {
    // The wide instruction's first slot is the last slot of the
    // program: its second half is missing.
    std::vector<uint8_t> B = bytesOf({mkExit(), mkLdImm64(1, 42)});
    B.resize(B.size() - 8);
    Add("wide-split-at-end", std::move(B),
        "wide instruction split across the end", 2);
  }
  {
    std::vector<uint8_t> B = bytesOf({mkLdImm64(1, 42), mkExit()});
    B[8] = 0x07; // second slot must be all-zero apart from imm
    Add("wide-bad-second-slot", std::move(B),
        "malformed second slot of wide instruction", 2);
  }
  Add("jump-forward-out-of-range", bytesOf({mkJa(5), mkExit()}),
      "jump out of range (target slot 6 of 2)", 1);
  Add("jump-backward-out-of-range",
      bytesOf({mkJmpImm(JmpOp::Jne, 1, 0, -3), mkExit()}),
      "jump out of range", 1);
  Add("jump-into-wide",
      bytesOf({mkJa(1), mkLdImm64(1, 42), mkExit()}),
      "jump into the middle of a wide instruction", 1);
  Add("falls-off-end", bytesOf({mkAluImm(AluOp::Mov, 0, 1)}),
      "control falls off the end", 1);
  Add("falls-off-end-after-cond",
      bytesOf({mkJmpImm(JmpOp::Jeq, 0, 0, -1)}),
      "control falls off the end", 1);
  return C;
}

TEST(EbpfDecode, MalformedCorpus) {
  for (const Malformed &M : malformedCorpus()) {
    SCOPED_TRACE(M.Name);
    Expected<DecodedProgram> D = decode(M.Bytes);
    ASSERT_FALSE(D) << "accepted a malformed program";
    EXPECT_NE(D.error().message().find(M.MsgSubstr), std::string::npos)
        << "got: " << D.error().message();
    EXPECT_EQ(D.error().loc().Line, M.Slot);
    // Slot-level rejections always carry the byte offset.
    if (M.Slot != 0 &&
        D.error().message().find("not a multiple") == std::string::npos) {
      EXPECT_NE(D.error().message().find("at byte offset " +
                                         std::to_string((M.Slot - 1) * 8)),
                std::string::npos)
          << "got: " << D.error().message();
    }
  }
}

TEST(EbpfDecode, ErrorOffsetPointsAtOffendingSlot) {
  // Two valid slots, then the bad one: offset must be 16, slot 3.
  std::vector<uint8_t> B =
      bytesOf({mkAluImm(AluOp::Mov, 0, 1), mkAluImm(AluOp::Mov, 1, 2)});
  rawSlot(B, aluOpcode(AluOp::Div, false), 2, 0, 0, 0);
  rawSlot(B, jmpOpcode(JmpOp::Exit, false), 0, 0, 0, 0);
  Expected<DecodedProgram> D = decode(B);
  ASSERT_FALSE(D);
  EXPECT_NE(D.error().message().find("at byte offset 16"),
            std::string::npos)
      << D.error().message();
  EXPECT_EQ(D.error().loc().Line, 3u);
}

//===----------------------------------------------------------------===//
// CFG construction on pinned shapes
//===----------------------------------------------------------------===//

TEST(EbpfCfg, DiamondShape) {
  // 0: call 1        B0
  // 1: if r0 == 0 goto +1
  // 2: r1 = *(u64*)(r0+0)   B1 (fall-through)
  // 3: exit          B2 (taken target and B1's successor)
  std::vector<Insn> Prog{mkCall(1), mkJmpImm(JmpOp::Jeq, 0, 0, 1),
                         mkLoad(MemSize::Dw, 1, 0, 0), mkExit()};
  Expected<DecodedProgram> D = decode(encode(Prog));
  ASSERT_TRUE(D) << D.error().render();
  Cfg G = buildCfg(std::move(*D));
  ASSERT_EQ(G.numBlocks(), 3u);
  EXPECT_EQ(G.Blocks[0].FirstInsn, 0u);
  EXPECT_EQ(G.Blocks[0].NumInsns, 2u);
  // Fall-through first, then the taken target.
  EXPECT_EQ(G.Blocks[0].Succs, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(G.Blocks[1].Succs, (std::vector<uint32_t>{2}));
  EXPECT_TRUE(G.Blocks[2].Succs.empty());
  EXPECT_EQ(G.BlockOfInsn,
            (std::vector<uint32_t>{0, 0, 1, 2}));
}

TEST(EbpfCfg, SelfLoopAndUnreachable) {
  // 0: goto +1   -> slot 2 (skips insn 1, which stays its own block)
  // 1: exit          unreachable, still a block
  // 2: if r1 != 0 goto -1  -> self... lands on slot 2? -1: 2+1-1=2: self loop
  // 3: exit
  std::vector<Insn> Prog{mkJa(1), mkExit(),
                         mkJmpImm(JmpOp::Jne, 1, 0, -1), mkExit()};
  Expected<DecodedProgram> D = decode(encode(Prog));
  ASSERT_TRUE(D) << D.error().render();
  Cfg G = buildCfg(std::move(*D));
  ASSERT_EQ(G.numBlocks(), 4u);
  EXPECT_EQ(G.Blocks[0].Succs, (std::vector<uint32_t>{2}));
  EXPECT_TRUE(G.Blocks[1].Succs.empty());
  // Self-loop: fall-through to B3 first, then itself.
  EXPECT_EQ(G.Blocks[2].Succs, (std::vector<uint32_t>{3, 2}));
}

//===----------------------------------------------------------------===//
// Golden-file regression over the committed corpus
//===----------------------------------------------------------------===//

std::string slurp(const std::filesystem::path &P) {
  std::ifstream F(P, std::ios::binary);
  EXPECT_TRUE(F.good()) << "cannot open " << P;
  return std::string((std::istreambuf_iterator<char>(F)),
                     std::istreambuf_iterator<char>());
}

TEST(EbpfGolden, CorpusDisassemblesToGolden) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(RASC_TEST_DATA_DIR) / "ebpf";
  ASSERT_TRUE(fs::exists(Dir)) << Dir;
  unsigned Seen = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (E.path().extension() != ".bpf")
      continue;
    SCOPED_TRACE(E.path().filename().string());
    ++Seen;
    std::string Bytes = slurp(E.path());
    std::string Golden =
        slurp(fs::path(E.path()).replace_extension(".golden"));
    Expected<DecodedProgram> D = decode(
        {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
    ASSERT_TRUE(D) << D.error().render();
    EXPECT_EQ(dump(*D), Golden);
  }
  EXPECT_GE(Seen, 6u) << "golden corpus went missing";
}

TEST(EbpfGolden, MalformedCorpusRejectsWithGoldenDiag) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(RASC_TEST_DATA_DIR) / "ebpf";
  unsigned Seen = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (E.path().extension() != ".bad")
      continue;
    SCOPED_TRACE(E.path().filename().string());
    ++Seen;
    std::string Bytes = slurp(E.path());
    std::string Golden =
        slurp(fs::path(E.path()).replace_extension(".golden"));
    Expected<DecodedProgram> D = decode(
        {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
    ASSERT_FALSE(D) << "malformed input decoded";
    EXPECT_EQ(D.error().render() + "\n", Golden);
  }
  EXPECT_GE(Seen, 2u) << "malformed golden corpus went missing";
}

} // namespace
