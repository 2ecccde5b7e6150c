//===- tests/ebpf_property_test.cpp - eBPF fuzz properties ------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded fuzz properties of the bytecode front-end (DESIGN.md §13).
/// The decoder is the trust boundary, so the properties are absolute:
///
///   * arbitrary byte streams never crash it (the CI sanitizer jobs
///     run this suite under ASan/UBSan and TSan) — they either decode
///     or produce a structured Diag whose slot index is in range;
///   * mutated valid programs never crash it either (mutations hit
///     the interesting rejection paths far more often than noise);
///   * accepted programs re-encode bit-identically (decode is a
///     bijection onto its image);
///   * the CFG partitions the instructions, every edge targets a
///     block leader, and only terminators branch.
///
/// The emitter side: every generateEbpf() program must decode — the
/// generator is the corpus supply for the differential suite and the
/// bench, so a generator/decoder disagreement fails here first.
///
//===----------------------------------------------------------------------===//

#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "progen/EbpfGen.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace rasc;
using namespace rasc::ebpf;

namespace {

/// Whatever decode() returns, its shape is sane: either a program
/// whose slot maps are consistent, or a Diag pointing into the input.
void checkDecodeOutcome(const std::vector<uint8_t> &Bytes) {
  Expected<DecodedProgram> D = decode(Bytes);
  if (!D) {
    EXPECT_LE(D.error().loc().Line, Bytes.size() / SlotBytes + 1);
    EXPECT_FALSE(D.error().message().empty());
    return;
  }
  ASSERT_EQ(D->SlotOf.size(), D->Insns.size());
  ASSERT_EQ(D->InsnAtSlot.size(), Bytes.size() / SlotBytes);
  uint32_t Slot = 0;
  for (uint32_t I = 0; I != D->numInsns(); ++I) {
    EXPECT_EQ(D->SlotOf[I], Slot);
    EXPECT_EQ(D->InsnAtSlot[Slot], I);
    Slot += D->Insns[I].slots();
  }
  EXPECT_EQ(Slot, D->numSlots());
  // Accepted programs re-encode bit-identically.
  EXPECT_EQ(encode(D->Insns), Bytes);
}

TEST(EbpfFuzz, RandomByteStreamsNeverCrash) {
  Rng R(0x5eed);
  for (int Iter = 0; Iter != 2000; ++Iter) {
    // Mostly slot-aligned sizes (the only ones that can get past the
    // size check into the interesting validation), some ragged.
    size_t Slots = R.below(24);
    size_t Size = Slots * SlotBytes + (R.chance(1, 8) ? R.below(8) : 0);
    std::vector<uint8_t> Bytes(Size);
    for (uint8_t &B : Bytes)
      B = static_cast<uint8_t>(R.next());
    checkDecodeOutcome(Bytes);
  }
}

TEST(EbpfFuzz, OpcodeSweepNeverCrashes) {
  // Every opcode byte, with a few operand patterns each, in a
  // two-slot program — deterministic coverage of the whole dispatch
  // surface rather than luck.
  Rng R(0xc0de);
  for (unsigned Op = 0; Op != 256; ++Op) {
    for (int Pat = 0; Pat != 8; ++Pat) {
      std::vector<uint8_t> Bytes(16, 0);
      Bytes[0] = static_cast<uint8_t>(Op);
      Bytes[1] = static_cast<uint8_t>(R.next());
      Bytes[2] = static_cast<uint8_t>(R.next() & 0x3);
      Bytes[4] = static_cast<uint8_t>(R.next());
      Bytes[8] = 0x95; // exit, so valid first slots still accept
      checkDecodeOutcome(Bytes);
    }
  }
}

TEST(EbpfFuzz, MutatedValidProgramsNeverCrash) {
  Rng R(0xfacade);
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    EbpfGenOptions O;
    O.Seed = Seed;
    std::vector<uint8_t> Bytes = generateEbpf(O);
    for (int Mut = 0; Mut != 12; ++Mut) {
      std::vector<uint8_t> M = Bytes;
      switch (R.below(4)) {
      case 0: // flip a byte
        M[R.below(M.size())] ^= static_cast<uint8_t>(1 + R.below(255));
        break;
      case 1: // truncate
        M.resize(R.below(M.size()));
        break;
      case 2: { // duplicate a slot-aligned tail
        std::vector<uint8_t> Tail(
            M.begin() + static_cast<long>(
                            R.below(M.size() / SlotBytes) * SlotBytes),
            M.end());
        M.insert(M.end(), Tail.begin(), Tail.end());
        break;
      }
      default: // stomp an offset field with a large value
        M[R.below(M.size() / SlotBytes) * SlotBytes + 2] = 0xff;
        M[R.below(M.size() / SlotBytes) * SlotBytes + 3] = 0x7f;
        break;
      }
      checkDecodeOutcome(M);
    }
  }
}

//===----------------------------------------------------------------===//
// Emitter and round-trip properties
//===----------------------------------------------------------------===//

TEST(EbpfGenerator, EveryProgramDecodesAndRoundTrips) {
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    EbpfGenOptions O;
    O.Seed = Seed;
    std::vector<Insn> Insns = generateEbpfInsns(O);
    std::vector<uint8_t> Bytes = encode(Insns);
    Expected<DecodedProgram> D = decode(Bytes);
    ASSERT_TRUE(D) << D.error().render();
    EXPECT_EQ(D->Insns, Insns);
    EXPECT_EQ(encode(D->Insns), Bytes);
  }
}

TEST(EbpfGenerator, DeterministicInSeed) {
  EbpfGenOptions O;
  O.Seed = 42;
  EXPECT_EQ(generateEbpf(O), generateEbpf(O));
  EbpfGenOptions O2 = O;
  O2.Seed = 43;
  EXPECT_NE(generateEbpf(O), generateEbpf(O2));
}

//===----------------------------------------------------------------===//
// CFG invariants over the generated corpus
//===----------------------------------------------------------------===//

TEST(EbpfCfgInvariants, PartitionLeadersTerminators) {
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    EbpfGenOptions O;
    O.Seed = Seed;
    O.MaxBlocks = 12;
    Expected<DecodedProgram> D = decode(generateEbpf(O));
    ASSERT_TRUE(D) << D.error().render();
    Cfg G = buildCfg(std::move(*D));
    ASSERT_GT(G.numBlocks(), 0u);

    // Blocks partition the instruction sequence, in order.
    uint32_t Next = 0;
    for (uint32_t B = 0; B != G.numBlocks(); ++B) {
      const Block &Blk = G.Blocks[B];
      EXPECT_EQ(Blk.FirstInsn, Next);
      ASSERT_GT(Blk.NumInsns, 0u);
      for (uint32_t I = Blk.FirstInsn; I <= Blk.lastInsn(); ++I)
        EXPECT_EQ(G.BlockOfInsn[I], B);
      Next = Blk.lastInsn() + 1;
    }
    EXPECT_EQ(Next, G.Prog.numInsns());

    for (uint32_t B = 0; B != G.numBlocks(); ++B) {
      const Block &Blk = G.Blocks[B];
      // Every edge targets a block leader (trivially: a block id),
      // and the target's leader really is an instruction the
      // terminator can reach.
      const Insn &Term = G.Prog.Insns[Blk.lastInsn()];
      for (uint32_t S : Blk.Succs) {
        ASSERT_LT(S, G.numBlocks());
        uint32_t Leader = G.Blocks[S].FirstInsn;
        bool IsFall = Leader == Blk.lastInsn() + 1;
        bool IsTaken =
            Term.isBranch() && G.Prog.branchTargetInsn(Blk.lastInsn()) ==
                                   Leader;
        EXPECT_TRUE(IsFall || IsTaken)
            << "edge " << B << "->" << S << " targets a non-leader";
      }
      // Only the terminator may branch or exit; exits have no succs.
      for (uint32_t I = Blk.FirstInsn; I != Blk.lastInsn(); ++I) {
        EXPECT_FALSE(G.Prog.Insns[I].isJmpClass() &&
                     !G.Prog.Insns[I].isCall())
            << "branch in the middle of block " << B;
      }
      if (Term.isExit()) {
        EXPECT_TRUE(Blk.Succs.empty());
      }
      if (Term.isBranch() && !Term.isUncondJump()) {
        // Both outcomes, deduplicated when the taken target IS the
        // fall-through ("goto +0").
        bool TakenIsFall =
            G.Prog.branchTargetInsn(Blk.lastInsn()) == Blk.lastInsn() + 1;
        EXPECT_EQ(Blk.Succs.size(), TakenIsFall ? 1u : 2u)
            << "conditional terminator of block " << B;
      }
    }
  }
}

} // namespace
