//===- ebpf/Lower.cpp - eBPF CFG -> analysis inputs -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "ebpf/Lower.h"

#include <array>
#include <cassert>
#include <cstdlib>

namespace rasc {
namespace ebpf {

//===----------------------------------------------------------------------===//
// pdmc lowering
//===----------------------------------------------------------------------===//

namespace {
/// The property-relevant events and their symbols in mapCheckSpec().
enum Event : uint8_t { Lookup, Helper, Check, Deref, NumEvents, NoEvent };
constexpr const char *EventNames[NumEvents] = {"lookup", "helper", "check",
                                               "deref"};
} // namespace

/// The property-relevant event of an instruction, or NoEvent. The
/// "check" event is direction-insensitive: either branch of "if r0 ==
/// 0" counts as having tested the lookup result (the real verifier is
/// path-sensitive here; see DESIGN.md §13 for the deliberate gap).
static Event eventOf(const Insn &I) {
  if (I.isCall())
    return I.Imm == HelperMapLookup ? Lookup : Helper;
  if (I.isBranch() && !I.isUncondJump() && !I.srcIsReg() && I.Dst == 0 &&
      I.Imm == 0 &&
      (I.jmpOp() == JmpOp::Jeq || I.jmpOp() == JmpOp::Jne))
    return Check;
  if (I.cls() == InsnClass::Ldx && I.Src == 0)
    return Deref;
  if ((I.cls() == InsnClass::St || I.cls() == InsnClass::Stx) && I.Dst == 0)
    return Deref;
  return NoEvent;
}

/// Lets \p P render its instruction notes from a copy of the
/// instructions, so the notes outlive the decoded program.
static void renderInsnNotes(Program &P, const DecodedProgram &D) {
  P.setInsnRenderer(
      [Insns = D.Insns](uint32_t I) { return toString(Insns[I]); });
}

PdmcLowering lowerToProgram(const Cfg &G) {
  PdmcLowering L;
  L.Prog = std::make_unique<Program>();
  Program &P = *L.Prog;
  const DecodedProgram &D = G.Prog;
  const uint32_t N = D.numInsns();
  // Statements: entry, exit, the init Nop and one per instruction.
  // Edges: entry and init, each fall-through inside a block, each
  // block edge, and the exits that finalize() adds.
  P.reserve(N + 3, N + 2 + G.numEdges());
  FuncId F = P.addFunction("ebpf");
  renderInsnNotes(P, D);

  // One statement per instruction: an Op for an event, a Nop
  // otherwise. Statements carry source tags; their notes are rendered
  // only when a report asks.
  std::array<OpSymId, NumEvents> Sym;
  Sym.fill(~OpSymId(0));
  L.InsnStmt.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    Event Ev = eventOf(D.Insns[I]);
    if (Ev == NoEvent) {
      L.InsnStmt[I] = P.addNop(F, SourceTag::insn(I));
      continue;
    }
    if (Sym[Ev] == ~OpSymId(0))
      Sym[Ev] = P.internSymbol(EventNames[Ev]);
    L.InsnStmt[I] = P.addOp(F, Sym[Ev], SourceTag::insn(I));
  }

  L.Init = P.addNop(F, "entry: r1 (ctx), r10 (frame) initialized");
  P.addEdge(P.entry(F), L.Init);
  P.addEdge(L.Init, L.InsnStmt[0]);
  for (uint32_t B = 0; B != G.numBlocks(); ++B) {
    const Block &Blk = G.Blocks[B];
    for (uint32_t I = Blk.FirstInsn; I != Blk.lastInsn(); ++I)
      P.addEdge(L.InsnStmt[I], L.InsnStmt[I + 1]);
    for (uint32_t Succ : Blk.Succs)
      P.addEdge(L.InsnStmt[Blk.lastInsn()],
                L.InsnStmt[G.Blocks[Succ].FirstInsn]);
  }
  // Exit instructions have no successor; finalize routes them to the
  // function exit.
  P.finalize();
  return L;
}

std::string mapCheckSpecText() {
  return R"spec(# eBPF map-lookup discipline: the pointer bpf_map_lookup_elem returns
# in r0 must be null-checked before it is dereferenced. Events:
#   lookup - call to helper 1 (bpf_map_lookup_elem)
#   check  - conditional "if r0 == 0" / "if r0 != 0" against immediate 0
#   deref  - memory access with r0 as the base register
#   helper - any other helper call (clobbers r0, discarding the lookup)

start state Start :
  | lookup -> Unchecked
  | check -> Start
  | deref -> Start
  | helper -> Start;

state Unchecked :
  | lookup -> Unchecked
  | check -> Start
  | deref -> Error
  | helper -> Start;

accept state Error;
)spec";
}

SpecAutomaton mapCheckSpec() {
  std::string Error;
  std::optional<SpecAutomaton> S = parseSpec(mapCheckSpecText(), &Error);
  assert(S && "map-check spec must parse");
  if (!S)
    std::abort();
  return std::move(*S);
}

//===----------------------------------------------------------------------===//
// dataflow lowering
//===----------------------------------------------------------------------===//

RegEffect regEffect(const Insn &I) {
  auto Bit = [](uint8_t R) { return uint64_t(1) << R; };
  RegEffect E;
  switch (I.cls()) {
  case InsnClass::Alu:
  case InsnClass::Alu64:
    if (I.aluOp() == AluOp::Mov) {
      if (I.srcIsReg())
        E.Use |= Bit(I.Src);
    } else {
      // Neg and every binop read dst; binops in X form also read src.
      E.Use |= Bit(I.Dst);
      if (I.aluOp() != AluOp::Neg && I.srcIsReg())
        E.Use |= Bit(I.Src);
    }
    E.Def |= Bit(I.Dst);
    break;
  case InsnClass::Ld: // LD_IMM64
    E.Def |= Bit(I.Dst);
    break;
  case InsnClass::Ldx:
    E.Use |= Bit(I.Src);
    E.Def |= Bit(I.Dst);
    break;
  case InsnClass::St:
    E.Use |= Bit(I.Dst);
    break;
  case InsnClass::Stx:
    E.Use |= Bit(I.Dst) | Bit(I.Src);
    break;
  case InsnClass::Jmp:
  case InsnClass::Jmp32:
    if (I.isCall()) {
      // Which argument registers a helper reads depends on the helper
      // signature, which we do not model; what every call does is
      // define r0 and clobber the caller-saved r1-r5.
      E.Def |= Bit(0);
      E.Kill |= Bit(1) | Bit(2) | Bit(3) | Bit(4) | Bit(5);
    } else if (I.isExit()) {
      E.Use |= Bit(0); // exit returns r0
    } else if (!I.isUncondJump()) {
      E.Use |= Bit(I.Dst);
      if (I.srcIsReg())
        E.Use |= Bit(I.Src);
    }
    break;
  }
  return E;
}

DataflowLowering lowerToDataflow(const Cfg &G) {
  DataflowLowering L{lowerToProgram(G), {}, {}};
  const DecodedProgram &D = G.Prog;
  L.Problem = std::make_unique<BitVectorProblem>(*L.Prog, NumRegs);
  // The BPF calling convention initializes r1 (context pointer) and
  // r10 (frame pointer) before the first instruction.
  L.Problem->addTransfer(L.Init,
                         (uint64_t(1) << 1) | (uint64_t(1) << FrameReg), 0);
  for (uint32_t I = 0; I != D.numInsns(); ++I) {
    RegEffect E = regEffect(D.Insns[I]);
    L.Problem->addTransfer(L.InsnStmt[I], E.Def, E.Kill);
    for (uint8_t R = 0; R != NumRegs; ++R)
      if (((E.Use >> R) & 1) && R != FrameReg)
        L.Reads.push_back({I, R});
  }
  return L;
}

std::vector<UninitRead> uninitReads(const DataflowLowering &L,
                                    const AnnotatedBitVectorAnalysis &A) {
  // The bit vector holds on entry to the reading statement; a read in
  // unreachable code reports as definite (no valid path initializes —
  // or reaches — it).
  std::vector<UninitRead> Out;
  for (const DataflowLowering::Read &R : L.Reads) {
    StmtId S = L.InsnStmt[R.InsnIdx];
    if (!A.mustHold(S, R.Reg))
      Out.push_back({R.InsnIdx, R.Reg, !A.mayHold(S, R.Reg)});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// flow lowering
//===----------------------------------------------------------------------===//

static FExprId mkLit(FlowProgram &P, long V) {
  FExpr E;
  E.Kind = FExpr::Lit;
  E.LitValue = V;
  return P.addExpr(E);
}

static FExprId mkParam(FlowProgram &P) {
  FExpr E;
  E.Kind = FExpr::Var;
  return P.addExpr(E);
}

static FExprId mkProj(FlowProgram &P, FExprId Kid, uint32_t Idx) {
  FExpr E;
  E.Kind = FExpr::Proj;
  E.Kid0 = Kid;
  E.ProjIdx = Idx;
  return P.addExpr(E);
}

static FExprId mkPairOf(FlowProgram &P, FExprId A, FExprId B) {
  FExpr E;
  E.Kind = FExpr::MkPair;
  E.Kid0 = A;
  E.Kid1 = B;
  return P.addExpr(E);
}

static FExprId mkCallTo(FlowProgram &P, FFuncId Callee, FExprId Arg) {
  FExpr E;
  E.Kind = FExpr::Call;
  E.Callee = Callee;
  E.Kid0 = Arg;
  return P.addExpr(E);
}

/// State = (r0, (r1, (r2, (r3, (r4, r5))))), all int.
static TypeId stateType(FlowProgram &P) {
  TypeId T = P.intType();
  for (unsigned K = 0; K + 1 != FlowTrackedRegs; ++K)
    T = P.pairType(P.intType(), T);
  return T;
}

/// Register \p R's component of a State-typed expression.
static FExprId extractReg(FlowProgram &P, FExprId State, unsigned R) {
  FExprId E = State;
  for (unsigned J = 0; J != R; ++J)
    E = mkProj(P, E, 1);
  if (R + 1 != FlowTrackedRegs)
    E = mkProj(P, E, 0);
  return E;
}

static FExprId packState(FlowProgram &P,
                         const std::array<FExprId, FlowTrackedRegs> &Cur) {
  FExprId Acc = Cur[FlowTrackedRegs - 1];
  for (unsigned K = FlowTrackedRegs - 1; K != 0; --K)
    Acc = mkPairOf(P, Cur[K - 1], Acc);
  return Acc;
}

static std::string blockName(uint32_t B) { return "b" + std::to_string(B); }

FlowLowering lowerToFlowProgram(const Cfg &G) {
  FlowLowering L;
  FlowProgram &P = L.Prog;
  const DecodedProgram &D = G.Prog;
  const TypeId Int = P.intType();
  const TypeId StateTy = stateType(P);
  L.InsnLit.assign(D.numInsns(), ~FExprId(0));

  // Every function is declared before any body is built, so calls name
  // their callee by id and typecheck() resolves no names.
  L.BlockFn.resize(G.numBlocks());
  for (uint32_t B = 0; B != G.numBlocks(); ++B)
    L.BlockFn[B] = P.declareFunction(blockName(B), "s", StateTy, Int);
  L.RetFn = P.declareFunction("retv", "s", StateTy, Int);
  L.MainFn = P.declareFunction("main", "z", Int, Int);

  // Distinct literal values aid debugging only; flow identity is the
  // expression node. 0/1 are the register seeds, 2.. everything else.
  long NextLit = 2;

  for (uint32_t B = 0; B != G.numBlocks(); ++B) {
    const Block &Blk = G.Blocks[B];
    FExprId S = mkParam(P);
    std::array<FExprId, FlowTrackedRegs> Cur;
    for (unsigned R = 0; R != FlowTrackedRegs; ++R)
      Cur[R] = extractReg(P, S, R);

    for (uint32_t I = Blk.FirstInsn, E = Blk.FirstInsn + Blk.NumInsns; I != E;
         ++I) {
      const Insn &In = D.Insns[I];
      switch (In.cls()) {
      case InsnClass::Alu:
      case InsnClass::Alu64:
        if (In.Dst >= FlowTrackedRegs)
          break;
        if (In.aluOp() == AluOp::Mov) {
          if (In.srcIsReg() && In.Src < FlowTrackedRegs)
            Cur[In.Dst] = Cur[In.Src]; // value flow: share the node
          else if (In.srcIsReg())
            Cur[In.Dst] = L.InsnLit[I] = mkLit(P, NextLit++); // r6-r10
          else
            Cur[In.Dst] = L.InsnLit[I] = mkLit(P, In.Imm);
        }
        // Non-mov ALU keeps dst's provenance (taint through
        // arithmetic on dst; the src operand does not taint).
        break;
      case InsnClass::Ld: // LD_IMM64
        if (In.Dst < FlowTrackedRegs)
          Cur[In.Dst] = L.InsnLit[I] = mkLit(P, long(In.Imm64));
        break;
      case InsnClass::Ldx:
        if (In.Dst < FlowTrackedRegs)
          Cur[In.Dst] = L.InsnLit[I] = mkLit(P, NextLit++); // loaded value
        break;
      case InsnClass::St:
      case InsnClass::Stx:
        break; // memory is not tracked
      case InsnClass::Jmp:
      case InsnClass::Jmp32:
        if (In.isCall()) {
          // r0 := helper result; r1-r5 clobbered to unknowns.
          Cur[0] = L.InsnLit[I] = mkLit(P, NextLit++);
          for (unsigned R = 1; R != FlowTrackedRegs; ++R)
            Cur[R] = mkLit(P, NextLit++);
        }
        break; // branches/exit do not change registers
      }
    }

    FExprId Body;
    if (Blk.Succs.empty()) {
      Body = mkCallTo(P, L.RetFn, packState(P, Cur));
    } else if (Blk.Succs.size() == 1) {
      Body = mkCallTo(P, L.BlockFn[Blk.Succs[0]], packState(P, Cur));
    } else {
      // Both successor calls must be reachable from the body so both
      // are inferred (the projection's *value* is irrelevant — the
      // flow query observes retv's parameter, not block results).
      FExprId St = packState(P, Cur);
      FExprId C0 = mkCallTo(P, L.BlockFn[Blk.Succs[0]], St);
      FExprId C1 = mkCallTo(P, L.BlockFn[Blk.Succs[1]], St);
      Body = mkProj(P, mkPairOf(P, C0, C1), 0);
    }
    P.defineFunction(L.BlockFn[B], Body);
  }

  // retv: the exit join. Its parameter merges the final state of every
  // return path; ResultExpr is r0 of that join.
  {
    FExprId S = mkParam(P);
    L.ResultExpr = extractReg(P, S, 0);
    P.defineFunction(L.RetFn, L.ResultExpr);
  }

  // main: seed the register file. r1 = context pointer (CtxLit), the
  // rest zero; r6-r10 are outside the tracked window.
  {
    std::array<FExprId, FlowTrackedRegs> Init;
    Init[0] = mkLit(P, 0);
    Init[1] = L.CtxLit = mkLit(P, 1);
    for (unsigned R = 2; R != FlowTrackedRegs; ++R)
      Init[R] = mkLit(P, 0);
    FExprId Body = mkCallTo(P, L.BlockFn[0], packState(P, Init));
    P.defineFunction(L.MainFn, Body);
  }

  std::string Error;
  bool Ok = P.typecheck(&Error);
  assert(Ok && "eBPF flow lowering must typecheck");
  if (!Ok)
    std::abort();
  return L;
}

} // namespace ebpf
} // namespace rasc
