//===- ebpf/Lower.h - eBPF CFG -> analysis inputs ---------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a bytecode CFG into the native inputs of the three
/// applications (DESIGN.md §13), so the entire existing stack —
/// constraint generation, the closure, incremental retract, proof
/// logging, rascd, BatchSolver — runs on real programs unchanged:
///
///   * pdmc: a Program whose Op statements are the property-relevant
///     events of each instruction (helper calls, null-checks of r0,
///     dereferences through r0), checked against typestate
///     specifications such as mapCheckSpec() — the kernel verifier's
///     "null-check the map lookup before dereferencing" discipline as
///     a temporal safety property.
///
///   * dataflow: the same CFG with one statement per instruction and
///     the register file as the bit vector — bit r is "register r has
///     been written". Definitions gen, helper calls clobber (kill)
///     the caller-saved argument registers r1-r5 and gen r0; a read
///     of r with !mustHold is a (may-)read-before-init, with
///     !mayHold a definite one.
///
///   * flow: a FlowProgram encoding register label flow — the
///     register file r0..r5 as a nested pair tuple threaded through
///     one function per basic block, CFG edges as call sites
///     (parameter joins are the merge points), immediates and loads
///     as distinguished literals. Queries like "does the context
///     pointer (r1 at entry) flow to the return value (r0 at exit)"
///     become FlowAnalysis::flowsPN on the distinguished nodes.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_EBPF_LOWER_H
#define RASC_EBPF_LOWER_H

#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "flow/Lang.h"
#include "pdmc/Program.h"
#include "spec/SpecParser.h"

#include <memory>
#include <vector>

namespace rasc {
namespace ebpf {

/// The helper id of bpf_map_lookup_elem, the call the map-check
/// typestate property tracks.
constexpr int32_t HelperMapLookup = 1;

//===----------------------------------------------------------------------===//
// pdmc lowering
//===----------------------------------------------------------------------===//

/// A bytecode-derived typestate-checking program: one pdmc function,
/// one Op statement per property-relevant instruction.
struct PdmcLowering {
  std::unique_ptr<Program> Prog;
  /// Per block: its head statement.
  std::vector<StmtId> BlockHead;
  /// Op statement -> the instruction it came from (for reporting
  /// violations as byte offsets).
  std::vector<std::pair<StmtId, uint32_t>> EventInsn;

  /// The instruction behind an Op statement, or ~0u.
  uint32_t insnOfStmt(StmtId S) const {
    for (const auto &[St, Insn] : EventInsn)
      if (St == S)
        return Insn;
    return ~0u;
  }
};

/// Lowers \p G to a Program over the event alphabet
/// {lookup, check, deref, helper}.
PdmcLowering lowerToProgram(const Cfg &G, std::string FuncName = "ebpf");

/// The map-lookup null-check discipline as a Section 8 specification
/// (source text, and compiled — asserts on parse failure).
std::string mapCheckSpecText();
SpecAutomaton mapCheckSpec();

//===----------------------------------------------------------------------===//
// dataflow lowering
//===----------------------------------------------------------------------===//

/// Register effect of one instruction: registers read, written
/// (gen'd), and clobbered (killed — helper calls trash r1-r5).
struct RegEffect {
  uint64_t Use = 0;
  uint64_t Def = 0;
  uint64_t Kill = 0;
};
RegEffect regEffect(const Insn &I);

/// A bytecode-derived gen/kill problem: bit r of the vector is
/// "register r has been written on this path".
struct DataflowLowering {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<BitVectorProblem> Problem;
  /// Per instruction: its statement.
  std::vector<StmtId> InsnStmt;
  /// Every register read, in instruction order.
  struct Read {
    uint32_t InsnIdx;
    uint8_t Reg;
  };
  std::vector<Read> Reads;
};

DataflowLowering lowerToDataflow(const Cfg &G);

/// One read of a register that may (or must) be uninitialized.
struct UninitRead {
  uint32_t InsnIdx;
  uint8_t Reg;
  /// true: no path initializes it (read of garbage on every path);
  /// false: some path reaches the read without initializing it.
  bool Definite;

  friend bool operator==(const UninitRead &, const UninitRead &) = default;
};

/// Queries a solved analysis of \p L.Problem for reads-before-init.
std::vector<UninitRead> uninitReads(const DataflowLowering &L,
                                    const AnnotatedBitVectorAnalysis &A);

//===----------------------------------------------------------------------===//
// flow lowering
//===----------------------------------------------------------------------===//

/// Registers the flow encoding tracks (r0..r5: return value plus the
/// helper argument registers).
constexpr unsigned FlowTrackedRegs = 6;

/// A bytecode-derived label-flow program. Use FlowMode::Primal: the
/// pair automaton is bounded by the State type; the dual call-string
/// automaton would enumerate acyclic CFG paths.
///
/// Every exit block passes its final state to a distinguished join
/// function "retv", whose parameter therefore merges the exit states
/// of *all* return paths (a pair-projection "join" in a block body
/// would instead select one component under the analysis's precise
/// pair matching). The canonical query is
/// flowsPN(CtxLit, ResultExpr) — PN because the observed value sits
/// under the unreturned CFG-edge calls; the pair-bracket word itself
/// is fully matched.
struct FlowLowering {
  FlowProgram Prog = FlowProgram::empty();
  /// The distinguished literal seeding r1 (the context pointer).
  FExprId CtxLit = 0;
  /// The r0 extraction inside "retv" — r0 at program exit, joined
  /// over every return path.
  FExprId ResultExpr = 0;
  FFuncId MainFn = 0;
  /// The exit-join function "retv".
  FFuncId RetFn = 0;
  /// Per block: its function ("b<i>", State -> int).
  std::vector<FFuncId> BlockFn;
  /// Per instruction: the literal created for its immediate or loaded
  /// value (flow-query source), or ~0u.
  std::vector<FExprId> InsnLit;
};

FlowLowering lowerToFlowProgram(const Cfg &G);

} // namespace ebpf
} // namespace rasc

#endif // RASC_EBPF_LOWER_H
