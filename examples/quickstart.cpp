//===- examples/quickstart.cpp - Library tour -------------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A guided tour of the public API, reproducing Example 2.4 of the
/// paper end to end:
///
///   1. define the annotation language (the 1-bit machine M_1bit of
///      Figure 1) and inspect its representative functions;
///   2. build the constraint system
///        c ⊆^g W   o(W) ⊆^g X   X ⊆ o(Y)   o(Y) ⊆ Z
///   3. solve, and look at the solved form and the least solution.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/Domains.h"
#include "core/Solver.h"

#include <cstdio>

using namespace rasc;

int main() {
  std::printf("== Regularly annotated set constraints: quickstart ==\n\n");

  // --- 1. The annotation language -------------------------------------
  // Annotations are words of a regular language; the solver only ever
  // sees the transition monoid F_M^≡ of its DFA. A domain starts with
  // the identity and one function per symbol, and interns products as
  // they are composed; for this machine those three are all of F_M^≡.
  MonoidDomain Dom(buildOneBitMachine());
  const TransitionMonoid &Mon = Dom.monoid();
  std::printf("M_1bit has %u states; |F_M^≡| = %zu classes:\n",
              Dom.machine().numStates(), Mon.size());
  for (FnId F = 0; F != Mon.size(); ++F)
    std::printf("  f%-2u %s%s\n", F, Mon.toString(F).c_str(),
                Mon.acceptingFromStart(F) ? "   (in F_accept)" : "");

  AnnId G = Dom.symbolAnn("g");
  AnnId K = Dom.symbolAnn("k");
  std::printf("\ncompose(f_g, f_g) = f_g: %s\n",
              Dom.compose(G, G) == G ? "yes" : "no");
  std::printf("compose(f_k, f_g) = f_k: %s (a kill cancels a gen)\n",
              Dom.compose(K, G) == K ? "yes" : "no");

  // --- 2. The constraint system (Example 2.4) -------------------------
  ConstraintSystem CS(Dom);
  ConsId C = CS.addConstant("c");
  ConsId O = CS.addConstructor("o", 1);
  VarId W = CS.freshVar("W"), X = CS.freshVar("X");
  VarId Y = CS.freshVar("Y"), Z = CS.freshVar("Z");

  CS.add(CS.cons(C), CS.var(W), G);        // c ⊆^g W
  CS.add(CS.cons(O, {W}), CS.var(X), G);   // o(W) ⊆^g X
  CS.add(CS.var(X), CS.cons(O, {Y}));      // X ⊆ o(Y)
  CS.add(CS.cons(O, {Y}), CS.var(Z));      // o(Y) ⊆ Z

  std::printf("\nSurface constraints:\n");
  for (const Constraint &Con : CS.constraints())
    std::printf("  %s ⊆^%s %s\n", CS.exprToString(Con.Lhs).c_str(),
                Dom.toString(Con.Ann).c_str(),
                CS.exprToString(Con.Rhs).c_str());

  // --- 3. Solve and query ---------------------------------------------
  BidirectionalSolver Solver(CS);
  if (Solver.solve() != BidirectionalSolver::Status::Solved) {
    std::printf("unexpected: system is inconsistent\n");
    return 1;
  }
  std::printf("\nSolved: %llu edges inserted, %llu compositions.\n",
              static_cast<unsigned long long>(
                  Solver.stats().EdgesInserted),
              static_cast<unsigned long long>(
                  Solver.stats().ComposeCalls));

  // The derived transitive constraint c ⊆^{f_g} Y (f_g ∘ f_g = f_g).
  std::printf("\nAnnotations of c in Y:");
  for (AnnId F : Solver.constantAnnotations(C, Y))
    std::printf(" %s", Dom.toString(F).c_str());
  std::printf("\nentails c-in-Y along a word of L(M): %s\n",
              Solver.entailsConstant(C, Y) ? "yes" : "no");

  // The least solution of Z contains the paper's o^{f_g}(c^{f_g}).
  std::printf("\nLeast solution of Z (up to depth 3):\n");
  for (const GroundTerm &T : Solver.groundTerms(Z, 3))
    std::printf("  %s\n", toString(CS, T).c_str());

  // Function-variable constraints produced by the structural rule.
  std::printf("\nRepresentative-function constraints:\n");
  for (const FnVarConstraint &FC : Solver.fnVarConstraints())
    std::printf("  %s ∘ a%u ⊆ a%u\n", Dom.toString(FC.Fn).c_str(),
                FC.From, FC.To);
  return 0;
}
