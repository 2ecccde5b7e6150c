//===- check/Verify.cpp - Derivation verification -------------------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
//
// The checker's semantic passes over a decoded log:
//
//   Pass A replays the record stream in order: definitions must
//   precede use and be internally consistent, collapses must precede
//   all derivation work, and every EDGE / CONFLICT / FNVAR record must
//   be a correct instance of the closure rule it names, with premises
//   that are earlier records and a conclusion the checker recomputes
//   in its own annotation algebra.
//
//   Pass B judges completeness and the trailers: a torn tail, a
//   missing final trailer, or an Unproven mark is "incomplete"; each
//   trailer's progress counters must agree with the records around it;
//   every cycle collapse must be justified by a strongly connected
//   component of the identity variable-variable constraint digraph,
//   recomputed here with the checker's own Tarjan.
//
//   Pass C mirrors the in-process certifier's closedness obligations
//   (core/Certifier.cpp) from first principles: every consequence of
//   the processed edge prefix — transitive joins of a constructor
//   lower bound at a variable node,
//   constructor decompositions and their function-variable facts,
//   projection firings, and the surface constraints themselves — must
//   be present, conflict-witnessed, or dropped by the declared
//   useless-annotation filter.
//
// Annotations are compared by *value*: log annotation ids intern into
// the checker's own algebra (monoid state tables / gen-kill masks),
// so a forged id alias cannot smuggle a wrong annotation past an
// equality test.
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "check/Internal.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_set>

namespace rasccheck {

//===----------------------------------------------------------------------===//
// Algebra
//===----------------------------------------------------------------------===//

Algebra::Algebra(const LogModel &M) : Dom(M.Domain) {
  if (Dom == DomMonoid) {
    const OwnDfa &D = M.Machine;
    NumStates = D.NumStates;
    // A state is live iff it reaches an accepting state: backward
    // reachability over the reversed transition relation.
    std::vector<std::vector<uint32_t>> Rev(NumStates);
    for (uint32_t S = 0; S != NumStates; ++S)
      for (uint32_t Y = 0, E = static_cast<uint32_t>(D.Symbols.size()); Y != E;
           ++Y)
        Rev[D.next(S, Y)].push_back(S);
    Live.assign(NumStates, 0);
    std::vector<uint32_t> Work;
    for (uint32_t S = 0; S != NumStates; ++S)
      if (D.Accepting[S]) {
        Live[S] = 1;
        Work.push_back(S);
      }
    while (!Work.empty()) {
      uint32_t S = Work.back();
      Work.pop_back();
      for (uint32_t P : Rev[S])
        if (!Live[P]) {
          Live[P] = 1;
          Work.push_back(P);
        }
    }
  } else if (Dom == DomGenKill) {
    Mask = M.GkBits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << M.GkBits) - 1);
  }
}

uint32_t Algebra::keyOfTable(const std::vector<uint32_t> &Table) {
  if (Table.size() != NumStates)
    return InvalidId;
  for (uint32_t S : Table)
    if (S >= NumStates)
      return InvalidId;
  auto It = TableIds.find(Table);
  if (It != TableIds.end())
    return It->second;
  uint32_t Key = static_cast<uint32_t>(Tables.size());
  Tables.push_back(Table);
  TableIds.emplace(Table, Key);
  return Key;
}

uint32_t Algebra::keyOfMasks(uint64_t Gen, uint64_t Kill) {
  if ((Gen & Kill) != 0 || (Gen & ~Mask) != 0 || (Kill & ~Mask) != 0)
    return InvalidId;
  auto Pair = std::make_pair(Gen, Kill);
  auto It = PairIds.find(Pair);
  if (It != PairIds.end())
    return It->second;
  uint32_t Key = static_cast<uint32_t>(Pairs.size());
  Pairs.push_back(Pair);
  PairIds.emplace(Pair, Key);
  return Key;
}

uint32_t Algebra::identityKey() {
  switch (Dom) {
  case DomMonoid: {
    std::vector<uint32_t> Id(NumStates);
    for (uint32_t S = 0; S != NumStates; ++S)
      Id[S] = S;
    return keyOfTable(Id);
  }
  case DomGenKill:
    return keyOfMasks(0, 0);
  default:
    return 0;
  }
}

uint32_t Algebra::compose(uint32_t FirstKey, uint32_t ThenKey) {
  if (Dom == DomTrivial)
    return 0;
  uint64_t Memo = (static_cast<uint64_t>(FirstKey) << 32) | ThenKey;
  auto It = ComposeMemo.find(Memo);
  if (It != ComposeMemo.end())
    return It->second;
  uint32_t Key;
  if (Dom == DomMonoid) {
    const std::vector<uint32_t> &F = Tables[FirstKey];
    const std::vector<uint32_t> &T = Tables[ThenKey];
    std::vector<uint32_t> Out(NumStates);
    for (uint32_t S = 0; S != NumStates; ++S)
      Out[S] = T[F[S]];
    Key = keyOfTable(Out);
  } else {
    auto [GF, KF] = Pairs[FirstKey];
    auto [GT, KT] = Pairs[ThenKey];
    uint64_t Gen = GT | (GF & ~KT);
    uint64_t Kill = (KT | (KF & ~GT)) & ~Gen;
    Key = keyOfMasks(Gen, Kill);
  }
  ComposeMemo.emplace(Memo, Key);
  return Key;
}

bool Algebra::isUseless(uint32_t Key) const {
  if (Dom != DomMonoid)
    return false;
  for (uint32_t S : Tables[Key])
    if (Live[S])
      return false;
  return true;
}

std::string Algebra::describe(uint32_t Key) const {
  switch (Dom) {
  case DomMonoid: {
    std::string S = "[";
    for (size_t I = 0, E = Tables[Key].size(); I != E; ++I)
      S += (I ? "," : "") + std::to_string(Tables[Key][I]);
    return S + "]";
  }
  case DomGenKill:
    return "gen=" + std::to_string(Pairs[Key].first) +
           ",kill=" + std::to_string(Pairs[Key].second);
  default:
    return "1";
  }
}

//===----------------------------------------------------------------------===//
// Verification state
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t pairKey(uint32_t A, uint32_t B) {
  return (static_cast<uint64_t>(A) << 32) | B;
}

/// Union-find over (sparse) variable ids, the checker's own.
class UnionFind {
public:
  uint32_t find(uint32_t V) {
    auto It = Parent.find(V);
    if (It == Parent.end())
      return V;
    uint32_t Root = find(It->second);
    It->second = Root;
    return Root;
  }
  void merge(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (size(A) < size(B))
      std::swap(A, B);
    Parent[B] = A;
    Size[A] = size(A) + size(B);
  }
  uint32_t size(uint32_t Root) {
    auto It = Size.find(Root);
    return It == Size.end() ? 1 : It->second;
  }

private:
  std::unordered_map<uint32_t, uint32_t> Parent;
  std::unordered_map<uint32_t, uint32_t> Size;
};

/// Everything the three passes share. Built by pass A.
struct VerifyState {
  const LogModel &M;
  Algebra &Alg;
  uint32_t IdKey;

  std::unordered_map<uint32_t, uint32_t> AnnKey;       // ann id -> value key
  std::unordered_map<uint32_t, const LogNode *> Nodes; // node id -> def
  std::unordered_map<uint32_t, std::pair<std::string, uint32_t>> Ctors;
  std::unordered_map<uint32_t, std::string> Vars;      // var id -> name
  std::unordered_map<uint32_t, uint32_t> VarToNode;    // var id -> node id
  std::unordered_set<uint32_t> Alphas;
  std::set<std::string> NodeStructs;

  UnionFind UF;
  std::unordered_map<uint32_t, uint32_t> RepClaim; // class root -> claimed var

  std::unordered_map<uint32_t, uint32_t> ConstraintByIdx; // Idx -> vec index
  // (src,dst) -> ann key -> kind (1 edge, 2 conflict); dedup, premise
  // lookup, and pass C's accounted() all read this.
  std::unordered_map<uint64_t, std::unordered_map<uint32_t, uint8_t>> Triples;
  std::vector<uint32_t> EdgeKeys; // value key per M.Edges entry
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> FnVarSeen;

  // Per-trailer progress snapshots, in trailer order.
  struct AtStatus {
    uint64_t Edges, Conflicts, Constraints;
  };
  std::vector<AtStatus> StatusSnap;
  uint64_t NumEdges = 0, NumConflicts = 0;
  bool SawWork = false;

  VerifyState(const LogModel &M, Algebra &Alg)
      : M(M), Alg(Alg), IdKey(Alg.identityKey()) {}
};

Verdict invalid(std::string Msg) {
  return Verdict::fail(ExitInvalidDerivation, std::move(Msg));
}
Verdict incomplete(std::string Msg) {
  return Verdict::fail(ExitIncomplete, std::move(Msg));
}

std::string at(size_t Rec) { return "record " + std::to_string(Rec) + ": "; }

//===----------------------------------------------------------------------===//
// Pass A: stream replay
//===----------------------------------------------------------------------===//

/// Claims V as the solver-elected representative of its class. Two
/// different claimed representatives in one class is a forgery: the
/// solver phrases every canonical form in the unique elected rep.
bool claimRep(VerifyState &S, uint32_t V) {
  uint32_t Root = S.UF.find(V);
  auto [It, Fresh] = S.RepClaim.emplace(Root, V);
  return Fresh || It->second == V;
}

bool sameClass(VerifyState &S, uint32_t A, uint32_t B) {
  return S.UF.find(A) == S.UF.find(B);
}

/// The elected representative of V's class, if the log pins one:
/// singleton classes represent themselves, larger classes need a
/// claim from some canonical usage site. InvalidId = no evidence.
uint32_t repOf(VerifyState &S, uint32_t V) {
  uint32_t Root = S.UF.find(V);
  auto It = S.RepClaim.find(Root);
  if (It != S.RepClaim.end())
    return It->second;
  return S.UF.size(Root) == 1 ? V : InvalidId;
}

Verdict checkAnn(VerifyState &S, size_t Rec, uint32_t Id, const LogAnn &A) {
  if (S.AnnKey.count(Id))
    return invalid(at(Rec) + "annotation " + std::to_string(Id) +
                   " defined twice");
  uint32_t Key;
  switch (S.M.Domain) {
  case DomMonoid:
    Key = S.Alg.keyOfTable(A.Table);
    if (Key == InvalidId)
      return invalid(at(Rec) + "annotation " + std::to_string(Id) +
                     ": state table entry out of range");
    break;
  case DomGenKill:
    Key = S.Alg.keyOfMasks(A.Gen, A.Kill);
    if (Key == InvalidId)
      return invalid(at(Rec) + "annotation " + std::to_string(Id) +
                     ": non-canonical gen/kill masks");
    break;
  default:
    Key = S.Alg.keyTrivial();
  }
  S.AnnKey.emplace(Id, Key);
  return Verdict::ok();
}

Verdict checkNode(VerifyState &S, size_t Rec, uint32_t Id, const LogNode &N) {
  if (S.Nodes.count(Id))
    return invalid(at(Rec) + "node " + std::to_string(Id) + " defined twice");
  std::string Struct;
  switch (N.Kind) {
  case KindVar: {
    if (!S.Vars.count(N.V))
      return invalid(at(Rec) + "variable node over undeclared variable " +
                     std::to_string(N.V));
    auto [It, Fresh] = S.VarToNode.emplace(N.V, Id);
    (void)It;
    if (!Fresh)
      return invalid(at(Rec) + "second node for variable " +
                     std::to_string(N.V));
    break;
  }
  case KindCons: {
    auto CIt = S.Ctors.find(N.C);
    if (CIt == S.Ctors.end())
      return invalid(at(Rec) + "node over undeclared constructor " +
                     std::to_string(N.C));
    if (N.Args.size() != CIt->second.second)
      return invalid(at(Rec) + "constructor node arity mismatch for " +
                     CIt->second.first);
    for (uint32_t A : N.Args)
      if (!S.Vars.count(A))
        return invalid(at(Rec) + "constructor argument is an undeclared "
                                 "variable " +
                       std::to_string(A));
    if (!S.Alphas.insert(N.Alpha).second)
      return invalid(at(Rec) + "annotation variable " +
                     std::to_string(N.Alpha) + " bound to two nodes");
    Struct = "c" + std::to_string(N.C);
    for (uint32_t A : N.Args)
      Struct += "," + std::to_string(A);
    break;
  }
  case KindProj: {
    auto CIt = S.Ctors.find(N.C);
    if (CIt == S.Ctors.end())
      return invalid(at(Rec) + "projection over undeclared constructor " +
                     std::to_string(N.C));
    if (N.Index >= CIt->second.second)
      return invalid(at(Rec) + "projection index out of the constructor's "
                               "arity");
    if (!S.Vars.count(N.V))
      return invalid(at(Rec) + "projection subject is an undeclared "
                               "variable " +
                     std::to_string(N.V));
    Struct = "p" + std::to_string(N.C) + "." + std::to_string(N.Index) + "," +
             std::to_string(N.V);
    break;
  }
  default:
    return invalid(at(Rec) + "unknown node kind");
  }
  if (!Struct.empty() && !S.NodeStructs.insert(Struct).second)
    return invalid(at(Rec) + "structurally duplicate node " +
                   std::to_string(Id));
  S.Nodes.emplace(Id, &N);
  return Verdict::ok();
}

/// Canonical side of a constraint record: must be Orig with every
/// variable replaced by its class's elected representative.
Verdict checkCanonSide(VerifyState &S, size_t Rec, uint32_t Orig,
                       uint32_t Can) {
  const LogNode &O = *S.Nodes.at(Orig);
  const LogNode &C = *S.Nodes.at(Can);
  if (O.Kind != C.Kind)
    return invalid(at(Rec) + "canonical form changes expression kind");
  switch (O.Kind) {
  case KindVar:
    if (!sameClass(S, O.V, C.V) || !claimRep(S, C.V))
      return invalid(at(Rec) + "canonical variable is not its class "
                               "representative");
    break;
  case KindCons:
    if (O.C != C.C || O.Args.size() != C.Args.size())
      return invalid(at(Rec) + "canonical form changes the constructor");
    for (size_t I = 0, E = O.Args.size(); I != E; ++I)
      if (!sameClass(S, O.Args[I], C.Args[I]) || !claimRep(S, C.Args[I]))
        return invalid(at(Rec) + "canonical constructor argument is not its "
                                 "class representative");
    break;
  case KindProj:
    if (O.C != C.C || O.Index != C.Index)
      return invalid(at(Rec) + "canonical form changes the projection");
    if (!sameClass(S, O.V, C.V) || !claimRep(S, C.V))
      return invalid(at(Rec) + "canonical projection subject is not its "
                               "class representative");
    break;
  }
  return Verdict::ok();
}

Verdict checkConstraint(VerifyState &S, size_t Rec, uint32_t VecIdx) {
  const LogConstraint &K = S.M.Constraints[VecIdx];
  if (!S.ConstraintByIdx.emplace(K.Idx, VecIdx).second)
    return invalid(at(Rec) + "constraint " + std::to_string(K.Idx) +
                   " recorded twice");
  for (uint32_t N : {K.OrigL, K.OrigR, K.CanL, K.CanR})
    if (!S.Nodes.count(N))
      return invalid(at(Rec) + "constraint references undefined node " +
                     std::to_string(N));
  if (!S.AnnKey.count(K.Ann))
    return invalid(at(Rec) + "constraint references undefined annotation");
  if (Verdict V = checkCanonSide(S, Rec, K.OrigL, K.CanL); V.Code)
    return V;
  if (Verdict V = checkCanonSide(S, Rec, K.OrigR, K.CanR); V.Code)
    return V;
  const LogNode &L = *S.Nodes.at(K.CanL);
  if (S.Nodes.at(K.CanR)->Kind == KindProj)
    return invalid(at(Rec) + "projection on the right-hand side");
  if (L.Kind == KindProj && S.Nodes.at(K.CanR)->Kind != KindVar)
    return invalid(at(Rec) + "projection constraint with a non-variable "
                             "target");
  return Verdict::ok();
}

/// Premise lookup: the named edge must be an earlier EDGE record
/// (conflicts are dead ends, never premises). Returns its value key
/// through Key.
bool premiseSeen(VerifyState &S, const LogPremise &P, uint32_t &Key) {
  auto AIt = S.AnnKey.find(P.Ann);
  if (AIt == S.AnnKey.end() || !S.Nodes.count(P.Src) || !S.Nodes.count(P.Dst))
    return false;
  Key = AIt->second;
  auto TIt = S.Triples.find(pairKey(P.Src, P.Dst));
  if (TIt == S.Triples.end())
    return false;
  auto KIt = TIt->second.find(Key);
  return KIt != TIt->second.end() && KIt->second == 1;
}

Verdict checkEdge(VerifyState &S, size_t Rec, uint32_t VecIdx) {
  const LogEdge &E = S.M.Edges[VecIdx];
  auto AIt = S.AnnKey.find(E.Ann);
  if (AIt == S.AnnKey.end())
    return invalid(at(Rec) + "edge references undefined annotation");
  uint32_t EK = AIt->second;
  auto SIt = S.Nodes.find(E.Src), DIt = S.Nodes.find(E.Dst);
  if (SIt == S.Nodes.end() || DIt == S.Nodes.end())
    return invalid(at(Rec) + "edge endpoint is an undefined node");
  const LogNode &SN = *SIt->second, &DN = *DIt->second;
  if (SN.Kind == KindProj || DN.Kind == KindProj)
    return invalid(at(Rec) + "projection expression used as a graph node");

  // Conflict/edge split must match the endpoints: a constructor
  // mismatch may only be recorded as a conflict, a match never.
  bool ConsCons = SN.Kind == KindCons && DN.Kind == KindCons;
  if (E.Conflict) {
    if (!ConsCons || SN.C == DN.C)
      return invalid(at(Rec) + "conflict without a constructor mismatch");
  } else if (ConsCons && SN.C != DN.C) {
    return invalid(at(Rec) + "constructor mismatch recorded as an edge");
  }
  if (S.M.FilterUseless && S.Alg.isUseless(EK))
    return invalid(at(Rec) + "edge with a useless annotation survived the "
                             "declared filter");

  // The justification.
  uint32_t P1K = 0, P2K = 0;
  switch (E.Rule) {
  case RuleSurface: {
    if (E.P1.present() || E.P2.present())
      return invalid(at(Rec) + "surface edge with premises");
    auto KIt = S.ConstraintByIdx.find(E.CIdx);
    if (KIt == S.ConstraintByIdx.end())
      return invalid(at(Rec) + "surface edge cites an unrecorded constraint");
    const LogConstraint &K = S.M.Constraints[KIt->second];
    if (S.Nodes.at(K.CanL)->Kind == KindProj)
      return invalid(at(Rec) + "surface edge from a projection constraint");
    if (E.Src != K.CanL || E.Dst != K.CanR || EK != S.AnnKey.at(K.Ann))
      return invalid(at(Rec) + "surface edge does not match its constraint");
    break;
  }
  case RuleTransitive: {
    if (E.CIdx != InvalidId)
      return invalid(at(Rec) + "transitive edge cites a constraint");
    if (!premiseSeen(S, E.P1, P1K) || !premiseSeen(S, E.P2, P2K))
      return invalid(at(Rec) + "transitive premise is not an earlier edge");
    auto JIt = S.Nodes.find(E.P1.Dst);
    if (E.P1.Dst != E.P2.Src || JIt->second->Kind != KindVar)
      return invalid(at(Rec) + "transitive premises do not join at a "
                               "variable");
    if (E.Src != E.P1.Src || E.Dst != E.P2.Dst)
      return invalid(at(Rec) + "transitive conclusion endpoints mismatch");
    if (EK != S.Alg.compose(P1K, P2K))
      return invalid(at(Rec) + "transitive conclusion annotation is not the "
                               "composition of its premises");
    break;
  }
  case RuleDecompose: {
    if (E.CIdx != InvalidId)
      return invalid(at(Rec) + "decompose edge cites a constraint");
    if (!premiseSeen(S, E.P1, P1K) || E.P2.present())
      return invalid(at(Rec) + "decompose needs exactly one earlier edge "
                               "premise");
    const LogNode &PS = *S.Nodes.at(E.P1.Src), &PD = *S.Nodes.at(E.P1.Dst);
    if (PS.Kind != KindCons || PD.Kind != KindCons || PS.C != PD.C)
      return invalid(at(Rec) + "decompose premise is not a matched "
                               "constructor edge");
    if (SN.Kind != KindVar || DN.Kind != KindVar)
      return invalid(at(Rec) + "decompose conclusion is not between "
                               "variables");
    bool Matched = false;
    for (size_t I = 0, N = PS.Args.size(); I != N && !Matched; ++I)
      Matched = sameClass(S, SN.V, PS.Args[I]) && sameClass(S, DN.V, PD.Args[I]);
    if (!Matched)
      return invalid(at(Rec) + "decompose conclusion is not an argument "
                               "pair of its premise");
    if (EK != P1K)
      return invalid(at(Rec) + "decompose must preserve the premise "
                               "annotation");
    break;
  }
  case RuleProjection: {
    auto KIt = S.ConstraintByIdx.find(E.CIdx);
    if (KIt == S.ConstraintByIdx.end())
      return invalid(at(Rec) + "projection edge cites an unrecorded "
                               "constraint");
    const LogConstraint &K = S.M.Constraints[KIt->second];
    const LogNode &PL = *S.Nodes.at(K.CanL);
    if (PL.Kind != KindProj)
      return invalid(at(Rec) + "projection edge cites a non-projection "
                               "constraint");
    if (!premiseSeen(S, E.P1, P1K) || E.P2.present())
      return invalid(at(Rec) + "projection needs exactly one earlier edge "
                               "premise");
    const LogNode &PS = *S.Nodes.at(E.P1.Src), &PD = *S.Nodes.at(E.P1.Dst);
    if (PD.Kind != KindVar || PD.V != PL.V)
      return invalid(at(Rec) + "projection premise does not end at the "
                               "constraint's subject");
    if (PS.Kind != KindCons || PS.C != PL.C)
      return invalid(at(Rec) + "projection premise is not a lower bound by "
                               "the projected constructor");
    if (SN.Kind != KindVar || !sameClass(S, SN.V, PS.Args[PL.Index]))
      return invalid(at(Rec) + "projection conclusion source is not the "
                               "projected argument");
    if (E.Dst != K.CanR)
      return invalid(at(Rec) + "projection conclusion target is not the "
                               "constraint's target");
    if (EK != S.Alg.compose(P1K, S.AnnKey.at(K.Ann)))
      return invalid(at(Rec) + "projection conclusion annotation is not "
                               "premise-then-constraint");
    break;
  }
  default:
    return invalid(at(Rec) + "unknown closure rule");
  }

  // Endpoints are canonical forms: their variables claim rep status.
  if (SN.Kind == KindVar && !claimRep(S, SN.V))
    return invalid(at(Rec) + "edge source variable is not its class "
                             "representative");
  if (DN.Kind == KindVar && !claimRep(S, DN.V))
    return invalid(at(Rec) + "edge target variable is not its class "
                             "representative");
  for (const LogNode *N : {&SN, &DN})
    if (N->Kind == KindCons)
      for (uint32_t A : N->Args)
        if (!claimRep(S, A))
          return invalid(at(Rec) + "edge constructor argument is not its "
                                   "class representative");

  auto [It, Fresh] =
      S.Triples[pairKey(E.Src, E.Dst)].emplace(EK, E.Conflict ? 2 : 1);
  (void)It;
  if (!Fresh)
    return invalid(at(Rec) + "duplicate edge (the solver deduplicates)");
  S.EdgeKeys[VecIdx] = EK;
  return Verdict::ok();
}

Verdict checkFnVar(VerifyState &S, size_t Rec, const LogFnVar &F) {
  uint32_t PK = 0;
  if (!F.P.present() || !premiseSeen(S, F.P, PK))
    return invalid(at(Rec) + "fn-var premise is not an earlier edge");
  const LogNode &PS = *S.Nodes.at(F.P.Src), &PD = *S.Nodes.at(F.P.Dst);
  if (PS.Kind != KindCons || PD.Kind != KindCons || PS.C != PD.C)
    return invalid(at(Rec) + "fn-var premise is not a matched constructor "
                             "edge");
  if (F.From != PS.Alpha || F.To != PD.Alpha)
    return invalid(at(Rec) + "fn-var endpoints are not the premise's "
                             "annotation variables");
  auto AIt = S.AnnKey.find(F.Fn);
  if (AIt == S.AnnKey.end() || AIt->second != PK)
    return invalid(at(Rec) + "fn-var function is not the premise "
                             "annotation");
  if (!S.FnVarSeen.emplace(F.From, F.To, PK).second)
    return invalid(at(Rec) + "duplicate fn-var constraint");
  return Verdict::ok();
}

Verdict passA(VerifyState &S) {
  const LogModel &M = S.M;
  S.EdgeKeys.assign(M.Edges.size(), 0);
  size_t Rec = 0;
  uint64_t ConstraintsSeen = 0;
  for (const LogItem &It : M.Stream) {
    ++Rec;
    switch (It.Type) {
    case RecAnn: {
      const auto &[Id, A] = M.Anns[It.Index];
      if (Verdict V = checkAnn(S, Rec, Id, A); V.Code)
        return V;
      break;
    }
    case RecCtor: {
      const auto &[Id, Def] = M.Ctors[It.Index];
      if (!S.Ctors.emplace(Id, Def).second)
        return invalid(at(Rec) + "constructor " + std::to_string(Id) +
                       " defined twice");
      break;
    }
    case RecVarName: {
      const auto &[Id, Name] = M.Vars[It.Index];
      if (!S.Vars.emplace(Id, Name).second)
        return invalid(at(Rec) + "variable " + std::to_string(Id) +
                       " defined twice");
      break;
    }
    case RecNode: {
      const auto &[Id, N] = M.Nodes[It.Index];
      if (Verdict V = checkNode(S, Rec, Id, N); V.Code)
        return V;
      break;
    }
    case RecCollapse: {
      const LogCollapse &K = M.Collapses[It.Index];
      if (!M.CycleElimination)
        return invalid(at(Rec) + "collapse in a log whose header disables "
                                 "cycle elimination");
      if (S.SawWork)
        return invalid(at(Rec) + "collapse after derivation work started");
      if (!S.Vars.count(K.V) || !S.Vars.count(K.Rep))
        return invalid(at(Rec) + "collapse of undeclared variables");
      S.UF.merge(K.V, K.Rep);
      break;
    }
    case RecConstraint:
      S.SawWork = true;
      ++ConstraintsSeen;
      if (Verdict V = checkConstraint(S, Rec, It.Index); V.Code)
        return V;
      break;
    case RecEdge:
    case RecConflict:
      S.SawWork = true;
      if (Verdict V = checkEdge(S, Rec, It.Index); V.Code)
        return V;
      if (M.Edges[It.Index].Conflict)
        ++S.NumConflicts;
      else
        ++S.NumEdges;
      break;
    case RecFnVar:
      S.SawWork = true;
      if (Verdict V = checkFnVar(S, Rec, M.FnVars[It.Index]); V.Code)
        return V;
      break;
    case RecStatus:
      S.StatusSnap.push_back({S.NumEdges, S.NumConflicts, ConstraintsSeen});
      break;
    }
  }
  return Verdict::ok();
}

//===----------------------------------------------------------------------===//
// Pass B: completeness, trailers, collapse justification
//===----------------------------------------------------------------------===//

Verdict passB(VerifyState &S) {
  const LogModel &M = S.M;

  // Completeness first: these outrank derivation-level complaints
  // about the trailers themselves.
  if (M.TornBytes)
    return incomplete("torn tail of " + std::to_string(M.TornBytes) +
                      " undecodable bytes (crash mid-write or trailing "
                      "mutation)");
  if (M.Statuses.empty())
    return incomplete("log has no status trailer");
  if (M.Stream.back().Type != RecStatus)
    return incomplete("log does not end with a status trailer");
  for (const LogStatus &St : M.Statuses)
    if (St.Code == 7)
      return incomplete("solver marked this log unproven (abandoned "
                        "emission)");

  // Trailer progress counters, each against the records before it. A
  // resumed solver appends one trailer per solve; all are checked,
  // the last is authoritative.
  uint64_t PrevP = 0, PrevIng = 0;
  for (size_t I = 0, E = M.Statuses.size(); I != E; ++I) {
    const LogStatus &St = M.Statuses[I];
    const VerifyState::AtStatus &Snap = S.StatusSnap[I];
    if (St.Processed < PrevP || St.Ingested < PrevIng)
      return invalid("trailer " + std::to_string(I) +
                     ": progress counters regressed");
    if (St.Processed > Snap.Edges)
      return invalid("trailer " + std::to_string(I) +
                     ": claims more processed edges than recorded");
    if (Snap.Constraints > St.Ingested)
      return invalid("trailer " + std::to_string(I) +
                     ": more constraints recorded than ingested");
    if (St.Code == 0 && (Snap.Conflicts || St.Processed != Snap.Edges))
      return invalid("trailer " + std::to_string(I) +
                     ": Solved needs a drained worklist and no conflicts");
    if (St.Code == 1 && (!Snap.Conflicts || St.Processed != Snap.Edges))
      return invalid("trailer " + std::to_string(I) +
                     ": Inconsistent needs a drained worklist and a "
                     "witnessed conflict");
    PrevP = St.Processed;
    PrevIng = St.Ingested;
  }
  for (const LogConstraint &K : M.Constraints)
    if (K.Idx >= M.Statuses.back().Ingested)
      return invalid("constraint " + std::to_string(K.Idx) +
                     " beyond the trailer's ingested count");

  // Cycle collapses: each merged pair must share a strongly connected
  // component of the identity variable-variable constraint digraph —
  // only identity cycles license set equality. Computed with the
  // checker's own iterative Tarjan.
  if (M.Collapses.empty())
    return Verdict::ok();
  std::unordered_map<uint32_t, uint32_t> Dense;
  auto denseOf = [&](uint32_t V) {
    return Dense.emplace(V, static_cast<uint32_t>(Dense.size())).first->second;
  };
  std::vector<std::vector<uint32_t>> Adj;
  auto ensure = [&](uint32_t N) {
    if (Adj.size() <= N)
      Adj.resize(N + 1);
  };
  for (const LogConstraint &K : M.Constraints) {
    const LogNode &L = *S.Nodes.at(K.OrigL), &R = *S.Nodes.at(K.OrigR);
    if (L.Kind != KindVar || R.Kind != KindVar ||
        S.AnnKey.at(K.Ann) != S.IdKey)
      continue;
    uint32_t A = denseOf(L.V), B = denseOf(R.V);
    ensure(std::max(A, B));
    Adj[A].push_back(B);
  }
  for (const LogCollapse &K : M.Collapses)
    ensure(std::max(denseOf(K.V), denseOf(K.Rep)));

  uint32_t N = static_cast<uint32_t>(Adj.size());
  std::vector<uint32_t> Index(N, InvalidId), Low(N, 0), Scc(N, InvalidId);
  std::vector<uint8_t> OnStack(N, 0);
  std::vector<uint32_t> Stack;
  uint32_t Next = 0, NumScc = 0;
  struct Frame {
    uint32_t V;
    size_t Child;
  };
  std::vector<Frame> Frames;
  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root] != InvalidId)
      continue;
    Frames.push_back({Root, 0});
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      uint32_t V = F.V;
      if (F.Child == 0) {
        Index[V] = Low[V] = Next++;
        Stack.push_back(V);
        OnStack[V] = 1;
      }
      if (F.Child < Adj[V].size()) {
        uint32_t W = Adj[V][F.Child++];
        if (Index[W] == InvalidId)
          Frames.push_back({W, 0});
        else if (OnStack[W])
          Low[V] = std::min(Low[V], Index[W]);
        continue;
      }
      if (Low[V] == Index[V]) {
        while (true) {
          uint32_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = 0;
          Scc[W] = NumScc;
          if (W == V)
            break;
        }
        ++NumScc;
      }
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().V] = std::min(Low[Frames.back().V], Low[V]);
    }
  }
  for (const LogCollapse &K : M.Collapses)
    if (Scc[Dense.at(K.V)] != Scc[Dense.at(K.Rep)])
      return invalid("collapse of variables " + std::to_string(K.V) +
                     " and " + std::to_string(K.Rep) +
                     " without an identity constraint cycle");
  return Verdict::ok();
}

//===----------------------------------------------------------------------===//
// Pass C: closedness of the processed prefix
//===----------------------------------------------------------------------===//

/// Is the consequence (Src ⊆^Key Dst) accounted for? Present as an
/// edge, witnessed as a conflict (constructor mismatch only), or
/// dropped by the declared useless-annotation filter.
bool accounted(VerifyState &S, uint32_t Src, uint32_t Dst, uint32_t Key) {
  if (S.M.FilterUseless && S.Alg.isUseless(Key))
    return true;
  auto It = S.Triples.find(pairKey(Src, Dst));
  if (It == S.Triples.end())
    return false;
  auto KIt = It->second.find(Key);
  if (KIt == It->second.end())
    return false;
  const LogNode &SN = *S.Nodes.at(Src), &DN = *S.Nodes.at(Dst);
  bool Mismatch =
      SN.Kind == KindCons && DN.Kind == KindCons && SN.C != DN.C;
  return KIt->second == (Mismatch ? 2 : 1);
}

Verdict passC(VerifyState &S, VerifyCounters &Cnt) {
  const LogModel &M = S.M;
  uint64_t P = M.Statuses.back().Processed;

  // The processed prefix: the first Processed-many EDGE records
  // (conflicts never enter the worklist). Rebuilt logs reorder edges
  // topologically, but rebuilding requires a drained worklist, so the
  // prefix is the same *set* either way — and closedness only reads
  // the set.
  // InProc keeps constructor-sourced edges only: the transitive rule
  // fires for a constructor left premise (the inductive form; a
  // var→var path is never closed) and projection reads lower bounds.
  std::unordered_map<uint32_t, std::vector<const LogEdge *>> InProc, OutProc;
  std::unordered_map<const LogEdge *, uint32_t> KeyOf;
  std::vector<const LogEdge *> ProcConsCons;
  uint64_t Taken = 0;
  for (size_t I = 0, E = M.Edges.size(); I != E && Taken != P; ++I) {
    const LogEdge &Ed = M.Edges[I];
    if (Ed.Conflict)
      continue;
    ++Taken;
    KeyOf[&Ed] = S.EdgeKeys[I];
    const LogNode &SN = *S.Nodes.at(Ed.Src), &DN = *S.Nodes.at(Ed.Dst);
    OutProc[Ed.Src].push_back(&Ed);
    if (SN.Kind == KindCons)
      InProc[Ed.Dst].push_back(&Ed);
    if (SN.Kind == KindCons && DN.Kind == KindCons)
      ProcConsCons.push_back(&Ed);
  }

  // Transitive closure at variable nodes: every processed constructor
  // in-edge and out-edge pair must have its join accounted for.
  for (const auto &[Node, Ins] : InProc) {
    if (S.Nodes.at(Node)->Kind != KindVar)
      continue;
    auto OIt = OutProc.find(Node);
    if (OIt == OutProc.end())
      continue;
    for (const LogEdge *In : Ins)
      for (const LogEdge *Out : OIt->second) {
        ++Cnt.Transitive;
        uint32_t Key = S.Alg.compose(KeyOf[In], KeyOf[Out]);
        if (!accounted(S, In->Src, Out->Dst, Key))
          return invalid("missing transitive consequence through variable "
                         "node " +
                         std::to_string(Node) + ": " +
                         std::to_string(In->Src) + " -> " +
                         std::to_string(Out->Dst) + " @ " +
                         S.Alg.describe(Key));
      }
  }

  // Decomposition: every processed matched constructor edge must have
  // every argument edge and its fn-var fact.
  for (const LogEdge *Ed : ProcConsCons) {
    const LogNode &SN = *S.Nodes.at(Ed->Src), &DN = *S.Nodes.at(Ed->Dst);
    uint32_t Key = KeyOf[Ed];
    bool Dropped = M.FilterUseless && S.Alg.isUseless(Key);
    for (size_t I = 0, N = SN.Args.size(); I != N; ++I) {
      ++Cnt.Decompose;
      uint32_t A = repOf(S, SN.Args[I]), B = repOf(S, DN.Args[I]);
      auto AIt = A == InvalidId ? S.VarToNode.end() : S.VarToNode.find(A);
      auto BIt = B == InvalidId ? S.VarToNode.end() : S.VarToNode.find(B);
      if (AIt == S.VarToNode.end() || BIt == S.VarToNode.end()) {
        if (Dropped)
          continue;
        return invalid("decomposition argument " + std::to_string(I) +
                       " of a processed constructor edge has no node");
      }
      if (!accounted(S, AIt->second, BIt->second, Key))
        return invalid("missing decomposition consequence: argument " +
                       std::to_string(I) + " of constructor edge " +
                       std::to_string(Ed->Src) + " -> " +
                       std::to_string(Ed->Dst));
    }
    if (!S.FnVarSeen.count({SN.Alpha, DN.Alpha, Key}))
      return invalid("processed constructor edge " + std::to_string(Ed->Src) +
                     " -> " + std::to_string(Ed->Dst) +
                     " has no fn-var constraint record");
  }

  // Projection: every recorded projection constraint must have fired
  // for every processed matching lower bound of its subject.
  for (const LogConstraint &K : M.Constraints) {
    const LogNode &PL = *S.Nodes.at(K.CanL);
    if (PL.Kind != KindProj)
      continue;
    auto SubjIt = S.VarToNode.find(PL.V);
    if (SubjIt == S.VarToNode.end())
      continue;
    auto InIt = InProc.find(SubjIt->second);
    if (InIt == InProc.end())
      continue;
    uint32_t CK = S.AnnKey.at(K.Ann);
    for (const LogEdge *In : InIt->second) {
      const LogNode &SN = *S.Nodes.at(In->Src);
      if (SN.Kind != KindCons || SN.C != PL.C)
        continue;
      ++Cnt.Projection;
      uint32_t Key = S.Alg.compose(KeyOf[In], CK);
      bool Dropped = M.FilterUseless && S.Alg.isUseless(Key);
      uint32_t A = repOf(S, SN.Args[PL.Index]);
      auto AIt = A == InvalidId ? S.VarToNode.end() : S.VarToNode.find(A);
      if (AIt == S.VarToNode.end()) {
        if (Dropped)
          continue;
        return invalid("projected argument of constraint " +
                       std::to_string(K.Idx) + " has no node");
      }
      if (!accounted(S, AIt->second, K.CanR, Key))
        return invalid("missing projection consequence of constraint " +
                       std::to_string(K.Idx));
    }
  }

  // Surface: every recorded constraint's own fact.
  for (const LogConstraint &K : M.Constraints) {
    if (S.Nodes.at(K.CanL)->Kind == KindProj)
      continue;
    ++Cnt.Surface;
    if (!accounted(S, K.CanL, K.CanR, S.AnnKey.at(K.Ann)))
      return invalid("missing surface fact of constraint " +
                     std::to_string(K.Idx));
  }
  return Verdict::ok();
}

int exitOfStatus(uint8_t Code) {
  switch (Code) {
  case 0:
    return ExitSolved;
  case 1:
    return ExitInconsistent;
  case 2:
    return ExitEdgeLimit;
  case 3:
    return ExitStepLimit;
  case 4:
    return ExitDeadline;
  case 5:
    return ExitMemoryLimit;
  default:
    return ExitCancelled;
  }
}

} // namespace

Verdict verifyLog(const LogModel &M, Algebra &Alg, VerifyCounters &C,
                  int *StatusExit) {
  VerifyState S(M, Alg);
  if (Verdict V = passA(S); V.Code)
    return V;
  if (Verdict V = passB(S); V.Code)
    return V;
  if (Verdict V = passC(S, C); V.Code)
    return V;
  if (StatusExit)
    *StatusExit = exitOfStatus(M.Statuses.back().Code);
  return Verdict::ok();
}

} // namespace rasccheck
