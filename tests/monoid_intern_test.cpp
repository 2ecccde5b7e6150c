//===- tests/monoid_intern_test.cpp - Shared annotation domains -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MonoidDomain::create() interns domains by exact automaton and
/// options. These tests pin the key (every component of the automaton
/// and the options separates domains), what is never shared (overflowed
/// and memo-path monoids), weak retention (a released domain is
/// rebuilt and leaves no entry behind), and concurrent interning
/// followed by pooled solves over the one shared domain.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/BatchSolver.h"
#include "core/Certifier.h"
#include "core/Domains.h"
#include "core/Observe.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "progen/EbpfGen.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

using namespace rasc;

namespace {

using DomainPtr = std::shared_ptr<const MonoidDomain>;

DomainPtr intern(Dfa M, TransitionMonoid::Options Opts = {}) {
  Expected<DomainPtr> D = MonoidDomain::create(std::move(M), Opts);
  EXPECT_TRUE(D) << D.error().render();
  return D ? *D : nullptr;
}

/// The parts of a Dfa, editable one at a time.
struct DfaParts {
  std::vector<std::string> Names;
  uint32_t NumStates;
  StateId Start;
  DynamicBitset Accepting;
  std::vector<StateId> Trans;

  explicit DfaParts(const Dfa &M)
      : Names(M.alphabet()), NumStates(M.numStates()), Start(M.start()),
        Accepting(M.acceptingStates()) {
    for (StateId S = 0; S != NumStates; ++S)
      for (SymbolId A = 0; A != M.numSymbols(); ++A)
        Trans.push_back(M.next(S, A));
  }

  Dfa build() const { return Dfa(Names, NumStates, Start, Accepting, Trans); }
};

/// Metrics on for the test's lifetime; counter deltas since construction.
struct CounterDeltas {
  MetricsRegistry &G = MetricsRegistry::global();
  uint64_t Builds0 = G.counter("monoid.builds").get();
  uint64_t Shared0 = G.counter("monoid.shared").get();

  CounterDeltas() { observe::setMetricsEnabled(true); }
  ~CounterDeltas() { observe::setMetricsEnabled(false); }
  uint64_t builds() const { return G.counter("monoid.builds").get() - Builds0; }
  uint64_t shared() const { return G.counter("monoid.shared").get() - Shared0; }
};

TEST(MonoidIntern, EqualAutomatonReturnsTheSameDomain) {
  CounterDeltas C;
  size_t Listed = MonoidDomain::internedCount();
  DomainPtr A = intern(buildFileStateMachine());
  DomainPtr B = intern(buildFileStateMachine());
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(MonoidDomain::internedCount(), Listed + 1);
  EXPECT_EQ(C.builds(), 1u);
  EXPECT_EQ(C.shared(), 1u);

  // The public constructor stays private to its owner.
  MonoidDomain Private(buildFileStateMachine());
  EXPECT_EQ(MonoidDomain::internedCount(), Listed + 1);
  EXPECT_EQ(Private.size(), A->size());
}

TEST(MonoidIntern, EveryKeyComponentSeparatesDomains) {
  const DfaParts Base(buildFileStateMachine());
  ASSERT_GE(Base.NumStates, 2u);
  DomainPtr Held = intern(Base.build());
  ASSERT_TRUE(Held);

  std::vector<std::pair<const char *, DfaParts>> Variants;
  {
    DfaParts P = Base;
    P.Start = (P.Start + 1) % P.NumStates;
    Variants.emplace_back("start state", P);
  }
  {
    DfaParts P = Base;
    P.Accepting.test(0) ? P.Accepting.reset(0) : P.Accepting.set(0);
    Variants.emplace_back("one accepting bit", P);
  }
  {
    DfaParts P = Base;
    P.Trans[0] = (P.Trans[0] + 1) % P.NumStates;
    Variants.emplace_back("one transition", P);
  }
  {
    DfaParts P = Base;
    P.Names.back() += "_renamed";
    Variants.emplace_back("one symbol name", P);
  }
  for (const auto &[What, P] : Variants) {
    // The full-key compare that guards a hash hit.
    EXPECT_FALSE(P.build() == Base.build()) << What;
    DomainPtr D = intern(P.build());
    ASSERT_TRUE(D) << What;
    EXPECT_NE(D.get(), Held.get()) << What;
    EXPECT_EQ(intern(P.build()).get(), D.get()) << What << " is not shared";
  }

  TransitionMonoid::Options Cap, Limit;
  Cap.MaxElements = 1000;
  Limit.DenseTableLimit = 1000;
  for (TransitionMonoid::Options O : {Cap, Limit}) {
    DomainPtr D = intern(Base.build(), O);
    ASSERT_TRUE(D);
    EXPECT_NE(D.get(), Held.get()) << "options are part of the key";
  }
  EXPECT_EQ(intern(Base.build()).get(), Held.get());
}

TEST(MonoidIntern, OverflowedAndMemoDomainsAreNeverShared) {
  CounterDeltas C;
  size_t Listed = MonoidDomain::internedCount();

  // 6^6 elements against a cap of 1000: a Diag on every call.
  TransitionMonoid::Options Cap;
  Cap.MaxElements = 1000;
  for (int I = 0; I != 2; ++I)
    EXPECT_FALSE(MonoidDomain::create(buildAdversarialMachine(6), Cap));
  EXPECT_EQ(MonoidDomain::internedCount(), Listed);
  EXPECT_EQ(C.builds(), 2u);

  // 3^3 = 27 elements over a table limit of 10: the memo path, whose
  // compose() writes, so each caller gets its own.
  TransitionMonoid::Options Memo;
  Memo.DenseTableLimit = 10;
  DomainPtr A = intern(buildAdversarialMachine(3), Memo);
  DomainPtr B = intern(buildAdversarialMachine(3), Memo);
  ASSERT_TRUE(A && B);
  EXPECT_FALSE(A->monoid().dense());
  EXPECT_EQ(A->size(), 27u);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(MonoidDomain::internedCount(), Listed);
  EXPECT_EQ(C.builds(), 4u);
  EXPECT_EQ(C.shared(), 0u);
}

TEST(MonoidIntern, ReleasedDomainIsRebuiltAndUnlisted) {
  CounterDeltas C;
  size_t Listed = MonoidDomain::internedCount();
  {
    DomainPtr A = intern(buildAdversarialMachine(3));
    DomainPtr B = intern(buildAdversarialMachine(3));
    EXPECT_EQ(A.get(), B.get());
    EXPECT_EQ(MonoidDomain::internedCount(), Listed + 1);
  }
  EXPECT_EQ(MonoidDomain::internedCount(), Listed) << "expired entry kept";
  EXPECT_EQ(C.builds(), 1u);

  DomainPtr Again = intern(buildAdversarialMachine(3));
  ASSERT_TRUE(Again);
  EXPECT_EQ(C.builds(), 2u) << "a released domain must be rebuilt";
  EXPECT_EQ(C.shared(), 1u);
  EXPECT_EQ(MonoidDomain::internedCount(), Listed + 1);
  Again.reset();
  EXPECT_EQ(MonoidDomain::internedCount(), Listed);
}

//===----------------------------------------------------------------------===//
// Concurrency: intern from 4 threads, then pool-solve over the domain
//===----------------------------------------------------------------------===//

struct FlowInput {
  ebpf::Cfg G;
  ebpf::FlowLowering Fl;
};

std::unique_ptr<FlowInput> flowInput(uint64_t Seed) {
  EbpfGenOptions O;
  O.Seed = Seed;
  O.MaxBlocks = 5;
  O.MaxBodyInsns = 4;
  Expected<ebpf::DecodedProgram> D = ebpf::decode(generateEbpf(O));
  EXPECT_TRUE(D) << (D ? "" : D.error().render());
  auto In = std::make_unique<FlowInput>();
  In->G = ebpf::buildCfg(std::move(*D));
  In->Fl = ebpf::lowerToFlowProgram(In->G);
  return In;
}

TEST(MonoidInternConcurrency, FourThreadsInternThenPoolSolve) {
  constexpr unsigned Threads = 4, Systems = 48;
  std::vector<std::unique_ptr<FlowInput>> Inputs;
  for (unsigned I = 0; I != Systems; ++I)
    Inputs.push_back(flowInput(I + 1));

  // Every eBPF flow lowering tracks the same State type, so all 48
  // pair automata are equal. Each thread interns one of them directly,
  // then builds its share of the analyses (which intern again), all
  // released together.
  std::vector<DomainPtr> Direct(Threads);
  std::vector<std::unique_ptr<FlowAnalysis>> Analyses(Systems);
  std::latch Go(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Dfa M = buildPairAutomaton(Inputs[T]->Fl.Prog);
      Go.arrive_and_wait();
      Direct[T] = intern(std::move(M));
      for (unsigned I = T; I < Systems; I += Threads)
        Analyses[I] = std::make_unique<FlowAnalysis>(Inputs[I]->Fl.Prog,
                                                     FlowMode::Primal);
    });
  for (std::thread &T : Pool)
    T.join();

  ASSERT_TRUE(Direct[0]);
  for (unsigned T = 1; T != Threads; ++T)
    EXPECT_EQ(Direct[T].get(), Direct[0].get()) << "thread " << T;
  std::vector<FlowAnalysis *> Ptrs;
  for (const std::unique_ptr<FlowAnalysis> &A : Analyses) {
    EXPECT_EQ(&A->domain(), Direct[0].get());
    Ptrs.push_back(A.get());
  }

  BatchSolver::Options BO;
  BO.Threads = Threads;
  std::vector<BatchSolver::Result> Res = FlowAnalysis::solveAll(Ptrs, BO);
  ASSERT_EQ(Res.size(), Systems);
  for (unsigned I = 0; I != Systems; ++I) {
    SCOPED_TRACE("system " + std::to_string(I));
    EXPECT_EQ(Res[I].St, BidirectionalSolver::Status::Solved);
    CertificationReport Rep = certifyFixpoint(Analyses[I]->solver());
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
    // The same verdict and edge count as a sequential solve.
    FlowAnalysis Seq(Inputs[I]->Fl.Prog, FlowMode::Primal);
    EXPECT_EQ(Analyses[I]->flowsPN(Inputs[I]->Fl.CtxLit,
                                   Inputs[I]->Fl.ResultExpr),
              Seq.flowsPN(Inputs[I]->Fl.CtxLit, Inputs[I]->Fl.ResultExpr));
    EXPECT_EQ(Analyses[I]->solver().stats().EdgesInserted,
              Seq.solver().stats().EdgesInserted);
  }
}

} // namespace
