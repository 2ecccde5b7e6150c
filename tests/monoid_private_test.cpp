//===- tests/monoid_private_test.cpp - Private lazy domains ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every analysis owns its annotation domain, whose monoid interns
/// elements as the solve composes them. Here 48 eBPF flow analyses are
/// built on 4 threads, each with its own domain, then pool-solved on 4
/// threads: each domain is written by the one worker that solves its
/// system, and the results equal sequential solves. Run under the
/// thread sanitizer, this is the check that no domain is reached from
/// two threads.
///
//===----------------------------------------------------------------------===//

#include "core/BatchSolver.h"
#include "core/Certifier.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "progen/EbpfGen.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace rasc;

namespace {

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

TEST(PrivateDomainConcurrency, FourThreadsBuildThenPoolSolve) {
  constexpr unsigned Threads = 4, Systems = 48;
  std::vector<std::unique_ptr<FlowInput>> Inputs;
  for (unsigned I = 0; I != Systems; ++I)
    Inputs.push_back(flowInput(I + 1));

  // Every eBPF flow lowering tracks the same State type, so all 48
  // pair automata are equal; each analysis still builds its own
  // domain. The threads start together.
  std::vector<std::unique_ptr<FlowAnalysis>> Analyses(Systems);
  std::latch Go(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Go.arrive_and_wait();
      for (unsigned I = T; I < Systems; I += Threads)
        Analyses[I] = std::make_unique<FlowAnalysis>(Inputs[I]->Fl.Prog,
                                                     FlowMode::Primal);
    });
  for (std::thread &T : Pool)
    T.join();

  std::set<const MonoidDomain *> Domains;
  std::vector<BidirectionalSolver *> Ptrs;
  for (const std::unique_ptr<FlowAnalysis> &A : Analyses) {
    Domains.insert(&A->domain());
    // Construction interns the identity and the generators only.
    EXPECT_EQ(A->domain().monoid().composeMisses(), 0u);
    Ptrs.push_back(A->prepare());
  }
  EXPECT_EQ(Domains.size(), Systems) << "a domain is shared";

  BatchSolver::Options BO;
  BO.Threads = Threads;
  std::vector<BatchSolver::Result> Res = BatchSolver(BO).solveAll(Ptrs);
  ASSERT_EQ(Res.size(), Systems);
  for (unsigned I = 0; I != Systems; ++I) {
    SCOPED_TRACE("system " + std::to_string(I));
    EXPECT_EQ(Res[I].St, BidirectionalSolver::Status::Solved);
    CertificationReport Rep = certifyFixpoint(Analyses[I]->solver());
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
    // The same verdict, edge count and interned elements as a
    // sequential solve.
    FlowAnalysis Seq(Inputs[I]->Fl.Prog, FlowMode::Primal);
    EXPECT_EQ(Analyses[I]->flowsPN(Inputs[I]->Fl.CtxLit,
                                   Inputs[I]->Fl.ResultExpr),
              Seq.flowsPN(Inputs[I]->Fl.CtxLit, Inputs[I]->Fl.ResultExpr));
    EXPECT_EQ(Analyses[I]->solver().stats().EdgesInserted,
              Seq.solver().stats().EdgesInserted);
    EXPECT_EQ(Analyses[I]->domain().size(), Seq.domain().size());
  }
}

} // namespace
