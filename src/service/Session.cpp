//===- service/Session.cpp - One rascd client session -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "service/Session.h"

#include "core/Observe.h"

#include <chrono>
#include <cstdio>

using namespace rasc;
using namespace rasc::service;
using Status = BidirectionalSolver::Status;

const char *rasc::service::solveStatusName(Status S) {
  switch (S) {
  case Status::Solved:
    return "solved";
  case Status::Inconsistent:
    return "inconsistent";
  case Status::EdgeLimit:
    return "edge-limit";
  case Status::StepLimit:
    return "step-limit";
  case Status::Deadline:
    return "deadline";
  case Status::MemoryLimit:
    return "memory-limit";
  case Status::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

void Session::serve() {
  D.registerSessionFd(C.fd());
  while (true) {
    Frame F;
    std::string Err;
    ReadStatus RS =
        C.readFrame(F, D.options().MaxFrameBytes, D.drainFlag(),
                    D.options().IdleTimeoutMs, &Err);
    if (RS == ReadStatus::Ok) {
      if (!serveOne(F))
        break;
      continue;
    }
    if (RS == ReadStatus::Eof || RS == ReadStatus::Drained)
      break;
    if (RS == ReadStatus::Timeout) {
      // Best-effort goodbye; a client too slow to read its own
      // responses will miss it, which is fine.
      C.writeFrame(Op::Error, "session closed: " +
                                  (Err.empty() ? std::string("idle timeout")
                                               : Err));
      break;
    }
    if (RS == ReadStatus::TooLarge || RS == ReadStatus::BadFrame) {
      D.BadFrames.add(1);
      C.writeFrame(Op::Error, "malformed frame (" +
                                  std::string(readStatusName(RS)) +
                                  "): " + Err);
      break;
    }
    // IoError: nothing sensible to say on a broken socket.
    D.IoErrors.add(1);
    break;
  }
  D.unregisterSessionFd(C.fd());
  C.close();
}

bool Session::serveOne(const Frame &F) {
  uint8_t Raw = static_cast<uint8_t>(F.Kind);
  auto T0 = std::chrono::steady_clock::now();
  Frame R;
  if (!isRequestOp(Raw)) {
    // Garbage opcode inside a well-formed frame: the stream stays in
    // sync, so answer the error and keep serving this session.
    char Buf[48];
    std::snprintf(Buf, sizeof Buf, "unknown opcode 0x%02x", Raw);
    D.BadFrames.add(1);
    R = err(Buf);
  } else {
    switch (F.Kind) {
    case Op::Load:
      R = handleLoad(F.Body);
      break;
    case Op::Add:
      R = handleAdd(F.Body);
      break;
    case Op::Retract:
      R = handleRetract(F.Body);
      break;
    case Op::Solve:
      R = handleSolve(F.Body);
      break;
    case Op::Entail:
      R = handleQuery(F.Body, /*Pn=*/false);
      break;
    case Op::QueryPn:
      R = handleQuery(F.Body, /*Pn=*/true);
      break;
    case Op::Stats:
      R = handleStats();
      break;
    case Op::Drain:
      R = handleDrain();
      break;
    case Op::Ping:
      R = ok("pong=1");
      break;
    default:
      R = err("unhandled opcode");
      break;
    }
    if (observe::metricsEnabled()) {
      uint64_t Us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
      D.opLatency(F.Kind).record(Us);
    }
  }
  D.FramesServed.add(1);
  std::string WErr;
  if (!C.writeFrame(R.Kind, R.Body, &WErr)) {
    D.WriteFailures.add(1);
    return false;
  }
  return true;
}

Frame Session::handleLoad(const std::string &Body) {
  size_t NL = Body.find('\n');
  std::string Name = Body.substr(0, NL);
  if (!validSystemName(Name))
    return err("invalid system name '" + Name.substr(0, 80) +
               "' (want [A-Za-z0-9_.-]{1," +
               std::to_string(MaxNameBytes) + "}, no leading dot)");
  if (NL == std::string::npos || NL + 1 >= Body.size()) {
    // Attach-only form: the system must already be resident.
    std::shared_ptr<ResidentSystem> S = D.findSystem(Name);
    if (!S)
      return err("unknown system '" + Name +
                 "' (load with program text to create it)");
    Attached = std::move(S);
    return ok("name=" + Name + "\nattached=true");
  }
  Expected<std::shared_ptr<ResidentSystem>> E =
      D.createSystem(Name, Body.substr(NL + 1));
  if (!E)
    return err(E.error().render());
  Attached = *E;
  return ok("name=" + Name + "\ncreated=true");
}

Frame Session::handleAdd(const std::string &Body) {
  if (!Attached)
    return err("no system attached (send load first)");
  ResidentSystem &Sys = *Attached;
  std::lock_guard<std::mutex> L(Sys.Mx);
  size_t Applied = 0;
  std::optional<Diag> ParseDiag =
      Sys.Program->addStatements(Body, &Applied);
  std::optional<Diag> PersistDiag;
  if (Applied > 0) {
    // Persist exactly the applied prefix, so the durable text never
    // diverges from the in-memory system even on a mid-batch Diag.
    if (!Sys.Text.empty() && Sys.Text.back() != '\n')
      Sys.Text.push_back('\n');
    Sys.Text.append(Body, 0, Applied);
    Sys.Text.push_back('\n');
    PersistDiag = D.persistSystemText(Sys);
  }
  if (ParseDiag)
    return err("add rejected at " + ParseDiag->render() +
               " (applied-bytes=" + std::to_string(Applied) + ")");
  if (PersistDiag)
    return err("add applied in memory but not persisted: " +
               PersistDiag->render());
  return ok("applied-bytes=" + std::to_string(Applied));
}

Frame Session::handleRetract(const std::string &Body) {
  if (!Attached)
    return err("no system attached (send load first)");
  // Body: a decimal constraint index (0-based ingestion order).
  size_t B = Body.find_first_not_of(" \t\r\n");
  size_t E = Body.find_last_not_of(" \t\r\n");
  std::string Tok =
      B == std::string::npos ? std::string() : Body.substr(B, E - B + 1);
  if (Tok.empty() ||
      Tok.find_first_not_of("0123456789") != std::string::npos ||
      Tok.size() > 9)
    return err("retract wants a decimal constraint index, got '" +
               Body.substr(0, 80) + "'");

  ResidentSystem &Sys = *Attached;
  std::lock_guard<std::mutex> L(Sys.Mx);
  // Route through the same statement path as ADD: the parser applies
  // the flag (rejecting out-of-range and double retraction with
  // Applied == 0, so nothing persists), and the durable text gains a
  // "retract N;" line that replays identically on a warm boot.
  std::string Stmt = "retract " + Tok + ";";
  size_t Applied = 0;
  std::optional<Diag> ParseDiag =
      Sys.Program->addStatements(Stmt, &Applied);
  std::optional<Diag> PersistDiag;
  if (Applied > 0) {
    if (!Sys.Text.empty() && Sys.Text.back() != '\n')
      Sys.Text.push_back('\n');
    Sys.Text.append(Stmt);
    Sys.Text.push_back('\n');
    PersistDiag = D.persistSystemText(Sys);
  }
  if (ParseDiag)
    return err("retract rejected: " + ParseDiag->render());
  if (PersistDiag)
    return err("retract applied in memory but not persisted: " +
               PersistDiag->render());

  // Re-solve the edited system from scratch: ingestion skips the
  // flagged constraint, and a proof-enabled system's log (the path
  // survives the reset) is rewritten live by the same solve.
  BidirectionalSolver &S = *Sys.Solver;
  S.resetToFresh();
  Status St = solveAttached(Sys);
  std::string Resp;
  Resp += "status=";
  Resp += solveStatusName(St);
  Resp += "\nedges=" + std::to_string(S.stats().EdgesInserted);
  return ok(std::move(Resp));
}

Status Session::solveAttached(ResidentSystem &Sys) {
  return Sys.Solver->solve();
}

Frame Session::handleSolve(const std::string &Body) {
  if (!Attached)
    return err("no system attached (send load first)");
  ResidentSystem &Sys = *Attached;
  std::lock_guard<std::mutex> L(Sys.Mx);
  BidirectionalSolver &S = *Sys.Solver;
  // Body "proof=1" opts this system into derivation logging: the
  // solver streams a machine-checkable log to DataDir/<name>.rprf
  // (durable next to the program text; rasccheck validates it offline).
  // Opt-in is sticky for the resident solver — later plain SOLVEs
  // keep appending so the log always covers the whole closure. The
  // log is only written live, so a started solver re-solves from
  // scratch with it open.
  if (Body.find("proof=1") != std::string::npos &&
      S.options().ProofLogPath.empty()) {
    S.resetToFresh();
    S.options().ProofLogPath = Sys.ProofPath;
  }
  Status St = solveAttached(Sys);
  std::string B;
  B += "status=";
  B += solveStatusName(St);
  B += "\nedges=" + std::to_string(S.stats().EdgesInserted);
  B += "\ncompose=" + std::to_string(S.stats().ComposeCalls);
  B += "\nresumes=" + std::to_string(S.stats().Resumes);
  B += "\nmemory=" + std::to_string(S.memoryBytes());
  B += "\nproof=";
  if (S.proofActive()) {
    B += "streaming\nproof-path=" + Sys.ProofPath;
  } else if (!S.options().ProofLogPath.empty() || S.lastProofDiag()) {
    B += "abandoned";
    if (S.lastProofDiag())
      B += "\nproof-error=" + S.lastProofDiag()->render();
  } else {
    B += "off";
  }
  return ok(std::move(B));
}

Frame Session::handleQuery(const std::string &Body, bool Pn) {
  if (!Attached)
    return err("no system attached (send load first)");
  std::string QErr;
  auto Q = parseQueryBody(Body, &QErr);
  if (!Q)
    return err(QErr);
  ResidentSystem &Sys = *Attached;
  std::lock_guard<std::mutex> L(Sys.Mx);
  std::optional<ConsId> Cst = Sys.Program->consByName(Q->first);
  if (!Cst)
    return err("unknown constant '" + Q->first + "'");
  std::optional<VarId> Var = Sys.Program->varByName(Q->second);
  if (!Var)
    return err("unknown variable '" + Q->second + "'");
  // Queries read the least solution, so the solver must be at a
  // fixpoint; solve() is a cheap no-op when it already is.
  Status St = solveAttached(Sys);
  if (BidirectionalSolver::isInterrupted(St))
    return err(std::string("query needs a completed solve; "
                           "solve interrupted: status=") +
               solveStatusName(St));
  bool Holds = false;
  if (!Pn) {
    Holds = Sys.Solver->entailsConstant(*Cst, *Var);
  } else {
    AtomReachability AR = Sys.Solver->atomReachability(*Cst);
    for (AnnId F : AR.annotations(*Var))
      Holds |= Sys.Program->domain().isAccepting(F);
  }
  return ok(std::string("holds=") + (Holds ? "true" : "false") +
            "\nstatus=" + solveStatusName(St));
}

Frame Session::handleStats() {
  D.refreshGauges();
  return ok(MetricsRegistry::global().snapshot().toJson());
}

Frame Session::handleDrain() {
  D.requestDrain();
  return ok("draining=true");
}
