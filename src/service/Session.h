//===- service/Session.h - One rascd client session -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One admitted connection's request loop. A Session owns its Conn,
/// runs to completion on its own thread (one per admitted connection;
/// admission control in Rascd bounds how many), and dies without
/// taking anything else with it: every failure — parser Diag,
/// exhausted budget, malformed frame, injected fault, slow client —
/// becomes either a structured Error/Busy response or a session
/// close, never an exception that escapes its thread.
///
/// The session attaches to at most one ResidentSystem at a time (the
/// LOAD op); SOLVE / ADD / RETRACT / ENTAIL / PN operate on the attachment
/// under its mutex, so two sessions sharing a system serialize on it
/// while sessions on different systems proceed in parallel.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SERVICE_SESSION_H
#define RASC_SERVICE_SESSION_H

#include "service/Protocol.h"
#include "service/Rascd.h"

#include <memory>
#include <string>

namespace rasc {
namespace service {

class Session {
public:
  Session(Rascd &Daemon, Conn C) : D(Daemon), C(std::move(C)) {
    this->C.setWriteTimeoutMs(D.options().WriteTimeoutMs);
  }

  /// Runs the request loop until the client closes, a fatal framing /
  /// IO error poisons the connection, or the daemon drains. Never
  /// throws.
  void serve();

private:
  /// One request in, one response out. \returns false when the
  /// session must close (unsyncable stream or failed write).
  bool serveOne(const Frame &F);

  // Op handlers: each returns the response frame to write.
  Frame handleLoad(const std::string &Body);
  Frame handleAdd(const std::string &Body);
  Frame handleRetract(const std::string &Body);
  Frame handleSolve(const std::string &Body);
  Frame handleQuery(const std::string &Body, bool Pn);
  Frame handleStats();
  Frame handleDrain();

  static Frame ok(std::string Body) {
    return Frame{Op::Ok, std::move(Body)};
  }
  static Frame err(std::string Msg) {
    return Frame{Op::Error, std::move(Msg)};
  }

  /// Brings the attached solver to a fixpoint (resuming if it was
  /// interrupted) under the session budgets; the caller holds the
  /// system's mutex. \returns the solve status.
  BidirectionalSolver::Status solveAttached(ResidentSystem &Sys);

  Rascd &D;
  Conn C;
  std::shared_ptr<ResidentSystem> Attached;
};

/// Renders a solver status for response bodies ("solved",
/// "inconsistent", "deadline", ...). Mirrors rasctool's exit-code
/// vocabulary (statusExitCode) so clients see one set of names.
const char *solveStatusName(BidirectionalSolver::Status S);

} // namespace service
} // namespace rasc

#endif // RASC_SERVICE_SESSION_H
