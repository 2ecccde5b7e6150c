//===- examples/rascd.cpp - Persistent solve service daemon -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rascd daemon binary: a thin shell around service/Rascd.h that
/// parses flags, starts the daemon, and turns SIGTERM/SIGINT into a
/// graceful drain (stop admitting, finish in-flight requests, exit 0).
/// A client DRAIN op has the same effect. See README ("The solve
/// service") for the wire format and a walkthrough.
///
///   rascd --data DIR [options]
///
///   --host A             numeric IPv4 listen address (127.0.0.1)
///   --port N             listen port; 0 = ephemeral (default)
///   --port-file F        write the bound port to F once listening
///   --data DIR           durable state directory (required)
///   --max-sessions N     admission cap / session pool width (8)
///   --session-deadline S per-solve wall-clock budget, seconds (0)
///   --session-max-edges N    per-session edge budget (2^24)
///   --session-max-steps N    per-session compose-step budget (0)
///   --session-max-memory B   per-session memory budget, bytes (0)
///   --max-memory B       aggregate memory cap across systems (0)
///   --idle-timeout-ms N  per-session read/stall budget (30000)
///   --write-timeout-ms N per-response write budget (5000)
///   --retry-after-ms N   backoff hint in Busy frames (200)
///   --max-frame-bytes N  request frame cap (8 MiB)
///
/// Exits 0 after a clean drain, 1 on startup failure.
///
//===----------------------------------------------------------------------===//

#include "service/Rascd.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

using namespace rasc;
using namespace rasc::service;

namespace {

std::atomic<bool> StopRequested{false};

void requestStop(int) {
  StopRequested.store(true, std::memory_order_relaxed);
}

} // namespace

int main(int Argc, char **Argv) {
  RascdOptions Opts;
  const char *PortFile = nullptr;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto strArg = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Argv[I]);
        std::exit(1);
      }
      return Argv[++I];
    };
    auto numArg = [&]() { return std::strtoull(strArg(), nullptr, 10); };
    if (Arg == "--host")
      Opts.Host = strArg();
    else if (Arg == "--port")
      Opts.Port = static_cast<uint16_t>(numArg());
    else if (Arg == "--port-file")
      PortFile = strArg();
    else if (Arg == "--data")
      Opts.DataDir = strArg();
    else if (Arg == "--max-sessions")
      Opts.MaxSessions = static_cast<unsigned>(numArg());
    else if (Arg == "--session-deadline")
      Opts.Session.DeadlineSeconds = std::strtod(strArg(), nullptr);
    else if (Arg == "--session-max-edges")
      Opts.Session.MaxEdges = numArg();
    else if (Arg == "--session-max-steps")
      Opts.Session.MaxComposeSteps = numArg();
    else if (Arg == "--session-max-memory")
      Opts.Session.MaxMemoryBytes = numArg();
    else if (Arg == "--max-memory")
      Opts.MaxTotalMemoryBytes = numArg();
    else if (Arg == "--idle-timeout-ms")
      Opts.IdleTimeoutMs = static_cast<int>(numArg());
    else if (Arg == "--write-timeout-ms")
      Opts.WriteTimeoutMs = static_cast<int>(numArg());
    else if (Arg == "--retry-after-ms")
      Opts.RetryAfterMs = static_cast<int>(numArg());
    else if (Arg == "--max-frame-bytes")
      Opts.MaxFrameBytes = static_cast<uint32_t>(numArg());
    else {
      std::fprintf(stderr, "unknown option %s\n", Argv[I]);
      return 1;
    }
  }

  std::signal(SIGINT, requestStop);
  std::signal(SIGTERM, requestStop);
  std::signal(SIGPIPE, SIG_IGN);

  Rascd Daemon(Opts);
  if (std::optional<Diag> D = Daemon.start()) {
    std::fprintf(stderr, "rascd: %s\n", D->render().c_str());
    return 1;
  }
  if (PortFile) {
    std::ofstream F(PortFile);
    F << Daemon.port() << "\n";
  }
  std::fprintf(stderr, "rascd: listening on %s:%u (data: %s, %zu "
                       "systems resident)\n",
               Opts.Host.c_str(), Daemon.port(), Opts.DataDir.c_str(),
               Daemon.numResidentSystems());

  // Park until a signal or a client DRAIN asks us to wind down; the
  // actual teardown (stop admitting, finish in-flight work) lives in
  // Rascd::stop().
  while (!StopRequested.load(std::memory_order_relaxed) &&
         !Daemon.draining())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::fprintf(stderr, "rascd: draining\n");
  Daemon.stop();
  std::fprintf(stderr, "rascd: drained, exiting\n");
  return 0;
}
