//===- examples/rascdclient.cpp - rascd client and load harness -*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scripting client and load harness for the rascd solve service:
///
///   rascdclient [--host H] (--port N | --port-file F) CMD ...
///
///   ping                  liveness probe
///   load NAME FILE        create system NAME from FILE's program text
///   attach NAME           check that NAME is resident
///   add NAME FILE         append FILE's statements to NAME
///   retract NAME INDEX    withdraw constraint INDEX (0-based) from
///                         NAME and re-solve the edited system from
///                         scratch (rewriting its proof log, if any);
///                         the "retract INDEX;" statement is persisted
///                         before the Ok, so it replays on a warm boot
///   solve NAME [--proof]  solve NAME and print the response; the exit
///                         code mirrors rasctool (solved=0,
///                         inconsistent=1, deadline=10, ...). With
///                         --proof the daemon re-solves NAME with a
///                         derivation log streaming to DataDir/NAME.rprf
///                         (validate it with rasccheck; see DESIGN.md
///                         §12); later solves keep appending to it
///   entail NAME "c in V"  matched entailment query (Section 3.2)
///   pn NAME "c in V"      PN reachability query (Section 6.2)
///   stats                 print the daemon's metrics JSON
///   drain                 ask the daemon to drain and shut down
///   bench [--connections N] [--ops M] [--json] [--stats-out F]
///                         load test: N concurrent connections, each
///                         creating its own system and cycling
///                         add/solve/entail M times; prints client-side
///                         p50/p99 round-trip latency. Busy responses
///                         are retried with the server's hinted
///                         backoff and counted, not failed.
///
/// Every command retries its whole request script on a Busy response
/// or refused connect under capped exponential backoff with jitter
/// (service/Backoff.h); the server's retry-after-ms hint floors each
/// delay, so admission-control rejections are backpressure, not
/// errors, and simultaneous rejects don't retry in lockstep. Protocol
/// or server errors exit 2.
///
//===----------------------------------------------------------------------===//

#include "service/Backoff.h"
#include "service/Protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace rasc;
using namespace rasc::service;

namespace {

struct GlobalOpts {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
};

void sleepMs(int Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

/// Runs \p Reqs in order on one fresh connection and collects the
/// replies. A Busy frame (or a connection refused/reset during the
/// first exchange, which is how a Busy can be lost on a draining
/// server) restarts the whole script after a capped-exponential,
/// jittered backoff floored by the server's retry-after-ms hint, so a
/// caller's attach+op sequence stays atomic per connection and retry
/// storms decorrelate. \p Seed decorrelates concurrent callers (bench
/// shards) while keeping any single schedule deterministic.
/// \returns false with \p Err set on a protocol/server failure.
bool runScript(const GlobalOpts &G, const std::vector<Frame> &Reqs,
               std::vector<Frame> &Replies, std::string *Err,
               uint64_t *BusyRetries = nullptr,
               std::vector<uint64_t> *LatencyUs = nullptr,
               int MaxAttempts = 200, uint64_t Seed = 0) {
  Backoff B(BackoffPolicy{}, Seed ? Seed : 0x9e3779b97f4a7c15ull);
  for (int Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    Replies.clear();
    std::string ConnErr;
    int Fd = connectTcp(G.Host, G.Port, &ConnErr);
    if (Fd < 0) {
      // A refused connect while the daemon boots or drains its accept
      // queue is retryable like a Busy, just without a hint.
      if (BusyRetries)
        ++*BusyRetries;
      sleepMs(B.nextDelayMs());
      continue;
    }
    Conn C(Fd);
    bool Restart = false;
    for (const Frame &Req : Reqs) {
      auto T0 = std::chrono::steady_clock::now();
      if (!C.writeFrame(Req.Kind, Req.Body, Err)) {
        Restart = true;
        break;
      }
      Frame R;
      ReadStatus RS = C.readFrame(R, DefaultMaxFrameBytes, nullptr,
                                  /*IdleTimeoutMs=*/30000, Err);
      if (RS != ReadStatus::Ok) {
        if (Err && Err->empty())
          *Err = readStatusName(RS);
        Restart = true;
        break;
      }
      if (R.Kind == Op::Busy) {
        if (BusyRetries)
          ++*BusyRetries;
        sleepMs(B.nextDelayMs(
            std::atoi(kvGet(R.Body, "retry-after-ms").c_str())));
        Restart = true;
        break;
      }
      if (LatencyUs)
        LatencyUs->push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - T0)
                .count()));
      Replies.push_back(std::move(R));
    }
    if (!Restart)
      return true;
  }
  if (Err && Err->empty())
    *Err = "gave up after repeated busy/retry responses";
  return false;
}

std::optional<std::string> readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

int exitCodeForStatus(const std::string &S) {
  if (S == "solved")
    return 0;
  if (S == "inconsistent")
    return 1;
  if (S == "deadline")
    return 10;
  if (S == "edge-limit")
    return 11;
  if (S == "step-limit")
    return 12;
  if (S == "memory-limit")
    return 13;
  if (S == "cancelled")
    return 14;
  return 2;
}

/// One bench connection's work: create a private system, then cycle
/// add / solve / entail, measuring round-trip latency per op.
struct BenchShard {
  uint64_t OpsOk = 0;
  uint64_t Errors = 0;
  uint64_t BusyRetries = 0;
  std::vector<uint64_t> LatUs;
};

void benchWorker(const GlobalOpts &G, int Idx, int Ops, BenchShard &Out) {
  std::string Name =
      "bench-" + std::to_string(getpid()) + "-" + std::to_string(Idx);
  std::string Base = "language regex \"g*\";\n"
                     "constant c;\n"
                     "var X0;\n"
                     "c <= X0;\n"
                     "query c in X0;\n";
  // The whole session is one script so a Busy at admission retries
  // cleanly; the server serializes ops per connection anyway.
  std::vector<Frame> Reqs;
  Reqs.push_back({Op::Load, Name + "\n" + Base});
  int Var = 0;
  for (int I = 0; I < Ops; ++I) {
    switch (I % 3) {
    case 0: {
      ++Var;
      Reqs.push_back({Op::Add, "var X" + std::to_string(Var) + ";\nX" +
                                   std::to_string(Var - 1) + " <= X" +
                                   std::to_string(Var) + ";\n"});
      break;
    }
    case 1:
      Reqs.push_back({Op::Solve, ""});
      break;
    default:
      Reqs.push_back({Op::Entail, "c in X" + std::to_string(Var)});
      break;
    }
  }
  std::vector<Frame> Replies;
  std::string Err;
  if (!runScript(G, Reqs, Replies, &Err, &Out.BusyRetries, &Out.LatUs,
                 /*MaxAttempts=*/200,
                 /*Seed=*/static_cast<uint64_t>(Idx) * 0x9e3779b9u + 1)) {
    ++Out.Errors;
    std::fprintf(stderr, "bench[%d]: %s\n", Idx, Err.c_str());
    return;
  }
  for (const Frame &R : Replies) {
    if (R.Kind == Op::Ok)
      ++Out.OpsOk;
    else {
      ++Out.Errors;
      std::fprintf(stderr, "bench[%d]: server error: %s\n", Idx,
                   R.Body.c_str());
    }
  }
}

uint64_t percentile(std::vector<uint64_t> &V, double Q) {
  if (V.empty())
    return 0;
  size_t I = static_cast<size_t>(Q * static_cast<double>(V.size()));
  return V[std::min(I, V.size() - 1)];
}

int runBench(const GlobalOpts &G, int Connections, int Ops, bool Json,
             const char *StatsOut) {
  std::vector<BenchShard> Shards(Connections);
  std::vector<std::thread> Threads;
  for (int I = 0; I < Connections; ++I)
    Threads.emplace_back(
        [&, I] { benchWorker(G, I, Ops, Shards[I]); });
  for (std::thread &T : Threads)
    T.join();

  std::vector<uint64_t> Lat;
  uint64_t OpsOk = 0, Errors = 0, Busy = 0;
  for (BenchShard &S : Shards) {
    OpsOk += S.OpsOk;
    Errors += S.Errors;
    Busy += S.BusyRetries;
    Lat.insert(Lat.end(), S.LatUs.begin(), S.LatUs.end());
  }
  std::sort(Lat.begin(), Lat.end());
  uint64_t P50 = percentile(Lat, 0.50), P99 = percentile(Lat, 0.99);

  if (Json)
    std::printf("{\"benchmark\":\"service\",\"connections\":%d,"
                "\"ops_per_connection\":%d,\"ops_ok\":%llu,"
                "\"busy_retries\":%llu,\"errors\":%llu,"
                "\"p50_us\":%llu,\"p99_us\":%llu}\n",
                Connections, Ops,
                static_cast<unsigned long long>(OpsOk),
                static_cast<unsigned long long>(Busy),
                static_cast<unsigned long long>(Errors),
                static_cast<unsigned long long>(P50),
                static_cast<unsigned long long>(P99));
  else
    std::printf("service bench: conns=%d ops=%d ok=%llu busy_retries=%llu "
                "errors=%llu p50_us=%llu p99_us=%llu\n",
                Connections, Ops,
                static_cast<unsigned long long>(OpsOk),
                static_cast<unsigned long long>(Busy),
                static_cast<unsigned long long>(Errors),
                static_cast<unsigned long long>(P50),
                static_cast<unsigned long long>(P99));

  if (StatsOut) {
    std::vector<Frame> Replies;
    std::string Err;
    if (!runScript(G, {{Op::Stats, ""}}, Replies, &Err) ||
        Replies[0].Kind != Op::Ok) {
      std::fprintf(stderr, "stats-out: %s\n", Err.c_str());
      return 2;
    }
    std::ofstream F(StatsOut);
    F << Replies[0].Body << "\n";
  }
  return Errors ? 2 : 0;
}

/// Runs a single attach+op (or standalone) script and prints the one
/// interesting reply body.
int runSimple(const GlobalOpts &G, std::vector<Frame> Reqs) {
  std::vector<Frame> Replies;
  std::string Err;
  if (!runScript(G, Reqs, Replies, &Err)) {
    std::fprintf(stderr, "rascdclient: %s\n", Err.c_str());
    return 2;
  }
  std::printf("%s\n", Replies.back().Body.c_str());
  for (const Frame &R : Replies)
    if (R.Kind != Op::Ok) {
      std::fprintf(stderr, "rascdclient: %s\n", R.Body.c_str());
      return 2;
    }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  GlobalOpts G;
  int I = 1;
  auto strArg = [&]() -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "%s needs a value\n", Argv[I]);
      std::exit(1);
    }
    return Argv[++I];
  };
  for (; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "--host")
      G.Host = strArg();
    else if (Arg == "--port")
      G.Port = static_cast<uint16_t>(std::atoi(strArg()));
    else if (Arg == "--port-file") {
      std::ifstream F(strArg());
      int P = 0;
      F >> P;
      G.Port = static_cast<uint16_t>(P);
    } else
      break;
  }
  if (I >= Argc || G.Port == 0) {
    std::fprintf(stderr,
                 "usage: rascdclient [--host H] (--port N | --port-file "
                 "F) CMD ...\n");
    return 1;
  }
  std::string_view Cmd = Argv[I];
  auto positional = [&]() -> std::string {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "%s needs an argument\n",
                   std::string(Cmd).c_str());
      std::exit(1);
    }
    return Argv[++I];
  };

  if (Cmd == "ping")
    return runSimple(G, {{Op::Ping, ""}});
  if (Cmd == "stats")
    return runSimple(G, {{Op::Stats, ""}});
  if (Cmd == "drain")
    return runSimple(G, {{Op::Drain, ""}});
  if (Cmd == "attach")
    return runSimple(G, {{Op::Load, positional()}});
  if (Cmd == "load") {
    std::string Name = positional();
    std::string Path = positional();
    std::optional<std::string> Text = readWholeFile(Path);
    if (!Text) {
      std::fprintf(stderr, "cannot open %s\n", Path.c_str());
      return 1;
    }
    return runSimple(G, {{Op::Load, Name + "\n" + *Text}});
  }
  if (Cmd == "add") {
    std::string Name = positional();
    std::string Path = positional();
    std::optional<std::string> Text = readWholeFile(Path);
    if (!Text) {
      std::fprintf(stderr, "cannot open %s\n", Path.c_str());
      return 1;
    }
    return runSimple(G, {{Op::Load, Name}, {Op::Add, *Text}});
  }
  if (Cmd == "retract") {
    std::string Name = positional();
    std::string Index = positional();
    return runSimple(G, {{Op::Load, Name}, {Op::Retract, Index}});
  }
  if (Cmd == "solve") {
    std::string Name = positional();
    std::string SolveBody;
    if (I + 1 < Argc && std::string_view(Argv[I + 1]) == "--proof") {
      ++I;
      SolveBody = "proof=1";
    }
    std::vector<Frame> Replies;
    std::string Err;
    if (!runScript(G, {{Op::Load, Name}, {Op::Solve, SolveBody}}, Replies,
                   &Err)) {
      std::fprintf(stderr, "rascdclient: %s\n", Err.c_str());
      return 2;
    }
    for (const Frame &R : Replies)
      if (R.Kind != Op::Ok) {
        std::fprintf(stderr, "rascdclient: %s\n", R.Body.c_str());
        return 2;
      }
    std::printf("%s\n", Replies.back().Body.c_str());
    return exitCodeForStatus(kvGet(Replies.back().Body, "status"));
  }
  if (Cmd == "entail" || Cmd == "pn") {
    std::string Name = positional();
    std::string Query = positional();
    return runSimple(
        G, {{Op::Load, Name},
            {Cmd == "entail" ? Op::Entail : Op::QueryPn, Query}});
  }
  if (Cmd == "bench") {
    int Connections = 4, Ops = 21;
    bool Json = false;
    const char *StatsOut = nullptr;
    for (++I; I < Argc; ++I) {
      std::string_view Arg = Argv[I];
      if (Arg == "--connections")
        Connections = std::atoi(strArg());
      else if (Arg == "--ops")
        Ops = std::atoi(strArg());
      else if (Arg == "--json")
        Json = true;
      else if (Arg == "--stats-out")
        StatsOut = strArg();
      else {
        std::fprintf(stderr, "unknown bench option %s\n", Argv[I]);
        return 1;
      }
    }
    return runBench(G, Connections, Ops, Json, StatsOut);
  }
  std::fprintf(stderr, "unknown command '%s'\n", std::string(Cmd).c_str());
  return 1;
}
