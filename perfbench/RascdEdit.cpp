//===- perfbench/RascdEdit.cpp - rascd-edit workload ------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident solve service under an edit mix. The built rascd runs
/// on an ephemeral port with a fresh data directory; this process
/// drives it in a closed loop over Connections connections, one client
/// thread each. Every connection owns SystemsPerConn seeded systems (a
/// layered DAG of variables under a regex annotation language, with
/// constructor/projection pairs) and visits them in turn: a visit
/// LOADs the system (creating it on the first visit, attaching later)
/// and runs CyclesPerVisit edit cycles of
///
///   ADD (one new DAG edge), RETRACT (one live edge), SOLVE,
///   ENTAIL, PN, ENTAIL, PN
///
/// so the live edge count stays constant. An op is one request; its
/// latency is the client-observed round trip.
///
/// Oracle, after the timed loop: the client mirrors each system's
/// durable text, and every ENTAIL/PN answer is compared with an
/// in-process ConstraintProgram::parseEx + fresh solve of the text as
/// it stood when the query was sent.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "frontend/ConstraintParser.h"
#include "service/Protocol.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

using namespace rasc;
using service::Conn;
using service::Frame;
using service::Op;

constexpr unsigned SystemsPerConn = 8;
constexpr unsigned CyclesPerVisit = 4;
constexpr unsigned Layers = 8;
constexpr unsigned LayerWidth = 6;
constexpr unsigned NumConstants = 4;
const char *const Regex = "(a | b c | c a b)*";
const char *const Symbols[] = {"a", "b", "c"};

enum Kind : unsigned { KLoad, KAdd, KRetract, KSolve, KEntail, KPn, NumKinds };
const char *const KindName[NumKinds] = {"load",  "add",    "retract",
                                        "solve", "entail", "pn"};
const char *const KindSpan[NumKinds] = {
    "service.load",  "service.add",    "service.retract",
    "service.solve", "service.entail", "service.pn"};

std::string var(unsigned L, unsigned W) {
  return "L" + std::to_string(L) + "_" + std::to_string(W);
}

/// One query answer to re-check: the text prefix it was asked against.
struct Check {
  size_t Prefix;
  bool Pn;
  std::string Body; ///< "k in V"
  bool Holds;
};

/// Client-side model of one resident system.
struct System {
  std::string Name;
  std::string Text;
  uint32_t NumConstraints = 0;
  std::vector<uint32_t> Live; ///< retractable edge constraints
  bool Loaded = false;
  Rng R;
  std::vector<Check> Checks;

  System(std::string N, uint64_t Seed) : Name(std::move(N)), R(Seed) {}

  void constraint(const std::string &Line, bool Retractable) {
    Text += Line + "\n";
    if (Retractable)
      Live.push_back(NumConstraints);
    ++NumConstraints;
  }

  std::string edge(unsigned From, unsigned To) {
    std::string Ann;
    uint64_t K = R.below(4);
    if (K < 3)
      Ann = std::string("[") + Symbols[K] + "] ";
    return var(From, static_cast<unsigned>(R.below(LayerWidth))) + " <= " +
           Ann + var(To, static_cast<unsigned>(R.below(LayerWidth))) + ";";
  }

  void generate() {
    Text = std::string("language regex \"") + Regex + "\";\n";
    for (unsigned K = 0; K != NumConstants; ++K)
      Text += "constant k" + std::to_string(K) + ";\n";
    Text += "constructor o 1;\nvar";
    for (unsigned L = 0; L != Layers; ++L)
      for (unsigned W = 0; W != LayerWidth; ++W)
        Text += " " + var(L, W);
    Text += ";\n";
    for (unsigned K = 0; K != NumConstants; ++K)
      for (int I = 0; I != 2; ++I)
        constraint("k" + std::to_string(K) + " <= " +
                       var(0, static_cast<unsigned>(R.below(LayerWidth))) +
                       ";",
                   false);
    for (unsigned L = 1; L != Layers; ++L)
      for (unsigned W = 0; W != LayerWidth; ++W)
        for (int I = 0; I != 2; ++I) {
          unsigned From = static_cast<unsigned>(R.below(L));
          std::string Ann;
          uint64_t K = R.below(4);
          if (K < 3)
            Ann = std::string("[") + Symbols[K] + "] ";
          constraint(var(From, static_cast<unsigned>(R.below(LayerWidth))) +
                         " <= " + Ann + var(L, W) + ";",
                     true);
        }
    // Matched constructor/projection pairs across layers.
    for (unsigned L = 0; L + 3 < Layers; ++L) {
      unsigned A = static_cast<unsigned>(R.below(LayerWidth));
      unsigned B = static_cast<unsigned>(R.below(LayerWidth));
      constraint("o(" + var(L, A) + ") <= " + var(L + 1, B) + ";", false);
      constraint("proj o 1 " + var(L + 2, B) + " <= " +
                     var(L + 3, static_cast<unsigned>(R.below(LayerWidth))) +
                     ";",
                 false);
    }
  }

  std::string addBody() {
    unsigned From = static_cast<unsigned>(R.below(Layers - 1));
    unsigned To = From + 1 + static_cast<unsigned>(R.below(Layers - 1 - From));
    return edge(From, To);
  }

  std::string query() {
    return "k" + std::to_string(R.below(NumConstants)) + " in " +
           var(Layers - 1 - static_cast<unsigned>(R.below(3)),
               static_cast<unsigned>(R.below(LayerWidth)));
  }
};

struct ClientStats {
  std::vector<double> LatMs;
  std::vector<double> EndS; ///< completion time since the phase began
  double KindMs[NumKinds] = {};
  uint64_t KindOps[NumKinds] = {};
  uint64_t Retracts = 0, Incremental = 0;
};

/// One connection's client: its systems and its position in the
/// visit/cycle schedule.
struct Client {
  unsigned Index;
  std::vector<System> Systems;
  Conn C;
  size_t Visit = 0;
  unsigned Step = 0; ///< position in the current visit's schedule
  Report *R;
  std::mutex *ReportMx;

  void fail(const std::string &Why) {
    std::lock_guard<std::mutex> L(*ReportMx);
    R->fail("connection " + std::to_string(Index) + ": " + Why);
  }

  /// Sends one request and reads its reply; \returns false on a
  /// transport failure (the reply is then an Error frame).
  bool roundTrip(Op O, const std::string &Body, Frame &Reply) {
    std::string Err;
    if (!C.writeFrame(O, Body, &Err)) {
      Reply = {Op::Error, "write failed: " + Err};
      return false;
    }
    service::ReadStatus RS =
        C.readFrame(Reply, service::DefaultMaxFrameBytes, nullptr, 30000, &Err);
    if (RS != service::ReadStatus::Ok) {
      Reply = {Op::Error, std::string("read failed: ") +
                              service::readStatusName(RS) + " " + Err};
      return false;
    }
    return true;
  }

  /// Issues the next request of the schedule; \returns false when the
  /// connection is unusable.
  bool next(Tracer &T, uint32_t OpId, ClientStats &St,
            Clock::time_point PhaseStart) {
    System &S = Systems[Visit % Systems.size()];
    // Schedule of one visit: load, then CyclesPerVisit x 7 requests.
    static const Kind Cycle[] = {KAdd,    KRetract, KSolve, KEntail,
                                 KPn,     KEntail,  KPn};
    constexpr unsigned CycleLen = sizeof(Cycle) / sizeof(Cycle[0]);
    Kind K = Step == 0 ? KLoad : Cycle[(Step - 1) % CycleLen];
    if (++Step == 1 + CyclesPerVisit * CycleLen) {
      Step = 0;
      ++Visit;
    }

    ScopedSpan Root(T, "op", OpId);
    Op O = Op::Ping;
    std::string Body;
    switch (K) {
    case KLoad:
      O = Op::Load;
      Body = S.Loaded ? S.Name : S.Name + "\n" + S.Text;
      break;
    case KAdd:
      O = Op::Add;
      Body = S.addBody();
      break;
    case KRetract: {
      O = Op::Retract;
      size_t Pick = S.R.below(S.Live.size());
      Body = std::to_string(S.Live[Pick]);
      S.Live[Pick] = S.Live.back();
      S.Live.pop_back();
      break;
    }
    case KSolve:
      O = Op::Solve;
      break;
    case KEntail:
    case KPn:
      O = K == KEntail ? Op::Entail : Op::QueryPn;
      Body = S.query();
      break;
    default:
      break;
    }

    Frame Reply;
    auto T0 = Clock::now();
    bool Ok;
    {
      ScopedSpan Wire(T, KindSpan[K], OpId);
      Ok = roundTrip(O, Body, Reply);
    }
    double Ms = secondsSince(T0) * 1e3;
    St.LatMs.push_back(Ms);
    St.EndS.push_back(secondsSince(PhaseStart));
    St.KindMs[K] += Ms;
    ++St.KindOps[K];

    if (Reply.Kind != Op::Ok) {
      fail(std::string(KindName[K]) + " answered " +
           (Reply.Kind == Op::Busy ? "busy" : "error") + ": " +
           Reply.Body.substr(0, 200));
      return Ok;
    }
    std::string Status = service::kvGet(Reply.Body, "status");
    switch (K) {
    case KLoad:
      if (!S.Loaded) {
        if (S.Text.back() != '\n')
          S.Text += "\n";
        S.Loaded = true;
      }
      break;
    case KAdd:
      S.Text += Body + "\n";
      S.Live.push_back(S.NumConstraints++);
      break;
    case KRetract:
      S.Text += "retract " + Body + ";\n";
      ++St.Retracts;
      St.Incremental += service::kvGet(Reply.Body, "mode") == "incremental";
      if (Status != "solved")
        fail("retract " + Body + " left status " + Status);
      break;
    case KSolve:
      if (Status != "solved")
        fail("solve left status " + Status);
      break;
    case KEntail:
    case KPn:
      S.Checks.push_back({S.Text.size(), K == KPn, Body,
                          service::kvGet(Reply.Body, "holds") == "true"});
      break;
    default:
      break;
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// The daemon process
//===----------------------------------------------------------------------===//

/// A running rascd child process; the destructor kills and reaps it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(/*Graceful=*/false); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Starts rascd on an ephemeral port over a fresh \p DataDir and
  /// waits until it answers a PING. \returns an error message or "".
  std::string start(const Options &O, const std::string &DataDir,
                    unsigned MaxSessions) {
    namespace fs = std::filesystem;
    std::error_code EC;
    fs::remove_all(DataDir, EC);
    fs::create_directories(DataDir, EC);
    std::string PortFile = DataDir + ".port";
    fs::remove(PortFile, EC);
    std::string Bin = O.BinDir + "/rascd";
    std::string Log = O.WorkDir + "/rascd.log";
    std::string Sessions = std::to_string(MaxSessions);
    Pid = ::fork();
    if (Pid < 0)
      return std::string("fork: ") + std::strerror(errno);
    if (Pid == 0) {
      // The daemon must not outlive this process, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, 2);
        ::close(Fd);
      }
      const char *Argv[] = {Bin.c_str(),     "--data",      DataDir.c_str(),
                            "--port",        "0",           "--port-file",
                            PortFile.c_str(), "--max-sessions",
                            Sessions.c_str(), nullptr};
      ::execv(Bin.c_str(), const_cast<char *const *>(Argv));
      ::_exit(127);
    }
    auto T0 = Clock::now();
    while (secondsSince(T0) < 30) {
      std::ifstream In(PortFile);
      std::string Line;
      if (In && std::getline(In, Line) && !In.eof()) {
        Port = static_cast<uint16_t>(std::strtoul(Line.c_str(), nullptr, 10));
        break;
      }
      int WS;
      if (::waitpid(Pid, &WS, WNOHANG) == Pid) {
        Pid = -1;
        return "rascd exited during start-up (see " + Log + ")";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!Port)
      return "rascd did not report its port within 30 s";
    Conn C = connect();
    Frame F;
    std::string Err;
    if (!C.valid() || !C.writeFrame(Op::Ping, "", &Err) ||
        C.readFrame(F, service::DefaultMaxFrameBytes, nullptr, 30000,
                    &Err) != service::ReadStatus::Ok ||
        F.Kind != Op::Ok)
      return "rascd did not answer PING: " + Err;
    return "";
  }

  Conn connect() const {
    std::string Err;
    int Fd = service::connectTcp("127.0.0.1", Port, &Err);
    return Fd < 0 ? Conn() : Conn(Fd);
  }

  /// Stops the daemon (SIGTERM and a clean drain when \p Graceful,
  /// else SIGKILL) and reaps it; \returns its peak RSS in MB.
  double stop(bool Graceful) {
    if (Pid <= 0)
      return 0;
    ::kill(Pid, Graceful ? SIGTERM : SIGKILL);
    struct rusage RU;
    std::memset(&RU, 0, sizeof RU);
    int WS = 0;
    auto T0 = Clock::now();
    while (true) {
      pid_t W = ::wait4(Pid, &WS, WNOHANG, &RU);
      if (W == Pid || (W < 0 && errno != EINTR))
        break;
      if (secondsSince(T0) > 30) {
        ::kill(Pid, SIGKILL);
        ::wait4(Pid, &WS, 0, &RU);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
    return static_cast<double>(RU.ru_maxrss) * 1024.0 / 1e6;
  }

private:
  pid_t Pid = -1;
  uint16_t Port = 0;
};

/// STATS counters and histogram sums/counts by name.
struct DaemonStats {
  std::map<std::string, double> Values;

  static DaemonStats fetch(const Daemon &D) {
    DaemonStats S;
    Conn C = D.connect();
    Frame F;
    std::string Err;
    if (!C.valid() || !C.writeFrame(Op::Stats, "", &Err) ||
        C.readFrame(F, service::DefaultMaxFrameBytes, nullptr, 30000,
                    &Err) != service::ReadStatus::Ok)
      return S;
    // Flat scan of {"counters":{"a":1,...},...,"histograms":{"h":
    // {"count":N,"sum":S,...}}}: record "a" and "h.count"/"h.sum".
    const std::string &J = F.Body;
    std::string Hist;
    for (size_t I = 0; (I = J.find('"', I)) != std::string::npos;) {
      size_t E = J.find('"', I + 1);
      if (E == std::string::npos)
        break;
      std::string Key = J.substr(I + 1, E - I - 1);
      I = E + 1;
      if (I >= J.size() || J[I] != ':')
        continue;
      ++I;
      if (J[I] == '{') {
        Hist = Key;
        continue;
      }
      double V = std::strtod(J.c_str() + I, nullptr);
      if (Key == "count" || Key == "sum")
        S.Values[Hist + "." + Key] = V;
      else if (Key != "max" && Key != "mean")
        S.Values[Key] = V;
    }
    return S;
  }

  double delta(const DaemonStats &Before, const std::string &K) const {
    auto get = [&](const DaemonStats &S) {
      auto It = S.Values.find(K);
      return It == S.Values.end() ? 0.0 : It->second;
    };
    return get(*this) - get(Before);
  }
};

/// Runs every client for \p Budget seconds; \returns the wall seconds.
double phase(std::vector<Client> &Clients, double Budget,
             std::vector<Tracer> &Tracers, std::vector<ClientStats> &Stats,
             std::atomic<uint32_t> &NextOp) {
  std::vector<std::thread> Threads;
  auto Start = Clock::now();
  for (size_t I = 0; I != Clients.size(); ++I)
    Threads.emplace_back([&, I] {
      while (secondsSince(Start) < Budget)
        if (!Clients[I].next(Tracers[I], NextOp++, Stats[I], Start))
          break;
    });
  for (std::thread &T : Threads)
    T.join();
  return secondsSince(Start);
}

/// The oracle: fresh parse + solve of each checked prefix.
void runOracle(std::vector<Client> &Clients, Report &R) {
  for (Client &Cl : Clients)
    for (System &S : Cl.Systems) {
      size_t I = 0;
      while (I != S.Checks.size()) {
        size_t J = I;
        std::string Text = S.Text.substr(0, S.Checks[I].Prefix);
        for (; J != S.Checks.size() && S.Checks[J].Prefix == S.Checks[I].Prefix;
             ++J)
          Text += std::string("query ") + (S.Checks[J].Pn ? "pn " : "") +
                  S.Checks[J].Body + ";\n";
        Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Text);
        if (!P) {
          R.fail(S.Name + ": oracle cannot parse the mirrored text: " +
                 P.error().render());
          I = J;
          continue;
        }
        std::vector<ConstraintProgram::Answer> A = P->solveAndAnswer();
        for (size_t K = I; K != J; ++K)
          if (A.size() != J - I || A[K - I].Holds != S.Checks[K].Holds)
            R.fail(S.Name + ": '" + S.Checks[K].Body + "' answered " +
                   (S.Checks[K].Holds ? "true" : "false") +
                   ", fresh solve disagrees");
        I = J;
      }
    }
}

uint64_t dirBytes(const std::string &Dir) {
  namespace fs = std::filesystem;
  uint64_t N = 0;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      N += E.file_size(EC);
  return N;
}

} // namespace

int runRascdEdit(const Options &O) {
  Report R;
  std::mutex ReportMx;
  unsigned Connections =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::string DataDir = O.WorkDir + "/rascd-data";

  // Set-up: input generation, daemon start and one PING per
  // connection, five times; the last daemon serves the run.
  std::vector<double> SetupS;
  std::vector<Client> Clients;
  Daemon D;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = Clock::now();
    Clients.clear();
    for (unsigned C = 0; C != Connections; ++C) {
      Clients.push_back(Client{C, {}, Conn(), 0, 0, &R, &ReportMx});
      for (unsigned S = 0; S != SystemsPerConn; ++S) {
        Clients.back().Systems.emplace_back(
            "s" + std::to_string(C) + "-" + std::to_string(S),
            mix(O.Seed * 7919 + C * 131 + S));
        Clients.back().Systems.back().generate();
      }
    }
    if (Rep)
      D.stop(/*Graceful=*/true);
    if (std::string Err = D.start(O, DataDir, Connections + 1); !Err.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 1;
    }
    for (Client &Cl : Clients) {
      Cl.C = D.connect();
      Frame F;
      if (!Cl.C.valid() || !Cl.roundTrip(Op::Ping, "", F) ||
          F.Kind != Op::Ok) {
        std::fprintf(stderr, "perfbench: connection %u refused\n", Cl.Index);
        return 1;
      }
    }
    SetupS.push_back(secondsSince(T0));
  }
  R.SetupSeconds = quantile(SetupS, 0.5);

  // Fingerprint: fresh solves of every initial system.
  uint64_t FpConstraints = 0, FpEdges = 0, FpCompose = 0, FpElements = 0,
           FpHolds = 0, FpStates = 0;
  for (Client &Cl : Clients)
    for (System &S : Cl.Systems) {
      std::string Text = S.Text;
      for (unsigned K = 0; K != NumConstants; ++K)
        for (unsigned W = 0; W != LayerWidth; ++W)
          Text += "query pn k" + std::to_string(K) + " in " +
                  var(Layers - 1, W) + ";\n";
      Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Text);
      if (!P) {
        std::fprintf(stderr, "perfbench: generated system does not parse: %s\n",
                     P.error().render().c_str());
        return 1;
      }
      SolverStats St;
      for (const ConstraintProgram::Answer &A : P->solveAndAnswer({}, &St))
        FpHolds += A.Holds;
      FpConstraints += P->system().constraints().size();
      FpElements += P->domain().size();
      FpStates += P->domain().machine().numStates();
      FpEdges += St.EdgesInserted;
      FpCompose += St.ComposeCalls;
    }
  size_t NumSystems = Connections * SystemsPerConn;
  R.Fingerprint = {{"systems", NumSystems},
                   {"app.constraints", FpConstraints},
                   {"monoid.elements", FpElements},
                   {"solver.edges", FpEdges},
                   {"solver.compose_calls", FpCompose},
                   {"pn_holds", FpHolds}};

  std::atomic<uint32_t> NextOp{0};
  std::vector<ClientStats> Stats(Connections);
  std::vector<Tracer> Tracers(Connections, Tracer(false));
  if (!O.Trace) {
    R.MeasureSeconds = phase(Clients, O.Seconds, Tracers, Stats, NextOp);
  } else {
    double UntracedS = phase(Clients, 0.3 * O.Seconds, Tracers, Stats, NextOp);
    size_t UntracedOps = NextOp.load();
    std::vector<ClientStats> TracedStats(Connections);
    std::vector<Tracer> On(Connections, Tracer(true));
    DaemonStats Before = DaemonStats::fetch(D);
    double TracedS = phase(Clients, 0.7 * O.Seconds, On, TracedStats, NextOp);
    DaemonStats After = DaemonStats::fetch(D);
    size_t TracedOps = NextOp.load() - UntracedOps;
    Tracer Merged(true);
    for (Tracer &T : On)
      Merged.append(T);
    addAttribution(R, attribute(Merged.spans()), TracedOps, {});

    double KindMs[NumKinds] = {}, KindOps[NumKinds] = {}, ClientMs = 0;
    for (const ClientStats &S : TracedStats)
      for (unsigned K = 0; K != NumKinds; ++K) {
        KindMs[K] += S.KindMs[K];
        KindOps[K] += static_cast<double>(S.KindOps[K]);
        ClientMs += S.KindMs[K];
      }
    double ServerMs = 0;
    for (unsigned K = 0; K != NumKinds; ++K) {
      std::string Kind = KindName[K];
      R.Layers.push_back({"service." + Kind + "_ms",
                          KindOps[K] ? KindMs[K] / KindOps[K] : 0, "ms"});
      std::string H = "service.op." + Kind + "_us";
      double Count = After.delta(Before, H + ".count");
      double Sum = After.delta(Before, H + ".sum");
      ServerMs += Sum / 1e3;
      if (K != KLoad)
        R.Layers.push_back({"service.server_" + Kind + "_ms",
                            Count ? Sum / Count / 1e3 : 0, "ms"});
    }
    double Ops = static_cast<double>(TracedOps);
    std::vector<double> Lat;
    for (const ClientStats &S : TracedStats)
      Lat.insert(Lat.end(), S.LatMs.begin(), S.LatMs.end());
    R.Layers.push_back({"service.op_p99_ms", quantile(Lat, 0.99), "ms"});
    R.Layers.push_back({"service.queue_ms", (ClientMs - ServerMs) / Ops, "ms"});
    R.Layers.push_back({"solver.ingest_ms",
                        After.delta(Before, "solver.ingest_ns") / 1e6 / Ops,
                        "ms"});
    R.Layers.push_back({"solver.closure_ms",
                        After.delta(Before, "solver.closure_ns") / 1e6 / Ops,
                        "ms"});
    double Ins = After.delta(Before, "solver.edges_inserted");
    double Dup = After.delta(Before, "solver.edges_deduped");
    double Useless = After.delta(Before, "solver.useless_filtered");
    R.Layers.push_back({"solver.edges", Ins / Ops, "count"});
    R.Layers.push_back({"solver.compose_calls",
                        After.delta(Before, "solver.compose_calls") / Ops,
                        "count"});
    R.Layers.push_back(
        {"solver.useful_ratio", Ins / std::max(1.0, Ins + Dup + Useless),
         "ratio"});
    addTraceRates(R, UntracedOps, UntracedS, TracedOps, TracedS, 0);
    for (unsigned I = 0; I != Connections; ++I)
      Stats.push_back(TracedStats[I]);
    std::string Path = O.WorkDir + "/trace-rascd-edit.json";
    if (writeTrace(Path, Merged.spans()))
      R.Notes.push_back("trace: " + Path);
  }

  uint64_t Retracts = 0, Incremental = 0;
  std::vector<double> OpEndS;
  for (const ClientStats &S : Stats) {
    if (!O.Trace) {
      R.OpMs.insert(R.OpMs.end(), S.LatMs.begin(), S.LatMs.end());
      OpEndS.insert(OpEndS.end(), S.EndS.begin(), S.EndS.end());
    }
    Retracts += S.Retracts;
    Incremental += S.Incremental;
  }
  R.windowsByTime(OpEndS, 1.0);
  R.Attempted = NextOp.load();

  for (Client &Cl : Clients)
    Cl.C.close();
  R.PeakRssMb = D.stop(/*Graceful=*/true);
  R.Layers.push_back({"service.data_bytes",
                      static_cast<double>(dirBytes(DataDir)), "bytes"});
  R.Layers.push_back(
      {"service.retract_incremental_ratio",
       Retracts ? static_cast<double>(Incremental) / Retracts : 0, "ratio"});
  R.Layers.push_back({"app.constraints",
                      static_cast<double>(FpConstraints) / NumSystems,
                      "count"});
  R.Layers.push_back({"monoid.elements",
                      static_cast<double>(FpElements) / NumSystems, "count"});
  R.Layers.push_back({"automata.dfa_states",
                      static_cast<double>(FpStates) / NumSystems, "count"});

  auto OracleT0 = Clock::now();
  size_t Checked = 0;
  for (Client &Cl : Clients)
    for (System &S : Cl.Systems)
      Checked += S.Checks.size();
  runOracle(Clients, R);
  R.Notes.push_back("oracle: " + std::to_string(Checked) +
                    " query answers re-solved in-process in " +
                    std::to_string(secondsSince(OracleT0)) + " s");
  R.Notes.push_back("rascd-edit: closed loop, " + std::to_string(Connections) +
                    " connections, " + std::to_string(NumSystems) +
                    " systems; retracts incremental: " +
                    std::to_string(Incremental) + " of " +
                    std::to_string(Retracts));
  std::error_code EC;
  std::filesystem::remove_all(DataDir, EC);
  return printReport(O, R, O.Trace);
}

} // namespace perfbench
