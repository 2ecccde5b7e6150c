//===- tests/trace_metrics_test.cpp - Observability layer tests -----------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability layer (support/Trace.h, core/Observe.h):
///
///  * Chrome trace_event JSON schema — a minimal JSON parser (written
///    here, so the checker shares no code with the exporter) validates
///    the exported object graph: a traceEvents array whose entries all
///    carry name/ph/ts/pid/tid, complete events carry dur, and the
///    solver's known event names appear.
///  * The non-perturbation differential — solving with tracing and
///    metrics enabled must produce the bit-identical fixpoint and
///    integer SolverStats as solving with them disabled, across seeds
///    and both dedup backends. This is the observability layer's core
///    contract: it observes, never steers. (Wall-clock stats fields are excluded — they are
///    genuinely nondeterministic.)
///  * MetricsRegistry unit behavior — counters, gauges, log2-bucket
///    histograms, snapshot consistency, reset, JSON shape.
///  * Ring-buffer mechanics — wrap-around drops the oldest events and
///    reports the count; clear() empties without unregistering.
///
/// Tracing and metrics are process-global switches; every test here
/// restores the disabled state on exit so ordering cannot leak state
/// between tests.
///
//===----------------------------------------------------------------------===//

#include "TestSystems.h"

#include "automata/Machines.h"
#include "core/Observe.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace {

using namespace rasc;

//===----------------------------------------------------------------------===//
// A minimal JSON parser: just enough for the trace schema check, and
// deliberately independent of the exporter's string building.
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<Json> A;
  std::map<std::string, Json> O;

  bool has(const std::string &Key) const { return O.count(Key) != 0; }
  const Json &at(const std::string &Key) const { return O.at(Key); }
};

class JsonParser {
public:
  explicit JsonParser(std::string_view Text) : T(Text) {}

  bool parse(Json &Out) {
    bool Ok = value(Out);
    ws();
    return Ok && P == T.size();
  }

private:
  std::string_view T;
  size_t P = 0;

  void ws() {
    while (P < T.size() && std::isspace(static_cast<unsigned char>(T[P])))
      ++P;
  }
  bool lit(std::string_view L) {
    if (T.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }

  bool value(Json &Out) {
    ws();
    if (P >= T.size())
      return false;
    switch (T[P]) {
    case '{':
      return object(Out);
    case '[':
      return array(Out);
    case '"':
      Out.K = Json::Str;
      return string(Out.S);
    case 't':
      Out.K = Json::Bool;
      Out.B = true;
      return lit("true");
    case 'f':
      Out.K = Json::Bool;
      Out.B = false;
      return lit("false");
    case 'n':
      Out.K = Json::Null;
      return lit("null");
    default:
      return number(Out);
    }
  }

  bool string(std::string &Out) {
    if (T[P] != '"')
      return false;
    ++P;
    while (P < T.size() && T[P] != '"') {
      if (T[P] == '\\') {
        if (P + 1 >= T.size())
          return false;
        char C = T[P + 1];
        if (C == 'u') {
          if (P + 5 >= T.size())
            return false;
          Out += '?'; // enough for a schema check
          P += 6;
          continue;
        }
        Out += C == 'n' ? '\n' : C == 't' ? '\t' : C;
        P += 2;
        continue;
      }
      Out += T[P++];
    }
    if (P >= T.size())
      return false;
    ++P; // closing quote
    return true;
  }

  bool number(Json &Out) {
    size_t Start = P;
    while (P < T.size() &&
           (std::isdigit(static_cast<unsigned char>(T[P])) || T[P] == '-' ||
            T[P] == '+' || T[P] == '.' || T[P] == 'e' || T[P] == 'E'))
      ++P;
    if (P == Start)
      return false;
    Out.K = Json::Num;
    Out.N = std::strtod(std::string(T.substr(Start, P - Start)).c_str(),
                        nullptr);
    return true;
  }

  bool array(Json &Out) {
    Out.K = Json::Arr;
    ++P; // '['
    ws();
    if (P < T.size() && T[P] == ']') {
      ++P;
      return true;
    }
    while (true) {
      Json V;
      if (!value(V))
        return false;
      Out.A.push_back(std::move(V));
      ws();
      if (P >= T.size())
        return false;
      if (T[P] == ',') {
        ++P;
        continue;
      }
      if (T[P] == ']') {
        ++P;
        return true;
      }
      return false;
    }
  }

  bool object(Json &Out) {
    Out.K = Json::Obj;
    ++P; // '{'
    ws();
    if (P < T.size() && T[P] == '}') {
      ++P;
      return true;
    }
    while (true) {
      ws();
      std::string Key;
      if (P >= T.size() || !string(Key))
        return false;
      ws();
      if (P >= T.size() || T[P] != ':')
        return false;
      ++P;
      Json V;
      if (!value(V))
        return false;
      Out.O.emplace(std::move(Key), std::move(V));
      ws();
      if (P >= T.size())
        return false;
      if (T[P] == ',') {
        ++P;
        continue;
      }
      if (T[P] == '}') {
        ++P;
        return true;
      }
      return false;
    }
  }
};

/// RAII guard: whatever a test does to the global trace/metrics
/// switches, the next test starts from the disabled, empty state.
struct ObservabilityOff {
  ~ObservabilityOff() {
    trace::setEnabled(false);
    trace::clear();
    observe::setMetricsEnabled(false);
    observe::setProgressEverySeconds(0);
  }
};

//===----------------------------------------------------------------------===//
// Chrome trace JSON schema
//===----------------------------------------------------------------------===//

TEST(TraceExport, ChromeJsonSchema) {
  ObservabilityOff Guard;
  trace::clear();
  trace::setEnabled(true);

  // Produce a real event mix through the instrumented solver.
  Rng R(7);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  trace::setEnabled(false);

  std::string Text = trace::exportChromeJson();
  Json Root;
  ASSERT_TRUE(JsonParser(Text).parse(Root)) << Text.substr(0, 200);
  ASSERT_EQ(Root.K, Json::Obj);
  ASSERT_TRUE(Root.has("traceEvents"));
  const Json &Events = Root.at("traceEvents");
  ASSERT_EQ(Events.K, Json::Arr);
  ASSERT_FALSE(Events.A.empty()) << "instrumented solve emitted nothing";

  std::map<std::string, unsigned> Names;
  double LastTs = -1;
  for (const Json &E : Events.A) {
    ASSERT_EQ(E.K, Json::Obj);
    for (const char *Key : {"name", "ph", "ts", "pid", "tid"})
      EXPECT_TRUE(E.has(Key)) << "event missing \"" << Key << '"';
    ASSERT_EQ(E.at("name").K, Json::Str);
    ASSERT_EQ(E.at("ph").K, Json::Str);
    ASSERT_EQ(E.at("ts").K, Json::Num);
    const std::string &Ph = E.at("ph").S;
    EXPECT_TRUE(Ph == "X" || Ph == "i" || Ph == "C") << Ph;
    if (Ph == "X") {
      ASSERT_TRUE(E.has("dur"));
      EXPECT_EQ(E.at("dur").K, Json::Num);
      EXPECT_GE(E.at("dur").N, 0);
    }
    // The exporter promises start-time order (viewers rely on it).
    EXPECT_GE(E.at("ts").N, LastTs);
    LastTs = E.at("ts").N;
    ++Names[E.at("name").S];
  }

  // The solve above must have produced the core closure events.
  for (const char *Expected :
       {"solver.solve", "solver.ingest", "solver.closure", "solver.pop",
        "solver.edge.insert"})
    EXPECT_TRUE(Names.count(Expected))
        << "no \"" << Expected << "\" event in the export";

  ASSERT_TRUE(Root.has("otherData"));
  EXPECT_TRUE(Root.at("otherData").has("droppedEvents"));
}

TEST(TraceExport, MonoidConstructionSpans) {
  ObservabilityOff Guard;
  trace::clear();
  { MonoidDomain Untraced(buildAdversarialMachine(3)); }
  EXPECT_EQ(trace::eventCount(), 0u);

  trace::setEnabled(true);
  { MonoidDomain Traced(buildAdversarialMachine(3)); }
  trace::setEnabled(false);

  Json Root;
  ASSERT_TRUE(JsonParser(trace::exportChromeJson()).parse(Root));
  std::map<std::string, const Json *> Spans;
  for (const Json &E : Root.at("traceEvents").A)
    if (E.at("ph").S == "X")
      Spans[E.at("name").S] = &E;
  ASSERT_TRUE(Spans.count("monoid.closure"));
  ASSERT_TRUE(Spans.count("monoid.table"));
  // 3^3 elements; the table span also carries its 27^2 cells.
  EXPECT_EQ(Spans["monoid.closure"]->at("args").at("a").N, 27);
  EXPECT_EQ(Spans["monoid.table"]->at("args").at("a").N, 27);
  EXPECT_EQ(Spans["monoid.table"]->at("args").at("b").N, 27 * 27);
}

//===----------------------------------------------------------------------===//
// Non-perturbation differential
//===----------------------------------------------------------------------===//

/// Everything observable about a solve that must be identical with and
/// without tracing/metrics: the status, the exact edge multiset in
/// derivation order, conflicts, and every deterministic stats counter.
struct SolveImage {
  BidirectionalSolver::Status St;
  std::vector<std::tuple<ExprId, ExprId, AnnId, bool>> Edges;
  std::vector<std::tuple<ExprId, ExprId, AnnId>> Conflicts;
  std::vector<uint64_t> IntStats;

  bool operator==(const SolveImage &O) const {
    return St == O.St && Edges == O.Edges && Conflicts == O.Conflicts &&
           IntStats == O.IntStats;
  }
};

SolveImage solveImage(const ConstraintSystem &CS, SolverOptions O) {
  BidirectionalSolver S(CS, O);
  SolveImage Img;
  Img.St = S.solve();
  S.forEachDerivedEdge([&](ExprId Src, ExprId Dst, AnnId Ann, bool P) {
    Img.Edges.emplace_back(Src, Dst, Ann, P);
  });
  for (const SolvedEdge &C : S.conflicts())
    Img.Conflicts.emplace_back(C.Src, C.Dst, C.Ann);
  const SolverStats &St = S.stats();
  // Every integer field; the wall-clock Seconds fields are excluded.
  Img.IntStats = {St.EdgesInserted,   St.EdgesDropped, St.UselessFiltered,
                  St.ComposeCalls,    St.DecomposeSteps,
                  St.ProjectionSteps, St.FnVarConstraints,
                  St.CollapsedVars,   St.BudgetChecks, St.Interrupts,
                  St.Resumes};
  return Img;
}

TEST(TraceDifferential, TracingDoesNotPerturbFixpoints) {
  ObservabilityOff Guard;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed * 1069);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    for (SolverOptions::DedupBackend Backend :
         {SolverOptions::DedupBackend::Bitset,
          SolverOptions::DedupBackend::FlatSet}) {
      SCOPED_TRACE(testgen::seedContext(Seed, Backend));
      SolverOptions O;
      O.Dedup = Backend;

      trace::setEnabled(false);
      observe::setMetricsEnabled(false);
      SolveImage Off = solveImage(*Sys.CS, O);

      trace::clear();
      trace::setEnabled(true);
      observe::setMetricsEnabled(true);
      SolveImage On = solveImage(*Sys.CS, O);
      trace::setEnabled(false);
      observe::setMetricsEnabled(false);

      EXPECT_TRUE(Off == On)
          << "tracing/metrics changed the fixpoint or the stats";
    }
  }
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterGaugeHistogram) {
  MetricsRegistry Reg;
  MetricsRegistry::Counter &C = Reg.counter("test.count");
  C.add(3);
  C.add(4);
  EXPECT_EQ(C.get(), 7u);
  // Handles are stable: the same name is the same instrument.
  EXPECT_EQ(&Reg.counter("test.count"), &C);

  MetricsRegistry::Gauge &G = Reg.gauge("test.gauge");
  G.set(41);
  G.set(42);
  EXPECT_EQ(G.get(), 42u);

  MetricsRegistry::Histogram &H = Reg.histogram("test.hist");
  H.record(0); // bucket 0
  H.record(1); // bucket 1
  H.record(2); // bucket 2
  H.record(3); // bucket 2
  H.record(100); // bucket 7
  EXPECT_EQ(H.Count.load(), 5u);
  EXPECT_EQ(H.Sum.load(), 106u);
  EXPECT_EQ(H.Max.load(), 100u);
  EXPECT_EQ(H.Buckets[2].load(), 2u);
  EXPECT_EQ(H.Buckets[7].load(), 1u);
}

TEST(Metrics, SnapshotResetAndJson) {
  MetricsRegistry Reg;
  Reg.counter("z.last").add(9);
  Reg.counter("a.first").add(1);
  Reg.gauge("m.gauge").set(5);
  Reg.histogram("h.hist").record(6);

  MetricsRegistry::Snapshot Snap = Reg.snapshot();
  ASSERT_EQ(Snap.Counters.size(), 2u);
  // Sorted by name for stable diffs.
  EXPECT_EQ(Snap.Counters[0].first, "a.first");
  EXPECT_EQ(Snap.Counters[1].first, "z.last");
  EXPECT_EQ(Snap.Counters[1].second, 9u);
  ASSERT_EQ(Snap.Histograms.size(), 1u);
  EXPECT_EQ(Snap.Histograms[0].Count, 1u);
  EXPECT_EQ(Snap.Histograms[0].Sum, 6u);
  // Trailing zero buckets trimmed: value 6 has bit-width 3.
  EXPECT_EQ(Snap.Histograms[0].Buckets.size(), 4u);

  // The JSON must parse and carry every instrument.
  Json Root;
  ASSERT_TRUE(JsonParser(Snap.toJson()).parse(Root)) << Snap.toJson();
  ASSERT_TRUE(Root.has("counters"));
  ASSERT_TRUE(Root.has("gauges"));
  ASSERT_TRUE(Root.has("histograms"));
  EXPECT_EQ(Root.at("counters").at("z.last").N, 9);
  EXPECT_EQ(Root.at("gauges").at("m.gauge").N, 5);
  const Json &H = Root.at("histograms").at("h.hist");
  EXPECT_EQ(H.at("count").N, 1);
  EXPECT_EQ(H.at("sum").N, 6);
  EXPECT_EQ(H.at("max").N, 6);

  Reg.reset();
  EXPECT_EQ(Reg.counter("z.last").get(), 0u);
  EXPECT_EQ(Reg.gauge("m.gauge").get(), 0u);
  EXPECT_EQ(Reg.histogram("h.hist").Count.load(), 0u);
  // Names survive a reset.
  EXPECT_EQ(Reg.snapshot().Counters.size(), 2u);
}

TEST(Metrics, SolverRecordsDeltasWhenEnabled) {
  ObservabilityOff Guard;
  MetricsRegistry &G = MetricsRegistry::global();
  Rng R(11);
  testgen::RandomSystem Sys = testgen::randomSystem(R);

  // Disabled: the solver must not touch the registry.
  uint64_t Before = G.counter("solver.edges_inserted").get();
  {
    BidirectionalSolver S(*Sys.CS);
    S.solve();
  }
  EXPECT_EQ(G.counter("solver.edges_inserted").get(), Before);

  // Enabled: the per-solve delta lands in the global registry.
  observe::setMetricsEnabled(true);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  observe::setMetricsEnabled(false);
  EXPECT_EQ(G.counter("solver.edges_inserted").get() - Before,
            S.stats().EdgesInserted);
}

TEST(Metrics, MonoidInterningCountsBuildsAndShares) {
  ObservabilityOff Guard;
  std::ifstream In(std::string(RASC_TEST_DATA_DIR) + "/ebpf/gen-009.bpf",
                   std::ios::binary);
  ASSERT_TRUE(In.good());
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  Expected<ebpf::DecodedProgram> D = ebpf::decode(
      {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
  ASSERT_TRUE(D) << D.error().render();
  ebpf::Cfg G = ebpf::buildCfg(std::move(*D));
  ebpf::FlowLowering Fl = ebpf::lowerToFlowProgram(G);

  // The ebpf-batch shape: 16 live analyses over one automaton build
  // its 906-element monoid once.
  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Builds = M.counter("monoid.builds").get();
  uint64_t Shared = M.counter("monoid.shared").get();
  observe::setMetricsEnabled(true);
  trace::clear();
  trace::setEnabled(true);
  std::vector<std::unique_ptr<FlowAnalysis>> Live;
  for (int I = 0; I != 16; ++I)
    Live.push_back(std::make_unique<FlowAnalysis>(Fl.Prog, FlowMode::Primal));
  trace::setEnabled(false);
  observe::setMetricsEnabled(false);
  EXPECT_EQ(M.counter("monoid.builds").get() - Builds, 1u);
  EXPECT_EQ(M.counter("monoid.shared").get() - Shared, 15u);
  for (const auto &A : Live)
    EXPECT_EQ(&A->domain(), &Live[0]->domain());

  // One monoid.intern instant per construction: args.a is 1 for a
  // shared domain, args.b its element count.
  Json Root;
  ASSERT_TRUE(JsonParser(trace::exportChromeJson()).parse(Root));
  unsigned Hits = 0, Misses = 0;
  for (const Json &E : Root.at("traceEvents").A)
    if (E.at("name").S == "monoid.intern") {
      EXPECT_EQ(E.at("ph").S, "i");
      EXPECT_EQ(E.at("args").at("b").N, 906);
      ++(E.at("args").at("a").N == 1 ? Hits : Misses);
    }
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Hits, 15u);
}

TEST(Metrics, PdmcCountsStatementsAndSharedVariables) {
  ObservabilityOff Guard;
  // main: entry -> Z(seteuid_zero) -> N1 -> N2 -> E(execl) -> exit.
  // Z joins the entry's variable, N2 and E join N1's, and the exit
  // keeps its own (its predecessor E is relevant): 6 statements, 3
  // variables.
  Program P;
  FuncId Main = P.addFunction("main");
  StmtId Z = P.addOp(Main, "seteuid_zero"), N1 = P.addNop(Main),
         N2 = P.addNop(Main), E = P.addOp(Main, "execl");
  P.addEdge(P.entry(Main), Z);
  P.addEdge(Z, N1);
  P.addEdge(N1, N2);
  P.addEdge(N2, E);
  P.finalize();
  SpecAutomaton Spec = simplePrivilegeSpec();

  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Stmts = M.counter("pdmc.statements").get();
  uint64_t Vars = M.counter("pdmc.vars").get();
  RascChecker(P, Spec).prepare(); // metrics off: nothing recorded
  EXPECT_EQ(M.counter("pdmc.statements").get(), Stmts);
  EXPECT_EQ(M.counter("pdmc.vars").get(), Vars);

  observe::setMetricsEnabled(true);
  RascChecker C(P, Spec);
  C.prepare();
  observe::setMetricsEnabled(false);
  EXPECT_EQ(M.counter("pdmc.statements").get() - Stmts, 6u);
  EXPECT_EQ(M.counter("pdmc.vars").get() - Vars, 3u);
  EXPECT_EQ(C.system().numVars(), 3u);
  EXPECT_EQ(C.stmtVar(Z), C.stmtVar(P.entry(Main)));
  EXPECT_EQ(C.stmtVar(E), C.stmtVar(N1));
  EXPECT_NE(C.stmtVar(P.exit(Main)), C.stmtVar(E));
}

//===----------------------------------------------------------------------===//
// Ring buffer mechanics
//===----------------------------------------------------------------------===//

TEST(TraceRing, WrapDropsOldestAndCounts) {
  ObservabilityOff Guard;
  // A tiny ring forces wrap-around. Capacity applies to rings created
  // after the call, and this thread's ring may already exist from an
  // earlier test — so exercise the wrap on a fresh thread.
  trace::clear();
  size_t Saved = trace::ringCapacity();
  trace::setRingCapacity(16);
  trace::setEnabled(true);
  uint64_t DroppedBefore = trace::droppedCount();
  std::thread([&] {
    for (uint64_t I = 0; I != 100; ++I)
      trace::instant("ring.test", I);
  }).join();
  trace::setEnabled(false);
  trace::setRingCapacity(Saved);

  EXPECT_EQ(trace::droppedCount() - DroppedBefore, 100u - 16u);

  // The survivors are the *newest* 16 events.
  std::string Text = trace::exportChromeJson();
  Json Root;
  ASSERT_TRUE(JsonParser(Text).parse(Root));
  uint64_t MaxA = 0, Count = 0;
  for (const Json &E : Root.at("traceEvents").A) {
    if (E.at("name").S != "ring.test")
      continue;
    ++Count;
    MaxA = std::max(MaxA, static_cast<uint64_t>(E.at("args").at("a").N));
  }
  EXPECT_EQ(Count, 16u);
  EXPECT_EQ(MaxA, 99u);

  trace::clear();
  EXPECT_EQ(trace::eventCount(), 0u);
  EXPECT_EQ(trace::droppedCount(), 0u);

  // The ring survives clear(): the thread is gone, but a fresh
  // emission on this thread still records.
  trace::setEnabled(true);
  trace::instant("ring.after-clear");
  trace::setEnabled(false);
  EXPECT_GE(trace::eventCount(), 1u);
}

TEST(TraceScope, DisabledScopeEmitsNothing) {
  ObservabilityOff Guard;
  trace::clear();
  ASSERT_FALSE(trace::enabled());
  {
    RASC_TRACE_SCOPE("never.recorded", 1, 2);
    trace::instant("also.never", 3);
  }
  EXPECT_EQ(trace::eventCount(), 0u);

  // A scope constructed before disablement still closes cleanly; one
  // constructed during disablement stays silent even if tracing is
  // re-enabled before its destructor runs.
  trace::setEnabled(true);
  {
    RASC_TRACE_SCOPE("recorded");
    trace::setEnabled(false);
  }
  {
    RASC_TRACE_SCOPE("not.recorded");
    trace::setEnabled(true);
  }
  trace::setEnabled(false);
  std::string Text = trace::exportChromeJson();
  EXPECT_EQ(Text.find("not.recorded"), std::string::npos);
}

} // namespace
