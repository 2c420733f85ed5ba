//===- tests/ObservabilityTest.cpp - Trace + metrics layer ----------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Covers the observability subsystem end to end: histogram percentile edge
// cases, metric registry reports, env-knob spec parsing, the log-prefix
// hooks, and -- the load-bearing part -- that the trace recorder is
// deterministic (two identical runs export byte-identical JSON) and that
// the exported Chrome trace-event JSON parses with well-formed node/task
// ids from at least two simulated nodes.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"
#include "remoting/Engine.h"
#include "remoting/Profiles.h"
#include "serial/Archive.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace parcs;
using serial::Bytes;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON parser (objects, arrays, strings, numbers, bools, null).
// Just enough to validate exported traces and reports; throws nothing --
// parse failures surface as a null Value plus Ok=false.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  const JsonValue *field(const std::string &Name) const {
    auto It = Obj.find(Name);
    return It == Obj.end() ? nullptr : &It->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(std::string_view Text) : Text(Text) {}

  bool parse(JsonValue &Out) {
    bool Ok = value(Out);
    skipWs();
    return Ok && Pos == Text.size();
  }

private:
  std::string_view Text;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }
  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool value(JsonValue &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return string(Out.Str);
    }
    if (C == 't') {
      Out.K = JsonValue::Kind::Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = JsonValue::Kind::Bool;
      Out.B = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    }
    return number(Out);
  }

  bool string(std::string &Out) {
    if (!consume('"'))
      return false;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out.push_back(E);
          break;
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        default:
          return false; // No \u in our exports.
        }
      } else {
        Out.push_back(C);
      }
    }
    return Pos < Text.size() && Text[Pos++] == '"';
  }

  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out.K = JsonValue::Kind::Number;
    Out.Num = std::stod(std::string(Text.substr(Start, Pos - Start)));
    return true;
  }

  bool array(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    if (!consume('['))
      return false;
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      JsonValue Elem;
      if (!value(Elem))
        return false;
      Out.Arr.push_back(std::move(Elem));
      if (consume(','))
        continue;
      return consume(']');
    }
  }

  bool object(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    if (!consume('{'))
      return false;
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      std::string Key;
      if (!string(Key) || !consume(':'))
        return false;
      JsonValue Val;
      if (!value(Val))
        return false;
      Out.Obj.emplace(std::move(Key), std::move(Val));
      if (consume(','))
        continue;
      return consume('}');
    }
  }
};

//===----------------------------------------------------------------------===//
// Histogram edge cases.
//===----------------------------------------------------------------------===//

TEST(HistogramTest, EmptyReportsSentinel) {
  metrics::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  // No samples: every percentile is the documented sentinel, never a
  // fabricated 0.0 (which is a legal sample value).
  EXPECT_EQ(H.percentile(0), metrics::Histogram::EmptyPercentile);
  EXPECT_EQ(H.percentile(50), metrics::Histogram::EmptyPercentile);
  EXPECT_EQ(H.percentile(100), metrics::Histogram::EmptyPercentile);
  EXPECT_LT(metrics::Histogram::EmptyPercentile, 0.0)
      << "sentinel must be outside the clamped sample range";
  EXPECT_EQ(H.overflowCount(), 0u);
  EXPECT_NE(H.str().find("no samples"), std::string::npos);
}

TEST(HistogramTest, SingleSampleIsExactEverywhere) {
  metrics::Histogram H;
  H.record(777);
  for (double P : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(H.percentile(P), 777.0) << "P" << P;
  EXPECT_EQ(H.min(), 777);
  EXPECT_EQ(H.max(), 777);
}

TEST(HistogramTest, ZeroAndNegativeSamples) {
  metrics::Histogram H;
  H.record(0);
  H.record(-5); // Clamps to 0.
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.percentile(50), 0.0);
  EXPECT_EQ(H.percentile(100), 0.0);
}

TEST(HistogramTest, OverflowBucketClampsToObservedMax) {
  metrics::Histogram H;
  int64_t Huge = int64_t(1) << 50; // Far past the last finite bucket.
  H.record(Huge);
  H.record(Huge + 3);
  EXPECT_EQ(H.overflowCount(), 2u);
  // Interpolation inside the open-ended bucket must never report beyond
  // (or below) what was actually observed.
  EXPECT_GE(H.percentile(99), double(Huge));
  EXPECT_LE(H.percentile(99), double(Huge + 3));
  EXPECT_EQ(H.percentile(100), double(Huge + 3));
}

TEST(HistogramTest, PercentilesAreMonotonicAndBracketed) {
  metrics::Histogram H;
  for (int64_t I = 1; I <= 1000; ++I)
    H.record(I * 100);
  double Last = 0;
  for (double P : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double V = H.percentile(P);
    EXPECT_GE(V, Last) << "P" << P;
    EXPECT_GE(V, 100.0);
    EXPECT_LE(V, 100000.0);
    Last = V;
  }
  // p50 of a uniform 100..100000 spread lands mid-range (bucketed, so only
  // roughly).
  EXPECT_NEAR(H.percentile(50), 50000.0, 20000.0);
}

TEST(HistogramTest, BucketBoundaryValues) {
  metrics::Histogram H;
  // Exact powers of two sit on log2 bucket boundaries; make sure both the
  // count and the percentile clamp stay exact at the edges.
  for (int64_t V : {1, 2, 4, 1024, 1 << 20})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.percentile(0), 1.0);
  EXPECT_EQ(H.percentile(100), double(1 << 20));
  double P50 = H.percentile(50);
  EXPECT_GE(P50, 1.0);
  EXPECT_LE(P50, double(1 << 20));
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  // Merging two histograms must equal recording every sample into one --
  // the property the telemetry collector's cross-node merge relies on.
  metrics::Histogram A, B, Both;
  for (int64_t V : {5, 17, 300})
    A.record(V), Both.record(V);
  for (int64_t V : {2, 90000})
    B.record(V), Both.record(V);
  A.merge(B);
  EXPECT_EQ(A.count(), Both.count());
  EXPECT_EQ(A.min(), Both.min());
  EXPECT_EQ(A.max(), Both.max());
  EXPECT_EQ(A.sum(), Both.sum());
  EXPECT_EQ(A.mean(), Both.mean());
  for (double P : {0.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(A.percentile(P), Both.percentile(P)) << "P" << P;
  EXPECT_EQ(A.str(), Both.str());
  // Merging an empty histogram is the identity.
  metrics::Histogram Empty;
  A.merge(Empty);
  EXPECT_EQ(A.count(), Both.count());
  EXPECT_EQ(A.min(), Both.min());
  EXPECT_EQ(A.str(), Both.str());
}

TEST(HistogramTest, FromPartsRejectsInconsistentParts) {
  metrics::Histogram H;
  for (int64_t V : {3, 700, 701})
    H.record(V);
  auto Rebuild = [&](uint64_t N, int64_t Lo, int64_t Hi) {
    return metrics::Histogram::fromParts(H.buckets(), N, Lo, Hi, H.sum());
  };
  std::optional<metrics::Histogram> Same = Rebuild(3, 3, 701);
  ASSERT_TRUE(Same.has_value());
  EXPECT_EQ(Same->str(), H.str());
  EXPECT_FALSE(Rebuild(4, 3, 701)) << "count differs from bucket total";
  EXPECT_FALSE(Rebuild(3, 701, 3)) << "min above max";
  EXPECT_FALSE(Rebuild(3, -1, 701)) << "negative min";
  EXPECT_FALSE(Rebuild(3, 512, 701)) << "min outside its bucket";
  EXPECT_FALSE(Rebuild(3, 3, 1 << 20)) << "max outside its bucket";
  metrics::Histogram Empty;
  EXPECT_TRUE(metrics::Histogram::fromParts(Empty.buckets(), 0, 0, 0, 0));
  EXPECT_FALSE(metrics::Histogram::fromParts(Empty.buckets(), 0, 5, 5, 5));
}

//===----------------------------------------------------------------------===//
// Registry and reports.
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, FindOrCreateAndReport) {
  metrics::Registry Reg;
  Reg.counter("a.calls").add(3);
  Reg.counter("a.calls").add(2);
  Reg.gauge("a.depth").noteMax(7);
  Reg.gauge("a.depth").noteMax(4); // Lower: ignored.
  Reg.histogram("a.lat_ns").record(1000);
  EXPECT_EQ(Reg.size(), 3u);
  EXPECT_EQ(Reg.counter("a.calls").value(), 5u);
  EXPECT_EQ(Reg.gauge("a.depth").value(), 7);

  std::string Text = Reg.textReport();
  EXPECT_NE(Text.find("a.calls"), std::string::npos);
  EXPECT_NE(Text.find("5"), std::string::npos);
  EXPECT_NE(Text.find("a.depth"), std::string::npos);
  EXPECT_NE(Text.find("a.lat_ns"), std::string::npos);

  Reg.reset();
  EXPECT_EQ(Reg.size(), 0u);
}

TEST(MetricsRegistryTest, JsonReportParses) {
  metrics::Registry Reg;
  Reg.counter("x.count").add(42);
  Reg.gauge("x.level").set(-3);
  metrics::Histogram &H = Reg.histogram("x.lat");
  H.record(10);
  H.record(20);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(Reg.jsonReport()).parse(Root));
  ASSERT_EQ(Root.K, JsonValue::Kind::Object);

  const JsonValue *Counters = Root.field("counters");
  ASSERT_NE(Counters, nullptr);
  const JsonValue *Count = Counters->field("x.count");
  ASSERT_NE(Count, nullptr);
  EXPECT_EQ(Count->Num, 42.0);

  const JsonValue *Gauges = Root.field("gauges");
  ASSERT_NE(Gauges, nullptr);
  const JsonValue *Level = Gauges->field("x.level");
  ASSERT_NE(Level, nullptr);
  EXPECT_EQ(Level->Num, -3.0);

  const JsonValue *Hists = Root.field("histograms");
  ASSERT_NE(Hists, nullptr);
  const JsonValue *Lat = Hists->field("x.lat");
  ASSERT_NE(Lat, nullptr);
  const JsonValue *N = Lat->field("n");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Num, 2.0);
  EXPECT_NE(Lat->field("p50"), nullptr);
  EXPECT_NE(Lat->field("max"), nullptr);
}

TEST(MetricsRegistryTest, ReportBytesArePinned) {
  // The exact report bytes downstream tools parse: a counter, a gauge, an
  // empty histogram, and one with a non-integer mean and an overflow
  // sample.
  metrics::Registry Reg;
  Reg.counter("b.calls").add(7);
  Reg.gauge("a.depth").set(-2);
  Reg.histogram("d.empty");
  metrics::Histogram &H = Reg.histogram("c.lat_ns");
  for (int64_t V : {int64_t(0), int64_t(3), int64_t(1000), int64_t(1001),
                    int64_t(1) << 41})
    H.record(V);
  for (int64_t V : {1, 2, 2})
    Reg.histogram("e.small").record(V);
  EXPECT_EQ(Reg.jsonReport(),
            "{\n"
            "  \"counters\": {\n"
            "    \"b.calls\": 7\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"a.depth\": -2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"c.lat_ns\": {\"n\": 5, \"mean\": 4.39805e+11, \"min\": 0, "
            "\"p50\": 767.5, \"p90\": 1.75922e+12, \"p99\": 2.15504e+12, "
            "\"max\": 2.19902e+12, \"overflow\": 1},\n"
            "    \"d.empty\": {\"n\": 0, \"mean\": 0, \"min\": 0, \"p50\": -1, "
            "\"p90\": -1, \"p99\": -1, \"max\": 0, \"overflow\": 0},\n"
            "    \"e.small\": {\"n\": 3, \"mean\": 1.66667, \"min\": 1, "
            "\"p50\": 2, \"p90\": 2, \"p99\": 2, \"max\": 2, \"overflow\": 0}\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(Reg.textReport(),
            "a.depth   -2\n"
            "b.calls   7\n"
            "c.lat_ns  n=5 mean=439804651511.2 p50=768 p90=1759218604442 "
            "p99=2155042790441 max=2199023255552\n"
            "d.empty   n=0 (no samples)\n"
            "e.small   n=3 mean=1.7 p50=2 p90=2 p99=2 max=2\n");
}

TEST(MetricsRegistryTest, HandlesJoinTheReportOnFirstUpdate) {
  // Owners resolve handles for events that may never happen; only an
  // update lists them.  By-name lookups list at once, as before.
  metrics::Registry Reg;
  metrics::Counter &Rare = Reg.counterHandle("a.rare");
  metrics::Histogram &Lat = Reg.histogramHandle("a.lat");
  Reg.histogram("b.empty");
  EXPECT_EQ(Reg.textReport(), "b.empty  n=0 (no samples)\n");
  metrics::add(Rare, 0);
  metrics::record(Lat, 5);
  EXPECT_EQ(Reg.textReport(), "a.lat    n=1 mean=5.0 p50=5 p90=5 p99=5 max=5\n"
                              "a.rare   0\n"
                              "b.empty  n=0 (no samples)\n");
  EXPECT_EQ(&Reg.counter("a.rare"), &Rare) << "one instrument per name";
}

TEST(MetricsRegistryTest, TimedUpdateFeedsAnAttachedPlaneOnly) {
  // One timed update moves the instrument; while live windows are
  // attached it moves the node's open window by the same amount.
  metrics::Registry Reg;
  metrics::Histogram &Lat = Reg.histogramHandle("x.lat");
  metrics::Counter &Calls = Reg.counterHandle("x.calls");
  std::vector<std::pair<int, int64_t>> Armed;
  metrics::LiveWindows Live(2, 1000, [&](int Node, int64_t AtNs) {
    Armed.emplace_back(Node, AtNs);
  });

  metrics::record(Lat, 700, 1, 1500);
  metrics::add(Calls, 3, 1, 1500);
  EXPECT_EQ(Lat.count(), 1u);
  EXPECT_EQ(Lat.sum(), 700u);
  EXPECT_EQ(Calls.value(), 3u);
  EXPECT_TRUE(Armed.empty());
  EXPECT_TRUE(Live.takeClosed(1, 100).empty()) << "no plane attached";

  EXPECT_EQ(Reg.attach(&Live), nullptr);
  metrics::record(Lat, 900, 1, 2500);
  metrics::add(Calls, 4, 1, 2600);
  metrics::add(Calls, 1, 7, 2600); // No such node: registry only.
  EXPECT_EQ(Reg.attach(nullptr), &Live);
  EXPECT_EQ(Lat.count(), 2u);
  EXPECT_EQ(Lat.sum(), 1600u);
  EXPECT_EQ(Calls.value(), 8u);
  ASSERT_EQ(Armed.size(), 1u) << "the first update arms the node once";
  EXPECT_EQ(Armed[0], (std::pair<int, int64_t>(1, 2500)));

  std::vector<metrics::LiveWindows::Window> Closed = Live.takeClosed(1, 100);
  ASSERT_EQ(Closed.size(), 1u);
  EXPECT_EQ(Closed[0].Index, 2);
  EXPECT_FALSE(Live.armed(1)) << "nothing pending: the node parks";
  EXPECT_EQ(Live.columns(), (std::vector<std::string>{"x.lat", "x.calls"}))
      << "columns in order of first timed update";
  const metrics::LiveWindows::Slot &LatSlot = Closed[0].Slots.at(0);
  const metrics::LiveWindows::Slot &CallSlot = Closed[0].Slots.at(1);
  EXPECT_EQ(LatSlot.Hist.count(), 1u);
  EXPECT_EQ(LatSlot.Hist.sum(), 900u);
  EXPECT_EQ(CallSlot.Count, 4u);
  EXPECT_TRUE(Live.takeClosed(0, 100).empty());
}

//===----------------------------------------------------------------------===//
// Env-knob spec parsing.
//===----------------------------------------------------------------------===//

TEST(SpecParsingTest, MetricsSpec) {
  metrics::ReportSpec S;
  ASSERT_TRUE(metrics::parseMetricsSpec("run.metrics.json", S));
  EXPECT_EQ(S.Path, "run.metrics.json");
  EXPECT_TRUE(S.Json);

  ASSERT_TRUE(metrics::parseMetricsSpec("run.txt", S));
  EXPECT_EQ(S.Path, "run.txt");
  EXPECT_FALSE(S.Json);

  ASSERT_TRUE(metrics::parseMetricsSpec("plain,format=json", S));
  EXPECT_EQ(S.Path, "plain");
  EXPECT_TRUE(S.Json);

  ASSERT_TRUE(metrics::parseMetricsSpec("data.json,format=text", S));
  EXPECT_FALSE(S.Json);

  EXPECT_FALSE(metrics::parseMetricsSpec("", S));
  EXPECT_FALSE(metrics::parseMetricsSpec("x,format=xml", S));
}

TEST(SpecParsingTest, MetricsSpecNamesBadToken) {
  metrics::ReportSpec S;
  std::string Bad;
  EXPECT_FALSE(metrics::parseMetricsSpec("x,format=xml", S, &Bad));
  EXPECT_EQ(Bad, "format=xml");
  EXPECT_FALSE(metrics::parseMetricsSpec("", S, &Bad));
  EXPECT_EQ(Bad, "<empty path>");
  // A good spec must leave the out-param untouched.
  Bad = "sentinel";
  EXPECT_TRUE(metrics::parseMetricsSpec("run.json", S, &Bad));
  EXPECT_EQ(Bad, "sentinel");
}

TEST(SpecParsingTest, TraceSpec) {
  trace::TraceSpec S;
  ASSERT_TRUE(trace::parseTraceSpec("out.trace.json", S));
  EXPECT_EQ(S.Path, "out.trace.json");
  EXPECT_EQ(S.RingCapacity, size_t(1) << 16);

  ASSERT_TRUE(trace::parseTraceSpec("t.json,cap=1024", S));
  EXPECT_EQ(S.Path, "t.json");
  EXPECT_EQ(S.RingCapacity, 1024u);

  EXPECT_FALSE(trace::parseTraceSpec("", S));
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=0", S));
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=abc", S));
  EXPECT_FALSE(trace::parseTraceSpec("t.json,bogus=1", S));
}

TEST(SpecParsingTest, TraceSpecNamesBadToken) {
  trace::TraceSpec S;
  std::string Bad;
  EXPECT_FALSE(trace::parseTraceSpec("t.json,cap=abc", S, &Bad));
  EXPECT_EQ(Bad, "cap=abc");
  EXPECT_FALSE(trace::parseTraceSpec("t.json,bogus=1", S, &Bad));
  EXPECT_EQ(Bad, "bogus=1");
  EXPECT_FALSE(trace::parseTraceSpec("", S, &Bad));
  EXPECT_EQ(Bad, "<empty path>");
}

//===----------------------------------------------------------------------===//
// Log-prefix hooks (output formatting is visual; here we pin the
// save/restore contracts the Simulator and call sites rely on).
//===----------------------------------------------------------------------===//

TEST(LogContextTest, ClockAndNodeSaveRestore) {
  LogClock Prev = setLogClock(LogClock{});
  // Installing returns the previous clock; restoring round-trips.
  LogClock Mine;
  Mine.NowNs = [](void *) -> long long { return 42; };
  LogClock BeforeMine = setLogClock(Mine);
  EXPECT_EQ(BeforeMine.NowNs, nullptr);
  LogClock Restored = setLogClock(BeforeMine);
  EXPECT_EQ(Restored.NowNs, Mine.NowNs);

  EXPECT_EQ(setLogNode(3), -1);
  {
    LogNodeScope Scope(5);
    EXPECT_EQ(setLogNode(5), 5); // Peek: set returns previous.
  }
  EXPECT_EQ(setLogNode(-1), 3); // Scope restored the outer node.
  setLogClock(Prev);
}

//===----------------------------------------------------------------------===//
// Trace recorder: determinism and exported-JSON shape.
//===----------------------------------------------------------------------===//

class EchoServer : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_return Args;
  }
};

/// A small two-node RPC workload; every layer it crosses (kernel, network,
/// remoting) is instrumented, so with tracing on it produces spans on both
/// node pids plus counter samples.
void runTracedWorkload() {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  remoting::RpcEndpoint Client(
      Machines.node(0), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
  remoting::RpcEndpoint Server(
      Machines.node(1), Net,
      remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
  Server.publish("echo", std::make_shared<EchoServer>());

  struct Driver {
    static sim::Task<void> run(remoting::RpcEndpoint &Ep) {
      int WorkerTid = trace::track(0, "driver");
      for (int I = 0; I < 6; ++I) {
        int64_t Start = Ep.node().sim().now().nanosecondsCount();
        Bytes Args = serial::encodeValues(std::string(size_t(16 + I), 'q'));
        ErrorOr<Bytes> Reply = co_await Ep.call(1, 1050, "echo", "ping", Args);
        EXPECT_TRUE(Reply);
        trace::complete(0, WorkerTid, "driver.round", Start,
                        Ep.node().sim().now().nanosecondsCount() - Start);
      }
    }
  };
  Machines.sim().spawn(Driver::run(Client));
  Machines.sim().run();
}

/// RAII guard: every trace test leaves the global recorder exactly as it
/// found it (disabled + empty) so test order cannot matter.
struct TraceSession {
  TraceSession() {
    trace::reset();
    trace::setEnabled(true);
  }
  ~TraceSession() {
    trace::setEnabled(false);
    trace::reset();
  }
};

TEST(TraceTest, DisabledRecordsNothing) {
  trace::setEnabled(false);
  trace::reset();
  trace::complete(0, 0, "ignored", 0, 10);
  trace::instant(1, 0, "ignored", 5);
  trace::counter(-1, "ignored", 5, 1);
  EXPECT_EQ(trace::track(0, "ignored"), 0);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(trace::exportJson()).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_TRUE(Events->Arr.empty());
}

TEST(TraceTest, TwoIdenticalRunsExportIdenticalJson) {
  TraceSession Session;
  runTracedWorkload();
  std::string First = trace::exportJson();

  trace::reset();
  runTracedWorkload();
  std::string Second = trace::exportJson();

  EXPECT_FALSE(First.empty());
  // Byte-identical: virtual timestamps only, no wall-clock anywhere.
  EXPECT_EQ(First, Second);
}

TEST(TraceTest, ExportIsWellFormedChromeJson) {
  TraceSession Session;
  runTracedWorkload();

  JsonValue Root;
  ASSERT_TRUE(JsonParser(trace::exportJson()).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Kind::Array);
  ASSERT_FALSE(Events->Arr.empty());

  std::set<int> SpanPids;
  std::set<std::string> Phases;
  bool SawCounter = false, SawMetadata = false;
  for (const JsonValue &Ev : Events->Arr) {
    ASSERT_EQ(Ev.K, JsonValue::Kind::Object);
    const JsonValue *Ph = Ev.field("ph");
    const JsonValue *Pid = Ev.field("pid");
    const JsonValue *Name = Ev.field("name");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(Pid, nullptr);
    ASSERT_NE(Name, nullptr);
    EXPECT_GE(Pid->Num, 0.0);
    EXPECT_EQ(Pid->Num, double(int(Pid->Num))) << "pid must be integral";
    Phases.insert(Ph->Str);
    if (Ph->Str == "M") {
      SawMetadata = true;
      continue; // Metadata has args.name, not ts.
    }
    if (Ph->Str == "X" || Ph->Str == "i") {
      const JsonValue *Tid = Ev.field("tid");
      ASSERT_NE(Tid, nullptr);
      EXPECT_GE(Tid->Num, 0.0);
    }
    ASSERT_NE(Ev.field("ts"), nullptr);
    if (Ph->Str == "X") {
      EXPECT_NE(Ev.field("dur"), nullptr);
      SpanPids.insert(int(Pid->Num));
    }
    if (Ph->Str == "C")
      SawCounter = true;
  }
  // Spans from both simulated nodes: client rounds on pid 1 (node 0),
  // rpc.serve on pid 2 (node 1).
  EXPECT_GE(SpanPids.size(), 2u) << "expected spans from >= 2 node pids";
  EXPECT_TRUE(SawCounter) << "expected counter samples (net.in_flight)";
  EXPECT_TRUE(SawMetadata) << "expected process/thread name metadata";
  EXPECT_TRUE(Phases.count("b") && Phases.count("e"))
      << "expected async begin/end pairs (rpc.call / net.transfer)";
}

TEST(TraceTest, NamedTracksGetDistinctTids) {
  TraceSession Session;
  int T1 = trace::track(0, "lane-one");
  int T2 = trace::track(0, "lane-two");
  EXPECT_GT(T1, 0);
  EXPECT_GT(T2, 0);
  EXPECT_NE(T1, T2);
  trace::complete(0, T1, "on-one", 100, 50);
  trace::complete(0, T2, "on-two", 100, 50);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(trace::exportJson()).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  std::set<int> Tids;
  int NamedTracks = 0;
  for (const JsonValue &Ev : Events->Arr) {
    const JsonValue *Ph = Ev.field("ph");
    ASSERT_NE(Ph, nullptr);
    if (Ph->Str == "X") {
      const JsonValue *Tid = Ev.field("tid");
      ASSERT_NE(Tid, nullptr);
      Tids.insert(int(Tid->Num));
    }
    if (Ph->Str == "M" && Ev.field("name")->Str == "thread_name")
      ++NamedTracks;
  }
  EXPECT_EQ(Tids.size(), 2u);
  EXPECT_GE(NamedTracks, 2);
}

TEST(TraceTest, RingOverwritesOldestAndKeepsExportValid) {
  trace::reset();
  trace::setRingCapacity(8);
  trace::setEnabled(true);
  for (int I = 0; I < 40; ++I)
    trace::instant(0, 0, "tick", I * 10);
  std::string Json = trace::exportJson();
  trace::setEnabled(false);
  trace::reset();
  trace::setRingCapacity(size_t(1) << 16); // Restore the default.

  JsonValue Root;
  ASSERT_TRUE(JsonParser(Json).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int Instants = 0;
  double FirstTs = -1;
  for (const JsonValue &Ev : Events->Arr)
    if (Ev.field("ph")->Str == "i") {
      if (Instants == 0)
        FirstTs = Ev.field("ts")->Num;
      ++Instants;
    }
  // Only the 8 newest survive, oldest-first: 32*10ns..39*10ns.
  EXPECT_EQ(Instants, 8);
  EXPECT_EQ(FirstTs, 0.320); // 320 ns as microseconds.
}

TEST(TraceTest, RingWrapMidSpanMarksTruncated) {
  trace::reset();
  trace::setRingCapacity(8);
  trace::setEnabled(true);
  // The begin is evicted by the wrap; its end survives.  The exporter must
  // mark the surviving half as truncated instead of letting a viewer show
  // a span of unknown extent.
  trace::asyncBegin(0, "span.lost_begin", 100, 1);
  for (int I = 0; I < 10; ++I)
    trace::instant(0, 0, "filler", 200 + I * 10);
  trace::asyncEnd(0, "span.lost_begin", 400, 1);
  // A fully-inside pair for contrast: must NOT be marked.
  trace::asyncBegin(0, "span.whole", 500, 2);
  trace::asyncEnd(0, "span.whole", 510, 2);
  std::string Json = trace::exportJson();
  trace::setEnabled(false);
  trace::reset();
  trace::setRingCapacity(size_t(1) << 16);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(Json).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int TruncatedEnds = 0, CleanPairs = 0;
  for (const JsonValue &Ev : Events->Arr) {
    const JsonValue *Ph = Ev.field("ph");
    if (Ph->Str != "b" && Ph->Str != "e")
      continue;
    const JsonValue *Args = Ev.field("args");
    bool Truncated = Args && Args->field("truncated") &&
                     Args->field("truncated")->B;
    if (Ev.field("name")->Str == "span.lost_begin") {
      EXPECT_EQ(Ph->Str, "e") << "the begin should have been evicted";
      EXPECT_TRUE(Truncated);
      ++TruncatedEnds;
    }
    if (Ev.field("name")->Str == "span.whole") {
      EXPECT_FALSE(Truncated);
      ++CleanPairs;
    }
  }
  EXPECT_EQ(TruncatedEnds, 1);
  EXPECT_EQ(CleanPairs, 2);
}

TEST(TraceTest, CrossNodeAsyncIdsDoNotMerge) {
  TraceSession Session;
  // Two nodes using the same local async id for unrelated spans: the
  // export must scope ids by pid so a viewer (or parcs-prof) never joins
  // them into one span.
  trace::asyncBegin(0, "work", 100, 42);
  trace::asyncBegin(1, "work", 110, 42);
  trace::asyncEnd(0, "work", 200, 42);
  trace::asyncEnd(1, "work", 300, 42);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(trace::exportJson()).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  std::set<std::string> Ids;
  std::map<std::string, std::set<double>> PidsById;
  for (const JsonValue &Ev : Events->Arr) {
    const JsonValue *Ph = Ev.field("ph");
    if (Ph->Str != "b" && Ph->Str != "e")
      continue;
    const JsonValue *Id = Ev.field("id");
    ASSERT_NE(Id, nullptr);
    ASSERT_EQ(Id->K, JsonValue::Kind::String);
    Ids.insert(Id->Str);
    PidsById[Id->Str].insert(Ev.field("pid")->Num);
  }
  EXPECT_EQ(Ids.size(), 2u) << "same local id on two nodes must stay distinct";
  for (const auto &[Id, Pids] : PidsById)
    EXPECT_EQ(Pids.size(), 1u) << "exported id " << Id << " spans pids";
}

TEST(TraceTest, CausalContextRidesInArgs) {
  TraceSession Session;
  uint64_t Parent = trace::mintCausalId();
  uint64_t Child = trace::mintCausalId();
  ASSERT_NE(Parent, 0u);
  ASSERT_NE(Child, Parent);
  trace::completeCtx(0, 0, "step", 100, 50, Child, Parent);
  trace::instantCtx(0, 0, "mark", 160, Child, 0);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(trace::exportJson()).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int CtxEvents = 0;
  for (const JsonValue &Ev : Events->Arr) {
    const JsonValue *Args = Ev.field("args");
    if (!Args || !Args->field("ctx"))
      continue;
    ++CtxEvents;
    if (Ev.field("name")->Str == "step") {
      EXPECT_EQ(Args->field("ctx")->Num, double(Child));
      ASSERT_NE(Args->field("parent"), nullptr);
      EXPECT_EQ(Args->field("parent")->Num, double(Parent));
    }
    if (Ev.field("name")->Str == "mark") {
      EXPECT_EQ(Args->field("ctx")->Num, double(Child));
      EXPECT_EQ(Args->field("parent"), nullptr) << "parent 0 is omitted";
    }
  }
  EXPECT_EQ(CtxEvents, 2);
}

TEST(TraceTest, HandoffSlotIsOneShot) {
  TraceSession Session;
  trace::handoff(77);
  EXPECT_EQ(trace::takeHandoff(), 77u);
  EXPECT_EQ(trace::takeHandoff(), 0u) << "take must clear the slot";
}

TEST(TraceTest, FlightModeKeepsBoundedTailWithoutMintingIds) {
  trace::reset();
  trace::setFlightCapacity(8);
  trace::setFlightRecording(true);
  // Flight-only mode must not mint causal ids: the wire bytes of an RPC
  // run with the recorder shadowing must match an uninstrumented run.
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(trace::mintCausalId(), 0u);
  for (int I = 0; I < 40; ++I)
    trace::instant(0, 0, "tick", I * 10);
  std::string Flight = trace::exportFlightJson();
  std::string Full = trace::exportJson();
  trace::setFlightRecording(false);
  trace::reset();
  trace::setFlightCapacity(512);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(Flight).parse(Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  int Instants = 0;
  for (const JsonValue &Ev : Events->Arr)
    if (Ev.field("ph")->Str == "i")
      ++Instants;
  EXPECT_EQ(Instants, 8) << "flight ring must keep only the recent tail";

  // The big rings were off: the full-trace export saw nothing.
  JsonValue FullRoot;
  ASSERT_TRUE(JsonParser(Full).parse(FullRoot));
  EXPECT_TRUE(FullRoot.field("traceEvents")->Arr.empty());
}

TEST(TraceTest, FlightTailMatchesFullTraceSuffix) {
  // With both modes on, the flight ring is exactly the tail of the full
  // trace -- the property the crash-dump acceptance check rests on.
  trace::reset();
  trace::setFlightCapacity(4);
  trace::setEnabled(true);
  trace::setFlightRecording(true);
  for (int I = 0; I < 20; ++I)
    trace::instant(0, 0, "tick", I * 10);
  std::string Flight = trace::exportFlightJson();
  std::string Full = trace::exportJson();
  trace::setFlightRecording(false);
  trace::setEnabled(false);
  trace::reset();
  trace::setFlightCapacity(512);

  JsonValue FlightRoot, FullRoot;
  ASSERT_TRUE(JsonParser(Flight).parse(FlightRoot));
  ASSERT_TRUE(JsonParser(Full).parse(FullRoot));
  std::vector<double> FlightTs, FullTs;
  for (const JsonValue &Ev : FlightRoot.field("traceEvents")->Arr)
    if (Ev.field("ph")->Str == "i")
      FlightTs.push_back(Ev.field("ts")->Num);
  for (const JsonValue &Ev : FullRoot.field("traceEvents")->Arr)
    if (Ev.field("ph")->Str == "i")
      FullTs.push_back(Ev.field("ts")->Num);
  ASSERT_EQ(FlightTs.size(), 4u);
  ASSERT_EQ(FullTs.size(), 20u);
  EXPECT_TRUE(std::equal(FlightTs.begin(), FlightTs.end(),
                         FullTs.end() - 4))
      << "flight ring must be the suffix of the full trace";
}

} // namespace
