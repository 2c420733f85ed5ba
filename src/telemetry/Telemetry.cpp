//===- telemetry/Telemetry.cpp - In-band cluster telemetry plane ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "serial/Archive.h"
#include "support/EnvSpec.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace parcs::telemetry {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

bool parseTelemetrySpec(std::string_view SpecText, TelemetrySpec &Out,
                        std::string *BadToken) {
  std::string_view Path;
  std::vector<envspec::Option> Opts;
  if (!envspec::split(SpecText, Path, Opts, BadToken))
    return false;
  auto Fail = [&](std::string_view Token) {
    if (BadToken)
      *BadToken = std::string(Token);
    return false;
  };
  TelemetrySpec Spec;
  Spec.Path = std::string(Path);
  for (const envspec::Option &O : Opts) {
    uint64_t N = 0;
    if (O.Key == "window") {
      if (!envspec::parseDurationNs(O.Value, Spec.WindowNs) ||
          Spec.WindowNs <= 0)
        return Fail(O.Token);
    } else if (O.Key == "collector") {
      if (!envspec::parseUint(O.Value, N) ||
          N > uint64_t(std::numeric_limits<int>::max()))
        return Fail(O.Token);
      Spec.CollectorNode = int(N);
    } else if (O.Key == "port") {
      if (!envspec::parseUint(O.Value, N) || N == 0 || N > 65535)
        return Fail(O.Token);
      Spec.Port = int(N);
    } else if (O.Key == "model") {
      if (O.Value.empty())
        return Fail(O.Token);
      Spec.ModelPath = std::string(O.Value);
    } else if (O.Key == "slo") {
      std::string BadSlo;
      if (!parseSloSpecs(O.Value, Spec.Slos, &BadSlo))
        return Fail(O.Token);
    } else {
      return Fail(O.Token);
    }
  }
  Out = std::move(Spec);
  return true;
}

bool envTelemetrySpec(TelemetrySpec &Out, int Nodes) {
  const char *Env = std::getenv("PARCS_TELEMETRY");
  if (!Env)
    return false;
  std::string BadToken;
  std::string Why;
  TelemetrySpec Spec;
  if (parseTelemetrySpec(Env, Spec, &BadToken)) {
    if (Spec.CollectorNode < Nodes) {
      Out = std::move(Spec);
      return true;
    }
    BadToken = "collector=" + std::to_string(Spec.CollectorNode);
    Why = " (the cluster has " + std::to_string(Nodes) + " nodes)";
  }
  std::fprintf(stderr,
               "[parcs:telemetry] ignoring malformed PARCS_TELEMETRY "
               "\"%s\": bad token \"%s\"%s\n",
               Env, BadToken.c_str(), Why.c_str());
  return false;
}

//===----------------------------------------------------------------------===//
// Plane lifecycle
//===----------------------------------------------------------------------===//

Plane::Plane(net::Network &Net, TelemetrySpec S)
    : Spec(std::move(S)), Net(Net),
      Live(Net.nodeCount(), Spec.WindowNs,
           [this](int Node, int64_t AtNs) { arm(Node, AtNs); }) {
  assert(Spec.WindowNs > 0 && "telemetry window must be positive");
  int Nodes = Net.nodeCount();
  assert(Spec.CollectorNode >= 0 && Spec.CollectorNode < Nodes &&
         "collector node out of range");
  NextSeq.assign(size_t(Nodes), 1);
  LastHeartbeatNs.assign(size_t(Nodes), -1);
  Slos.reserve(Spec.Slos.size());
  for (const SloSpec &S : Spec.Slos) {
    SloState St;
    St.Spec = S;
    St.SpanWindows =
        std::max<int64_t>(1, (S.WindowNs + Spec.WindowNs - 1) / Spec.WindowNs);
    Slos.push_back(std::move(St));
  }
  sim::Channel<net::Message> &Chan = Net.bind(Spec.CollectorNode, Spec.Port);
  Net.sim().spawn(collectorLoop(Chan));
  PrevLive = metrics::Registry::global().attach(&Live);
}

Plane::~Plane() {
  metrics::Registry::global().attach(PrevLive);
  finish();
}

//===----------------------------------------------------------------------===//
// Agent side (per-node heartbeats)
//===----------------------------------------------------------------------===//

void Plane::arm(int Node, int64_t AtNs) {
  // Heartbeats stay on the window grid, so two runs that record at the
  // same sim-times flush at the same sim-times whatever the interleaving.
  int64_t T = (std::max<int64_t>(0, AtNs) / Spec.WindowNs + 1) * Spec.WindowNs;
  Net.sim().scheduleAt(sim::SimTime::nanoseconds(T),
                       [this, Node, T] { heartbeat(Node, T); });
}

void Plane::heartbeat(int Node, int64_t NowNs) {
  // Windows whose end lies at or before NowNs are complete: nothing on
  // this node can record into them anymore (sample times never exceed the
  // node's own now).  Nothing left brewing parks the agent until its next
  // timed update; a partial window keeps it armed so its data ships next
  // flush and run() still terminates (bounded flushes after the last
  // record).
  std::vector<metrics::LiveWindows::Window> Closed =
      Live.takeClosed(Node, NowNs / Spec.WindowNs);
  bool Armed = Live.armed(Node);
  if (Armed) {
    int64_t T = NowNs + Spec.WindowNs;
    Net.sim().scheduleAt(sim::SimTime::nanoseconds(T),
                         [this, Node, T] { heartbeat(Node, T); });
  }

  serial::OutputArchive Ar;
  Ar.write(int32_t(Node));
  Ar.write(uint64_t(NextSeq[size_t(Node)]++));
  Ar.write(int64_t(NowNs));
  Ar.write(uint8_t(Armed ? 0 : 1)); // Parked after this heartbeat.
  Ar.write(uint32_t(Closed.size()));
  // Series ship in name order.
  const std::vector<std::string> &Names = Live.columns();
  std::vector<size_t> ByName(Names.size());
  std::iota(ByName.begin(), ByName.end(), size_t(0));
  std::sort(ByName.begin(), ByName.end(),
            [&](size_t A, size_t B) { return Names[A] < Names[B]; });
  for (const metrics::LiveWindows::Window &W : Closed) {
    Ar.write(int64_t(W.Index));
    auto Touched = [&](size_t Col) {
      return Col < W.Slots.size() && W.Slots[Col].Touched;
    };
    Ar.write(uint32_t(std::count_if(ByName.begin(), ByName.end(), Touched)));
    for (size_t Col : ByName) {
      if (!Touched(Col))
        continue;
      const metrics::LiveWindows::Slot &D = W.Slots[Col];
      Ar.write(Names[Col]);
      Ar.write(uint64_t(D.Count));
      Ar.write(uint8_t(D.Hist.count() != 0));
      if (D.Hist.count() != 0) {
        for (uint64_t B : D.Hist.buckets())
          Ar.write(B);
        Ar.write(D.Hist.count());
        Ar.write(D.Hist.min());
        Ar.write(D.Hist.max());
        Ar.write(D.Hist.sum());
      }
    }
  }
  // Ordinary framed traffic: pays wire time, competes with the workload,
  // and is subject to the fault plan like any other message.
  Net.send(Node, Spec.CollectorNode, Spec.Port, Ar.take());
}

//===----------------------------------------------------------------------===//
// Collector side
//===----------------------------------------------------------------------===//

sim::Task<void> Plane::collectorLoop(sim::Channel<net::Message> &Chan) {
  for (;;) {
    net::Message Msg = co_await Chan.recv();
    onSnapshot(Msg);
  }
}

void Plane::onSnapshot(const net::Message &Msg) {
  // In-band snapshots carry no CRC and fault plans flip payload bits, so
  // the whole snapshot is decoded and checked before any of it merges.
  // Its heartbeat was sent at NowNs and ships only windows closed by then:
  // a snapshot from the future, or holding a window at or past NowNs, is
  // corrupt -- merged, a flipped high window bit would make finish()
  // finalize ~2^k windows, and a flipped NowNs would mark the node's
  // genuine later data late.
  serial::InputArchive Ar(Msg.Payload);
  int32_t Node = -1;
  uint64_t Seq = 0;
  int64_t NowNs = 0;
  uint8_t ParkedFlag = 0;
  uint32_t NumWindows = 0;
  Ar.read(Node);
  Ar.read(Seq);
  Ar.read(NowNs);
  Ar.read(ParkedFlag);
  Ar.read(NumWindows);
  bool Ok = Ar.ok() && Node >= 0 && Node < int(NextSeq.size()) &&
            NowNs >= 0 && NowNs <= Net.sim().now().nanosecondsCount();
  int64_t SentWindow = NowNs / Spec.WindowNs;
  struct Entry {
    int64_t Window;
    std::string Name;
    SeriesDelta D;
  };
  std::vector<Entry> Entries;
  for (uint32_t W = 0; Ok && W < NumWindows; ++W) {
    int64_t Window = 0;
    uint32_t NumSeries = 0;
    Ar.read(Window);
    Ar.read(NumSeries);
    Ok = Ar.ok() && Window >= 0 && Window < SentWindow;
    for (uint32_t S = 0; Ok && S < NumSeries; ++S) {
      Entry E{Window, {}, {}};
      uint8_t HasHist = 0;
      Ar.read(E.Name);
      Ar.read(E.D.Count);
      Ar.read(HasHist);
      if (HasHist) {
        uint64_t Buckets[metrics::Histogram::NumBuckets] = {};
        uint64_t Count = 0, Sum = 0;
        int64_t Min = 0, Max = 0;
        for (uint64_t &B : Buckets)
          Ar.read(B);
        Ar.read(Count);
        Ar.read(Min);
        Ar.read(Max);
        Ar.read(Sum);
        std::optional<metrics::Histogram> H =
            metrics::Histogram::fromParts(Buckets, Count, Min, Max, Sum);
        Ok = H.has_value();
        if (Ok)
          E.D.Hist = *H;
      }
      Ok = Ok && Ar.ok();
      if (Ok)
        Entries.push_back(std::move(E));
    }
  }
  if (!Ok || !Ar.atEnd()) {
    ++CorruptSnapshots;
    return;
  }
  for (Entry &E : Entries) {
    if (E.Window < FirstOpenWindow) {
      // History already judged by the SLO engine; late data may not
      // rewrite it.  Counted so chaos runs can see the loss.
      ++LateWindows;
      continue;
    }
    Merged[std::move(E.Name)].try_emplace(E.Window).first->second.merge(E.D);
  }
  ++SnapshotsReceived;
  // ParkedFlag rides in the snapshot for post-mortem inspection but does
  // not steer the frontier: parked or not, the heartbeat time alone bounds
  // what the node can still ship.
  (void)ParkedFlag;
  LastHeartbeatNs[size_t(Node)] =
      std::max(LastHeartbeatNs[size_t(Node)], NowNs);
  advanceFrontier();
}

void Plane::advanceFrontier() {
  // Conservative frontier: an *arrived* heartbeat at time H
  // promises that everything the node will ever ship for windows below
  // window(H) has already arrived (parked or armed, its later data lands
  // at or after H).  A node never heard from promises nothing -- it may
  // have a first snapshot in flight right now -- so it pins the frontier
  // at zero and its windows are finalized, still deterministically, by
  // finish().  This is what makes the merge immune to arrival
  // interleaving: data can only be "late" once its own node's later
  // heartbeat has landed.
  int64_t Frontier = std::numeric_limits<int64_t>::max();
  for (int64_t H : LastHeartbeatNs)
    Frontier = std::min(Frontier, std::max<int64_t>(H, 0));
  if (LastHeartbeatNs.empty())
    return;
  finalizeThrough(Frontier / Spec.WindowNs);
}

void Plane::finalizeThrough(int64_t NewFirstOpen) {
  for (int64_t W = FirstOpenWindow; W < NewFirstOpen; ++W)
    evaluateSlos(W);
  FirstOpenWindow = std::max(FirstOpenWindow, NewFirstOpen);
}

void Plane::evaluateSlos(int64_t Window) {
  if (Slos.empty())
    return;
  int64_t EndNs = (Window + 1) * Spec.WindowNs;
  for (SloState &S : Slos) {
    auto SeriesIt = Merged.find(S.Spec.Series);
    metrics::Histogram Fast, Slow;
    if (SeriesIt != Merged.end()) {
      auto &Windows = SeriesIt->second;
      for (int64_t W = Window - S.SpanWindows + 1; W <= Window; ++W) {
        auto It = Windows.find(W);
        if (It == Windows.end())
          continue;
        Slow.merge(It->second.Hist);
        if (W == Window)
          Fast.merge(It->second.Hist);
      }
    }
    double FastP = Fast.percentile(S.Spec.Percentile);
    double SlowP = Slow.percentile(S.Spec.Percentile);
    bool FastViolated = FastP > double(S.Spec.ThresholdNs);
    bool SlowViolated = SlowP > double(S.Spec.ThresholdNs);
    if (FastViolated)
      ++S.FastBurnWindows;
    if (SlowViolated)
      ++S.SlowBurnWindows;
    if (SlowViolated != S.InBreach) {
      S.InBreach = SlowViolated;
      trace::instant(Spec.CollectorNode, 0,
                     SlowViolated ? "slo.breach" : "slo.recover", EndNs);
      S.Edges.push_back({Window, EndNs, SlowViolated});
      // Control-plane hook: live edges only.  Edges discovered by the
      // teardown finish() pass are history -- nothing can act on them.
      if (EdgeCallback && !Finished)
        EdgeCallback(S.Spec, SlowViolated, EndNs);
    }
  }
}

//===----------------------------------------------------------------------===//
// Teardown: fold stragglers, finalize, export
//===----------------------------------------------------------------------===//

void Plane::finish() {
  if (Finished)
    return;
  Finished = true;

  // Whatever the agents still hold never made it onto the wire (the run
  // ended first).  Fold it serially in node order -- commutative merges,
  // so this is byte-identical to having shipped it.
  for (int Node = 0; Node < int(NextSeq.size()); ++Node) {
    for (const metrics::LiveWindows::Window &W :
         Live.takeClosed(Node, std::numeric_limits<int64_t>::max())) {
      for (size_t Col = 0; Col < W.Slots.size(); ++Col) {
        const metrics::LiveWindows::Slot &S = W.Slots[Col];
        if (!S.Touched)
          continue;
        if (W.Index < FirstOpenWindow) {
          ++LateWindows;
          continue;
        }
        Merged[Live.columns()[Col]][W.Index].merge(S);
      }
    }
  }

  int64_t MaxOpen = FirstOpenWindow;
  for (const auto &[Name, Windows] : Merged)
    if (!Windows.empty())
      MaxOpen = std::max(MaxOpen, Windows.rbegin()->first + 1);
  finalizeThrough(MaxOpen);

  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("telemetry.snapshots").add(SnapshotsReceived);
  Reg.counter("telemetry.late_windows").add(LateWindows);
  Reg.counter("telemetry.corrupt_snapshots").add(CorruptSnapshots);
  for (const SloState &S : Slos) {
    Reg.counter("slo.fast_burn_windows").add(S.FastBurnWindows);
    Reg.counter("slo.slow_burn_windows").add(S.SlowBurnWindows);
    uint64_t Breaches = 0;
    for (const SloState::Edge &E : S.Edges)
      Breaches += E.Breach ? 1 : 0;
    Reg.counter("slo.breaches").add(Breaches);
  }

  auto WriteFile = [](const std::string &Path, const std::string &Body) {
    if (!json::writeFile(Path, Body))
      std::fprintf(stderr, "[parcs:telemetry] cannot write %s\n",
                   Path.c_str());
  };
  if (!Spec.Path.empty())
    WriteFile(Spec.Path, exportJson());
  if (!Spec.ModelPath.empty())
    WriteFile(Spec.ModelPath, modelPointsJson());
}

std::string Plane::exportJson() {
  finish();
  std::string Out = "{\n  \"window_ns\": ";
  Out += std::to_string(Spec.WindowNs);
  Out += ",\n  \"nodes\": ";
  Out += std::to_string(int64_t(NextSeq.size()));
  Out += ",\n  \"snapshots\": ";
  Out += std::to_string(int64_t(SnapshotsReceived));
  Out += ",\n  \"late_windows\": ";
  Out += std::to_string(int64_t(LateWindows));
  Out += ",\n  \"corrupt_snapshots\": ";
  Out += std::to_string(int64_t(CorruptSnapshots));

  Out += ",\n  \"series\": {";
  bool FirstSeries = true;
  for (const auto &[Name, Windows] : Merged) {
    Out += FirstSeries ? "\n    " : ",\n    ";
    FirstSeries = false;
    json::appendString(Out, Name);
    bool IsHist = false;
    for (const auto &[W, D] : Windows)
      if (D.Hist.count() != 0)
        IsHist = true;
    Out += IsHist ? ": {\"kind\": \"histogram\", \"windows\": ["
                  : ": {\"kind\": \"counter\", \"windows\": [";
    bool FirstWin = true;
    for (const auto &[W, D] : Windows) {
      Out += FirstWin ? "\n      " : ",\n      ";
      FirstWin = false;
      Out += "{\"w\": ";
      Out += std::to_string(W);
      Out += ", \"start_ns\": ";
      Out += std::to_string(W * Spec.WindowNs);
      if (IsHist) {
        Out += ", \"n\": ";
        Out += std::to_string(int64_t(D.Hist.count()));
        Out += ", \"mean\": ";
        json::appendNumber(Out, D.Hist.mean());
        Out += ", \"min\": ";
        Out += std::to_string(D.Hist.min());
        Out += ", \"max\": ";
        Out += std::to_string(D.Hist.max());
        Out += ", \"p50\": ";
        json::appendNumber(Out, D.Hist.percentile(50));
        Out += ", \"p90\": ";
        json::appendNumber(Out, D.Hist.percentile(90));
        Out += ", \"p99\": ";
        json::appendNumber(Out, D.Hist.percentile(99));
        Out += ", \"p999\": ";
        json::appendNumber(Out, D.Hist.percentile(99.9));
      } else {
        Out += ", \"n\": ";
        Out += std::to_string(int64_t(D.Count));
      }
      Out += '}';
    }
    Out += "\n    ]}";
  }
  Out += "\n  }";

  Out += ",\n  \"slos\": [";
  bool FirstSlo = true;
  for (const SloState &S : Slos) {
    Out += FirstSlo ? "\n    " : ",\n    ";
    FirstSlo = false;
    Out += "{\"spec\": ";
    json::appendString(Out, S.Spec.Text);
    Out += ", \"series\": ";
    json::appendString(Out, S.Spec.Series);
    Out += ", \"percentile\": ";
    json::appendNumber(Out, S.Spec.Percentile);
    Out += ", \"threshold_ns\": ";
    Out += std::to_string(S.Spec.ThresholdNs);
    Out += ", \"window_ns\": ";
    Out += std::to_string(S.SpanWindows * Spec.WindowNs);
    Out += ", \"fast_burn_windows\": ";
    Out += std::to_string(int64_t(S.FastBurnWindows));
    Out += ", \"slow_burn_windows\": ";
    Out += std::to_string(int64_t(S.SlowBurnWindows));
    Out += ", \"events\": [";
    bool FirstEdge = true;
    for (const SloState::Edge &E : S.Edges) {
      Out += FirstEdge ? "" : ", ";
      FirstEdge = false;
      Out += "{\"window\": ";
      Out += std::to_string(E.Window);
      Out += ", \"at_ns\": ";
      Out += std::to_string(E.AtNs);
      Out += E.Breach ? ", \"kind\": \"breach\"}" : ", \"kind\": \"recover\"}";
    }
    Out += "]}";
  }
  Out += "\n  ]\n}\n";
  return Out;
}

std::string Plane::modelPointsJson() {
  finish();
  // The run's extent: the last merged window bounds when anything was
  // recorded.  Rates divide by it, so two runs of different lengths at
  // the same throughput model the same.
  int64_t SpanWindows = 0;
  for (const auto &[Name, Windows] : Merged)
    if (!Windows.empty())
      SpanWindows = std::max(SpanWindows, Windows.rbegin()->first + 1);
  double SpanS = double(SpanWindows) * double(Spec.WindowNs) / 1e9;

  std::string Out = "{\n  \"parcs_sweep\": 1,\n  \"bench\": "
                    "\"telemetry\",\n  \"machine\": \"\",\n  \"points\": [\n"
                    "    {\"params\": {\"nodes\": ";
  Out += std::to_string(int64_t(NextSeq.size()));
  Out += "}, \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Windows] : Merged) {
    // Whole-run exact summary: merge every window's buckets, then take
    // percentiles -- no window-average approximation.
    metrics::Histogram Hist;
    uint64_t Count = 0;
    for (const auto &[W, D] : Windows) {
      Hist.merge(D.Hist);
      Count += D.Count;
    }
    uint64_t N = Hist.count() ? Hist.count() : Count;
    if (N == 0)
      continue;
    auto Metric = [&](const std::string &Suffix, double V) {
      Out += First ? "\n      " : ",\n      ";
      First = false;
      json::appendString(Out, Name + Suffix);
      Out += ": ";
      json::appendNumber(Out, V);
    };
    Metric(".n", double(N));
    if (SpanS > 0)
      Metric(".rate_per_s", double(N) / SpanS);
    if (Hist.count() != 0) {
      Metric(".p50", Hist.percentile(50));
      Metric(".p99", Hist.percentile(99));
      Metric(".p999", Hist.percentile(99.9));
      Metric(".mean", Hist.mean());
    }
  }
  Out += "\n    }}\n  ]\n}\n";
  return Out;
}

} // namespace parcs::telemetry
