//===- prof/Prof.cpp - Causal critical-path analyzer ----------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "prof/Prof.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

using namespace parcs;
using namespace parcs::prof;

const char *parcs::prof::segClassName(SegClass C) {
  switch (C) {
  case SegClass::Compute:
    return "compute";
  case SegClass::Serialize:
    return "serialize";
  case SegClass::SendQueue:
    return "send-queue";
  case SegClass::Wire:
    return "wire";
  case SegClass::Deserialize:
    return "deserialize";
  case SegClass::DispatchQueue:
    return "dispatch-queue";
  case SegClass::Execute:
    return "execute";
  }
  return "compute";
}

SegClass parcs::prof::classify(const std::string &Name) {
  // The span taxonomy the runtime emits (docs/observability.md).  rpc.send
  // covers marshalling + envelope framing + the per-side stack charge on
  // the sending side; rpc.unmarshal / rpc.reply_recv are the receiving
  // mirror images.
  if (Name == "rpc.send")
    return SegClass::Serialize;
  if (Name == "net.queue")
    return SegClass::SendQueue;
  if (Name == "net.wire")
    return SegClass::Wire;
  if (Name == "rpc.unmarshal" || Name == "rpc.reply_recv")
    return SegClass::Deserialize;
  if (Name == "rpc.dispatch_queue")
    return SegClass::DispatchQueue;
  if (Name == "scoopp.execute")
    return SegClass::Execute;
  return SegClass::Compute;
}

namespace {

/// ts/dur are exported as microseconds with ns resolution in the
/// fraction; recover exact nanoseconds.
int64_t tsToNs(double TsUs) { return llround(TsUs * 1000.0); }

/// One event pulled out of the JSON before DAG assembly.
struct RawEvent {
  std::string Name;
  std::string Ph;
  std::string Id; // Async pair key (already pid-scoped by the exporter).
  int Pid = 0;
  int64_t TsNs = 0;
  int64_t DurNs = 0;
  uint64_t Ctx = 0;
  uint64_t Parent = 0;
  bool Truncated = false;
};

} // namespace

ErrorOr<TraceData> parcs::prof::loadTrace(std::string_view Json) {
  json::Value Root;
  if (!json::parse(Json, Root) || !Root.isObject())
    return Error(ErrorCode::MalformedMessage, "trace is not valid JSON");
  const json::Value *Events = Root.field("traceEvents");
  if (!Events || !Events->isArray())
    return Error(ErrorCode::MalformedMessage, "trace has no traceEvents");

  std::vector<RawEvent> Raw;
  Raw.reserve(Events->Arr.size());
  for (const json::Value &Ev : Events->Arr) {
    if (!Ev.isObject())
      return Error(ErrorCode::MalformedMessage, "traceEvents entry not object");
    const json::Value *Ph = Ev.field("ph");
    const json::Value *Name = Ev.field("name");
    if (!Ph || !Name)
      return Error(ErrorCode::MalformedMessage, "event missing ph/name");
    if (Ph->Str == "M" || Ph->Str == "C")
      continue; // Metadata and counters carry no causality.
    RawEvent R;
    R.Name = Name->Str;
    R.Ph = Ph->Str;
    if (const json::Value *Pid = Ev.field("pid"))
      R.Pid = static_cast<int>(Pid->Num);
    if (const json::Value *Ts = Ev.field("ts"))
      R.TsNs = tsToNs(Ts->Num);
    if (const json::Value *Dur = Ev.field("dur"))
      R.DurNs = tsToNs(Dur->Num);
    if (const json::Value *Id = Ev.field("id"))
      R.Id = Id->Str;
    if (const json::Value *Args = Ev.field("args")) {
      if (const json::Value *Ctx = Args->field("ctx"))
        R.Ctx = static_cast<uint64_t>(Ctx->Num);
      if (const json::Value *Parent = Args->field("parent"))
        R.Parent = static_cast<uint64_t>(Parent->Num);
      if (const json::Value *Trunc = Args->field("truncated"))
        R.Truncated = Trunc->B;
    }
    Raw.push_back(std::move(R));
  }

  TraceData Out;
  Out.EventCount = Raw.size();

  // Pass 1: pair async halves into spans.  Ids are pid-scoped strings, so
  // same-valued local ids from different nodes cannot collide here.
  struct Pending {
    size_t Index;
    bool Used = false;
  };
  std::map<std::pair<std::string, std::string>, std::vector<size_t>> OpenBegins;
  struct NodeAccum {
    uint64_t Ctx = 0;
    std::string Name;
    int Pid = 0;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    bool HasExtent = false;
    bool Truncated = false;
    std::vector<uint64_t> Parents;
  };
  // Keyed by ctx, assembled in first-seen order for stable output.
  std::unordered_map<uint64_t, size_t> ByCtx;
  std::vector<NodeAccum> Accum;

  auto nodeFor = [&](uint64_t Ctx) -> NodeAccum & {
    auto [It, New] = ByCtx.try_emplace(Ctx, Accum.size());
    if (New) {
      Accum.emplace_back();
      Accum.back().Ctx = Ctx;
    }
    return Accum[It->second];
  };
  auto mergeEvent = [&](uint64_t Ctx, const std::string &Name, int Pid,
                        int64_t StartNs, int64_t EndNs, bool HasExtent,
                        uint64_t Parent, bool Truncated) {
    NodeAccum &N = nodeFor(Ctx);
    // Spans beat instants for the node's identity and extent.
    if (N.Name.empty() || (HasExtent && !N.HasExtent)) {
      N.Name = Name;
      N.Pid = Pid;
    }
    if (HasExtent) {
      if (!N.HasExtent) {
        N.StartNs = StartNs;
        N.EndNs = EndNs;
      } else {
        N.StartNs = std::min(N.StartNs, StartNs);
        N.EndNs = std::max(N.EndNs, EndNs);
      }
      N.HasExtent = true;
    } else if (!N.HasExtent) {
      if (N.Name == Name || N.StartNs == 0)
        N.StartNs = N.EndNs = StartNs;
    }
    N.Truncated |= Truncated;
    if (Parent != 0)
      N.Parents.push_back(Parent);
  };

  for (size_t I = 0; I < Raw.size(); ++I) {
    const RawEvent &R = Raw[I];
    if (R.Ph == "b") {
      OpenBegins[{R.Name, R.Id}].push_back(I);
      continue;
    }
    if (R.Ph == "e") {
      auto It = OpenBegins.find({R.Name, R.Id});
      if (It != OpenBegins.end() && !It->second.empty()) {
        const RawEvent &B = Raw[It->second.back()];
        It->second.pop_back();
        uint64_t Ctx = B.Ctx ? B.Ctx : R.Ctx;
        if (Ctx)
          mergeEvent(Ctx, R.Name, R.Pid, B.TsNs, R.TsNs, /*HasExtent=*/true,
                     B.Parent ? B.Parent : R.Parent,
                     B.Truncated || R.Truncated);
      } else if (R.Ctx) {
        // Orphan end (begin lost at ring wrap): a zero-width truncated
        // node is still an honest lower bound.
        mergeEvent(R.Ctx, R.Name, R.Pid, R.TsNs, R.TsNs, /*HasExtent=*/true,
                   R.Parent, /*Truncated=*/true);
      }
      continue;
    }
    if (R.Ph == "X") {
      if (R.Ctx)
        mergeEvent(R.Ctx, R.Name, R.Pid, R.TsNs, R.TsNs + R.DurNs,
                   /*HasExtent=*/true, R.Parent, R.Truncated);
      continue;
    }
    if (R.Ph == "i") {
      if (!R.Ctx)
        continue;
      if (R.Name == "rpc.link") {
        // Pure edge: parent joins the ctx node's parent set.
        if (R.Parent != 0)
          nodeFor(R.Ctx).Parents.push_back(R.Parent);
        NodeAccum &N = nodeFor(R.Ctx);
        if (N.Name.empty())
          N.Pid = R.Pid;
        continue;
      }
      mergeEvent(R.Ctx, R.Name, R.Pid, R.TsNs, R.TsNs, /*HasExtent=*/false,
                 R.Parent, R.Truncated);
      continue;
    }
  }
  // Orphan begins (end lost at wrap): zero-width truncated nodes.
  for (auto &[Key, Stack] : OpenBegins)
    for (size_t I : Stack) {
      const RawEvent &B = Raw[I];
      if (B.Ctx)
        mergeEvent(B.Ctx, B.Name, B.Pid, B.TsNs, B.TsNs, /*HasExtent=*/true,
                   B.Parent, /*Truncated=*/true);
    }

  for (NodeAccum &N : Accum) {
    if (N.Name.empty())
      continue; // rpc.link target never materialised (wrapped away).
    DagNode D;
    D.Ctx = N.Ctx;
    D.Name = std::move(N.Name);
    D.Pid = N.Pid;
    D.StartNs = N.StartNs;
    D.EndNs = N.EndNs;
    D.Truncated = N.Truncated;
    std::sort(N.Parents.begin(), N.Parents.end());
    N.Parents.erase(std::unique(N.Parents.begin(), N.Parents.end()),
                    N.Parents.end());
    D.Parents = std::move(N.Parents);
    Out.Nodes.push_back(std::move(D));
  }
  std::sort(Out.Nodes.begin(), Out.Nodes.end(),
            [](const DagNode &A, const DagNode &B) {
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              if (A.EndNs != B.EndNs)
                return A.EndNs < B.EndNs;
              return A.Ctx < B.Ctx;
            });

  if (!Out.Nodes.empty()) {
    Out.RunStartNs = Out.Nodes.front().StartNs;
    Out.RunEndNs = 0;
    for (const DagNode &N : Out.Nodes) {
      Out.RunStartNs = std::min(Out.RunStartNs, N.StartNs);
      Out.RunEndNs = std::max(Out.RunEndNs, N.EndNs);
    }
  }
  return Out;
}

ErrorOr<TraceData> parcs::prof::loadTraceFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Error(ErrorCode::InvalidArgument, "cannot open " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return loadTrace(Buf.str());
}

double Analysis::coverage() const {
  int64_t Run = runNs();
  return Run > 0 ? static_cast<double>(CriticalNs) / static_cast<double>(Run)
                 : 0.0;
}

Analysis parcs::prof::analyze(const TraceData &Trace) {
  Analysis A;
  A.RunStartNs = Trace.RunStartNs;
  A.RunEndNs = Trace.RunEndNs;
  for (int C = 0; C <= static_cast<int>(SegClass::Execute); ++C)
    A.ByClass.emplace_back(static_cast<SegClass>(C), 0);
  if (Trace.Nodes.empty())
    return A;

  std::unordered_map<uint64_t, size_t> ByCtx;
  ByCtx.reserve(Trace.Nodes.size());
  for (size_t I = 0; I < Trace.Nodes.size(); ++I)
    ByCtx.emplace(Trace.Nodes[I].Ctx, I);

  // Per-pid node indices sorted by end time, for the gap-jump candidate
  // (latest node on the same pid ending at or before a given time).
  std::map<int, std::vector<size_t>> ByPid;
  for (size_t I = 0; I < Trace.Nodes.size(); ++I)
    ByPid[Trace.Nodes[I].Pid].push_back(I);
  for (auto &[Pid, Ids] : ByPid)
    std::sort(Ids.begin(), Ids.end(), [&](size_t X, size_t Y) {
      const DagNode &Nx = Trace.Nodes[X], &Ny = Trace.Nodes[Y];
      if (Nx.EndNs != Ny.EndNs)
        return Nx.EndNs < Ny.EndNs;
      if (Nx.StartNs != Ny.StartNs)
        return Nx.StartNs < Ny.StartNs;
      return Nx.Ctx < Ny.Ctx;
    });

  // Path terminus: the latest-ending node (ties: latest start, then
  // smallest ctx -- fully deterministic).
  size_t Cur = 0;
  for (size_t I = 1; I < Trace.Nodes.size(); ++I) {
    const DagNode &N = Trace.Nodes[I], &Best = Trace.Nodes[Cur];
    if (N.EndNs > Best.EndNs ||
        (N.EndNs == Best.EndNs &&
         (N.StartNs > Best.StartNs ||
          (N.StartNs == Best.StartNs && N.Ctx < Best.Ctx))))
      Cur = I;
  }

  std::vector<Segment> Rev; // Built newest-first, reversed at the end.
  std::vector<bool> Visited(Trace.Nodes.size(), false);
  while (true) {
    const DagNode &N = Trace.Nodes[Cur];
    Visited[Cur] = true;
    A.SawTruncated |= N.Truncated;

    // Candidate predecessors: declared parents (any overlap allowed) plus
    // the gap-jump candidate on the same pid.
    size_t Pred = SIZE_MAX;
    int64_t PredEnd = INT64_MIN;
    auto consider = [&](size_t I) {
      if (I == Cur || Visited[I])
        return;
      const DagNode &P = Trace.Nodes[I];
      if (P.EndNs > N.EndNs)
        return; // A "parent" ending after us cannot precede us causally.
      if (P.EndNs > PredEnd ||
          (P.EndNs == PredEnd && Pred != SIZE_MAX &&
           P.Ctx < Trace.Nodes[Pred].Ctx)) {
        Pred = I;
        PredEnd = P.EndNs;
      }
    };
    for (uint64_t Parent : N.Parents) {
      auto It = ByCtx.find(Parent);
      if (It != ByCtx.end())
        consider(It->second);
    }
    {
      // Gap-jump: binary search the same-pid list for the latest node
      // ending at or before our start.
      const std::vector<size_t> &Ids = ByPid[N.Pid];
      int64_t Limit = N.StartNs;
      auto It = std::upper_bound(Ids.begin(), Ids.end(), Limit,
                                 [&](int64_t T, size_t I) {
                                   return T < Trace.Nodes[I].EndNs;
                                 });
      // Walk left past visited entries (rare; path lengths dwarf ties).
      while (It != Ids.begin()) {
        --It;
        if (!Visited[*It] && *It != Cur) {
          consider(*It);
          break;
        }
      }
    }

    int64_t SegStart =
        Pred != SIZE_MAX ? std::max(Trace.Nodes[Pred].EndNs, N.StartNs)
                         : N.StartNs;
    if (SegStart < N.EndNs || Rev.empty())
      Rev.push_back(Segment{N.Name, classify(N.Name), N.Pid,
                            std::min(SegStart, N.EndNs), N.EndNs});
    if (Pred == SIZE_MAX)
      break;
    const DagNode &P = Trace.Nodes[Pred];
    // Time the path crosses between the predecessor's end and this
    // node's start belongs to neither span: untagged local work.
    if (P.EndNs < N.StartNs)
      Rev.push_back(Segment{"<gap>", SegClass::Compute, N.Pid, P.EndNs,
                            N.StartNs});
    Cur = Pred;
  }

  std::reverse(Rev.begin(), Rev.end());
  A.Segments = std::move(Rev);
  for (const Segment &S : A.Segments) {
    A.CriticalNs += S.durationNs();
    A.ByClass[static_cast<size_t>(S.Class)].second += S.durationNs();
  }
  return A;
}

namespace {

std::string fmtNs(int64_t Ns) {
  char Buf[64];
  if (Ns >= 1'000'000)
    std::snprintf(Buf, sizeof(Buf), "%.3f ms", static_cast<double>(Ns) / 1e6);
  else if (Ns >= 1'000)
    std::snprintf(Buf, sizeof(Buf), "%.3f us", static_cast<double>(Ns) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%lld ns", static_cast<long long>(Ns));
  return Buf;
}

} // namespace

std::string parcs::prof::textReport(const Analysis &A, size_t MaxSegments) {
  std::string Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "critical path: %s of %s end-to-end (%.1f%% coverage, %zu "
                "segments)\n",
                fmtNs(A.CriticalNs).c_str(), fmtNs(A.runNs()).c_str(),
                A.coverage() * 100.0, A.Segments.size());
  Out += Buf;
  if (A.SawTruncated)
    Out += "warning: path crosses spans truncated at ring-buffer wrap; "
           "durations are lower bounds\n";
  Out += "\nby class:\n";
  for (const auto &[Class, Ns] : A.ByClass) {
    double Pct = A.CriticalNs > 0 ? 100.0 * static_cast<double>(Ns) /
                                        static_cast<double>(A.CriticalNs)
                                  : 0.0;
    std::snprintf(Buf, sizeof(Buf), "  %-14s %14s  %5.1f%%\n",
                  segClassName(Class), fmtNs(Ns).c_str(), Pct);
    Out += Buf;
  }
  Out += "\npath (oldest first):\n";
  size_t Shown = 0;
  for (const Segment &S : A.Segments) {
    if (MaxSegments && Shown >= MaxSegments) {
      std::snprintf(Buf, sizeof(Buf), "  ... %zu more segments\n",
                    A.Segments.size() - Shown);
      Out += Buf;
      break;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "  %12lld ns  +%-12s %-14s pid %d  %s\n",
                  static_cast<long long>(S.StartNs),
                  fmtNs(S.durationNs()).c_str(), segClassName(S.Class),
                  S.Pid, S.Name.c_str());
    Out += Buf;
    ++Shown;
  }
  return Out;
}

std::string parcs::prof::flamegraph(const Analysis &A) {
  // Collapsed stacks, aggregated and sorted: one line per distinct
  // (class, name), totals in ns -- flamegraph.pl / speedscope input.
  std::map<std::string, int64_t> Stacks;
  for (const Segment &S : A.Segments)
    Stacks["parcs;" + std::string(segClassName(S.Class)) + ";" + S.Name] +=
        S.durationNs();
  std::string Out;
  for (const auto &[Stack, Ns] : Stacks) {
    Out += Stack;
    Out += ' ';
    Out += std::to_string(Ns);
    Out += '\n';
  }
  return Out;
}
