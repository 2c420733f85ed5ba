//===- support/Metrics.cpp - Named end-of-run metrics ---------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/EnvSpec.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace parcs::metrics {

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

/// Inclusive [lo, hi] value range a finite bucket covers.
void bucketRange(int B, double &Lo, double &Hi) {
  if (B == 0) {
    Lo = Hi = 0.0;
    return;
  }
  Lo = static_cast<double>(uint64_t{1} << (B - 1));
  Hi = static_cast<double>(uint64_t{1} << B) - 1.0;
}

} // namespace

int detail::bucketIndex(uint64_t Value) {
  if (Value == 0)
    return 0;
  int Log2 = 63 - __builtin_clzll(Value);
  if (Log2 >= Histogram::MaxShift)
    return Histogram::NumBuckets - 1;
  return Log2 + 1;
}

std::optional<Histogram>
Histogram::fromParts(std::span<const uint64_t, NumBuckets> Parts,
                     uint64_t N, int64_t Lo, int64_t Hi, uint64_t Total) {
  Histogram H;
  int First = -1, Last = -1;
  for (int B = 0; B < NumBuckets; ++B) {
    if (Parts[B] == 0)
      continue;
    if (__builtin_add_overflow(H.Count, Parts[B], &H.Count))
      return std::nullopt;
    if (First < 0)
      First = B;
    Last = B;
    H.Buckets[B] = Parts[B];
  }
  if (H.Count != N)
    return std::nullopt;
  if (N == 0)
    return Lo == 0 && Hi == 0 && Total == 0 ? std::optional(H) : std::nullopt;
  // Recording puts the smallest and largest samples in the outermost
  // occupied buckets.
  if (Lo < 0 || Lo > Hi || detail::bucketIndex(uint64_t(Lo)) != First ||
      detail::bucketIndex(uint64_t(Hi)) != Last)
    return std::nullopt;
  H.Min = Lo;
  H.Max = Hi;
  H.Sum = Total;
  return H;
}

void Histogram::record(int64_t Value) {
  int64_t V = Value < 0 ? 0 : Value;
  ++Buckets[detail::bucketIndex(uint64_t(V))];
  if (Count == 0 || V < Min)
    Min = V;
  if (Count == 0 || V > Max)
    Max = V;
  Sum += uint64_t(V);
  ++Count;
}

void Histogram::merge(const Histogram &Other) {
  if (Other.Count == 0)
    return;
  for (int B = 0; B < NumBuckets; ++B)
    Buckets[B] += Other.Buckets[B];
  if (Count == 0 || Other.Min < Min)
    Min = Other.Min;
  if (Count == 0 || Other.Max > Max)
    Max = Other.Max;
  Sum += Other.Sum;
  Count += Other.Count;
}

double Histogram::percentile(double P) const {
  if (Count == 0)
    return EmptyPercentile;
  P = std::clamp(P, 0.0, 100.0);
  // Rank in [0, N-1]: P0 is the smallest sample, P100 the largest.
  double Rank = P / 100.0 * static_cast<double>(Count - 1);
  double Target = Rank + 1.0; // 1-based position within the distribution.
  uint64_t Seen = 0;
  double Result = double(Max);
  for (int B = 0; B < NumBuckets; ++B) {
    if (Buckets[B] == 0)
      continue;
    if (static_cast<double>(Seen + Buckets[B]) >= Target) {
      double Lo, Hi;
      if (B == NumBuckets - 1) {
        // Overflow bucket: no finite upper bound; interpolate up to the
        // observed maximum.
        Lo = static_cast<double>(uint64_t{1} << MaxShift);
        Hi = double(Max);
      } else {
        bucketRange(B, Lo, Hi);
      }
      double Within = (Target - static_cast<double>(Seen)) /
                      static_cast<double>(Buckets[B]);
      Result = Lo + (Hi - Lo) * Within;
      break;
    }
    Seen += Buckets[B];
  }
  // Clamp to the exact observed range: a single sample reports itself, and
  // bucket upper bounds never exceed the true max.
  return std::clamp(Result, double(Min), double(Max));
}

std::string Histogram::str() const {
  if (Count == 0)
    return "n=0 (no samples)";
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "n=%llu mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%.0f",
                static_cast<unsigned long long>(Count), mean(),
                percentile(50.0), percentile(90.0), percentile(99.0),
                double(Max));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

bool parseMetricsSpec(std::string_view Spec, ReportSpec &Out,
                      std::string *BadToken) {
  std::string_view Path;
  std::vector<envspec::Option> Opts;
  if (!envspec::split(Spec, Path, Opts, BadToken))
    return false;
  auto Fail = [&](std::string_view Token) {
    if (BadToken)
      *BadToken = std::string(Token);
    return false;
  };
  bool Json = Path.size() >= 5 && Path.substr(Path.size() - 5) == ".json";
  for (const envspec::Option &O : Opts) {
    if (O.Key != "format")
      return Fail(O.Token);
    if (O.Value == "json")
      Json = true;
    else if (O.Value == "text")
      Json = false;
    else
      return Fail(O.Token);
  }
  Out.Path = std::string(Path);
  Out.Json = Json;
  return true;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// Reads PARCS_METRICS at static-init time and writes the report when the
/// process shuts down.  Constructed after (and therefore destroyed before)
/// the global registry, which its constructor touches to pin the order.
struct EnvReporter {
  ReportSpec Spec;
  bool Active = false;

  EnvReporter() {
    Registry::global(); // Ensure the registry outlives this reporter.
    if (const char *Env = std::getenv("PARCS_METRICS")) {
      std::string BadToken;
      Active = parseMetricsSpec(Env, Spec, &BadToken);
      if (!Active)
        std::fprintf(stderr,
                     "[parcs:metrics] ignoring malformed PARCS_METRICS "
                     "\"%s\": bad token \"%s\"\n",
                     Env, BadToken.c_str());
    }
  }

  ~EnvReporter() {
    if (!Active)
      return;
    if (!Registry::global().writeReport(Spec))
      std::fprintf(stderr, "[parcs:metrics] cannot write %s\n",
                   Spec.Path.c_str());
  }
};

EnvReporter TheEnvReporter;

} // namespace

Registry &Registry::global() {
  static Registry Instance;
  return Instance;
}

template <class T> T &Registry::find(std::string_view Name, bool List) {
  auto It = Metrics.find(Name);
  if (It == Metrics.end()) {
    It = Metrics.emplace(std::string(Name), Metric(std::in_place_type<T>))
             .first;
    T &I = std::get<T>(It->second);
    I.Name = &It->first;
    I.Owner = this;
    I.Id = NextId++;
  }
  assert(std::holds_alternative<T>(It->second) &&
         "metric name reused with another kind");
  T &I = std::get<T>(It->second);
  I.Listed |= List;
  return I;
}

template Counter &Registry::find<Counter>(std::string_view, bool);
template Gauge &Registry::find<Gauge>(std::string_view, bool);
template Histogram &Registry::find<Histogram>(std::string_view, bool);

namespace {

template <class MetricT> bool isListed(const MetricT &M) {
  return std::visit([](const Instrument &I) { return I.Listed; }, M);
}

} // namespace

std::string Registry::textReport() const {
  size_t Width = 0;
  for (const auto &[Name, M] : Metrics)
    if (isListed(M))
      Width = std::max(Width, Name.size());
  std::ostringstream Os;
  for (const auto &[Name, M] : Metrics) {
    if (!isListed(M))
      continue;
    Os << Name << std::string(Width - Name.size() + 2, ' ');
    if (const Counter *C = std::get_if<Counter>(&M))
      Os << C->value();
    else if (const Gauge *G = std::get_if<Gauge>(&M))
      Os << G->value();
    else
      Os << std::get<Histogram>(M).str();
    Os << '\n';
  }
  return Os.str();
}

std::string Registry::jsonReport() const {
  std::string Out = "{\n";
  for (size_t Pass = 0; Pass < 3; ++Pass) {
    Out += Pass == 0   ? "  \"counters\": {"
           : Pass == 1 ? "  \"gauges\": {"
                       : "  \"histograms\": {";
    bool First = true;
    for (const auto &[Name, M] : Metrics) {
      if (M.index() != Pass || !isListed(M))
        continue;
      Out += First ? "\n    " : ",\n    ";
      First = false;
      json::appendString(Out, Name);
      Out += ": ";
      if (const Counter *C = std::get_if<Counter>(&M)) {
        Out += std::to_string(C->value());
      } else if (const Gauge *G = std::get_if<Gauge>(&M)) {
        Out += std::to_string(G->value());
      } else {
        const Histogram &H = std::get<Histogram>(M);
        Out += "{\"n\": " + std::to_string(H.count()) + ", \"mean\": ";
        json::appendNumber(Out, H.mean());
        Out += ", \"min\": ";
        json::appendNumber(Out, double(H.min()));
        Out += ", \"p50\": ";
        json::appendNumber(Out, H.percentile(50.0));
        Out += ", \"p90\": ";
        json::appendNumber(Out, H.percentile(90.0));
        Out += ", \"p99\": ";
        json::appendNumber(Out, H.percentile(99.0));
        Out += ", \"max\": ";
        json::appendNumber(Out, double(H.max()));
        Out += ", \"overflow\": " + std::to_string(H.overflowCount()) + "}";
      }
    }
    Out += First ? "}" : "\n  }";
    Out += Pass == 2 ? "\n" : ",\n";
  }
  Out += "}\n";
  return Out;
}

bool Registry::writeReport(const ReportSpec &Spec) const {
  return json::writeFile(Spec.Path, Spec.Json ? jsonReport() : textReport());
}

//===----------------------------------------------------------------------===//
// LiveWindows
//===----------------------------------------------------------------------===//

LiveWindows::LiveWindows(int NodeCount, int64_t WindowNs, ArmFn OnArm)
    : WindowNs(WindowNs), OnArm(std::move(OnArm)),
      Nodes(size_t(std::max(NodeCount, 0))) {
  assert(WindowNs > 0 && "live window must be positive");
}

LiveWindows::Slot *LiveWindows::slot(const Instrument &I, int Node,
                                     int64_t AtNs) {
  if (Node < 0 || Node >= int(Nodes.size()))
    return nullptr;
  if (size_t(I.Id) >= ColumnOf.size())
    ColumnOf.resize(size_t(I.Id) + 1, -1);
  int &Col = ColumnOf[size_t(I.Id)];
  if (Col < 0) {
    Col = int(Names.size());
    Names.push_back(*I.Name);
  }
  NodeWindows &NW = Nodes[size_t(Node)];
  int64_t Index = std::max<int64_t>(0, AtNs) / WindowNs;
  // Samples arrive in time order almost always: the open window is last.
  auto It = NW.Pending.end();
  while (It != NW.Pending.begin() && std::prev(It)->Index >= Index)
    --It;
  if (It == NW.Pending.end() || It->Index != Index)
    It = NW.Pending.insert(It, Window{Index, {}});
  if (size_t(Col) >= It->Slots.size())
    It->Slots.resize(size_t(Col) + 1);
  Slot &S = It->Slots[size_t(Col)];
  S.Touched = true;
  if (!NW.Armed) {
    NW.Armed = true;
    OnArm(Node, AtNs);
  }
  return &S;
}

std::vector<LiveWindows::Window> LiveWindows::takeClosed(int Node,
                                                         int64_t FirstOpen) {
  NodeWindows &NW = Nodes[size_t(Node)];
  auto End = std::find_if(
      NW.Pending.begin(), NW.Pending.end(),
      [&](const Window &W) { return W.Index >= FirstOpen; });
  std::vector<Window> Closed(std::make_move_iterator(NW.Pending.begin()),
                             std::make_move_iterator(End));
  NW.Pending.erase(NW.Pending.begin(), End);
  NW.Armed = !NW.Pending.empty();
  return Closed;
}

} // namespace parcs::metrics
