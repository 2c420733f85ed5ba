//===- support/Metrics.cpp - Named end-of-run metrics ---------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/EnvSpec.h"

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

Registry::Metric &Registry::find(std::string_view Name, Kind K) {
  auto It = Metrics.find(Name);
  if (It == Metrics.end()) {
    Metric M;
    M.MetricKind = K;
    switch (K) {
    case Kind::Counter:
      M.C = std::make_unique<Counter>();
      break;
    case Kind::Gauge:
      M.G = std::make_unique<Gauge>();
      break;
    case Kind::Histogram:
      M.H = std::make_unique<Histogram>();
      break;
    }
    It = Metrics.emplace(std::string(Name), std::move(M)).first;
  }
  assert(It->second.MetricKind == K && "metric name reused with another kind");
  return It->second;
}

Counter &Registry::counter(std::string_view Name) {
  return *find(Name, Kind::Counter).C;
}

Gauge &Registry::gauge(std::string_view Name) {
  return *find(Name, Kind::Gauge).G;
}

Histogram &Registry::histogram(std::string_view Name) {
  return *find(Name, Kind::Histogram).H;
}

std::string Registry::textReport() const {
  size_t Width = 0;
  for (const auto &[Name, M] : Metrics)
    Width = std::max(Width, Name.size());
  std::ostringstream Os;
  for (const auto &[Name, M] : Metrics) {
    Os << Name << std::string(Width - Name.size() + 2, ' ');
    switch (M.MetricKind) {
    case Kind::Counter:
      Os << M.C->value();
      break;
    case Kind::Gauge:
      Os << M.G->value();
      break;
    case Kind::Histogram:
      Os << M.H->str();
      break;
    }
    Os << '\n';
  }
  return Os.str();
}

namespace {

void appendJsonString(std::ostringstream &Os, std::string_view S) {
  Os << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      Os << '\\';
    Os << C;
  }
  Os << '"';
}

void appendDouble(std::ostringstream &Os, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Os << Buf;
}

} // namespace

std::string Registry::jsonReport() const {
  std::ostringstream Os;
  Os << "{\n";
  for (int Pass = 0; Pass < 3; ++Pass) {
    Kind Want = static_cast<Kind>(Pass);
    const char *Section = Pass == 0   ? "counters"
                          : Pass == 1 ? "gauges"
                                      : "histograms";
    Os << "  \"" << Section << "\": {";
    bool First = true;
    for (const auto &[Name, M] : Metrics) {
      if (M.MetricKind != Want)
        continue;
      Os << (First ? "\n    " : ",\n    ");
      First = false;
      appendJsonString(Os, Name);
      Os << ": ";
      switch (Want) {
      case Kind::Counter:
        Os << M.C->value();
        break;
      case Kind::Gauge:
        Os << M.G->value();
        break;
      case Kind::Histogram: {
        const Histogram &H = *M.H;
        Os << "{\"n\": " << H.count() << ", \"mean\": ";
        appendDouble(Os, H.mean());
        Os << ", \"min\": ";
        appendDouble(Os, double(H.min()));
        Os << ", \"p50\": ";
        appendDouble(Os, H.percentile(50.0));
        Os << ", \"p90\": ";
        appendDouble(Os, H.percentile(90.0));
        Os << ", \"p99\": ";
        appendDouble(Os, H.percentile(99.0));
        Os << ", \"max\": ";
        appendDouble(Os, double(H.max()));
        Os << ", \"overflow\": " << H.overflowCount() << "}";
        break;
      }
      }
    }
    Os << (First ? "}" : "\n  }") << (Pass == 2 ? "\n" : ",\n");
  }
  Os << "}\n";
  return Os.str();
}

bool Registry::writeReport(const ReportSpec &Spec) const {
  std::FILE *F = std::fopen(Spec.Path.c_str(), "w");
  if (!F)
    return false;
  std::string Body = Spec.Json ? jsonReport() : textReport();
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), F);
  bool Ok = Written == Body.size() && std::fclose(F) == 0;
  if (!Ok && Written != Body.size())
    std::fclose(F);
  return Ok;
}

} // namespace parcs::metrics
