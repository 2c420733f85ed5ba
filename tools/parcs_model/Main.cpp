//===- tools/parcs_model/Main.cpp - Scaling-law modeling CLI --------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// parcs-model: fits predictive scaling laws (PMNF, Extra-P style) from
// bench sweeps and telemetry exports, extrapolates with confidence bands,
// composes per-RPC-leg submodels, and gates perf regressions in CI.
//
//   parcs-model fit sweep.json [--param nodes] [--metric p99] [--json]
//   parcs-model predict sweep.json --nodes 1024
//   parcs-model check fresh.json --model model.json --deviation 20
//   parcs-model compose legs.json [--end leg.total]
//   parcs-model legs --param nodes 4=t4.json 8=t8.json --out legs.json
//
// `check` reads its defaults from PARCS_MODEL=<file>[,deviation=N%] when
// --model is absent, and exits 1 when the fresh run breaches the fitted
// envelope.  Every report is byte-stable: same inputs, same bytes.
//
//===----------------------------------------------------------------------===//

#include "model/Check.h"
#include "model/Compose.h"
#include "model/Ingest.h"
#include "model/Legs.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace parcs;
using namespace parcs::model;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: parcs-model <command> ...\n"
      "\n"
      "  fit <sweep.json>... [--param P] [--metric M] [--json] [--out FILE]\n"
      "      fit PMNF scaling laws to sweep/telemetry files; --json prints\n"
      "      the model JSON (--out writes it) instead of the text report\n"
      "  predict <sweep-or-model.json>... --<param> <value> [--metric M]\n"
      "      extrapolate every fitted metric to --<param> <value> with\n"
      "      confidence bands (e.g. --nodes 1024)\n"
      "  check <fresh-sweep.json> [--model FILE] [--deviation N]\n"
      "      gate a fresh run against a fitted envelope; the model file\n"
      "      may be a model JSON, a BENCH json with a \"model\" section,\n"
      "      or a baseline sweep (fitted on the fly).  Defaults come from\n"
      "      PARCS_MODEL=<file>[,deviation=N%%].  Exits 1 on breach.\n"
      "  compose <sweep.json>... [--param P] [--end METRIC]\n"
      "      fit per-leg submodels (leg.*), compose them additively, and\n"
      "      validate against the direct end-to-end fit (default leg.total)\n"
      "  legs --param P [--out FILE] <value>=<trace.json>...\n"
      "      turn parcs-prof trace exports into a leg sweep: each trace is\n"
      "      analyzed and becomes one point at P=<value>\n");
  return 2;
}

int fail(const std::string &Msg) {
  std::fprintf(stderr, "parcs-model: %s\n", Msg.c_str());
  return 1;
}

std::string fmtNum(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

bool writeFile(const std::string &Path, const std::string &Body) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << Body;
  return bool(Out);
}

/// Loads and merges every path as a sweep / telemetry export.
ErrorOr<DataSet> loadMerged(const std::vector<std::string> &Paths) {
  DataSet Merged;
  for (const std::string &Path : Paths) {
    ErrorOr<DataSet> One = loadSweepFile(Path);
    if (!One)
      return One.error();
    Merged.append(*One);
  }
  return Merged;
}

/// predict's model source: a single model file loads directly (sweep
/// fallback included); several files merge as sweeps and fit fresh.
ErrorOr<ModelSet> loadOrFit(const std::vector<std::string> &Paths,
                            std::string_view Param) {
  if (Paths.size() == 1) {
    ErrorOr<ModelSet> Set = loadModelFile(Paths[0]);
    if (Set || Param.empty())
      return Set;
  }
  ErrorOr<DataSet> Merged = loadMerged(Paths);
  if (!Merged)
    return Merged.error();
  return fitAll(*Merged, Param);
}

int cmdFit(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string Param, Metric, OutPath;
  bool Json = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--param" && I + 1 < Args.size())
      Param = Args[++I];
    else if (Args[I] == "--metric" && I + 1 < Args.size())
      Metric = Args[++I];
    else if (Args[I] == "--out" && I + 1 < Args.size())
      OutPath = Args[++I];
    else if (Args[I] == "--json")
      Json = true;
    else if (!Args[I].empty() && Args[I][0] == '-')
      return usage();
    else
      Paths.push_back(Args[I]);
  }
  if (Paths.empty())
    return usage();
  ErrorOr<DataSet> Data = loadMerged(Paths);
  if (!Data)
    return fail(Data.error().str());
  ErrorOr<ModelSet> Set = fitAll(*Data, Param);
  if (!Set)
    return fail(Set.error().str());
  if (!Metric.empty()) {
    auto It = Set->Models.find(Metric);
    if (It == Set->Models.end())
      return fail("metric \"" + Metric + "\" was not fitted");
    ModelSet One;
    One.Param = Set->Param;
    One.Models.emplace(It->first, It->second);
    *Set = std::move(One);
  }
  std::string Body = (Json || !OutPath.empty()) ? modelJson(*Set)
                                                : textReport(*Set);
  if (!OutPath.empty()) {
    if (!writeFile(OutPath, Body))
      return fail("cannot write " + OutPath);
    std::printf("parcs-model: wrote %s\n", OutPath.c_str());
    return 0;
  }
  std::fputs(Body.c_str(), stdout);
  return 0;
}

int cmdPredict(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string Metric, ParamName;
  double ParamValue = 0;
  bool HaveValue = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--metric" && I + 1 < Args.size()) {
      Metric = Args[++I];
    } else if (Args[I].size() > 2 && Args[I][0] == '-' && Args[I][1] == '-' &&
               I + 1 < Args.size()) {
      // Generic --<param> <value>: --nodes 1024, --threads 64, ...
      ParamName = Args[I].substr(2);
      char *End = nullptr;
      ParamValue = std::strtod(Args[I + 1].c_str(), &End);
      if (!End || *End != '\0')
        return usage();
      HaveValue = true;
      ++I;
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      return usage();
    } else {
      Paths.push_back(Args[I]);
    }
  }
  if (Paths.empty() || !HaveValue)
    return usage();
  ErrorOr<ModelSet> Set = loadOrFit(Paths, ParamName);
  if (!Set)
    return fail(Set.error().str());
  if (Set->Param != ParamName)
    return fail("model is fitted against \"" + Set->Param +
                "\", not \"" + ParamName + "\" (pass --" + Set->Param + ")");
  if (ParamValue <= 0)
    return fail("--" + ParamName + " must be positive");

  std::printf("parcs-model predict -- %s = %s\n", ParamName.c_str(),
              fmtNum(ParamValue).c_str());
  size_t MetricW = 6;
  for (const auto &[Name, M] : Set->Models)
    if (Metric.empty() || Name == Metric)
      MetricW = std::max(MetricW, Name.size());
  std::printf("  %-*s   predicted        band\n", int(MetricW), "metric");
  bool Any = false;
  for (const auto &[Name, M] : Set->Models) {
    if (!Metric.empty() && Name != Metric)
      continue;
    Any = true;
    double Pred = M.predict(ParamValue);
    double Band = M.bandHalfWidth(ParamValue);
    std::printf("  %-*s  %10s  +/- %-10s [%s, %s]\n", int(MetricW),
                Name.c_str(), fmtNum(Pred).c_str(), fmtNum(Band).c_str(),
                fmtNum(Pred - Band).c_str(), fmtNum(Pred + Band).c_str());
  }
  if (!Any)
    return fail("metric \"" + Metric + "\" was not fitted");
  return 0;
}

int cmdCheck(const std::vector<std::string> &Args) {
  std::string FreshPath;
  CheckSpec Spec;
  bool HaveModel = envCheckSpec(Spec);
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--model" && I + 1 < Args.size()) {
      Spec.ModelPath = Args[++I];
      HaveModel = true;
    } else if (Args[I] == "--deviation" && I + 1 < Args.size()) {
      char *End = nullptr;
      Spec.DeviationPct = std::strtod(Args[I + 1].c_str(), &End);
      if (!End || (*End != '\0' && std::strcmp(End, "%") != 0) ||
          Spec.DeviationPct < 0)
        return usage();
      ++I;
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      return usage();
    } else if (FreshPath.empty()) {
      FreshPath = Args[I];
    } else {
      return usage();
    }
  }
  if (FreshPath.empty())
    return usage();
  if (!HaveModel || Spec.ModelPath.empty())
    return fail("no fitted envelope: pass --model <file> or set "
                "PARCS_MODEL=<file>[,deviation=N%]");

  ErrorOr<ModelSet> Envelope = loadModelFile(Spec.ModelPath);
  if (!Envelope)
    return fail(Envelope.error().str());
  ErrorOr<DataSet> Fresh = loadSweepFile(FreshPath);
  if (!Fresh)
    return fail(Fresh.error().str());

  CheckResult R = check(*Envelope, *Fresh, Spec.DeviationPct);
  std::fputs(checkReport(R, Spec.DeviationPct).c_str(), stdout);
  return R.Ok ? 0 : 1;
}

int cmdCompose(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  std::string Param, End;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--param" && I + 1 < Args.size())
      Param = Args[++I];
    else if (Args[I] == "--end" && I + 1 < Args.size())
      End = Args[++I];
    else if (!Args[I].empty() && Args[I][0] == '-')
      return usage();
    else
      Paths.push_back(Args[I]);
  }
  if (Paths.empty())
    return usage();
  ErrorOr<DataSet> Data = loadMerged(Paths);
  if (!Data)
    return fail(Data.error().str());
  ErrorOr<Composition> C = compose(*Data, Param, End);
  if (!C)
    return fail(C.error().str());
  std::fputs(compositionReport(*C, *Data).c_str(), stdout);
  return 0;
}

int cmdLegs(const std::vector<std::string> &Args) {
  std::string Param, OutPath;
  std::vector<std::pair<double, std::string>> Traces;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--param" && I + 1 < Args.size()) {
      Param = Args[++I];
    } else if (Args[I] == "--out" && I + 1 < Args.size()) {
      OutPath = Args[++I];
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      return usage();
    } else {
      size_t Eq = Args[I].find('=');
      if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Args[I].size())
        return usage();
      char *EndP = nullptr;
      double Value = std::strtod(Args[I].c_str(), &EndP);
      if (!EndP || EndP != Args[I].c_str() + Eq)
        return usage();
      Traces.emplace_back(Value, Args[I].substr(Eq + 1));
    }
  }
  if (Param.empty() || Traces.empty())
    return usage();
  DataSet Sweep;
  Sweep.Bench = "parcs-prof legs";
  for (const auto &[Value, Path] : Traces) {
    NumberMap Params;
    Params[Param] = Value;
    ErrorOr<DataPoint> Point = pointFromTraceFile(Path, Params);
    if (!Point)
      return fail(Path + ": " + Point.error().str());
    Sweep.Points.push_back(std::move(*Point));
  }
  std::string Body = writeSweepJson(Sweep);
  if (OutPath.empty()) {
    std::fputs(Body.c_str(), stdout);
    return 0;
  }
  if (!writeFile(OutPath, Body))
    return fail("cannot write " + OutPath);
  std::printf("parcs-model: wrote %s (%zu points)\n", OutPath.c_str(),
              Sweep.Points.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  std::vector<std::string> Args(Argv + 2, Argv + Argc);
  if (Cmd == "--help" || Cmd == "-h") {
    usage();
    return 0;
  }
  if (Cmd == "fit")
    return cmdFit(Args);
  if (Cmd == "predict")
    return cmdPredict(Args);
  if (Cmd == "check")
    return cmdCheck(Args);
  if (Cmd == "compose")
    return cmdCompose(Args);
  if (Cmd == "legs")
    return cmdLegs(Args);
  std::fprintf(stderr, "parcs-model: unknown command '%s'\n", Cmd.c_str());
  return usage();
}
