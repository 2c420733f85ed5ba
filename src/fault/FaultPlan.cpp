//===- fault/FaultPlan.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

using namespace parcs;
using namespace parcs::fault;

namespace {

std::string_view trim(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t'))
    S.remove_suffix(1);
  return S;
}

std::vector<std::string_view> split(std::string_view S, char Sep) {
  std::vector<std::string_view> Parts;
  while (true) {
    size_t Pos = S.find(Sep);
    if (Pos == std::string_view::npos) {
      Parts.push_back(trim(S));
      return Parts;
    }
    Parts.push_back(trim(S.substr(0, Pos)));
    S.remove_prefix(Pos + 1);
  }
}

ErrorOr<double> parseDouble(std::string_view S) {
  std::string Buf(S);
  char *End = nullptr;
  double Value = std::strtod(Buf.c_str(), &End);
  if (Buf.empty() || End != Buf.c_str() + Buf.size())
    return Error(ErrorCode::ParseError,
                 "fault plan: bad number '" + Buf + "'");
  return Value;
}

/// A decimal integer in the target field's range: 0 up to the largest
/// \p T (every integer field is a count, a seed or a node id).  Junk, a
/// sign, or a value past the range is a ParseError, never a wrapped number.
template <typename T> ErrorOr<T> parseInt(std::string_view S) {
  T Value{};
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), Value);
  if (Ec != std::errc() || End != S.data() + S.size() || S.starts_with('-'))
    return Error(ErrorCode::ParseError, "fault plan: '" + std::string(S) +
                                            "' is not an integer in range");
  return Value;
}

/// Times take s/ms/us/ns suffixes; bare numbers are seconds.
ErrorOr<sim::SimTime> parseTime(std::string_view S) {
  double Scale = 1.0;
  if (S.size() > 2 && S.substr(S.size() - 2) == "ns") {
    Scale = 1e-9;
    S.remove_suffix(2);
  } else if (S.size() > 2 && S.substr(S.size() - 2) == "us") {
    Scale = 1e-6;
    S.remove_suffix(2);
  } else if (S.size() > 2 && S.substr(S.size() - 2) == "ms") {
    Scale = 1e-3;
    S.remove_suffix(2);
  } else if (S.size() > 1 && S.back() == 's') {
    S.remove_suffix(1);
  }
  ErrorOr<double> Value = parseDouble(S);
  if (!Value)
    return Value.error();
  if (*Value < 0)
    return Error(ErrorCode::ParseError, "fault plan: negative time");
  return sim::SimTime::fromSecondsF(*Value * Scale);
}

ErrorOr<double> parseProbability(std::string_view S) {
  ErrorOr<double> P = parseDouble(S);
  if (!P)
    return P.error();
  if (*P < 0.0 || *P > 1.0)
    return Error(ErrorCode::ParseError,
                 "fault plan: probability out of [0,1]");
  return P;
}

std::string timeStr(sim::SimTime T) {
  return std::to_string(T.nanosecondsCount()) + "ns";
}

std::string probStr(double P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", P);
  return Buf;
}

} // namespace

std::string FaultPlan::str() const {
  std::string Out = "seed(" + std::to_string(Seed) + ")";
  if (DropEveryNth > 0)
    Out += ";dropnth(" + std::to_string(DropEveryNth) + ")";
  for (const CrashEvent &C : Crashes) {
    Out += ";crash(" + std::to_string(C.Node) + "," + timeStr(C.At);
    if (!C.RestartAt.isZero())
      Out += "," + timeStr(C.RestartAt);
    Out += ")";
  }
  for (const Partition &P : Partitions) {
    Out += ";partition(" + std::to_string(P.NodeA) + "," +
           std::to_string(P.NodeB) + "," + timeStr(P.From);
    if (!P.Until.isZero())
      Out += "," + timeStr(P.Until);
    Out += ")";
  }
  for (const LossClause &L : Losses)
    Out += ";loss(" + probStr(L.Probability) + "," + timeStr(L.From) + "," +
           timeStr(L.Until) + ")";
  for (const CorruptClause &C : Corruptions)
    Out += ";corrupt(" + probStr(C.Probability) + "," + timeStr(C.From) +
           "," + timeStr(C.Until) + ")";
  for (const LatencyClause &L : Latencies)
    Out += ";latency(" + timeStr(L.Extra) + "," + timeStr(L.From) + "," +
           timeStr(L.Until) + ")";
  return Out;
}

ErrorOr<FaultPlan> FaultPlan::parse(std::string_view Spec) {
  FaultPlan Plan;
  for (std::string_view Clause : split(Spec, ';')) {
    if (Clause.empty())
      continue;
    size_t Open = Clause.find('(');
    if (Open == std::string_view::npos || Clause.back() != ')')
      return Error(ErrorCode::ParseError,
                   "fault plan: clause '" + std::string(Clause) +
                       "' is not name(args)");
    std::string_view Name = trim(Clause.substr(0, Open));
    std::vector<std::string_view> Args =
        split(Clause.substr(Open + 1, Clause.size() - Open - 2), ',');

    auto wantArgs = [&](size_t Lo, size_t Hi) -> bool {
      return Args.size() >= Lo && Args.size() <= Hi;
    };

    if (Name == "seed") {
      if (!wantArgs(1, 1))
        return Error(ErrorCode::ParseError, "fault plan: seed(N)");
      ErrorOr<uint64_t> N = parseInt<uint64_t>(Args[0]);
      if (!N)
        return N.error();
      Plan.Seed = *N;
    } else if (Name == "dropnth") {
      if (!wantArgs(1, 1))
        return Error(ErrorCode::ParseError, "fault plan: dropnth(N)");
      ErrorOr<int> N = parseInt<int>(Args[0]);
      if (!N)
        return N.error();
      Plan.DropEveryNth = *N;
    } else if (Name == "crash") {
      if (!wantArgs(2, 3))
        return Error(ErrorCode::ParseError,
                     "fault plan: crash(node,at[,restartAt])");
      ErrorOr<int> Node = parseInt<int>(Args[0]);
      if (!Node)
        return Node.error();
      ErrorOr<sim::SimTime> At = parseTime(Args[1]);
      if (!At)
        return At.error();
      CrashEvent C;
      C.Node = *Node;
      C.At = *At;
      if (Args.size() == 3) {
        ErrorOr<sim::SimTime> Restart = parseTime(Args[2]);
        if (!Restart)
          return Restart.error();
        if (!Restart->isZero() && *Restart <= C.At)
          return Error(ErrorCode::ParseError,
                       "fault plan: restart not after crash");
        C.RestartAt = *Restart;
      }
      Plan.Crashes.push_back(C);
    } else if (Name == "partition") {
      if (!wantArgs(3, 4))
        return Error(ErrorCode::ParseError,
                     "fault plan: partition(a,b,from[,until])");
      ErrorOr<int> A = parseInt<int>(Args[0]);
      if (!A)
        return A.error();
      ErrorOr<int> B = parseInt<int>(Args[1]);
      if (!B)
        return B.error();
      ErrorOr<sim::SimTime> From = parseTime(Args[2]);
      if (!From)
        return From.error();
      Partition P;
      P.NodeA = *A;
      P.NodeB = *B;
      P.From = *From;
      if (Args.size() == 4) {
        ErrorOr<sim::SimTime> Until = parseTime(Args[3]);
        if (!Until)
          return Until.error();
        if (!Until->isZero() && *Until <= P.From)
          return Error(ErrorCode::ParseError,
                       "fault plan: partition heals before it starts");
        P.Until = *Until;
      }
      Plan.Partitions.push_back(P);
    } else if (Name == "loss" || Name == "corrupt") {
      if (!wantArgs(1, 3))
        return Error(ErrorCode::ParseError,
                     "fault plan: " + std::string(Name) +
                         "(p[,from[,until]])");
      ErrorOr<double> P = parseProbability(Args[0]);
      if (!P)
        return P.error();
      sim::SimTime From, Until;
      if (Args.size() >= 2) {
        ErrorOr<sim::SimTime> F = parseTime(Args[1]);
        if (!F)
          return F.error();
        From = *F;
      }
      if (Args.size() == 3) {
        ErrorOr<sim::SimTime> U = parseTime(Args[2]);
        if (!U)
          return U.error();
        if (!U->isZero() && *U <= From)
          return Error(ErrorCode::ParseError,
                       "fault plan: window ends before it starts");
        Until = *U;
      }
      if (Name == "loss")
        Plan.Losses.push_back({*P, From, Until});
      else
        Plan.Corruptions.push_back({*P, From, Until});
    } else if (Name == "latency") {
      if (!wantArgs(1, 3))
        return Error(ErrorCode::ParseError,
                     "fault plan: latency(extra[,from[,until]])");
      ErrorOr<sim::SimTime> Extra = parseTime(Args[0]);
      if (!Extra)
        return Extra.error();
      LatencyClause L;
      L.Extra = *Extra;
      if (Args.size() >= 2) {
        ErrorOr<sim::SimTime> F = parseTime(Args[1]);
        if (!F)
          return F.error();
        L.From = *F;
      }
      if (Args.size() == 3) {
        ErrorOr<sim::SimTime> U = parseTime(Args[2]);
        if (!U)
          return U.error();
        if (!U->isZero() && *U <= L.From)
          return Error(ErrorCode::ParseError,
                       "fault plan: window ends before it starts");
        L.Until = *U;
      }
      Plan.Latencies.push_back(L);
    } else {
      return Error(ErrorCode::ParseError,
                   "fault plan: unknown clause '" + std::string(Name) + "'");
    }
  }
  return Plan;
}
