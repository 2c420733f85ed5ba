//===- fault/FaultPlan.h - Declarative fault schedule -----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FaultPlan is a declarative, seeded schedule of everything that can go
/// wrong in a run: node crashes (with optional restart), link partitions,
/// probabilistic and burst message loss, payload bit-corruption, and latency
/// degradation.  Plans are plain data -- the Injector turns them into
/// simulator events -- and parse from a compact clause grammar so benches
/// can take them on the command line:
///
///   seed(7);crash(2,40ms,120ms);loss(0.01);corrupt(0.005,10ms,50ms)
///
/// Clause reference (times take s/ms/us/ns suffixes, bare numbers are
/// seconds; 0 means "never"/"forever" where a bound is optional):
///
///   seed(N)                      PRNG seed for the random clauses
///   dropnth(N)                   every Nth non-loopback delivery is lost
///   crash(node,at[,restartAt])   node crashes at `at`, optional restart
///   partition(a,b,from[,until])  messages between a and b are dropped
///   loss(p[,from[,until]])       each delivery lost with probability p
///   corrupt(p[,from[,until]])    one random payload bit flipped w.p. p
///   latency(extra[,from[,until]]) adds `extra` one-way delay
///
/// A burst outage is loss(1.0,from,until).  Identical (plan, workload)
/// pairs replay bit-for-bit: all randomness flows through support/Random
/// seeded from the plan.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_FAULT_FAULTPLAN_H
#define PARCS_FAULT_FAULTPLAN_H

#include "sim/SimTime.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parcs::fault {

/// One scheduled node crash, optionally followed by a restart.
struct CrashEvent {
  int Node = -1;
  sim::SimTime At;
  /// Zero means the node never comes back.
  sim::SimTime RestartAt;
};

/// A bidirectional link cut between two nodes for a time window.
struct Partition {
  int NodeA = -1;
  int NodeB = -1;
  sim::SimTime From;
  /// Zero means the partition never heals.
  sim::SimTime Until;
};

/// Probabilistic message loss while active.  Probability 1.0 over a window
/// is a burst outage.
struct LossClause {
  double Probability = 0.0;
  sim::SimTime From;
  /// Zero means active for the whole run.
  sim::SimTime Until;
};

/// Probabilistic single-bit payload corruption while active.  Corrupted
/// messages are still delivered -- integrity checking above must catch
/// them.
struct CorruptClause {
  double Probability = 0.0;
  sim::SimTime From;
  sim::SimTime Until;
};

/// Additional one-way latency while active (degraded link).
struct LatencyClause {
  sim::SimTime Extra;
  sim::SimTime From;
  sim::SimTime Until;
};

/// The full declarative schedule.  Default-constructed plans are empty
/// (inject nothing).
struct FaultPlan {
  /// Seed for the loss/corruption draws; same seed, same faults.
  uint64_t Seed = 1;
  /// Deterministic loss pattern: when positive, every Nth non-loopback
  /// delivery the Injector adjudicates is lost after occupying the wire
  /// (counted as loss, drawing no random number).
  int DropEveryNth = 0;
  std::vector<CrashEvent> Crashes;
  std::vector<Partition> Partitions;
  std::vector<LossClause> Losses;
  std::vector<CorruptClause> Corruptions;
  std::vector<LatencyClause> Latencies;

  /// True when the plan injects nothing at all.
  bool empty() const {
    return DropEveryNth == 0 && Crashes.empty() && Partitions.empty() &&
           Losses.empty() && Corruptions.empty() && Latencies.empty();
  }

  /// Renders the plan back into the clause grammar (round-trips through
  /// parse()).
  std::string str() const;

  /// Parses the clause grammar described in the file comment.
  static ErrorOr<FaultPlan> parse(std::string_view Spec);
};

} // namespace parcs::fault

#endif // PARCS_FAULT_FAULTPLAN_H
