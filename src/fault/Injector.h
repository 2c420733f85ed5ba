//===- fault/Injector.h - Executes a FaultPlan ------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Injector turns a FaultPlan into simulator events and implements the
/// fabric's FaultHook: it schedules node crashes/restarts against the
/// cluster and adjudicates every non-loopback delivery (the dropnth
/// pattern, partition drop, probabilistic loss, bit corruption, latency
/// degradation) -- the one fault evaluator the fabric consults.  All random
/// draws come from one support/Random stream seeded by the plan, and the
/// single-threaded simulator serialises deliveries, so identical
/// (plan, workload) pairs fault identically -- chaos runs replay
/// bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_FAULT_INJECTOR_H
#define PARCS_FAULT_INJECTOR_H

#include "fault/FaultPlan.h"
#include "net/Network.h"
#include "support/Random.h"
#include "vm/Cluster.h"

namespace parcs::fault {

/// Drives one FaultPlan against one cluster + network.  Attach before the
/// workload starts (the RPC engine keys frame checksums off a hook being
/// installed); the injector must outlive all traffic and detaches itself
/// from the network on destruction.
class Injector final : public net::FaultHook {
public:
  Injector(sim::Simulator &Sim, FaultPlan Plan)
      : Sim(Sim), Plan(std::move(Plan)), Random(this->Plan.Seed) {}
  /// Folds fault.* metrics and clears the network hook.
  ~Injector() override;
  Injector(const Injector &) = delete;
  Injector &operator=(const Injector &) = delete;

  /// Installs this injector as \p Net's fault hook and schedules the
  /// plan's crash/restart events against \p Cluster.  Call once, at
  /// virtual time zero, before any messages flow.
  void attach(vm::Cluster &Cluster, net::Network &Net);

  // FaultHook:
  bool nodeAlive(int Node) const override;
  sim::SimTime extraLatency(int Src, int Dst) override;
  Verdict onDeliver(int Src, int Dst,
                    std::vector<uint8_t> &Payload) override;

  struct Counters {
    uint64_t Crashes = 0;
    uint64_t Restarts = 0;
    /// dropnth and loss-clause drops alike.
    uint64_t LossDropped = 0;
    uint64_t PartitionDropped = 0;
    uint64_t NodeDownDropped = 0;
    uint64_t Corrupted = 0;
    uint64_t Delayed = 0;
  };
  const Counters &counters() const { return Stats; }
  const FaultPlan &plan() const { return Plan; }

private:
  /// True when a [From, Until) window is active at the current virtual
  /// time (Until zero = forever).
  bool activeNow(sim::SimTime From, sim::SimTime Until) const;

  sim::Simulator &Sim;
  FaultPlan Plan;
  Rng Random;
  vm::Cluster *Cluster = nullptr;
  net::Network *Net = nullptr;
  Counters Stats;
  /// Non-loopback deliveries adjudicated so far (the dropnth clock).
  uint64_t Deliveries = 0;
};

} // namespace parcs::fault

#endif // PARCS_FAULT_INJECTOR_H
