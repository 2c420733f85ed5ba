//===- core/Rebalancer.h - SLO-driven live rebalancing ----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closes the loop between the telemetry plane's SLO engine and the
/// object manager's live migration: when a latency objective enters
/// breach (the deterministic slo.breach edge evaluated at window
/// finalization), the rebalancer picks the most loaded healthy node and
/// moves one of its parallel objects to the least loaded non-saturated
/// node.  One migration per breach edge, rate-limited by a cooldown and
/// a lifetime cap, so a persistently-breaching SLO drains load gradually
/// instead of thrashing the cluster.
///
/// Everything runs on virtual time off deterministic signals, so the
/// sequence of triggered migrations is byte-identical across repeated
/// runs.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_REBALANCER_H
#define PARCS_CORE_REBALANCER_H

#include "core/Scoopp.h"
#include "telemetry/Telemetry.h"

namespace parcs::scoopp {

/// Attaches to a telemetry Plane's SLO edge hook for its lifetime and
/// drives ObjectManager::migrate off breach edges.  Construct after the
/// Plane and keep alive until the run (and the runtime) is torn down --
/// spawned rebalance tasks reference it.
class SloRebalancer {
public:
  struct Policy {
    /// Lifetime cap on migrations this rebalancer may trigger.
    int MaxMigrations = 8;
    /// Minimum virtual time between two triggered migrations.
    sim::SimTime Cooldown = sim::SimTime::milliseconds(5);
    /// Required load-metric gap between the hottest and coldest node; a
    /// smaller imbalance is not worth a state transfer.
    int MinLoadGap = 2;
  };

  SloRebalancer(ScooppRuntime &Runtime, telemetry::Plane &Plane, Policy Pol);
  SloRebalancer(ScooppRuntime &Runtime, telemetry::Plane &Plane)
      : SloRebalancer(Runtime, Plane, Policy()) {}
  ~SloRebalancer();

  SloRebalancer(const SloRebalancer &) = delete;
  SloRebalancer &operator=(const SloRebalancer &) = delete;

  /// Breach edges seen (including ones skipped by rate limits).
  uint64_t breaches() const { return Breaches; }
  /// Migrations actually started / completed successfully / skipped.
  uint64_t triggered() const { return Triggered; }
  uint64_t succeeded() const { return Succeeded; }
  uint64_t skipped() const { return Skipped; }

private:
  void onEdge(const telemetry::SloSpec &Spec, bool Breach, int64_t AtNs);
  sim::Task<void> rebalanceOnce();

  ScooppRuntime &Runtime;
  telemetry::Plane &Plane;
  Policy Pol;
  int64_t LastMoveNs = -1;
  bool Busy = false; ///< At most one rebalance task in flight.
  uint64_t Breaches = 0;
  uint64_t Triggered = 0;
  uint64_t Succeeded = 0;
  uint64_t Skipped = 0;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_REBALANCER_H
