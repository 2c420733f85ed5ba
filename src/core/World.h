//===- core/World.h - Cluster + network + runtime bundle --------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience bundle owning everything one ParC# program needs, with the
/// correct construction and destruction order (simulator-owned coroutine
/// frames die before the objects they reference).  Benches and examples
/// build one of these and call runMain.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_WORLD_H
#define PARCS_CORE_WORLD_H

#include "core/Scoopp.h"
#include "net/Network.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"
#include "vm/Cluster.h"

#include <functional>
#include <memory>

namespace parcs::scoopp {

/// A ready-to-run ParC# world: cluster, fabric and runtime.
class ScooppWorld {
public:
  ScooppWorld(int Nodes, ParallelClassRegistry Registry,
              ScooppConfig Config = ScooppConfig(),
              vm::VmKind Vm = vm::VmKind::MonoVm117)
      : Machines(Nodes, Vm), Fabric(Machines.sim(), Nodes),
        Rts(Machines, Fabric, std::move(Registry), Config) {
    // Live telemetry rides in-band over the same fabric when the knob is
    // set; the flight recorder shadows it so chaos runs leave a dump.
    telemetry::TelemetrySpec Spec;
    if (telemetry::envTelemetrySpec(Spec, Nodes)) {
      Telemetry = std::make_unique<telemetry::Plane>(Fabric, Spec);
      if (!Spec.Path.empty())
        Flight = std::make_unique<telemetry::FlightRecorder>(Spec.Path +
                                                             ".flight.json");
    }
  }

  sim::Simulator &sim() { return Machines.sim(); }
  vm::Cluster &cluster() { return Machines; }
  net::Network &net() { return Fabric; }
  ScooppRuntime &runtime() { return Rts; }

  /// Spawns \p Main and drives the simulation until it (and everything it
  /// triggered) completes.  Returns the virtual time consumed.
  sim::SimTime runMain(std::function<sim::Task<void>(ScooppRuntime &)> Main) {
    sim::SimTime Start = Machines.sim().now();
    Machines.sim().spawn(Main(Rts));
    Machines.sim().run();
    return Machines.sim().now() - Start;
  }

  /// The live telemetry plane, or null when PARCS_TELEMETRY is unset.
  telemetry::Plane *telemetryPlane() { return Telemetry.get(); }

private:
  vm::Cluster Machines;
  net::Network Fabric;
  ScooppRuntime Rts;
  // Declared after Rts so they tear down first: the plane folds straggler
  // windows and writes its export while the fabric is still alive.
  std::unique_ptr<telemetry::Plane> Telemetry;
  std::unique_ptr<telemetry::FlightRecorder> Flight;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_WORLD_H
