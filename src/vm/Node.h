//===- vm/Node.h - A cluster node with cores and a VM -----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One cluster node: a set of CPU cores shared by simulated threads with
/// round-robin time slicing, executing under a VM cost model.  The paper's
/// testbed nodes are dual Athlon MP 1800+ machines, i.e. 2 cores.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_VM_NODE_H
#define PARCS_VM_NODE_H

#include "sim/Simulator.h"
#include "sim/Sync.h"
#include "sim/Task.h"
#include "vm/Calibration.h"
#include "vm/VmKind.h"

#include <functional>
#include <utility>
#include <vector>

namespace parcs::vm {

/// A processing node: \c Cores CPUs shared by any number of simulated
/// threads.  compute() occupies one core for the requested CPU time, sliced
/// into scheduler quanta so concurrent threads share cores fairly (FIFO
/// round-robin), exactly reproducible.
class Node {
public:
  Node(sim::Simulator &Sim, int Id, VmKind Vm,
       int Cores = calib::CoresPerNode)
      : Sim(Sim), Id(Id), Vm(Vm), Model(vmCostModel(Vm)), Cores(Cores),
        CoreSlots(Sim, Cores) {
    assert(Cores > 0 && "node needs at least one core");
  }
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  sim::Simulator &sim() { return Sim; }
  int id() const { return Id; }
  VmKind vmKind() const { return Vm; }
  const VmCostModel &costModel() const { return Model; }
  int cores() const { return Cores; }

  /// Occupies one core for \p CpuTime, time-sliced; other runnable threads
  /// interleave at quantum granularity.  If the node crashes while this
  /// thread holds or waits for a core, the thread parks forever (its frame
  /// is reclaimed at simulator teardown) -- a crashed node's tasks stop.
  sim::Task<void> compute(sim::SimTime CpuTime);

  /// Like compute(), but instead of parking on a crash it returns false
  /// without consuming further time.  For infrastructure loops (RPC
  /// dispatch) that must survive a crash/restart cycle and decide for
  /// themselves what to do with the in-flight work.
  sim::Task<bool> computeChecked(sim::SimTime CpuTime);

  /// Charges \p ReferenceTime of \p Kind work scaled by this node's VM
  /// multiplier (reference = Sun JVM 1.4.2).
  sim::Task<void> computeWork(WorkKind Kind, sim::SimTime ReferenceTime) {
    double Mult = workMultiplier(Model, Kind);
    return compute(sim::SimTime::fromSecondsF(ReferenceTime.toSecondsF() *
                                              Mult));
  }

  /// Starts a new simulated thread on this node, paying the thread-creation
  /// cost before \p Body runs.
  void startThread(sim::Task<void> Body);

  /// Total CPU time consumed on this node so far.
  sim::SimTime busyTime() const { return Busy; }

  /// Number of threads currently inside compute() (running or queued for a
  /// core).
  int runnableThreads() const { return Runnable; }

  //===--------------------------------------------------------------------===//
  // Crash / restart (fault injection)
  //===--------------------------------------------------------------------===//

  /// True while the node is up (the default).
  bool alive() const { return Alive; }
  /// Bumped on every crash; lets work that straddled a crash+restart
  /// window detect it is stale (thread-pool zombie check).
  uint64_t epoch() const { return Epoch; }

  /// Crashes the node: threads inside compute() park at their next
  /// check point (quantum granularity), the NIC blackholes (enforced by
  /// the network's fault hook) and restart hooks will later rebuild the
  /// node's service loops.  Must not be called on a crashed node.
  void crash();

  /// Brings the node back up and runs the registered restart hooks in
  /// registration order (deterministic).  Must not be called on a live
  /// node.
  void restart();

  /// Registers \p Hook to run on every restart (e.g. a thread pool
  /// respawning workers lost to the crash).  Returns an id for
  /// removeRestartHook.
  uint64_t addRestartHook(std::function<void()> Hook);
  void removeRestartHook(uint64_t Id);

  /// Awaitable that never resumes: crashed threads park here and their
  /// frames are reclaimed deterministically at simulator teardown.
  static auto haltForever() {
    struct Awaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<>) const noexcept {}
      void await_resume() const noexcept {}
    };
    return Awaiter{};
  }

private:
  sim::Simulator &Sim;
  int Id;
  VmKind Vm;
  const VmCostModel &Model;
  int Cores;
  sim::Semaphore CoreSlots;
  sim::SimTime Busy;
  int Runnable = 0;
  bool Alive = true;
  uint64_t Epoch = 0;
  uint64_t NextHookId = 1;
  /// Registration-ordered so restart is deterministic.
  std::vector<std::pair<uint64_t, std::function<void()>>> RestartHooks;
};

} // namespace parcs::vm

#endif // PARCS_VM_NODE_H
