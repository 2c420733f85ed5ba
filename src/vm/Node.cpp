//===- vm/Node.cpp --------------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "vm/Node.h"

#include "support/Logging.h"
#include "support/PostMortem.h"

#include <algorithm>

using namespace parcs;
using namespace parcs::vm;

sim::Task<void> Node::compute(sim::SimTime CpuTime) {
  if (CpuTime <= sim::SimTime())
    co_return;
  if (!Alive)
    co_await haltForever();
  ++Runnable;
  sim::SimTime Remaining = CpuTime;
  while (Remaining > sim::SimTime()) {
    co_await CoreSlots.acquire();
    if (!Alive) {
      // The node crashed while we queued for a core: stop here.  The slot
      // goes back so restarted work is not starved by dead holders.
      CoreSlots.release();
      --Runnable;
      co_await haltForever();
    }
    sim::SimTime Slice = Remaining < calib::SchedulerQuantum
                             ? Remaining
                             : calib::SchedulerQuantum;
    co_await Sim.delay(Slice);
    if (!Alive) {
      // Crashed mid-slice: the partial slice's work is lost, not billed.
      CoreSlots.release();
      --Runnable;
      co_await haltForever();
    }
    Busy += Slice;
    Remaining -= Slice;
    // Yield the core between slices so equal-priority threads round-robin.
    CoreSlots.release();
  }
  --Runnable;
}

sim::Task<bool> Node::computeChecked(sim::SimTime CpuTime) {
  // Mirrors compute() (deliberately duplicated: a wrapper would add a
  // coroutine frame per call on the hottest path) but reports a crash to
  // the caller instead of parking.
  if (CpuTime <= sim::SimTime())
    co_return Alive;
  if (!Alive)
    co_return false;
  ++Runnable;
  sim::SimTime Remaining = CpuTime;
  while (Remaining > sim::SimTime()) {
    co_await CoreSlots.acquire();
    if (!Alive) {
      CoreSlots.release();
      --Runnable;
      co_return false;
    }
    sim::SimTime Slice = Remaining < calib::SchedulerQuantum
                             ? Remaining
                             : calib::SchedulerQuantum;
    co_await Sim.delay(Slice);
    if (!Alive) {
      CoreSlots.release();
      --Runnable;
      co_return false;
    }
    Busy += Slice;
    Remaining -= Slice;
    CoreSlots.release();
  }
  --Runnable;
  co_return true;
}

void Node::crash() {
  assert(Alive && "crash: node already down");
  Alive = false;
  ++Epoch;
  LogNodeScope Scope(Id);
  PARCS_LOG(Info, "node " << Id << ": crashed (epoch " << Epoch << ")");
  postmortem::fire("crash", Id, Sim.now().nanosecondsCount());
}

void Node::restart() {
  assert(!Alive && "restart: node is up");
  Alive = true;
  LogNodeScope Scope(Id);
  PARCS_LOG(Info, "node " << Id << ": restarted (epoch " << Epoch << ")");
  // Registration order keeps the respawn sequence deterministic.
  for (auto &[HookId, Hook] : RestartHooks)
    Hook();
}

uint64_t Node::addRestartHook(std::function<void()> Hook) {
  uint64_t Id = NextHookId++;
  RestartHooks.emplace_back(Id, std::move(Hook));
  return Id;
}

void Node::removeRestartHook(uint64_t Id) {
  RestartHooks.erase(std::remove_if(RestartHooks.begin(), RestartHooks.end(),
                                    [Id](const auto &E) {
                                      return E.first == Id;
                                    }),
                     RestartHooks.end());
}

void Node::startThread(sim::Task<void> Body) {
  // The creation cost is charged on the node before the body runs, matching
  // what a pool would amortise away.
  struct Launcher {
    static sim::Task<void> run(Node &Self, sim::Task<void> Body) {
      co_await Self.compute(calib::ThreadCreateCost);
      co_await std::move(Body);
    }
  };
  Sim.spawn(Launcher::run(*this, std::move(Body)));
}
