//===- sim/Simulator.h - Discrete-event simulation kernel -------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic discrete-event simulator.  All concurrency in the
/// reproduction (cluster nodes, VM threads, network transfers) runs as
/// coroutines scheduled on this single-threaded virtual-time event loop, so
/// every run is reproducible bit-for-bit on any machine.
///
/// Events with equal timestamps fire in scheduling order (a monotonically
/// increasing sequence number breaks ties), which makes wake-up ordering of
/// semaphores, channels and futures deterministic as well.
///
/// The kernel is built for throughput -- every paper figure is millions of
/// events:
///  - event callbacks are InlineFunction with a 64-byte inline buffer, so
///    the common captures (a handle, a promise, a small message) never heap
///    allocate;
///  - coroutine resumes (the single hottest event kind: channel wake-ups,
///    delays, semaphore grants) store the raw std::coroutine_handle<> in
///    the event node, with no closure at all;
///  - the pending-event set is the two-level calendar queue in SimKernel
///    (FIFO fast lane + time buckets + overflow heap, free-list recycled
///    nodes: zero allocations per event in steady state).
///
/// The calendar queue, clock and sequence counter live in sim/SimKernel.h;
/// this class binds that kernel to the coroutine runtime (spawn/reap, delay
/// awaitable, log clock) and is the front door the rest of the library
/// uses.  See docs/perf.md for the design notes and bench/sim_kernel for
/// the numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_SIMULATOR_H
#define PARCS_SIM_SIMULATOR_H

#include "sim/SimKernel.h"
#include "sim/SimTime.h"
#include "sim/Task.h"
#include "support/Logging.h"

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace parcs::sim {

/// Single-threaded virtual-time event loop.
class Simulator {
public:
  Simulator();
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;
  ~Simulator();

  /// Current virtual time.
  SimTime now() const { return SimTime::nanoseconds(Kernel.nowNs()); }

  /// Number of events executed so far.
  uint64_t eventsProcessed() const { return EventCount; }

  // PARCS_HOT_BEGIN(schedule-inline): the inline half of the kernel; the
  // callable must be emplaced straight into a recycled node.

  /// Schedules \p Fn to run \p Delay after the current time.
  template <typename F> void schedule(SimTime Delay, F &&Fn) {
    scheduleAt(now() + Delay, std::forward<F>(Fn));
  }

  /// Schedules \p Fn at absolute time \p At (must not be in the past).
  /// The callable is constructed directly into a recycled event node --
  /// no temporary wrapper, no relocation.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F> &>)
  void scheduleAt(SimTime At, F &&Fn) {
    assert(At.nanosecondsCount() >= Kernel.nowNs() &&
           "scheduling into the past");
    if constexpr (!EventCallback::fitsInline<std::decay_t<F>>())
      Kernel.noteSboMiss();
    SimKernel::EventNode *Node =
        Kernel.allocNode(At.nanosecondsCount(), Kernel.takeSeq());
    Node->Fn.emplace(std::forward<F>(Fn));
    Kernel.insert(Node);
  }

  /// Overload for a pre-built callback (moved into the node).
  void scheduleAt(SimTime At, EventCallback &&Fn);

  /// Schedules \p Handle to be resumed \p Delay from now.  Stores the raw
  /// handle -- no closure, no allocation.
  void scheduleResume(SimTime Delay, std::coroutine_handle<> Handle) {
    scheduleResumeAt(now() + Delay, Handle);
  }

  /// Absolute-time variant of scheduleResume.
  void scheduleResumeAt(SimTime At, std::coroutine_handle<> Handle);

  // PARCS_HOT_END

  /// Detaches \p T and starts it from the event loop at the current time.
  /// The coroutine frame self-destroys on completion or, if still pending,
  /// is destroyed when the simulator is destroyed (or at reapDetached()).
  void spawn(Task<void> T);

  /// Destroys every detached coroutine frame that has not completed, in
  /// spawn order.  Only callable between run()s (never from inside the
  /// event loop).  Teardown hook for owners of state those frames
  /// reference: a crashed node parks its frames forever, so they outlive
  /// run() and would otherwise be destroyed only by ~Simulator -- after
  /// shorter-lived layers (e.g. the SCOOPP runtime) are already gone.
  void reapDetached();

  /// Awaitable that suspends the caller for \p Duration of virtual time.
  auto delay(SimTime Duration) {
    struct Awaiter {
      Simulator &Sim;
      SimTime Duration;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> Handle) {
        Sim.scheduleResume(Duration, Handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, Duration};
  }

  /// Runs one event.  Returns false when the queue is empty.
  bool step();

  /// Runs until the event queue drains or \p MaxEvents have executed.
  /// Returns the number of events executed.
  uint64_t run(uint64_t MaxEvents = UINT64_MAX);

  /// Runs events with timestamp <= \p Until (and advances the clock to
  /// \p Until even if the queue drains earlier).
  void runUntil(SimTime Until);

  /// Number of pending events.
  size_t pendingCount() const { return Kernel.pendingCount(); }

  /// Scheduler observability counters accumulated since construction.
  const SchedulerCounters &counters() const { return Kernel.counters(); }

private:
  friend void detail::detachedTaskFinished(Simulator &Sim, void *Frame);

  /// Executes one popped event (shared tail of step()).
  void execute(SimKernel::EventNode *Node);
  /// Cold path of step()'s periodic queue-depth sampling; out of line so
  /// the per-event cost stays one in-register test.
  void sampleQueueDepth(int64_t AtNs);

  SimKernel Kernel;
  uint64_t EventCount = 0;

  /// Log clock that was active before this simulator installed itself as
  /// the time source; restored on destruction (simulators nest in tests).
  LogClock PrevLogClock;

  /// Frames of detached coroutines still alive, keyed to their spawn order.
  /// ~Simulator destroys them in spawn order (sorted by the value), so
  /// teardown side effects -- child Task destructors, logging -- are
  /// deterministic instead of following the hash layout.
  std::unordered_map<void *, uint64_t> LiveDetached;
  uint64_t NextDetachSeq = 0;
};

} // namespace parcs::sim

#endif // PARCS_SIM_SIMULATOR_H
