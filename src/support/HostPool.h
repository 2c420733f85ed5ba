//===- support/HostPool.h - Fixed-size host worker pool ---------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed set of real host threads draining one FIFO queue, for pure
/// compute that the simulator hands off (the ray tracer's scan lines).
/// The event loop stays single-threaded: a simulated activity submits
/// tasks, then blocks the simulator thread on each future in simulator
/// order and charges virtual time from the result.  Because a task may
/// read only immutable data it owns or shares by value, and its result is
/// consumed at a point fixed by the simulation, nothing simulated depends
/// on the pool's size or on the order in which tasks finish.
///
/// Never block on a future from inside a pool task: a saturated pool
/// would wait on itself.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_HOSTPOOL_H
#define PARCS_SUPPORT_HOSTPOOL_H

#include "support/InlineFunction.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcs {

class HostPool {
public:
  /// Starts \p Threads worker threads (at least one).
  explicit HostPool(unsigned Threads);
  HostPool(const HostPool &) = delete;
  HostPool &operator=(const HostPool &) = delete;
  /// Runs every task still queued, then joins the workers.
  ~HostPool();

  /// Queues \p Fn.  The future yields its result, or rethrows what it
  /// threw.
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<std::decay_t<Fn> &>> {
    using Result = std::invoke_result_t<std::decay_t<Fn> &>;
    std::packaged_task<Result()> Task(std::forward<Fn>(F));
    std::future<Result> Out = Task.get_future();
    post(std::move(Task));
    return Out;
  }

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// The process-wide pool: one thread per hardware thread, started on
  /// first use, so a process that never offloads starts no thread.
  static HostPool &shared();

private:
  using Job = InlineFunction<void()>;

  void post(Job Work);
  void workerLoop();

  std::mutex Lock;
  std::condition_variable Ready;
  std::deque<Job> Queue;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace parcs

#endif // PARCS_SUPPORT_HOSTPOOL_H
