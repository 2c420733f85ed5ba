//===- support/HostPool.cpp -----------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/HostPool.h"

#include <algorithm>

using namespace parcs;

HostPool::HostPool(unsigned Threads) {
  Threads = std::max(1u, Threads);
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

HostPool::~HostPool() {
  {
    std::lock_guard<std::mutex> Guard(Lock);
    Stopping = true;
  }
  Ready.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void HostPool::post(Job Work) {
  {
    std::lock_guard<std::mutex> Guard(Lock);
    Queue.push_back(std::move(Work));
  }
  Ready.notify_one();
}

void HostPool::workerLoop() {
  for (;;) {
    Job Work;
    {
      std::unique_lock<std::mutex> Guard(Lock);
      Ready.wait(Guard, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping, and everything queued has run.
      Work = std::move(Queue.front());
      Queue.pop_front();
    }
    Work();
  }
}

HostPool &HostPool::shared() {
  static HostPool Pool(std::thread::hardware_concurrency());
  return Pool;
}
