//===- tests/HostPoolTest.cpp - host worker pool unit tests ---------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The ray farms hand scan lines to a HostPool and block on the futures from
// the simulator thread, so the pool must hand every caller its own result
// at any size, carry exceptions to get(), drain and join cleanly when it is
// destroyed with work queued, and never stall a caller that blocks on a
// one-thread pool.
//
//===----------------------------------------------------------------------===//

#include "support/HostPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <vector>

using parcs::HostPool;

namespace {

TEST(HostPoolTest, FuturesReturnTheirOwnResults) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(Threads);
    HostPool Pool(Threads);
    EXPECT_EQ(Pool.size(), Threads);
    std::vector<std::future<uint64_t>> Results;
    for (uint64_t I = 0; I < 200; ++I)
      Results.push_back(Pool.submit([I] { return I * I + 7; }));
    for (uint64_t I = 0; I < Results.size(); ++I)
      EXPECT_EQ(Results[I].get(), I * I + 7);
  }
}

TEST(HostPoolTest, SizeIsAtLeastOne) {
  EXPECT_EQ(HostPool(0).size(), 1u);
  EXPECT_GE(HostPool::shared().size(), 1u);
}

TEST(HostPoolTest, ExceptionReachesGet) {
  HostPool Pool(2);
  std::future<int> Throws =
      Pool.submit([]() -> int { throw std::runtime_error("line failed"); });
  std::future<int> Fine = Pool.submit([] { return 3; });
  EXPECT_THROW(Throws.get(), std::runtime_error);
  EXPECT_EQ(Fine.get(), 3) << "a throwing task must not take its worker down";
}

TEST(HostPoolTest, DestroyingWithQueuedTasksJoinsCleanly) {
  std::atomic<int> Ran{0};
  std::vector<std::future<int>> Results;
  std::promise<void> Gate;
  {
    HostPool Pool(1);
    // The only worker parks on the gate, so everything behind it is still
    // queued when the pool starts to shut down.
    Results.push_back(Pool.submit([Opened = Gate.get_future().share()] {
      Opened.wait();
      return -1;
    }));
    for (int I = 0; I < 50; ++I)
      Results.push_back(Pool.submit([I, &Ran] {
        Ran.fetch_add(1);
        return I;
      }));
    Gate.set_value();
  }
  EXPECT_EQ(Ran.load(), 50) << "queued tasks run before the workers join";
  EXPECT_EQ(Results[0].get(), -1);
  for (int I = 0; I < 50; ++I) {
    std::future<int> &R = Results[static_cast<size_t>(I) + 1];
    ASSERT_EQ(R.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(R.get(), I);
  }
}

TEST(HostPoolTest, OneThreadPoolServesABlockingCaller) {
  // The simulator thread is not a pool worker: it submits a block, then
  // blocks on each line in turn while the single worker drains the queue.
  HostPool Pool(1);
  uint64_t Sum = 0;
  for (int Round = 0; Round < 20; ++Round) {
    std::vector<std::future<int>> Block;
    for (int I = 0; I < 25; ++I)
      Block.push_back(Pool.submit([I] { return I; }));
    for (std::future<int> &Line : Block)
      Sum += static_cast<uint64_t>(Line.get());
  }
  EXPECT_EQ(Sum, 20u * 300u);
}

} // namespace
