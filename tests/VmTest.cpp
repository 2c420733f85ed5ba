//===- tests/VmTest.cpp - VM / node / thread pool tests -------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "vm/Calibration.h"
#include "vm/Cluster.h"
#include "vm/Node.h"
#include "vm/ThreadPool.h"
#include "vm/VmKind.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::sim;
using namespace parcs::vm;

namespace {

SimTime ms(int64_t N) { return SimTime::milliseconds(N); }

//===----------------------------------------------------------------------===//
// Cost models
//===----------------------------------------------------------------------===//

TEST(VmKindTest, PaperRatiosHold) {
  // Section 4: Mono FP code costs 40% more than the Sun JVM, MS CLR 10%
  // more, and the integer sieve is "about the same".
  const VmCostModel &Jvm = vmCostModel(VmKind::SunJvm142);
  const VmCostModel &Mono = vmCostModel(VmKind::MonoVm117);
  const VmCostModel &Clr = vmCostModel(VmKind::MsClr);
  EXPECT_NEAR(Mono.FpMultiplier / Jvm.FpMultiplier, 1.4, 1e-9);
  EXPECT_NEAR(Clr.FpMultiplier / Jvm.FpMultiplier, 1.1, 1e-9);
  EXPECT_NEAR(Mono.IntMultiplier / Jvm.IntMultiplier, 1.0, 1e-9);
}

TEST(VmKindTest, Mono105SlowerThan117) {
  EXPECT_GT(vmCostModel(VmKind::MonoVm105).FpMultiplier,
            vmCostModel(VmKind::MonoVm117).FpMultiplier);
}

TEST(VmKindTest, NamesAreStable) {
  EXPECT_STREQ(vmKindName(VmKind::MonoVm117), "Mono 1.1.7");
  EXPECT_STREQ(vmKindName(VmKind::SunJvm142), "Sun JVM 1.4.2");
}

TEST(VmKindTest, WorkMultiplierSelectsKind) {
  const VmCostModel &Mono = vmCostModel(VmKind::MonoVm117);
  EXPECT_EQ(workMultiplier(Mono, WorkKind::FloatingPoint),
            Mono.FpMultiplier);
  EXPECT_EQ(workMultiplier(Mono, WorkKind::Integer), Mono.IntMultiplier);
  EXPECT_EQ(workMultiplier(Mono, WorkKind::Allocation),
            Mono.AllocMultiplier);
}

TEST(VmKindTest, MonoPoolSmallerThanJvm) {
  EXPECT_LT(vmCostModel(VmKind::MonoVm117).ThreadPoolMax,
            vmCostModel(VmKind::SunJvm142).ThreadPoolMax);
}


TEST(VmKindTest, TunedProjectionSitsBetweenJvmAndMono) {
  const VmCostModel &Tuned = vmCostModel(VmKind::MonoTuned);
  EXPECT_GT(Tuned.FpMultiplier, vmCostModel(VmKind::SunJvm142).FpMultiplier);
  EXPECT_LT(Tuned.FpMultiplier, vmCostModel(VmKind::MonoVm117).FpMultiplier);
  EXPECT_GT(Tuned.ThreadPoolMax, vmCostModel(VmKind::MonoVm117).ThreadPoolMax);
}

//===----------------------------------------------------------------------===//
// Node compute scheduling
//===----------------------------------------------------------------------===//

Task<void> burn(Node &N, SimTime Cpu, SimTime &DoneAt) {
  co_await N.compute(Cpu);
  DoneAt = N.sim().now();
}

TEST(NodeTest, SingleThreadRunsAtFullSpeed) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
  SimTime Done;
  Sim.spawn(burn(N, ms(100), Done));
  Sim.run();
  EXPECT_EQ(Done, ms(100));
  EXPECT_EQ(N.busyTime(), ms(100));
}

TEST(NodeTest, TwoThreadsOnOneCoreTimeshare) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/1);
  SimTime DoneA, DoneB;
  Sim.spawn(burn(N, ms(100), DoneA));
  Sim.spawn(burn(N, ms(100), DoneB));
  Sim.run();
  // Round-robin: both finish around 200 ms (within one quantum of each
  // other), not one at 100 and one at 200.
  EXPECT_GE(DoneA, ms(190));
  EXPECT_GE(DoneB, ms(190));
  EXPECT_LE(DoneA, ms(200));
  EXPECT_LE(DoneB, ms(200));
}

TEST(NodeTest, TwoThreadsOnTwoCoresRunConcurrently) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, /*Cores=*/2);
  SimTime DoneA, DoneB;
  Sim.spawn(burn(N, ms(100), DoneA));
  Sim.spawn(burn(N, ms(100), DoneB));
  Sim.run();
  EXPECT_EQ(DoneA, ms(100));
  EXPECT_EQ(DoneB, ms(100));
  EXPECT_EQ(N.busyTime(), ms(200));
}

TEST(NodeTest, ZeroComputeCompletesImmediately) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp);
  SimTime Done = SimTime::seconds(-1);
  Sim.spawn(burn(N, SimTime(), Done));
  Sim.run();
  EXPECT_EQ(Done, SimTime());
}

TEST(NodeTest, ComputeWorkAppliesVmMultiplier) {
  Simulator Sim;
  Node Mono(Sim, 0, VmKind::MonoVm117, 1);
  Node Jvm(Sim, 1, VmKind::SunJvm142, 1);
  SimTime MonoDone, JvmDone;
  struct Proc {
    static Task<void> run(Node &N, SimTime &Done) {
      co_await N.computeWork(WorkKind::FloatingPoint, ms(100));
      Done = N.sim().now();
    }
  };
  Sim.spawn(Proc::run(Mono, MonoDone));
  Sim.spawn(Proc::run(Jvm, JvmDone));
  Sim.run();
  EXPECT_EQ(JvmDone, ms(100));
  EXPECT_EQ(MonoDone, ms(140)); // 1.4x
}

TEST(NodeTest, FairnessManyThreads) {
  // 4 equal jobs on 2 cores must all complete at ~2x the solo time.
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 2);
  SimTime Done[4];
  for (auto &D : Done)
    Sim.spawn(burn(N, ms(50), D));
  Sim.run();
  for (const auto &D : Done) {
    EXPECT_GE(D, ms(90));
    EXPECT_LE(D, ms(100));
  }
}

TEST(NodeTest, StartThreadChargesCreationCost) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 1);
  SimTime BodyRanAt;
  struct Body {
    static Task<void> run(Simulator &Sim, SimTime &At) {
      At = Sim.now();
      co_return;
    }
  };
  N.startThread(Body::run(Sim, BodyRanAt));
  Sim.run();
  EXPECT_EQ(BodyRanAt, calib::ThreadCreateCost);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsAllPostedWork) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::MonoVm117, 2);
  ThreadPool Pool(N, 4);
  int Ran = 0;
  for (int I = 0; I < 10; ++I)
    Pool.post([&N, &Ran]() -> Task<void> {
      struct Body {
        static Task<void> run(Node &N, int &Ran) {
          co_await N.compute(ms(1));
          ++Ran;
        }
      };
      return Body::run(N, Ran);
    });
  Sim.run();
  EXPECT_EQ(Ran, 10);
  EXPECT_EQ(Pool.posted(), 10u);
  EXPECT_EQ(Pool.queueDepth(), 0u);
}

TEST(ThreadPoolTest, CapLimitsConcurrency) {
  // With 2 workers, 4 long jobs finish in two waves even though the node
  // has 4 cores available.
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 4);
  ThreadPool Pool(N, 2);
  std::vector<SimTime> Done;
  for (int I = 0; I < 4; ++I)
    Pool.post([&]() -> Task<void> {
      struct Body {
        static Task<void> run(Node &N, std::vector<SimTime> &Done) {
          co_await N.compute(ms(100));
          Done.push_back(N.sim().now());
        }
      };
      return Body::run(N, Done);
    });
  Sim.run();
  ASSERT_EQ(Done.size(), 4u);
  // First wave ~100ms, second wave ~200ms (plus small dispatch costs).
  EXPECT_LT(Done[1], ms(150));
  EXPECT_GT(Done[2], ms(150));
}

Task<void> awaitIdle(ThreadPool &Pool, Simulator &Sim, SimTime &IdleAt) {
  co_await Pool.waitIdle();
  IdleAt = Sim.now();
}

TEST(ThreadPoolTest, WaitIdleObservesCompletion) {
  Simulator Sim;
  Node N(Sim, 0, VmKind::NativeCpp, 1);
  ThreadPool Pool(N, 1);
  SimTime IdleAt;
  Pool.post([&N]() -> Task<void> {
    struct Body {
      static Task<void> run(Node &N) { co_await N.compute(ms(10)); }
    };
    return Body::run(N);
  });
  Sim.spawn(awaitIdle(Pool, Sim, IdleAt));
  Sim.run();
  EXPECT_GE(IdleAt, ms(10));
}

TEST(ThreadPoolTest, DefaultsToVmCap) {
  Simulator Sim;
  Node Mono(Sim, 0, VmKind::MonoVm117);
  ThreadPool Pool(Mono);
  EXPECT_EQ(Pool.workers(), calib::MonoThreadPoolMax);
}

//===----------------------------------------------------------------------===//
// Cluster
//===----------------------------------------------------------------------===//

TEST(ClusterTest, BuildsRequestedShape) {
  Cluster C(3, VmKind::MonoVm117);
  EXPECT_EQ(C.nodeCount(), 3);
  EXPECT_EQ(C.node(0).cores(), 2);
  EXPECT_EQ(C.node(2).id(), 2);
  EXPECT_EQ(C.node(1).vmKind(), VmKind::MonoVm117);
}

TEST(ClusterTest, CleanTeardownWithPendingWork) {
  Cluster C(2, VmKind::MonoVm117);
  SimTime Ignored;
  C.sim().spawn(burn(C.node(0), SimTime::seconds(100000), Ignored));
  C.sim().run(10); // Partially execute, then drop the cluster.
  SUCCEED();
}

} // namespace
