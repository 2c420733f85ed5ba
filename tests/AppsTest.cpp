//===- tests/AppsTest.cpp - workload application tests --------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/pingpong/PingPong.h"
#include "core/ObjectManager.h"
#include "apps/ray/Farm.h"
#include "apps/ray/Scene.h"
#include "apps/sieve/Sieve.h"
#include "mpi/Mpi.h"
#include "net/Network.h"
#include "support/HostPool.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace parcs;
using namespace parcs::apps;

namespace {

//===----------------------------------------------------------------------===//
// Ray tracer scene
//===----------------------------------------------------------------------===//

TEST(SceneTest, BuildsSixtyFourSpheres) {
  ray::Scene S = ray::Scene::javaGrande(4);
  EXPECT_EQ(S.sphereCount(), 64u);
}

TEST(SceneTest, RenderingIsDeterministic) {
  ray::Scene S = ray::Scene::javaGrande(3);
  ray::LineResult A = S.renderLine(10, 64, 48);
  ray::LineResult B = S.renderLine(10, 64, 48);
  EXPECT_EQ(A.Rgb, B.Rgb);
  EXPECT_EQ(A.Ops, B.Ops);
}

TEST(SceneTest, LinesDifferAndCountOps) {
  ray::Scene S = ray::Scene::javaGrande(3);
  ray::LineResult Top = S.renderLine(0, 64, 48);
  ray::LineResult Mid = S.renderLine(24, 64, 48);
  EXPECT_GT(Top.Ops, 0u);
  EXPECT_GT(Mid.Ops, Top.Ops) << "centre lines hit spheres: more work";
  EXPECT_NE(Top.Rgb, Mid.Rgb);
}

TEST(SceneTest, WholeFrameAggregatesLines) {
  ray::Scene S = ray::Scene::javaGrande(2);
  int W = 32, H = 24;
  ray::RenderStats Whole = S.renderWhole(W, H);
  uint64_t Ops = 0, Sum = 0;
  for (int Y = 0; Y < H; ++Y) {
    ray::LineResult Line = S.renderLine(Y, W, H);
    Ops += Line.Ops;
    Sum += ray::Scene::lineChecksum(Line.Rgb);
  }
  EXPECT_EQ(Whole.TotalOps, Ops);
  EXPECT_EQ(Whole.Checksum, Sum);
}

TEST(SceneTest, DeeperReflectionCostsMore) {
  ray::Scene S = ray::Scene::javaGrande(3);
  EXPECT_GT(S.renderLine(24, 64, 48, /*MaxDepth=*/4).Ops,
            S.renderLine(24, 64, 48, /*MaxDepth=*/0).Ops);
}

TEST(SceneTest, CalibrationHitsTarget) {
  ray::Scene S = ray::Scene::javaGrande(2);
  double NsPerOp = ray::calibrateNsPerOp(S, 40, 30, 10.0);
  ray::RenderStats Stats = S.renderWhole(40, 30);
  EXPECT_NEAR(static_cast<double>(Stats.TotalOps) * NsPerOp * 1e-9, 10.0,
              1e-6);
}

//===----------------------------------------------------------------------===//
// Ray farms (Fig. 9 machinery, small frames)
//===----------------------------------------------------------------------===//

std::shared_ptr<const ray::RayJob> smallJob() {
  auto Job = std::make_shared<ray::RayJob>();
  Job->SceneData = ray::Scene::javaGrande(2);
  Job->Width = 48;
  Job->Height = 36;
  Job->LinesPerTask = 6;
  // Small virtual cost so tests run fast in virtual time too.
  Job->NsPerOp = ray::calibrateNsPerOp(Job->SceneData, Job->Width,
                                       Job->Height, /*Target=*/2.0);
  return Job;
}

TEST(RayFarmTest, ScooppChecksumMatchesSequential) {
  auto Job = smallJob();
  ray::SequentialResult Seq =
      ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  ray::FarmResult Farm = ray::runScooppRayFarm(Job, {/*Processors=*/4});
  EXPECT_EQ(Farm.Checksum, Seq.Checksum) << "the farm must render the same "
                                            "image";
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
  EXPECT_GT(Farm.Elapsed, sim::SimTime());
}

TEST(RayFarmTest, RmiChecksumMatchesSequential) {
  auto Job = smallJob();
  ray::SequentialResult Seq =
      ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  ray::FarmResult Farm = ray::runRmiRayFarm(Job, {/*Processors=*/4});
  EXPECT_EQ(Farm.Checksum, Seq.Checksum);
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
}

TEST(RayFarmTest, MoreProcessorsRunFaster) {
  auto Job = smallJob();
  ray::FarmResult P1 = ray::runScooppRayFarm(Job, {1});
  ray::FarmResult P4 = ray::runScooppRayFarm(Job, {4});
  EXPECT_LT(P4.Elapsed, P1.Elapsed);
  // Speed-up is sub-linear but real.
  EXPECT_GT(P1.Elapsed.toSecondsF() / P4.Elapsed.toSecondsF(), 1.8);
}

TEST(RayFarmTest, ParcsSlowerThanRmiAtEqualProcessors) {
  // Fig. 9: ParC# sits above Java RMI, dominated by the Mono VM's 1.4x
  // sequential penalty.
  auto Job = smallJob();
  ray::FarmResult Parcs = ray::runScooppRayFarm(Job, {2});
  ray::FarmResult Rmi = ray::runRmiRayFarm(Job, {2});
  EXPECT_GT(Parcs.Elapsed, Rmi.Elapsed);
  double Ratio = Parcs.Elapsed.toSecondsF() / Rmi.Elapsed.toSecondsF();
  EXPECT_GT(Ratio, 1.2);
  EXPECT_LT(Ratio, 1.9);
}

TEST(RayFarmTest, SequentialVmRatiosMatchPaper) {
  auto Job = smallJob();
  double Jvm = ray::sequentialRender(*Job, vm::VmKind::SunJvm142).Seconds;
  double Mono = ray::sequentialRender(*Job, vm::VmKind::MonoVm117).Seconds;
  double Clr = ray::sequentialRender(*Job, vm::VmKind::MsClr).Seconds;
  EXPECT_NEAR(Mono / Jvm, 1.4, 1e-9);
  EXPECT_NEAR(Clr / Jvm, 1.1, 1e-9);
}

TEST(RayFarmTest, DeterministicAcrossRuns) {
  auto Job = smallJob();
  ray::FarmResult A = ray::runScooppRayFarm(Job, {3});
  ray::FarmResult B = ray::runScooppRayFarm(Job, {3});
  EXPECT_EQ(A.Elapsed, B.Elapsed);
  EXPECT_EQ(A.Checksum, B.Checksum);
}


TEST(RayFarmTest, MpiFarmChecksumMatchesSequential) {
  auto Job = smallJob();
  ray::SequentialResult Seq =
      ray::sequentialRender(*Job, vm::VmKind::SunJvm142);
  ray::FarmResult Farm = ray::runMpiRayFarm(Job, {/*Processors=*/4});
  EXPECT_EQ(Farm.Checksum, Seq.Checksum);
  EXPECT_EQ(Farm.PixelBytes,
            static_cast<uint64_t>(Job->Width) * Job->Height * 3);
}

TEST(RayFarmTest, StackOrderingMpiFastest) {
  auto Job = smallJob();
  ray::FarmConfig Config;
  Config.Processors = 2;
  ray::FarmResult Mpi = ray::runMpiRayFarm(Job, Config);
  ray::FarmResult Rmi = ray::runRmiRayFarm(Job, Config);
  ray::FarmResult Parcs = ray::runScooppRayFarm(Job, Config);
  EXPECT_LT(Mpi.Elapsed, Rmi.Elapsed);
  EXPECT_LT(Rmi.Elapsed, Parcs.Elapsed);
}

TEST(RayFarmTest, MpiFarmDeterministic) {
  auto Job = smallJob();
  ray::FarmResult A = ray::runMpiRayFarm(Job, {3});
  ray::FarmResult B = ray::runMpiRayFarm(Job, {3});
  EXPECT_EQ(A.Elapsed, B.Elapsed);
  EXPECT_EQ(A.Checksum, B.Checksum);
}

TEST(RayFarmTest, ByteIdenticalAcrossPoolSizes) {
  // Lines render on host threads, but the simulator consumes them in its
  // own order and charges virtual time from their op counts alone: no
  // result, trace or metric may depend on the pool's size.
  auto Job = smallJob();
  metrics::Registry &Reg = metrics::Registry::global();
  using Runner = std::function<ray::FarmResult(ray::FarmConfig)>;
  const std::pair<const char *, Runner> Farms[] = {
      {"scoopp", [&](ray::FarmConfig C) { return ray::runScooppRayFarm(Job, C); }},
      {"rmi", [&](ray::FarmConfig C) { return ray::runRmiRayFarm(Job, C); }},
      {"mpi", [&](ray::FarmConfig C) { return ray::runMpiRayFarm(Job, C); }},
  };
  struct Outcome {
    ray::FarmResult Plain, Traced;
    std::string PlainMetrics, TracedMetrics, Trace;
  };
  for (const auto &[Name, Run] : Farms) {
    std::vector<Outcome> BySize;
    for (unsigned Threads : {1u, 2u, 4u}) {
      HostPool Pool(Threads);
      ray::FarmConfig Config;
      Config.Processors = 3;
      Config.Pool = &Pool;
      Outcome O;
      Reg.reset();
      O.Plain = Run(Config);
      O.PlainMetrics = Reg.jsonReport();
      Reg.reset();
      trace::reset();
      trace::setEnabled(true);
      O.Traced = Run(Config);
      trace::setEnabled(false);
      O.Trace = trace::exportJson();
      O.TracedMetrics = Reg.jsonReport();
      trace::reset();
      Reg.reset();
      BySize.push_back(std::move(O));
    }
    const Outcome &One = BySize.front();
    EXPECT_EQ(One.Plain.PixelBytes,
              static_cast<uint64_t>(Job->Width) * Job->Height * 3)
        << Name;
    EXPECT_NE(One.Trace.find("net.transfer"), std::string::npos) << Name;
    for (size_t I = 1; I < BySize.size(); ++I) {
      SCOPED_TRACE(std::string(Name) + " pool of " +
                   std::to_string(1u << I) + " threads");
      const Outcome &O = BySize[I];
      for (auto [A, B] : {std::pair{&One.Plain, &O.Plain},
                          std::pair{&One.Traced, &O.Traced}}) {
        EXPECT_EQ(A->Elapsed, B->Elapsed);
        EXPECT_EQ(A->Checksum, B->Checksum);
        EXPECT_EQ(A->PixelBytes, B->PixelBytes);
      }
      EXPECT_EQ(One.PlainMetrics, O.PlainMetrics);
      EXPECT_EQ(One.TracedMetrics, O.TracedMetrics);
      EXPECT_EQ(One.Trace, O.Trace) << "trace exports must be byte-identical";
    }
  }
}

/// Test master for one MPI farm worker: sends \p Blocks, then the done
/// marker, and keeps the worker's packed result.
sim::Task<void> sendBlocks(mpi::MpiComm Comm,
                           std::vector<std::pair<int32_t, int32_t>> Blocks,
                           remoting::Bytes *Result) {
  for (auto [Y0, Y1] : Blocks)
    co_await Comm.send(1, ray::TagWork, serial::encodeValues(Y0, Y1));
  co_await Comm.send(1, ray::TagDone, {});
  mpi::RecvResult In = co_await Comm.recv(1, ray::TagResult);
  *Result = std::move(In.Data);
}

TEST(RayFarmTest, MpiWorkerDropsOutOfFrameBlocks) {
  // A (-1, 3) block used to reach renderLine's scan-line assertion and
  // abort the process; one past the frame was silently clipped.  Both are
  // now dropped whole, like a block that fails to decode.
  auto Job = smallJob();
  vm::Cluster Machines(1, vm::VmKind::NativeCpp);
  net::Network Net(Machines.sim(), 1);
  mpi::MpiWorld World(Machines, Net, /*TotalRanks=*/2);
  remoting::Bytes Result;
  std::vector<std::pair<int32_t, int32_t>> Blocks = {
      {-1, 3}, {2, 4}, {Job->Height - 1, Job->Height + 1}, {5, 4}};
  World.launch([&](mpi::MpiComm Comm) -> sim::Task<void> {
    if (Comm.rank() == 0)
      return sendBlocks(Comm, Blocks, &Result);
    return ray::mpiRayWorker(Comm, Job, nullptr);
  });
  Machines.sim().run();

  serial::InputArchive In(Result);
  uint64_t Checksum = 0;
  uint32_t RowBytes = 0;
  ASSERT_TRUE(In.read(Checksum) && In.read(RowBytes));
  EXPECT_EQ(RowBytes, 2u * static_cast<uint32_t>(Job->Width) * 3)
      << "only the in-frame block (2, 4) renders";
  EXPECT_EQ(Checksum,
            ray::Scene::lineChecksum(
                Job->SceneData.renderLine(2, Job->Width, Job->Height).Rgb) +
                ray::Scene::lineChecksum(
                    Job->SceneData.renderLine(3, Job->Width, Job->Height).Rgb));
}

//===----------------------------------------------------------------------===//
// Prime sieve
//===----------------------------------------------------------------------===//

std::vector<int32_t> referencePrimes(int32_t MaxN) {
  std::vector<int32_t> Primes;
  for (int32_t N = 2; N <= MaxN; ++N) {
    bool Composite = false;
    for (int32_t P : Primes) {
      if (static_cast<int64_t>(P) * P > N)
        break;
      if (N % P == 0) {
        Composite = true;
        break;
      }
    }
    if (!Composite)
      Primes.push_back(N);
  }
  return Primes;
}

TEST(SieveTest, SequentialSieveIsCorrect) {
  sieve::SieveJob Job;
  Job.MaxN = 2000;
  auto Result = sieve::sequentialSieve(Job, vm::VmKind::SunJvm142);
  EXPECT_EQ(Result.Primes, referencePrimes(2000));
  EXPECT_GT(Result.Tests, 0u);
  EXPECT_GT(Result.Seconds, 0.0);
}

TEST(SieveTest, VmComparisonMatchesPaper) {
  // "running another application, a prime number sieve, the Mono
  // execution time is about the same as the JVM".
  sieve::SieveJob Job;
  Job.MaxN = 5000;
  double Jvm = sieve::sequentialSieve(Job, vm::VmKind::SunJvm142).Seconds;
  double Mono = sieve::sequentialSieve(Job, vm::VmKind::MonoVm117).Seconds;
  EXPECT_DOUBLE_EQ(Mono / Jvm, 1.0);
}

struct SieveWorld {
  SieveWorld(std::shared_ptr<const sieve::SieveJob> Job,
             scoopp::ScooppConfig Config = scoopp::ScooppConfig(),
             int Nodes = 3)
      : Machines(Nodes, vm::VmKind::MonoVm117), Net(Machines.sim(), Nodes),
        Runtime(Machines, Net, [&Job] {
          scoopp::ParallelClassRegistry Registry;
          sieve::registerSieveClasses(Registry, Job);
          return Registry;
        }(), Config) {}

  vm::Cluster Machines;
  net::Network Net;
  scoopp::ScooppRuntime Runtime;
};

ErrorOr<sieve::PipelineResult>
runPipelineToCompletion(SieveWorld &W, std::shared_ptr<const sieve::SieveJob> Job) {
  ErrorOr<sieve::PipelineResult> Out(sieve::PipelineResult{});
  struct Driver {
    static sim::Task<void> run(SieveWorld &W,
                               std::shared_ptr<const sieve::SieveJob> Job,
                               ErrorOr<sieve::PipelineResult> &Out) {
      Out = co_await sieve::runSievePipeline(W.Runtime, 0, Job);
    }
  };
  W.Machines.sim().spawn(Driver::run(W, Job, Out));
  W.Machines.sim().run();
  return Out;
}

TEST(SieveTest, PipelineMatchesReference) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 600;
  Job->FilterCapacity = 8;
  Job->BatchSize = 16;
  SieveWorld W(Job);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(600));
  // pi(600) = 109 primes over capacity-8 filters -> a 14-filter chain.
  EXPECT_EQ(Result->FilterCount, 14);
}

class SieveParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SieveParamTest, PipelineCorrectAcrossShapes) {
  auto [MaxN, Capacity, Batch] = GetParam();
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = MaxN;
  Job->FilterCapacity = Capacity;
  Job->BatchSize = Batch;
  SieveWorld W(Job);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(MaxN));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SieveParamTest,
    ::testing::Values(std::make_tuple(100, 4, 8),
                      std::make_tuple(300, 1, 16),
                      std::make_tuple(300, 16, 4),
                      std::make_tuple(1000, 8, 32),
                      std::make_tuple(50, 100, 5),
                      std::make_tuple(200, 8, 1),
                      std::make_tuple(2, 8, 8),
                      std::make_tuple(3, 1, 1)));

TEST(SieveTest, AggregationPreservesCorrectness) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 500;
  scoopp::ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 8;
  SieveWorld W(Job, Config);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(500));
}

TEST(SieveTest, AgglomerationPreservesCorrectness) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 500;
  scoopp::ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  SieveWorld W(Job, Config);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(500));
  // Everything was created on the driver's node.
  EXPECT_EQ(W.Runtime.om(0).hostedObjects(), Result->FilterCount);
  EXPECT_EQ(W.Runtime.stats().RemoteCreations, 0u);
  EXPECT_EQ(W.Runtime.stats().LocalCreations,
            static_cast<uint64_t>(Result->FilterCount));
}

TEST(SieveTest, AdaptiveModePreservesCorrectness) {
  auto Job = std::make_shared<sieve::SieveJob>();
  Job->MaxN = 800;
  scoopp::ScooppConfig Config;
  Config.Grain.Adaptive = true;
  Config.Grain.MaxCallsPerMessage = 16;
  SieveWorld W(Job, Config);
  auto Result = runPipelineToCompletion(W, Job);
  ASSERT_TRUE(Result.hasValue()) << Result.error().str();
  EXPECT_EQ(Result->Primes, referencePrimes(800));
}

TEST(SieveTest, AggregationCutsMessageCount) {
  auto CountMessages = [](int Factor) {
    auto Job = std::make_shared<sieve::SieveJob>();
    Job->MaxN = 400;
    Job->BatchSize = 4;
    scoopp::ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = Factor;
    SieveWorld W(Job, Config);
    auto Result = runPipelineToCompletion(W, Job);
    EXPECT_TRUE(Result.hasValue());
    return W.Net.messagesDelivered();
  };
  EXPECT_GT(CountMessages(1), CountMessages(8));
}

//===----------------------------------------------------------------------===//
// Ping-pong kernels (Fig. 8 machinery, spot checks)
//===----------------------------------------------------------------------===//

TEST(PingPongTest, LatencyOrderingMatchesPaper) {
  int Rounds = 20;
  size_t Small = 4;
  double Mpi = pingpong::runMpiPingPong(Small, Rounds).OneWayLatencyUs;
  double Mono =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp117,
                                    Small, Rounds)
          .OneWayLatencyUs;
  double Nio = pingpong::runRemotingPingPong(remoting::StackKind::JavaNio,
                                             Small, Rounds)
                   .OneWayLatencyUs;
  double Rmi = pingpong::runRemotingPingPong(remoting::StackKind::JavaRmi,
                                             Small, Rounds)
                   .OneWayLatencyUs;
  EXPECT_LT(Mpi, Nio);
  EXPECT_LT(Nio, Rmi);
  EXPECT_LT(Mono, Rmi);
  EXPECT_NEAR(Mpi, 100.0, 15.0);
  EXPECT_NEAR(Mono, 273.0, 40.0);
  EXPECT_NEAR(Rmi, 520.0, 60.0);
  // "This latency is very close to the performance of the Java nio
  // package."
  EXPECT_NEAR(Nio / Mono, 1.0, 0.25);
}

TEST(PingPongTest, LargeMessageBandwidthOrderingMatchesPaper) {
  int Rounds = 3;
  size_t Large = 1 << 20;
  double Mpi = pingpong::runMpiPingPong(Large, Rounds).BandwidthMBps;
  double Rmi = pingpong::runRemotingPingPong(remoting::StackKind::JavaRmi,
                                             Large, Rounds)
                   .BandwidthMBps;
  double Mono =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp117,
                                    Large, Rounds)
          .BandwidthMBps;
  double Mono105 =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp105,
                                    Large, Rounds)
          .BandwidthMBps;
  double Http =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingHttp117,
                                    Large, Rounds)
          .BandwidthMBps;
  // Fig. 8a: MPI > Java RMI > Mono.  Fig. 8b: 1.1.7 >> 1.0.5, Http worst
  // or comparable to 1.0.5.
  EXPECT_GT(Mpi, Rmi);
  EXPECT_GT(Rmi, Mono);
  EXPECT_GT(Mono, Mono105);
  EXPECT_GT(Mono, Http);
  EXPECT_LT(Mpi, 11.9); // Below the wire-goodput ceiling.
}

TEST(PingPongTest, BandwidthGrowsWithMessageSize) {
  int Rounds = 5;
  auto Stack = remoting::StackKind::MonoRemotingTcp117;
  double B1k = pingpong::runRemotingPingPong(Stack, 1 << 10, Rounds)
                   .BandwidthMBps;
  double B64k = pingpong::runRemotingPingPong(Stack, 1 << 16, Rounds)
                    .BandwidthMBps;
  double B1m = pingpong::runRemotingPingPong(Stack, 1 << 20, Rounds)
                   .BandwidthMBps;
  EXPECT_LT(B1k, B64k);
  EXPECT_LT(B64k, B1m);
}

TEST(PingPongTest, ParcsPenaltyNotNoticeable) {
  int Rounds = 20;
  double Raw =
      pingpong::runRemotingPingPong(remoting::StackKind::MonoRemotingTcp117,
                                    1024, Rounds)
          .OneWayLatencyUs;
  double Parcs = pingpong::runScooppPingPong(1024, Rounds).OneWayLatencyUs;
  EXPECT_GT(Parcs, Raw);
  EXPECT_LT((Parcs - Raw) / Raw, 0.05);
}

} // namespace
