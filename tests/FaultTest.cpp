//===- tests/FaultTest.cpp - fault injection + timeout tests --------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Failure-path behaviour: deterministic packet loss in the fabric, call
/// deadlines in the RPC engine, connection-setup costs, and retry logic
/// built from the two.
///
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"
#include "remoting/Remoting.h"
#include "serial/Crc32.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::remoting;
using namespace parcs::sim;

namespace {

SimTime ms(int64_t N) { return SimTime::milliseconds(N); }

class EchoHandler : public CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method != "echo")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    ++Calls;
    co_return Bytes(Args);
  }
  int Calls = 0;
};

/// Two Mono Tcp endpoints.  A positive \p DropEveryNth attaches an
/// Injector running plan "dropnth(N)" (so frames carry the CRC trailer);
/// zero leaves the fabric without a fault hook.
struct FaultWorld {
  explicit FaultWorld(int DropEveryNth = 0)
      : Machines(2, vm::VmKind::MonoVm117), Net(Machines.sim(), 2),
        Client(Machines.node(0), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Server(Machines.node(1), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Echo(std::make_shared<EchoHandler>()) {
    Server.publish("echo", Echo);
    if (DropEveryNth > 0) {
      fault::FaultPlan Plan;
      Plan.DropEveryNth = DropEveryNth;
      Drops = std::make_unique<fault::Injector>(sim(), Plan);
      Drops->attach(Machines, Net);
    }
  }

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  RpcEndpoint Client;
  RpcEndpoint Server;
  std::shared_ptr<EchoHandler> Echo;
  std::unique_ptr<fault::Injector> Drops;
};

//===----------------------------------------------------------------------===//
// Packet loss
//===----------------------------------------------------------------------===//

TEST(FaultTest, DropPatternIsDeterministic) {
  FaultWorld W(/*DropEveryNth=*/3);
  int Ok = 0, TimedOut = 0;
  struct Proc {
    static Task<void> run(FaultWorld &W, int &Ok, int &TimedOut) {
      for (int I = 0; I < 9; ++I) {
        Bytes Payload = serial::encodeValues(static_cast<int32_t>(I));
        ErrorOr<Bytes> Out = co_await W.Client.call(
            1, 1050, "echo", "echo", Payload, /*Timeout=*/ms(50));
        if (Out)
          ++Ok;
        else if (Out.error().code() == ErrorCode::TimedOut)
          ++TimedOut;
      }
    }
  };
  W.sim().spawn(Proc::run(W, Ok, TimedOut));
  W.sim().run();
  // Transfers interleave request/reply, but a dropped request produces no
  // reply, which shifts the pattern: transfer 3 (request 2), 6 (request
  // 4), 9 (request 6), 12 (request 8) are lost -- 4 drops, so calls
  // 2/4/6/8 time out and the odd calls succeed.
  EXPECT_EQ(W.Net.messagesDropped(), 4u);
  EXPECT_EQ(Ok + TimedOut, 9);
  EXPECT_EQ(TimedOut, 4);
  EXPECT_EQ(Ok, 5);
}

TEST(FaultTest, LossyNetworkWithoutTimeoutJustStalls) {
  // A dropped call without a deadline leaves the pending entry parked;
  // the simulation drains and the caller never resumes -- exactly why
  // the timeout API exists.  The frame must still be reclaimed safely.
  FaultWorld W(/*DropEveryNth=*/1); // Everything is lost.
  bool Resumed = false;
  struct Proc {
    static Task<void> run(FaultWorld &W, bool &Resumed) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      Resumed = true;
    }
  };
  W.sim().spawn(Proc::run(W, Resumed));
  W.sim().run();
  EXPECT_FALSE(Resumed);
  EXPECT_GE(W.Net.messagesDropped(), 1u);
}

TEST(FaultTest, RetryLoopSurvivesLoss) {
  // Standard client pattern: retry with a deadline until success.  A
  // leading one-way message shifts the drop phase so the first attempt
  // loses its reply and the retry goes through.
  FaultWorld W(/*DropEveryNth=*/3);
  int Attempts = 0;
  bool Succeeded = false;
  struct Proc {
    static Task<void> run(FaultWorld &W, int &Attempts, bool &Succeeded) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(42));
      co_await W.Client.callOneWay(1, 1050, "echo", "echo", Payload);
      for (int Try = 0; Try < 10 && !Succeeded; ++Try) {
        ++Attempts;
        ErrorOr<Bytes> Out = co_await W.Client.call(
            1, 1050, "echo", "echo", Payload, /*Timeout=*/ms(20));
        Succeeded = Out.hasValue();
      }
    }
  };
  W.sim().spawn(Proc::run(W, Attempts, Succeeded));
  W.sim().run();
  EXPECT_TRUE(Succeeded);
  EXPECT_EQ(Attempts, 2) << "first attempt's reply is transfer 3 (lost)";
}

TEST(FaultTest, TimeoutDoesNotFireOnFastReply) {
  FaultWorld W;
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(5));
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   /*Timeout=*/SimTime::seconds(10));
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  EXPECT_TRUE(Out.hasValue());
}

TEST(FaultTest, LateRepliesAfterTimeoutAreDropped) {
  // Timeout shorter than the round trip: the reply arrives after the
  // deadline and must be discarded without crashing or mis-matching.
  FaultWorld W;
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(5));
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   /*Timeout=*/SimTime::microseconds(100));
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::TimedOut);
  // The server still executed the call; its late reply was recognised as
  // a timed-out call's (not mis-counted as a malformed frame).
  EXPECT_EQ(W.Echo->Calls, 1);
  EXPECT_EQ(W.Client.stats().LateReplies, 1u);
  EXPECT_EQ(W.Client.stats().MalformedDropped, 0u);
}

//===----------------------------------------------------------------------===//
// Connection establishment
//===----------------------------------------------------------------------===//

TEST(FaultTest, FirstCallPaysConnectionSetup) {
  FaultWorld W;
  SimTime First, Second;
  struct Proc {
    static Task<void> run(FaultWorld &W, SimTime &First, SimTime &Second) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      SimTime T0 = W.sim().now();
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      First = W.sim().now() - T0;
      SimTime T1 = W.sim().now();
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      Second = W.sim().now() - T1;
    }
  };
  W.sim().spawn(Proc::run(W, First, Second));
  W.sim().run();
  SimTime Setup = stackProfile(StackKind::MonoRemotingTcp117).ConnectSetup;
  EXPECT_GT(First, Second + Setup - SimTime::microseconds(1));
  EXPECT_LT(First - Second, Setup + SimTime::microseconds(50));
}

TEST(FaultTest, LoopbackSkipsConnectionSetup) {
  FaultWorld W;
  W.Client.publish("local-echo", std::make_shared<EchoHandler>());
  SimTime First;
  struct Proc {
    static Task<void> run(FaultWorld &W, SimTime &First) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      SimTime T0 = W.sim().now();
      (void)co_await W.Client.call(0, 1050, "local-echo", "echo", Payload);
      First = W.sim().now() - T0;
    }
  };
  W.sim().spawn(Proc::run(W, First));
  W.sim().run();
  EXPECT_LT(First,
            stackProfile(StackKind::MonoRemotingTcp117).ConnectSetup);
}

TEST(FaultTest, ConcurrentFirstCallsConnectOnce) {
  FaultWorld W;
  SimTime Done;
  struct Proc {
    static Task<void> run(FaultWorld &W, sim::WaitGroup &Group) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      Group.done();
    }
  };
  sim::WaitGroup Group(W.sim());
  Group.add(3);
  for (int I = 0; I < 3; ++I)
    W.sim().spawn(Proc::run(W, Group));
  W.sim().run();
  EXPECT_EQ(W.Echo->Calls, 3);
  // All three completed within roughly one connect + one round trip --
  // not three connects back to back.
  EXPECT_LT(W.sim().now(), ms(3));
}

//===----------------------------------------------------------------------===//
// Frame checksums
//===----------------------------------------------------------------------===//

TEST(FaultTest, Crc32MatchesKnownVector) {
  // The CRC-32 (IEEE 802.3) check value for "123456789".
  const char *Digits = "123456789";
  EXPECT_EQ(serial::crc32(reinterpret_cast<const uint8_t *>(Digits), 9),
            0xCBF43926u);
  EXPECT_EQ(serial::crc32(nullptr, 0), 0u);
}

TEST(FaultTest, CorruptedFramesAreCountedAndDropped) {
  // With the injector flipping one bit in every payload, the server must
  // classify the frames as corrupted (CRC mismatch), not as malformed
  // protocol, and the caller times out cleanly.
  FaultWorld W;
  ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse("corrupt(1.0)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  fault::Injector Chaos(W.sim(), *Plan);
  Chaos.attach(W.Machines, W.Net);
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(7));
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Payload,
                                   /*Timeout=*/ms(20));
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::TimedOut);
  EXPECT_EQ(W.Echo->Calls, 0);
  EXPECT_EQ(Chaos.counters().Corrupted, 1u);
  EXPECT_EQ(W.Server.stats().CorruptedDropped, 1u);
  EXPECT_EQ(W.Server.stats().MalformedDropped, 0u);
}

TEST(FaultTest, RetryOutlivesCorruptionWindow) {
  // Corruption active only for the first 5 ms: the first attempt's frame
  // dies on the CRC check, the retry (after the attempt timeout) lands in
  // the clean window and succeeds end to end.
  FaultWorld W;
  ErrorOr<fault::FaultPlan> Plan =
      fault::FaultPlan::parse("corrupt(1.0,0,5ms)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  fault::Injector Chaos(W.sim(), *Plan);
  Chaos.attach(W.Machines, W.Net);
  RetryPolicy Retry;
  Retry.MaxAttempts = 4;
  Retry.AttemptTimeout = ms(10);
  Retry.BaseBackoff = ms(2);
  W.Client.setRetryPolicy(Retry);
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(9));
      Out = co_await W.Client.callReliable(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out.hasValue()) << Out.error().str();
  EXPECT_EQ(W.Echo->Calls, 1);
  EXPECT_GE(W.Client.stats().Retries, 1u);
  EXPECT_GE(W.Server.stats().CorruptedDropped, 1u);
}

//===----------------------------------------------------------------------===//
// At-most-once (dedup window)
//===----------------------------------------------------------------------===//

TEST(FaultTest, DedupMakesRetriesAtMostOnce) {
  // Same phase trick as RetryLoopSurvivesLoss: the leading one-way shifts
  // the drop pattern so the first attempt's *reply* is transfer 3 (lost).
  // The server already executed the call, so the retry must not run it a
  // second time: the dedup window resends the cached reply instead.
  FaultWorld W(/*DropEveryNth=*/3);
  RetryPolicy Retry;
  Retry.MaxAttempts = 5;
  Retry.AttemptTimeout = ms(20);
  Retry.BaseBackoff = ms(2);
  W.Client.setRetryPolicy(Retry);
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(FaultWorld &W, ErrorOr<Bytes> &Out) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(42));
      co_await W.Client.callOneWay(1, 1050, "echo", "echo", Payload);
      Out = co_await W.Client.callReliable(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out.hasValue()) << Out.error().str();
  EXPECT_EQ(serial::encodeValues(static_cast<int32_t>(42)), *Out);
  EXPECT_EQ(W.Echo->Calls, 2) << "one-way + exactly one two-way execution";
  EXPECT_EQ(W.Client.stats().Retries, 1u);
  EXPECT_EQ(W.Server.stats().DedupHits, 1u);
  // The first reply's late arrival (it was dropped here, but in general)
  // must not have been misclassified.
  EXPECT_EQ(W.Client.stats().MalformedDropped, 0u);
}

TEST(FaultTest, DropNthIsAdjudicatedBeforeAnyDraw) {
  // dropnth(2) loses every second delivery without consuming the random
  // stream, so the deliveries it spares see exactly the loss draws of
  // the same plan without dropnth.
  ErrorOr<fault::FaultPlan> Both =
      fault::FaultPlan::parse("seed(7);dropnth(2);loss(0.5)");
  ErrorOr<fault::FaultPlan> LossOnly =
      fault::FaultPlan::parse("seed(7);loss(0.5)");
  ASSERT_TRUE(Both.hasValue() && LossOnly.hasValue());
  Simulator Sim;
  fault::Injector A(Sim, *Both);
  fault::Injector B(Sim, *LossOnly);
  std::vector<uint8_t> Payload(8);
  for (int I = 1; I <= 40; ++I) {
    net::FaultHook::Verdict V = A.onDeliver(0, 1, Payload);
    if (I % 2 == 0)
      EXPECT_EQ(V, net::FaultHook::Verdict::DropLoss) << "delivery " << I;
    else
      EXPECT_EQ(V, B.onDeliver(0, 1, Payload)) << "delivery " << I;
  }
  EXPECT_GT(B.counters().LossDropped, 0u);
  EXPECT_EQ(A.counters().LossDropped, 20 + B.counters().LossDropped);
}

//===----------------------------------------------------------------------===//
// Fault-plan grammar
//===----------------------------------------------------------------------===//

TEST(FaultTest, FaultPlanParsesAndRoundTrips) {
  ErrorOr<fault::FaultPlan> Plan = fault::FaultPlan::parse(
      "seed(7);dropnth(4);crash(2,10s,20s);partition(0,1,3s,4s);"
      "loss(0.01,0,5s);corrupt(0.001);latency(2ms,1s,2s)");
  ASSERT_TRUE(Plan.hasValue()) << Plan.error().str();
  EXPECT_EQ(Plan->Seed, 7u);
  EXPECT_EQ(Plan->DropEveryNth, 4);
  ASSERT_EQ(Plan->Crashes.size(), 1u);
  EXPECT_EQ(Plan->Crashes[0].Node, 2);
  EXPECT_EQ(Plan->Crashes[0].At, SimTime::seconds(10));
  EXPECT_EQ(Plan->Crashes[0].RestartAt, SimTime::seconds(20));
  ASSERT_EQ(Plan->Partitions.size(), 1u);
  ASSERT_EQ(Plan->Losses.size(), 1u);
  ASSERT_EQ(Plan->Corruptions.size(), 1u);
  ASSERT_EQ(Plan->Latencies.size(), 1u);
  EXPECT_FALSE(Plan->empty());
  // A parsed plan re-renders to a spec that parses to the same plan.
  ErrorOr<fault::FaultPlan> Again = fault::FaultPlan::parse(Plan->str());
  ASSERT_TRUE(Again.hasValue()) << Again.error().str();
  EXPECT_EQ(Again->str(), Plan->str());
}

TEST(FaultTest, FaultPlanRejectsNonsense) {
  EXPECT_FALSE(fault::FaultPlan::parse("loss(1.5)").hasValue());
  EXPECT_FALSE(fault::FaultPlan::parse("crash(-1,10s)").hasValue());
  EXPECT_FALSE(fault::FaultPlan::parse("crash(1,10s,5s)").hasValue());
  EXPECT_FALSE(fault::FaultPlan::parse("partition(0,1,5s,2s)").hasValue());
  EXPECT_FALSE(fault::FaultPlan::parse("wibble(3)").hasValue());
  EXPECT_TRUE(fault::FaultPlan::parse("").hasValue());
  EXPECT_TRUE(fault::FaultPlan::parse("")->empty());
}

} // namespace
