//===- tests/RemotingTest.cpp - RPC engine + C# facade tests --------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "remoting/Engine.h"
#include "remoting/Remoting.h"
#include "serial/Crc32.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::remoting;
using namespace parcs::sim;

namespace {

SimTime us(int64_t N) { return SimTime::microseconds(N); }

/// The paper's Fig. 2 example: a divide server, plus a stateful counter to
/// observe Singleton/SingleCall semantics.
class DivideServer : public CallHandler {
public:
  explicit DivideServer(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method == "divide") {
      double A = 0, B = 0;
      if (!serial::decodeValues(Args, A, B))
        co_return Error(ErrorCode::MalformedMessage, "divide args");
      co_await Host.compute(us(1));
      co_return serial::encodeValues(A / B);
    }
    if (Method == "bump") {
      ++Count;
      co_return serial::encodeValues(Count);
    }
    if (Method == "burn") {
      int64_t Millis = 0;
      if (!serial::decodeValues(Args, Millis))
        co_return Error(ErrorCode::MalformedMessage, "burn args");
      co_await Host.compute(SimTime::milliseconds(Millis));
      co_return serial::encodeValues(Unit());
    }
    if (Method == "oneWayNote") {
      int32_t Value = 0;
      if (!serial::decodeValues(Args, Value))
        co_return Error(ErrorCode::MalformedMessage, "note args");
      Notes.push_back(Value);
      co_return Bytes{};
    }
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

  int32_t Count = 0;
  std::vector<int32_t> Notes;

private:
  vm::Node &Host;
};

/// A two-node world with one endpoint per node.
struct World {
  explicit World(StackKind Stack = StackKind::MonoRemotingTcp117,
                 int Nodes = 2, int Workers = 0)
      : Machines(Nodes, vm::VmKind::MonoVm117),
        Net(Machines.sim(), Nodes) {
    for (int I = 0; I < Nodes; ++I)
      Endpoints.push_back(std::make_unique<RpcEndpoint>(
          Machines.node(I), Net, stackProfile(Stack), 1050, Workers));
  }

  Simulator &sim() { return Machines.sim(); }
  RpcEndpoint &ep(int I) { return *Endpoints[static_cast<size_t>(I)]; }

  vm::Cluster Machines;
  net::Network Net;
  std::vector<std::unique_ptr<RpcEndpoint>> Endpoints;
};

//===----------------------------------------------------------------------===//
// URI parsing
//===----------------------------------------------------------------------===//

TEST(UriTest, ParsesTcp) {
  auto U = parseObjectUri("tcp://node2:1050/DivideServer");
  ASSERT_TRUE(U);
  EXPECT_EQ(U->Channel, ChannelKind::Tcp);
  EXPECT_EQ(U->Node, 2);
  EXPECT_EQ(U->Port, 1050);
  EXPECT_EQ(U->Name, "DivideServer");
  auto Edge = parseObjectUri("tcp://node2147483647:65535/X");
  ASSERT_TRUE(Edge);
  EXPECT_EQ(Edge->Node, 2147483647);
  EXPECT_EQ(Edge->Port, 65535);
}

TEST(UriTest, ParsesHttpAndLocalhost) {
  auto U = parseObjectUri("http://localhost:8080/factory.soap");
  ASSERT_TRUE(U);
  EXPECT_EQ(U->Channel, ChannelKind::Http);
  EXPECT_EQ(U->Node, 0);
  EXPECT_EQ(U->Name, "factory.soap");
}

TEST(UriTest, RejectsMalformed) {
  EXPECT_FALSE(parseObjectUri("ftp://node1:1/x").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://node1/x").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://node1:abc/x").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://node1:99").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://box:99/x").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://nodeX:99/x").hasValue());
  // Node ids that overflow an int, and ports outside 1..65535.
  EXPECT_FALSE(parseObjectUri("tcp://node4294967297:1050/X").hasValue());
  EXPECT_FALSE(
      parseObjectUri("tcp://node99999999999999999999:1050/X").hasValue());
  EXPECT_FALSE(
      parseObjectUri("tcp://node1:99999999999999999999/X").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://node1:0/X").hasValue());
  EXPECT_FALSE(parseObjectUri("http://node1:70000/X").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://node-1:1050/X").hasValue());
  EXPECT_FALSE(parseObjectUri("tcp://node1:-5/X").hasValue());
}

TEST(UriTest, GetObjectRefusesAddressesWithoutAnEndpoint) {
  // Checked once, when the handle is made, so no invoke can send to a
  // node outside the cluster or to a port nobody serves.
  World W;
  auto Outside = getObject(W.ep(0), "tcp://node5:1050/X");
  ASSERT_FALSE(Outside);
  EXPECT_EQ(Outside.error().code(), ErrorCode::ConnectionFailed);
  auto Unbound = getObject(W.ep(0), "tcp://node1:7/X");
  ASSERT_FALSE(Unbound);
  EXPECT_EQ(Unbound.error().code(), ErrorCode::ConnectionFailed);
  EXPECT_TRUE(getObject(W.ep(0), "tcp://node1:1050/X").hasValue());
}

TEST(UriTest, RoundTripsThroughMake) {
  std::string Uri = makeObjectUri(ChannelKind::Tcp, 3, 1050, "Prime");
  EXPECT_EQ(Uri, "tcp://node3:1050/Prime");
  auto U = parseObjectUri(Uri);
  ASSERT_TRUE(U);
  EXPECT_EQ(U->Node, 3);
}

//===----------------------------------------------------------------------===//
// Basic calls
//===----------------------------------------------------------------------===//

Task<void> divideOnce(World &W, double A, double B, ErrorOr<double> &Out) {
  auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
  EXPECT_TRUE(Handle.hasValue());
  if (!Handle)
    co_return;
  Out = co_await Handle->invokeTyped<double>("divide", A, B);
}

TEST(RemotingTest, SyncCallReturnsValue) {
  World W;
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  ErrorOr<double> Out(0.0);
  W.sim().spawn(divideOnce(W, 10.0, 4.0, Out));
  W.sim().run();
  ASSERT_TRUE(Out);
  EXPECT_DOUBLE_EQ(*Out, 2.5);
  EXPECT_EQ(W.ep(0).stats().CallsIssued, 1u);
  EXPECT_EQ(W.ep(0).stats().RepliesReceived, 1u);
  EXPECT_EQ(W.ep(1).stats().CallsHandled, 1u);
}

TEST(RemotingTest, UnknownObjectFaults) {
  World W;
  ErrorOr<double> Out(0.0);
  W.sim().spawn(divideOnce(W, 1, 1, Out));
  W.sim().run();
  ASSERT_FALSE(Out);
  EXPECT_EQ(Out.error().code(), ErrorCode::UnknownObject);
}

TEST(RemotingTest, UnknownMethodFaults) {
  World W;
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  ErrorOr<int32_t> Out(0);
  struct Proc {
    static Task<void> run(World &W, ErrorOr<int32_t> &Out) {
      auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
      Out = co_await Handle->invokeTyped<int32_t>("noSuchMethod");
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out);
  EXPECT_EQ(Out.error().code(), ErrorCode::UnknownMethod);
}

TEST(RemotingTest, MalformedArgsFault) {
  World W;
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(World &W, ErrorOr<Bytes> &Out) {
      auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
      Bytes Junk = {1, 2}; // Too short for two doubles.
      Out = co_await Handle->invoke("divide", Junk);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out);
  EXPECT_EQ(Out.error().code(), ErrorCode::MalformedMessage);
}

TEST(RemotingTest, LocalNodeCallWorks) {
  // Calling an object published on the caller's own node (loopback).
  World W;
  W.ep(0).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(0)));
  ErrorOr<double> Out(0.0);
  struct Proc {
    static Task<void> run(World &W, ErrorOr<double> &Out) {
      auto Handle = getObject(W.ep(0), "tcp://node0:1050/DivideServer");
      Out = co_await Handle->invokeTyped<double>("divide", 9.0, 3.0);
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_TRUE(Out);
  EXPECT_DOUBLE_EQ(*Out, 3.0);
}

//===----------------------------------------------------------------------===//
// Well-known object modes
//===----------------------------------------------------------------------===//

Task<void> bumpTimes(World &W, int Times, std::vector<int32_t> &Counts) {
  auto Handle = getObject(W.ep(0), "tcp://node1:1050/Counter");
  for (int I = 0; I < Times; ++I) {
    auto Out = co_await Handle->invokeTyped<int32_t>("bump");
    EXPECT_TRUE(Out.hasValue());
    if (!Out)
      co_return;
    Counts.push_back(*Out);
  }
}

TEST(RemotingTest, SingletonKeepsState) {
  World W;
  vm::Node &N1 = W.Machines.node(1);
  W.ep(1).publishWellKnown(
      "Counter", [&N1] { return std::make_shared<DivideServer>(N1); },
      WellKnownObjectMode::Singleton);
  std::vector<int32_t> Counts;
  W.sim().spawn(bumpTimes(W, 3, Counts));
  W.sim().run();
  EXPECT_EQ(Counts, (std::vector<int32_t>{1, 2, 3}));
}

TEST(RemotingTest, SingleCallForgetsState) {
  World W;
  vm::Node &N1 = W.Machines.node(1);
  W.ep(1).publishWellKnown(
      "Counter", [&N1] { return std::make_shared<DivideServer>(N1); },
      WellKnownObjectMode::SingleCall);
  std::vector<int32_t> Counts;
  W.sim().spawn(bumpTimes(W, 3, Counts));
  W.sim().run();
  EXPECT_EQ(Counts, (std::vector<int32_t>{1, 1, 1}));
}

TEST(RemotingTest, UnpublishMakesObjectUnknown) {
  World W;
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  EXPECT_TRUE(W.ep(1).isPublished("DivideServer"));
  EXPECT_TRUE(W.ep(1).unpublish("DivideServer"));
  EXPECT_FALSE(W.ep(1).unpublish("DivideServer"));
  ErrorOr<double> Out(0.0);
  W.sim().spawn(divideOnce(W, 1, 1, Out));
  W.sim().run();
  EXPECT_FALSE(Out.hasValue());
}

//===----------------------------------------------------------------------===//
// One-way calls and async delegates
//===----------------------------------------------------------------------===//

TEST(RemotingTest, OneWayCallsArriveInOrder) {
  World W;
  auto Server = std::make_shared<DivideServer>(W.Machines.node(1));
  W.ep(1).publish("DivideServer", Server);
  struct Proc {
    static Task<void> run(World &W) {
      auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
      for (int32_t I = 0; I < 5; ++I)
        co_await Handle->invokeOneWay("oneWayNote",
                                      serial::encodeValues(I));
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(Server->Notes, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(W.ep(0).stats().OneWaySent, 5u);
}

TEST(RemotingTest, OneWayReturnsBeforeRemoteCompletion) {
  World W;
  auto Server = std::make_shared<DivideServer>(W.Machines.node(1));
  W.ep(1).publish("DivideServer", Server);
  SimTime SendDone, AllDone;
  struct Proc {
    static Task<void> run(World &W, SimTime &SendDone) {
      auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
      co_await Handle->invokeOneWay("burn", serial::encodeValues(
                                                static_cast<int64_t>(50)));
      SendDone = W.sim().now();
    }
  };
  W.sim().spawn(Proc::run(W, SendDone));
  W.sim().run();
  AllDone = W.sim().now();
  EXPECT_LT(SendDone, SimTime::milliseconds(1));
  EXPECT_GE(AllDone, SimTime::milliseconds(50));
}

TEST(RemotingTest, AsyncDelegateOverlapsCalls) {
  // Two 20 ms remote computations started with BeginInvoke overlap on the
  // dual-CPU server: both complete in ~20 ms, not 40.
  World W;
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  SimTime Done;
  struct Proc {
    static Task<void> run(World &W, SimTime &Done) {
      auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
      auto R1 = beginInvoke<Unit>(W.sim(), *Handle, "burn",
                                  static_cast<int64_t>(20));
      auto R2 = beginInvoke<Unit>(W.sim(), *Handle, "burn",
                                  static_cast<int64_t>(20));
      EXPECT_FALSE(R1.isCompleted());
      auto Out1 = co_await R1;
      auto Out2 = co_await R2;
      EXPECT_TRUE(Out1.hasValue());
      EXPECT_TRUE(Out2.hasValue());
      Done = W.sim().now();
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_GE(Done, SimTime::milliseconds(20));
  EXPECT_LT(Done, SimTime::milliseconds(30));
}

TEST(RemotingTest, DispatchPoolCapSerialisesCalls) {
  // Same two 20 ms calls, but the server endpoint has a single dispatch
  // worker: the second call waits for the first (the paper's starvation
  // effect).
  World W(StackKind::MonoRemotingTcp117, 2, /*Workers=*/1);
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  SimTime Done;
  struct Proc {
    static Task<void> run(World &W, SimTime &Done) {
      auto Handle = getObject(W.ep(0), "tcp://node1:1050/DivideServer");
      auto R1 = beginInvoke<Unit>(W.sim(), *Handle, "burn",
                                  static_cast<int64_t>(20));
      auto R2 = beginInvoke<Unit>(W.sim(), *Handle, "burn",
                                  static_cast<int64_t>(20));
      (void)co_await R1;
      (void)co_await R2;
      Done = W.sim().now();
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_GE(Done, SimTime::milliseconds(40));
}

//===----------------------------------------------------------------------===//
// Latency calibration (in-text numbers, Section 4)
//===----------------------------------------------------------------------===//

Task<void> pingPongLatency(World &W, int Rounds, double &OneWayUs) {
  // Channel-agnostic handle (the Http worlds cannot use a tcp:// URI).
  RemoteHandle Handle(W.ep(0), 1, 1050, "DivideServer");
  // Warm-up call.
  (void)co_await Handle.invokeTyped<double>("divide", 1.0, 1.0);
  SimTime Start = W.sim().now();
  for (int I = 0; I < Rounds; ++I)
    (void)co_await Handle.invokeTyped<double>("divide", 1.0, 1.0);
  SimTime Elapsed = W.sim().now() - Start;
  OneWayUs = Elapsed.toMicrosF() / (2.0 * Rounds);
}

TEST(RemotingCalibrationTest, MonoTcpLatencyNear273us) {
  World W(StackKind::MonoRemotingTcp117);
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  double OneWayUs = 0;
  W.sim().spawn(pingPongLatency(W, 50, OneWayUs));
  W.sim().run();
  EXPECT_NEAR(OneWayUs, 273.0, 35.0);
}

TEST(RemotingCalibrationTest, HttpChannelIsFarSlower) {
  double TcpUs = 0, HttpUs = 0;
  {
    World W(StackKind::MonoRemotingTcp117);
    W.ep(1).publish("DivideServer",
                    std::make_shared<DivideServer>(W.Machines.node(1)));
    W.sim().spawn(pingPongLatency(W, 20, TcpUs));
    W.sim().run();
  }
  {
    World W(StackKind::MonoRemotingHttp117);
    W.ep(1).publish("DivideServer",
                    std::make_shared<DivideServer>(W.Machines.node(1)));
    W.sim().spawn(pingPongLatency(W, 20, HttpUs));
    W.sim().run();
  }
  EXPECT_GT(HttpUs, 3.0 * TcpUs);
}

TEST(RemotingCalibrationTest, Mono105SlowerThan117) {
  double V117 = 0, V105 = 0;
  {
    World W(StackKind::MonoRemotingTcp117);
    W.ep(1).publish("DivideServer",
                    std::make_shared<DivideServer>(W.Machines.node(1)));
    W.sim().spawn(pingPongLatency(W, 20, V117));
    W.sim().run();
  }
  {
    World W(StackKind::MonoRemotingTcp105);
    W.ep(1).publish("DivideServer",
                    std::make_shared<DivideServer>(W.Machines.node(1)));
    W.sim().spawn(pingPongLatency(W, 20, V105));
    W.sim().run();
  }
  EXPECT_GT(V105, 2.0 * V117);
}

//===----------------------------------------------------------------------===//
// Wire pins
//===----------------------------------------------------------------------===//

/// Delivers every frame untouched and folds each payload it sees (its
/// CRC32 and length, in delivery order) into one digest.  Installing it
/// turns on the engine's CRC trailers; the CRC32 of a frame that ends in
/// its own CRC is a constant, so each entry hashes the bytes before the
/// trailer.
class RecordingHook : public net::FaultHook {
public:
  bool nodeAlive(int) const override { return true; }
  SimTime extraLatency(int, int) override { return SimTime(); }
  Verdict onDeliver(int, int, std::vector<uint8_t> &Payload) override {
    ++Frames;
    serial::OutputArchive Entry(std::move(Seen));
    Entry.write(serial::crc32(Payload.data(), Payload.size() - 4));
    Entry.write(static_cast<uint32_t>(Payload.size()));
    Seen = Entry.take();
    return Verdict::Deliver;
  }
  uint32_t digest() const { return serial::crc32(Seen); }

  uint64_t Frames = 0;

private:
  Bytes Seen;
};

struct WirePin {
  uint64_t Frames = 0;
  uint32_t Digest = 0;
  uint64_t WireBytesSent = 0;
};

/// Every frame shape the engine emits, in a fixed order over three nodes:
/// plain call, one-way, traced call (context flag), callReliable whose
/// first reply arrives late (dedup id, then the cached reply), an
/// unknown-object fault, an admission reject plus a one-way shed, and a
/// parked call forwarded at completeMove plus a straggler forwarded off
/// the moved tombstone.
WirePin runWireScenario(StackKind Stack, bool Record) {
  World W(Stack, 3);
  RecordingHook Hook;
  if (Record)
    W.Net.setFaultHook(&Hook);
  W.ep(1).publish("DivideServer",
                  std::make_shared<DivideServer>(W.Machines.node(1)));
  struct Proc {
    static Task<void> call(RpcEndpoint &Ep, std::string Object,
                           std::string Method, Bytes Args, int &Failures) {
      ErrorOr<Bytes> Out = co_await Ep.call(1, 1050, std::move(Object),
                                            std::move(Method), std::move(Args));
      Failures += Out ? 0 : 1;
    }
    static Task<void> oneWay(RpcEndpoint &Ep, Bytes Args) {
      co_await Ep.callOneWay(1, 1050, "DivideServer", "oneWayNote",
                             std::move(Args));
    }
    static Task<void> reliable(RpcEndpoint &Ep, int &Failures) {
      ErrorOr<Bytes> Out = co_await Ep.callReliable(
          1, 1050, "DivideServer", "burn",
          serial::encodeValues(static_cast<int64_t>(15)));
      Failures += Out ? 0 : 1;
    }
  };
  int Failures = 0;
  Bytes Note = serial::encodeValues(static_cast<int32_t>(7));
  Bytes Pair = serial::encodeValues(10.0, 4.0);
  RpcEndpoint &Client = W.ep(0);

  W.sim().spawn(Proc::call(Client, "DivideServer", "divide", Pair, Failures));
  W.sim().run();
  W.sim().spawn(Proc::oneWay(Client, Note));
  W.sim().run();

  trace::reset();
  trace::setEnabled(true);
  W.sim().spawn(Proc::call(Client, "DivideServer", "divide", Pair, Failures));
  W.sim().run();
  trace::setEnabled(false);
  trace::reset();

  RetryPolicy Retry;
  Retry.MaxAttempts = 3;
  Retry.AttemptTimeout = SimTime::milliseconds(10);
  Retry.BaseBackoff = SimTime::milliseconds(20);
  Client.setRetryPolicy(Retry);
  W.sim().spawn(Proc::reliable(Client, Failures));
  W.sim().run();

  W.sim().spawn(Proc::call(Client, "NoSuchObject", "divide", Pair, Failures));
  W.sim().run();

  AdmissionPolicy Admission;
  Admission.MaxPending = 1;
  W.ep(1).setAdmissionPolicy(Admission);
  Bytes Burn = serial::encodeValues(static_cast<int64_t>(1));
  W.sim().spawn(Proc::call(Client, "DivideServer", "burn", Burn, Failures));
  W.sim().spawn(Proc::call(Client, "DivideServer", "burn", Burn, Failures));
  W.sim().spawn(Proc::oneWay(Client, Note));
  W.sim().run();
  W.ep(1).setAdmissionPolicy(AdmissionPolicy());

  W.ep(1).parkName("DivideServer");
  W.sim().spawn(Proc::call(Client, "DivideServer", "bump", {}, Failures));
  W.sim().run();
  W.ep(2).publish("Moved",
                  std::make_shared<DivideServer>(W.Machines.node(2)));
  W.ep(1).completeMove("DivideServer", {2, 1050, "Moved"});
  W.sim().run();
  W.sim().spawn(Proc::call(Client, "DivideServer", "bump", {}, Failures));
  W.sim().run();

  // The scenario reached every shape it is meant to pin: the fault and
  // the admission reject are its only failed calls.
  EXPECT_EQ(Failures, 2);
  EXPECT_EQ(W.ep(1).stats().DedupHits, 1u);
  EXPECT_EQ(W.ep(0).stats().LateReplies, 1u);
  EXPECT_EQ(W.ep(1).stats().OverloadRejected, 1u);
  EXPECT_EQ(W.ep(1).stats().OverloadShed, 1u);
  EXPECT_EQ(W.ep(1).stats().CallsParked, 1u);
  EXPECT_EQ(W.ep(1).stats().CallsForwarded, 2u);
  EXPECT_EQ(W.ep(2).stats().CallsHandled, 2u);

  WirePin Pin;
  Pin.Frames = Hook.Frames;
  Pin.Digest = Hook.digest();
  for (int I = 0; I < 3; ++I)
    Pin.WireBytesSent += W.ep(I).stats().WireBytesSent;
  W.Net.setFaultHook(nullptr);
  return Pin;
}

TEST(RemotingWireTest, FrameBytesArePinned) {
  // Every frame byte (CRC trailers included) and the trailer-free byte
  // totals: wire size drives virtual time, so none of these may move.
  WirePin Tcp = runWireScenario(StackKind::MonoRemotingTcp117, true);
  WirePin Http = runWireScenario(StackKind::MonoRemotingHttp117, true);
  WirePin TcpPlain = runWireScenario(StackKind::MonoRemotingTcp117, false);
  WirePin HttpPlain = runWireScenario(StackKind::MonoRemotingHttp117, false);
  EXPECT_EQ(Tcp.Frames, 22u);
  EXPECT_EQ(Tcp.Digest, 0xb3d15396u);
  EXPECT_EQ(Tcp.WireBytesSent, 1357u);
  EXPECT_EQ(TcpPlain.WireBytesSent, 1269u);
  EXPECT_EQ(Http.Frames, 22u);
  EXPECT_EQ(Http.Digest, 0x6e365963u);
  EXPECT_EQ(Http.WireBytesSent, 10129u);
  EXPECT_EQ(HttpPlain.WireBytesSent, 10041u);
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(RemotingTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    World W;
    W.ep(1).publish("DivideServer",
                    std::make_shared<DivideServer>(W.Machines.node(1)));
    double OneWayUs = 0;
    W.sim().spawn(pingPongLatency(W, 10, OneWayUs));
    W.sim().run();
    return OneWayUs;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

} // namespace
