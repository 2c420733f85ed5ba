//===- tests/RemotingRobustnessTest.cpp - hostile-input robustness --------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RPC engine against hostile/corrupt traffic: garbage datagrams,
/// truncated envelopes, wrong formats, unknown call ids -- the endpoint
/// must count and drop them and keep serving.  Plus coverage of endpoint
/// introspection (stats, findPublished) and delegate completion states.
///
//===----------------------------------------------------------------------===//

#include "remoting/Remoting.h"
#include "support/Random.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::remoting;
using namespace parcs::sim;

namespace {

class EchoHandler : public CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method != "echo")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    co_return Bytes(Args);
  }
};

struct RobustWorld {
  RobustWorld()
      : Machines(2, vm::VmKind::MonoVm117), Net(Machines.sim(), 2),
        Client(Machines.node(0), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050),
        Server(Machines.node(1), Net,
               stackProfile(StackKind::MonoRemotingTcp117), 1050) {
    Server.publish("echo", std::make_shared<EchoHandler>());
  }

  Simulator &sim() { return Machines.sim(); }

  /// One good round trip; returns true on success.
  bool roundTrip() {
    bool Ok = false;
    struct Proc {
      static Task<void> run(RobustWorld &W, bool &Ok) {
        Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
        ErrorOr<Bytes> Out =
            co_await W.Client.call(1, 1050, "echo", "echo", Payload);
        Ok = Out.hasValue();
      }
    };
    sim().spawn(Proc::run(*this, Ok));
    sim().run();
    return Ok;
  }

  vm::Cluster Machines;
  net::Network Net;
  RpcEndpoint Client;
  RpcEndpoint Server;
};

TEST(RemotingRobustnessTest, GarbageDatagramsAreCountedAndDropped) {
  RobustWorld W;
  Rng R(99);
  for (int I = 0; I < 20; ++I) {
    std::vector<uint8_t> Junk(R.nextBelow(64));
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(R.nextBelow(256));
    W.Net.send(0, 1, 1050, std::move(Junk));
  }
  W.sim().run();
  EXPECT_EQ(W.Server.stats().CallsHandled, 0u);
  EXPECT_EQ(W.Server.stats().MalformedDropped, 20u);
  // The endpoint must still serve real traffic afterwards.
  EXPECT_TRUE(W.roundTrip());
}

TEST(RemotingRobustnessTest, TruncatedCallEnvelopeIsDropped) {
  RobustWorld W;
  // Build a real call wire image, then truncate it at various points.
  struct Proc {
    static Task<void> run(RobustWorld &W) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(7));
      (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  uint64_t DroppedBefore = W.Server.stats().MalformedDropped;
  // A valid-looking but truncated NetBinary envelope with the call kind
  // byte.
  Bytes Wire = serial::encodeEnvelope(serial::WireFormat::NetBinary, "m",
                                      serial::encodeValues(
                                          static_cast<uint64_t>(42)));
  Wire.insert(Wire.begin(), 0xC1); // KindCall.
  Wire.resize(Wire.size() / 2);
  W.Net.send(0, 1, 1050, std::move(Wire));
  W.sim().run();
  EXPECT_GT(W.Server.stats().MalformedDropped, DroppedBefore);
  EXPECT_TRUE(W.roundTrip());
}

TEST(RemotingRobustnessTest, BogusReturnForUnknownCallIdIsDropped) {
  RobustWorld W;
  // Forge a return message with a call id nobody issued.
  serial::OutputArchive Body;
  Body.write(static_cast<uint64_t>(0xdeadbeef)); // CallId.
  Body.write(static_cast<uint8_t>(0));           // StatusOk.
  Bytes Envelope = serial::encodeEnvelope(serial::WireFormat::NetBinary,
                                          "ret", Body.bytes());
  Bytes Wire;
  Wire.push_back(0xC2); // KindReturn.
  Wire.insert(Wire.end(), Envelope.begin(), Envelope.end());
  W.Net.send(1, 0, 1050, std::move(Wire));
  W.sim().run();
  EXPECT_EQ(W.Client.stats().MalformedDropped, 1u);
  EXPECT_TRUE(W.roundTrip());
}

/// A hand-built frame: kind byte plus a NetBinary envelope around \p Body.
Bytes forgeFrame(uint8_t Kind, std::string_view Name,
                 const serial::OutputArchive &Body) {
  Bytes Wire{Kind};
  serial::encodeEnvelopeInto(serial::WireFormat::NetBinary, Name, Body.bytes(),
                             Wire);
  return Wire;
}

/// A call body for "echo.echo" asking for its reply at (\p ReplyNode,
/// \p ReplyPort).
Bytes forgeCall(int32_t ReplyNode, int32_t ReplyPort) {
  serial::OutputArchive Body;
  Body.write(static_cast<uint64_t>(1)); // CallId.
  Body.write(static_cast<uint8_t>(0));  // Flags: plain two-way call.
  Body.write(ReplyNode);
  Body.write(ReplyPort);
  Body.write(std::string("echo"));
  Body.write(std::string("echo"));
  Body.write(static_cast<uint32_t>(0)); // No args.
  return forgeFrame(0xC1, "echo", Body);
}

/// Leaves one client call pending (its target name is parked, so the
/// server never answers), delivers the forged \p Reply for it --
/// CallId 1, the client's first -- and returns what the caller saw.
ErrorOr<Bytes> pendingCallGets(RobustWorld &W,
                               const serial::OutputArchive &Reply) {
  W.Server.parkName("echo");
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(RobustWorld &W, ErrorOr<Bytes> &Out) {
      Out = co_await W.Client.call(1, 1050, "echo", "echo", Bytes{});
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  EXPECT_EQ(W.Server.parkedCalls("echo"), 1u);
  W.Net.send(1, 0, 1050, forgeFrame(0xC2, "ret", Reply));
  W.sim().run();
  EXPECT_EQ(W.Client.stats().RepliesReceived, 1u);
  return Out;
}

TEST(RemotingRobustnessTest, FaultReplyWithUnknownCodeIsMalformed) {
  for (uint8_t Code : {uint8_t(0), uint8_t(200)}) {
    RobustWorld W;
    serial::OutputArchive Reply;
    Reply.write(static_cast<uint64_t>(1)); // The pending CallId.
    Reply.write(static_cast<uint8_t>(1));  // StatusFault.
    Reply.write(Code);
    Reply.write(std::string("forged"));
    ErrorOr<Bytes> Out = pendingCallGets(W, Reply);
    ASSERT_FALSE(Out.hasValue());
    EXPECT_EQ(Out.error().code(), ErrorCode::MalformedMessage);
    // Printing the error must not reach an unhandled code either.
    EXPECT_FALSE(Out.error().str().empty());
  }
}

TEST(RemotingRobustnessTest, TruncatedOverloadedReplyIsMalformed) {
  RobustWorld W;
  serial::OutputArchive Reply;
  Reply.write(static_cast<uint64_t>(1)); // The pending CallId.
  Reply.write(static_cast<uint8_t>(2));  // StatusOverloaded, hint missing.
  ErrorOr<Bytes> Out = pendingCallGets(W, Reply);
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::MalformedMessage);
}

TEST(RemotingRobustnessTest, CallWithReplyNodeOutsideClusterIsDropped) {
  RobustWorld W;
  W.Net.send(0, 1, 1050, forgeCall(/*ReplyNode=*/99, /*ReplyPort=*/1050));
  W.Net.send(0, 1, 1050, forgeCall(/*ReplyNode=*/-1, /*ReplyPort=*/1050));
  W.sim().run();
  EXPECT_EQ(W.Server.stats().MalformedDropped, 2u);
  EXPECT_EQ(W.Server.stats().WireBytesSent, 0u);
  EXPECT_TRUE(W.roundTrip());
}

TEST(RemotingRobustnessTest, CallWithUnboundReplyPortIsDropped) {
  RobustWorld W;
  W.Net.send(0, 1, 1050, forgeCall(/*ReplyNode=*/0, /*ReplyPort=*/7));
  W.sim().run();
  EXPECT_EQ(W.Server.stats().MalformedDropped, 1u);
  EXPECT_EQ(W.Server.stats().WireBytesSent, 0u);
  // The same decoder guards calls a park holds for replay.
  W.Server.parkName("echo");
  W.Net.send(0, 1, 1050, forgeCall(/*ReplyNode=*/0, /*ReplyPort=*/7));
  W.sim().run();
  EXPECT_EQ(W.Server.stats().MalformedDropped, 2u);
  EXPECT_EQ(W.Server.parkedCalls("echo"), 0u);
  W.Server.cancelPark("echo");
  EXPECT_TRUE(W.roundTrip());
}

TEST(RemotingRobustnessTest, WrongFormatTrafficIsRejected) {
  // A SOAP envelope arriving at a binary-formatter endpoint must not
  // crash or dispatch.
  RobustWorld W;
  Bytes Envelope = serial::encodeEnvelope(serial::WireFormat::NetSoap,
                                          "call", {1, 2, 3});
  Bytes Wire;
  Wire.push_back(0xC1);
  Wire.insert(Wire.end(), Envelope.begin(), Envelope.end());
  W.Net.send(0, 1, 1050, std::move(Wire));
  W.sim().run();
  // The message reaches dispatch (CallsHandled counts dispatched work)
  // but decoding fails and nothing executes.
  EXPECT_GE(W.Server.stats().MalformedDropped, 1u);
  EXPECT_TRUE(W.roundTrip());
}

TEST(RemotingRobustnessTest, FindPublishedSeesLiveObjects) {
  RobustWorld W;
  EXPECT_NE(W.Server.findPublished("echo"), nullptr);
  EXPECT_EQ(W.Server.findPublished("nope"), nullptr);
  // Well-known singletons materialise on first call.
  vm::Node &Node = W.Machines.node(1);
  W.Server.publishWellKnown(
      "lazy", [&Node] { return std::make_shared<EchoHandler>(); },
      WellKnownObjectMode::Singleton);
  EXPECT_EQ(W.Server.findPublished("lazy"), nullptr);
  struct Proc {
    static Task<void> run(RobustWorld &W) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(1));
      (void)co_await W.Client.call(1, 1050, "lazy", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_NE(W.Server.findPublished("lazy"), nullptr);
}

TEST(RemotingRobustnessTest, StatsAccumulateAcrossTraffic) {
  RobustWorld W;
  struct Proc {
    static Task<void> run(RobustWorld &W) {
      Bytes Payload = serial::encodeValues(static_cast<int32_t>(3));
      for (int I = 0; I < 4; ++I)
        (void)co_await W.Client.call(1, 1050, "echo", "echo", Payload);
      for (int I = 0; I < 2; ++I)
        co_await W.Client.callOneWay(1, 1050, "echo", "echo", Payload);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Client.stats().CallsIssued, 4u);
  EXPECT_EQ(W.Client.stats().RepliesReceived, 4u);
  EXPECT_EQ(W.Client.stats().OneWaySent, 2u);
  EXPECT_EQ(W.Server.stats().CallsHandled, 6u);
  EXPECT_GT(W.Client.stats().WireBytesSent, 0u);
  EXPECT_GT(W.Server.stats().WireBytesSent, 0u);
}

TEST(RemotingRobustnessTest, DelegateCompletionStateTransitions) {
  RobustWorld W;
  struct Proc {
    static Task<void> run(RobustWorld &W) {
      auto Handle = getObject(W.Client, "tcp://node1:1050/echo");
      EXPECT_TRUE(Handle.hasValue());
      std::vector<int32_t> Data = {1, 2, 3};
      auto Result = beginInvoke<std::vector<int32_t>>(W.sim(), *Handle,
                                                      "echo", Data);
      EXPECT_FALSE(Result.isCompleted());
      auto Out = co_await Result;
      EXPECT_TRUE(Result.isCompleted());
      EXPECT_TRUE(Out.hasValue());
      if (Out) {
        EXPECT_EQ(*Out, Data);
      }
      // EndInvoke twice is legal on an IAsyncResult-like future.
      auto Again = co_await Result;
      EXPECT_TRUE(Again.hasValue());
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(RemotingRobustnessTest, DelegateErrorsPropagateThroughEndInvoke) {
  RobustWorld W;
  struct Proc {
    static Task<void> run(RobustWorld &W) {
      auto Handle = getObject(W.Client, "tcp://node1:1050/echo");
      auto Result =
          beginInvoke<int32_t>(W.sim(), *Handle, "noSuchMethod");
      auto Out = co_await Result;
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::UnknownMethod);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

} // namespace
