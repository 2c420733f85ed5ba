//===- tests/NetTest.cpp - network model tests ----------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace parcs;
using namespace parcs::net;
using namespace parcs::sim;

namespace {

std::vector<uint8_t> bytes(size_t N, uint8_t Fill = 0xab) {
  return std::vector<uint8_t>(N, Fill);
}

Task<void> recvOne(Channel<Message> &Port, Message &Out, Simulator &Sim,
                   SimTime &At) {
  Out = co_await Port.recv();
  At = Sim.now();
}

//===----------------------------------------------------------------------===//
// Wire-time math
//===----------------------------------------------------------------------===//

TEST(WireTimeTest, SmallMessageIsOnePacket) {
  Simulator Sim;
  Network Net(Sim, 2);
  // 4 payload bytes + 78 framing = 82 bytes = 656 bits at 100 Mbit.
  EXPECT_EQ(Net.wireTime(4), SimTime::nanoseconds(6560));
}

TEST(WireTimeTest, SegmentsAtMss) {
  Simulator Sim;
  Network Net(Sim, 2);
  // 1461 bytes -> 2 packets -> 2x framing overhead.
  SimTime One = Net.wireTime(1460);
  SimTime Two = Net.wireTime(1461);
  double ExtraBits = (1 + 78) * 8;
  EXPECT_NEAR((Two - One).toSecondsF(), ExtraBits / 100e6, 1e-12);
}

TEST(WireTimeTest, LargeMessageApproachesGoodputCeiling) {
  Simulator Sim;
  Network Net(Sim, 2);
  size_t Payload = 1 << 20;
  double Seconds = Net.wireTime(Payload).toSecondsF();
  double Goodput = static_cast<double>(Payload) / Seconds;
  // 1460/1538 of 12.5 MB/s ~= 11.87 MB/s.
  EXPECT_NEAR(Goodput / 1e6, 11.87, 0.05);
}

TEST(WireTimeTest, ZeroPayloadStillCostsAFrame) {
  Simulator Sim;
  Network Net(Sim, 2);
  EXPECT_GT(Net.wireTime(0), SimTime());
}

//===----------------------------------------------------------------------===//
// Delivery
//===----------------------------------------------------------------------===//

TEST(NetworkTest, DeliversPayloadIntact) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(1, 50);
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 1, 50, Payload);
  Sim.run();
  EXPECT_EQ(Got.Payload, Payload);
  EXPECT_EQ(Got.Src, 0);
  EXPECT_EQ(Got.Dst, 1);
  EXPECT_EQ(Got.Port, 50);
  EXPECT_EQ(Net.messagesDelivered(), 1u);
  EXPECT_EQ(Net.payloadBytesDelivered(), 5u);
}

TEST(NetworkTest, DeliveryTimeMatchesModel) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(1, 50);
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 1, 50, bytes(1000));
  Sim.run();
  // Cut-through: first packet time + switch latency + full wire time.
  SimTime Expected = Net.firstPacketTime(1000) + calib::SwitchLatency +
                     Net.wireTime(1000);
  EXPECT_EQ(At, Expected);
}

TEST(NetworkTest, InOrderDeliveryFromOneSource) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(1, 9);
  std::vector<int> Order;
  struct Drain {
    static Task<void> run(Channel<Message> &Port, std::vector<int> &Order) {
      for (int I = 0; I < 5; ++I) {
        Message M = co_await Port.recv();
        Order.push_back(M.Payload[0]);
      }
    }
  };
  Sim.spawn(Drain::run(Port, Order));
  for (uint8_t I = 0; I < 5; ++I)
    Net.send(0, 1, 9, {I});
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(NetworkTest, TxSerialisesBackToBackSends) {
  // Two 100 KB messages from node 0: the second's delivery is one full
  // wire time after the first's.
  Simulator Sim;
  Network Net(Sim, 3);
  auto &PortA = Net.bind(1, 1);
  auto &PortB = Net.bind(2, 1);
  Message GotA, GotB;
  SimTime AtA, AtB;
  Sim.spawn(recvOne(PortA, GotA, Sim, AtA));
  Sim.spawn(recvOne(PortB, GotB, Sim, AtB));
  size_t Size = 100 * 1000;
  Net.send(0, 1, 1, bytes(Size));
  Net.send(0, 2, 1, bytes(Size));
  Sim.run();
  EXPECT_NEAR((AtB - AtA).toSecondsF(), Net.wireTime(Size).toSecondsF(),
              1e-9);
}

TEST(NetworkTest, RxPortContentionSerialisesConcurrentSenders) {
  // Nodes 1 and 2 both send 100 KB to node 0 at t=0.  Their transmissions
  // overlap, but node 0's downlink can only carry one at wire rate: the
  // second delivery is ~one wire time after the first.
  Simulator Sim;
  Network Net(Sim, 3);
  auto &Port = Net.bind(0, 7);
  std::vector<SimTime> Arrivals;
  struct Drain {
    static Task<void> run(Simulator &Sim, Channel<Message> &Port,
                          std::vector<SimTime> &Arrivals) {
      for (int I = 0; I < 2; ++I) {
        (void)co_await Port.recv();
        Arrivals.push_back(Sim.now());
      }
    }
  };
  Sim.spawn(Drain::run(Sim, Port, Arrivals));
  size_t Size = 100 * 1000;
  Net.send(1, 0, 7, bytes(Size));
  Net.send(2, 0, 7, bytes(Size));
  Sim.run();
  ASSERT_EQ(Arrivals.size(), 2u);
  EXPECT_NEAR((Arrivals[1] - Arrivals[0]).toSecondsF(),
              Net.wireTime(Size).toSecondsF(), 1e-9);
}

TEST(NetworkTest, LoopbackBypassesWire) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(0, 3);
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 0, 3, bytes(1 << 20));
  Sim.run();
  EXPECT_EQ(At, SimTime());
  EXPECT_EQ(Got.Payload.size(), static_cast<size_t>(1 << 20));
  EXPECT_EQ(Net.wireBytesCarried(), 0u);
}

TEST(NetworkTest, LoopbackDeliveryDoesNotAllocate) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &Port = Net.bind(0, 3);
  Message Got;
  SimTime At;
  Sim.spawn(recvOne(Port, Got, Sim, At));
  Net.send(0, 0, 3, bytes(16));
  Sim.run();
  EXPECT_EQ(Got.Payload.size(), 16u);
  // The delivery event's capture must fit the callback's inline buffer.
  EXPECT_EQ(Sim.counters().SboMisses, 0u);
}

TEST(NetworkTest, DistinctPortsAreIndependent) {
  Simulator Sim;
  Network Net(Sim, 2);
  auto &P1 = Net.bind(1, 1);
  auto &P2 = Net.bind(1, 2);
  Message M1, M2;
  SimTime T1, T2;
  Sim.spawn(recvOne(P1, M1, Sim, T1));
  Sim.spawn(recvOne(P2, M2, Sim, T2));
  Net.send(0, 1, 2, {2});
  Net.send(0, 1, 1, {1});
  Sim.run();
  EXPECT_EQ(M1.Payload[0], 1);
  EXPECT_EQ(M2.Payload[0], 2);
}

TEST(NetworkTest, BindTwiceReturnsSameChannel) {
  Simulator Sim;
  Network Net(Sim, 2);
  EXPECT_EQ(&Net.bind(1, 5), &Net.bind(1, 5));
  EXPECT_TRUE(Net.isBound(1, 5));
  EXPECT_FALSE(Net.isBound(0, 5));
}

//===----------------------------------------------------------------------===//
// Ping-pong sanity: latency ordering of the raw fabric
//===----------------------------------------------------------------------===//

Task<void> pingPong(Simulator &Sim, Network &Net, int Rounds, size_t Size,
                    SimTime &Elapsed) {
  auto &Pong = Net.bind(0, 100);
  SimTime Start = Sim.now();
  for (int I = 0; I < Rounds; ++I) {
    Net.send(0, 1, 200, bytes(Size));
    (void)co_await Pong.recv();
  }
  Elapsed = Sim.now() - Start;
}

Task<void> echoServer(Network &Net, int Rounds) {
  auto &Ping = Net.bind(1, 200);
  for (int I = 0; I < Rounds; ++I) {
    Message M = co_await Ping.recv();
    Net.send(1, 0, 100, std::move(M.Payload));
  }
}

TEST(NetworkTest, RawFabricRoundTripIsTensOfMicroseconds) {
  Simulator Sim;
  Network Net(Sim, 2);
  SimTime Elapsed;
  int Rounds = 100;
  Sim.spawn(echoServer(Net, Rounds));
  Sim.spawn(pingPong(Sim, Net, Rounds, 4, Elapsed));
  Sim.run();
  double OneWayUs = Elapsed.toMicrosF() / (2.0 * Rounds);
  // Raw wire+switch latency must sit well below the software stacks'
  // 100-520 us one-way figures.
  EXPECT_GT(OneWayUs, 5.0);
  EXPECT_LT(OneWayUs, 30.0);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    Simulator Sim;
    Network Net(Sim, 2);
    SimTime Elapsed;
    Sim.spawn(echoServer(Net, 10));
    Sim.spawn(pingPong(Sim, Net, 10, 1024, Elapsed));
    Sim.run();
    return Elapsed;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

} // namespace
