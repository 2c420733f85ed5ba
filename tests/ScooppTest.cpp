//===- tests/ScooppTest.cpp - ParC#/SCOOPP runtime tests ------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/ImplAdapter.h"
#include "core/ObjectManager.h"
#include "core/Passive.h"
#include "core/Proxy.h"
#include "core/Scoopp.h"

#include <gtest/gtest.h>

using namespace parcs;
using namespace parcs::scoopp;
using namespace parcs::sim;

namespace {

SimTime us(int64_t N) { return SimTime::microseconds(N); }

/// A stateful parallel class: accumulates integers (async "add"), answers
/// the sum (sync "total"), and can burn CPU ("work").
class CounterImpl : public CallHandler {
public:
  explicit CounterImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method == "add") {
      int32_t Value = 0;
      if (!serial::decodeValues(Args, Value))
        co_return Error(ErrorCode::MalformedMessage, "add args");
      co_await Host.compute(us(2));
      Sum += Value;
      co_return Bytes{};
    }
    if (Method == "total") {
      co_await Host.compute(us(1));
      co_return serial::encodeValues(Sum);
    }
    if (Method == "work") {
      int64_t Micros = 0;
      if (!serial::decodeValues(Args, Micros))
        co_return Error(ErrorCode::MalformedMessage, "work args");
      co_await Host.compute(us(Micros));
      co_return serial::encodeValues(Unit());
    }
    if (Method == "whereAmI")
      co_return serial::encodeValues(static_cast<int32_t>(Host.id()));
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

private:
  vm::Node &Host;
  int32_t Sum = 0;
};

/// The generated-proxy shape (what parcgen emits) for CounterImpl.
class CounterProxy : public ProxyBase {
public:
  static constexpr const char *ClassName = "Counter";
  using ProxyBase::ProxyBase;

  sim::Task<Error> create() { return ProxyBase::create(ClassName); }
  sim::Task<void> add(int32_t Value) {
    return invokeAsync("add", serial::encodeValues(Value));
  }
  sim::Task<ErrorOr<int32_t>> total() {
    return invokeSyncTyped<int32_t>("total");
  }
  sim::Task<ErrorOr<Unit>> work(int64_t Micros) {
    return invokeSyncTyped<Unit>("work", Micros);
  }
  sim::Task<ErrorOr<int32_t>> whereAmI() {
    return invokeSyncTyped<int32_t>("whereAmI");
  }
};

ParallelClassRegistry makeRegistry() {
  ParallelClassRegistry Registry;
  Registry.registerClass(
      {"Counter",
       [](ScooppRuntime &, vm::Node &Host) -> std::shared_ptr<CallHandler> {
         return std::make_shared<CounterImpl>(Host);
       }});
  return Registry;
}

struct ScooppWorld {
  explicit ScooppWorld(ScooppConfig Config = ScooppConfig(), int Nodes = 4)
      : Machines(Nodes, vm::VmKind::MonoVm117), Net(Machines.sim(), Nodes),
        Runtime(Machines, Net, makeRegistry(), Config) {}

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  ScooppRuntime Runtime;
};

//===----------------------------------------------------------------------===//
// Creation + placement
//===----------------------------------------------------------------------===//

TEST(ScooppCreateTest, RoundRobinSpreadsObjects) {
  ScooppWorld W;
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      for (int I = 0; I < 8; ++I) {
        CounterProxy P(W.Runtime, 0);
        Error E = co_await P.create();
        EXPECT_FALSE(E) << E.str();
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  // 8 objects over 4 nodes, round robin: two each.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(W.Runtime.om(I).hostedObjects(), 2) << "node " << I;
  EXPECT_EQ(W.Runtime.stats().RemoteCreations, 8u);
  EXPECT_EQ(W.Runtime.stats().LocalCreations, 0u);
}

TEST(ScooppCreateTest, StaticAgglomerationCreatesLocally) {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      for (int I = 0; I < 5; ++I) {
        CounterProxy P(W.Runtime, 2);
        (void)co_await P.create();
        EXPECT_TRUE(P.isLocal());
        EXPECT_EQ(P.ref().Node, 2);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Runtime.om(2).hostedObjects(), 5);
  EXPECT_EQ(W.Runtime.stats().LocalCreations, 5u);
  EXPECT_EQ(W.Runtime.stats().RemoteCreations, 0u);
}

TEST(ScooppCreateTest, UnknownClassFails) {
  ScooppWorld W;
  Error Got;
  struct Proc {
    static Task<void> run(ScooppWorld &W, Error &Got) {
      ProxyBase P(W.Runtime, 0);
      Got = co_await P.create("NoSuchClass");
    }
  };
  W.sim().spawn(Proc::run(W, Got));
  W.sim().run();
  EXPECT_TRUE(Got);
  EXPECT_EQ(Got.code(), ErrorCode::UnknownType);
}

TEST(ScooppCreateTest, LeastLoadedAvoidsBusyNode) {
  ScooppConfig Config;
  Config.Placement = PlacementPolicy::LeastLoaded;
  ScooppWorld W(Config);
  // Preload node 1 (and 2 and 3 lightly) by hand.
  (void)W.Runtime.instantiateImpl(1, "Counter");
  (void)W.Runtime.instantiateImpl(1, "Counter");
  (void)W.Runtime.instantiateImpl(1, "Counter");
  (void)W.Runtime.instantiateImpl(2, "Counter");
  int Placed = -1;
  struct Proc {
    static Task<void> run(ScooppWorld &W, int &Placed) {
      CounterProxy P(W.Runtime, 1); // Home is the busy node.
      (void)co_await P.create();
      Placed = P.ref().Node;
    }
  };
  W.sim().spawn(Proc::run(W, Placed));
  W.sim().run();
  // Nodes 0 and 3 are empty; the tie-break picks the lowest id.
  EXPECT_EQ(Placed, 0);
}

TEST(ScooppCreateTest, RandomPlacementIsSeededDeterministic) {
  auto RunOnce = [] {
    ScooppConfig Config;
    Config.Placement = PlacementPolicy::Random;
    Config.Seed = 2026;
    ScooppWorld W(Config);
    std::vector<int> Nodes;
    struct Proc {
      static Task<void> run(ScooppWorld &W, std::vector<int> &Nodes) {
        for (int I = 0; I < 6; ++I) {
          CounterProxy P(W.Runtime, 0);
          (void)co_await P.create();
          Nodes.push_back(P.ref().Node);
        }
      }
    };
    W.sim().spawn(Proc::run(W, Nodes));
    W.sim().run();
    return Nodes;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

//===----------------------------------------------------------------------===//
// Calls: async, sync, ordering
//===----------------------------------------------------------------------===//

TEST(ScooppCallTest, AsyncThenSyncSeesAllEffects) {
  ScooppWorld W;
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_FALSE(P.isLocal());
      for (int32_t I = 1; I <= 10; ++I)
        co_await P.add(I);
      Total = co_await P.total();
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 55);
}

TEST(ScooppCallTest, LocalProxyExecutesSynchronouslyAndSerially) {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  ScooppWorld W(Config);
  ErrorOr<int32_t> Total(0);
  uint64_t WireBefore = 0, WireAfter = 0;
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      EXPECT_TRUE(P.isLocal());
      for (int32_t I = 1; I <= 4; ++I)
        co_await P.add(I);
      Total = co_await P.total();
    }
  };
  WireBefore = W.Net.messagesDelivered();
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  WireAfter = W.Net.messagesDelivered();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 10);
  EXPECT_EQ(WireAfter, WireBefore) << "intra-grain calls must not touch "
                                      "the network";
  EXPECT_EQ(W.Runtime.stats().LocalCalls, 5u);
  EXPECT_EQ(W.Runtime.stats().RemoteAsyncCalls, 0u);
}

TEST(ScooppCallTest, SyncErrorsPropagate) {
  ScooppWorld W;
  ErrorOr<Bytes> Out(Bytes{});
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<Bytes> &Out) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      Out = co_await P.invokeSync("bogus", Bytes{});
    }
  };
  W.sim().spawn(Proc::run(W, Out));
  W.sim().run();
  ASSERT_FALSE(Out.hasValue());
  EXPECT_EQ(Out.error().code(), ErrorCode::UnknownMethod);
}

//===----------------------------------------------------------------------===//
// Method call aggregation
//===----------------------------------------------------------------------===//

TEST(ScooppAggregationTest, BuffersUntilFactor) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 4;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      co_await P.add(1);
      co_await P.add(2);
      co_await P.add(3);
      EXPECT_EQ(P.pendingCalls(), 3u) << "below factor: buffered";
      co_await P.add(4);
      EXPECT_EQ(P.pendingCalls(), 0u) << "factor reached: shipped";
      auto Total = co_await P.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 10);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
  EXPECT_EQ(W.Runtime.stats().PackedCalls, 4u);
  // One packed one-way message carried all four adds.
  EXPECT_EQ(W.Runtime.endpoint(0).stats().OneWaySent, 1u);
}

TEST(ScooppAggregationTest, SyncCallFlushesPartialBuffer) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 100;
  ScooppWorld W(Config);
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      for (int32_t I = 1; I <= 7; ++I)
        co_await P.add(I);
      EXPECT_EQ(P.pendingCalls(), 7u);
      Total = co_await P.total(); // Must flush first.
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 28);
}

TEST(ScooppAggregationTest, AggregationReducesMessages) {
  auto MessagesFor = [](int Factor) {
    ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = Factor;
    ScooppWorld W(Config);
    struct Proc {
      static Task<void> run(ScooppWorld &W) {
        CounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
        for (int32_t I = 0; I < 64; ++I)
          co_await P.add(I);
        co_await P.flush();
        (void)co_await P.total();
      }
    };
    W.sim().spawn(Proc::run(W));
    W.sim().run();
    return W.Net.messagesDelivered();
  };
  uint64_t NoAgg = MessagesFor(1);
  uint64_t Agg8 = MessagesFor(8);
  uint64_t Agg64 = MessagesFor(64);
  EXPECT_GT(NoAgg, Agg8);
  EXPECT_GT(Agg8, Agg64);
}

TEST(ScooppAggregationTest, ExplicitFlushShipsRemainder) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 10;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      co_await P.add(5);
      co_await P.add(6);
      EXPECT_EQ(P.pendingCalls(), 2u);
      co_await P.flush();
      EXPECT_EQ(P.pendingCalls(), 0u);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
  EXPECT_EQ(W.Runtime.stats().PackedCalls, 2u);
}

//===----------------------------------------------------------------------===//
// Packed-call codec
//===----------------------------------------------------------------------===//

TEST(PackedCallsTest, RoundTrip) {
  std::vector<BufferedCall> Calls = {{Bytes{1, 2, 3}, 0},
                                     {Bytes{}, 0},
                                     {Bytes{9}, 0}};
  auto Back = decodePackedCalls(encodePackedCalls(Calls));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, Calls);
}

TEST(PackedCallsTest, RoundTripWithContexts) {
  // Mixed: some calls carry a causal id, some don't.
  std::vector<BufferedCall> Calls = {{Bytes{1, 2, 3}, 41},
                                     {Bytes{}, 0},
                                     {Bytes{9}, 1'000'000'007}};
  Bytes Encoded = encodePackedCalls(Calls);
  auto Back = decodePackedCalls(Encoded);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, Calls);
  // The ctx-free encoding of the same arguments is strictly smaller --
  // untraced runs keep the legacy byte format.
  std::vector<BufferedCall> NoCtx = Calls;
  for (BufferedCall &Call : NoCtx)
    Call.Ctx = 0;
  EXPECT_LT(encodePackedCalls(NoCtx).size(), Encoded.size());
}

TEST(PackedCallsTest, RejectsTruncated) {
  std::vector<BufferedCall> Calls = {{Bytes{1, 2, 3, 4, 5}, 0}};
  Bytes Encoded = encodePackedCalls(Calls);
  Encoded.pop_back();
  EXPECT_FALSE(decodePackedCalls(Encoded).hasValue());
}

TEST(PackedCallsTest, RejectsTruncatedContext) {
  std::vector<BufferedCall> Calls = {{Bytes{1}, 7}};
  Bytes Encoded = encodePackedCalls(Calls);
  Encoded.pop_back();
  EXPECT_FALSE(decodePackedCalls(Encoded).hasValue());
}

TEST(PackedCallsTest, RejectsTrailingGarbage) {
  Bytes Encoded = encodePackedCalls({{Bytes{1}, 0}});
  Encoded.push_back(0xff);
  EXPECT_FALSE(decodePackedCalls(Encoded).hasValue());
}

//===----------------------------------------------------------------------===//
// Adaptive grain-size control
//===----------------------------------------------------------------------===//

TEST(ScooppAdaptiveTest, FineGrainClassGetsAggregated) {
  ScooppConfig Config;
  Config.Grain.Adaptive = true;
  Config.Grain.MaxCallsPerMessage = 32;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      // Before any feedback, no aggregation.
      EXPECT_EQ(W.Runtime.om(P.ref().Node).aggregationFactor("Counter"), 1);
      // Execute a few tiny (2 us) methods to teach the remote OM.
      for (int32_t I = 0; I < 5; ++I)
        co_await P.add(I);
      (void)co_await P.total();
      // The hosting node's OM now knows the grain is tiny.
      EXPECT_GT(W.Runtime.om(P.ref().Node).aggregationFactor("Counter"), 1);
      EXPECT_TRUE(
          W.Runtime.om(P.ref().Node).shouldAgglomerate("Counter"));
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppAdaptiveTest, CoarseGrainClassStaysUnaggregated) {
  ScooppConfig Config;
  Config.Grain.Adaptive = true;
  Config.Grain.MaxCallsPerMessage = 32;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      for (int I = 0; I < 5; ++I)
        (void)co_await P.work(5000); // 5 ms >> threshold.
      EXPECT_EQ(W.Runtime.om(P.ref().Node).aggregationFactor("Counter"), 1);
      EXPECT_FALSE(
          W.Runtime.om(P.ref().Node).shouldAgglomerate("Counter"));
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

//===----------------------------------------------------------------------===//
// Parallel-object references as arguments
//===----------------------------------------------------------------------===//

TEST(ParallelRefTest, EncodesAndDecodes) {
  ParallelRef Ref{3, "io:Counter:7"};
  ParallelRef Back;
  ASSERT_TRUE(ParallelRef::fromBytes(Ref.toBytes(), Back));
  EXPECT_EQ(Back, Ref);
  Bytes Junk = {1, 2};
  EXPECT_FALSE(ParallelRef::fromBytes(Junk, Back));
}

TEST(ParallelRefTest, SecondProxySharesState) {
  ScooppWorld W;
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy A(W.Runtime, 0);
      (void)co_await A.create();
      co_await A.add(40);
      co_await A.flush();
      // Ship the reference (as bytes) to another proxy, possibly on a
      // different home node -- "references to parallel objects may be
      // copied or sent as a method argument".
      Bytes Wire = A.ref().toBytes();
      ParallelRef Ref;
      EXPECT_TRUE(ParallelRef::fromBytes(Wire, Ref));
      CounterProxy B(W.Runtime, 2);
      EXPECT_FALSE(B.bind(CounterProxy::ClassName, Ref));
      co_await B.add(2);
      Total = co_await B.total();
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 42);
}

TEST(ParallelRefTest, BindRefusesRefsWithoutAnEndpoint) {
  // A ref travels as argument bytes, so it may be forged.  One naming
  // node 99 of a 4-node runtime (or a negative node, or no name) is
  // refused once, at bind, instead of the first call aborting in the
  // fabric.
  ScooppWorld W;
  for (const ParallelRef &Sent : {ParallelRef{99, "io:Counter:1"},
                                  ParallelRef{-2, "io:Counter:1"},
                                  ParallelRef{1, ""}}) {
    ParallelRef Got;
    ASSERT_TRUE(ParallelRef::fromBytes(Sent.toBytes(), Got));
    CounterProxy P(W.Runtime, 0);
    Error E = P.bind(CounterProxy::ClassName, Got);
    EXPECT_EQ(E.code(), ErrorCode::ConnectionFailed)
        << "node " << Sent.Node << " name '" << Sent.Name << "'";
    EXPECT_FALSE(P.created());
  }
}

TEST(ParallelRefTest, BindKeepsAsyncDispatchEvenOnHostingNode) {
  // A received reference addresses a foreign grain: calls stay
  // asynchronous (loopback remoting) even on the hosting node, so
  // co-located parallel objects can use both CPUs.
  ScooppWorld W;
  ErrorOr<int32_t> Total(0);
  struct Proc {
    static Task<void> run(ScooppWorld &W, ErrorOr<int32_t> &Total) {
      CounterProxy A(W.Runtime, 0);
      (void)co_await A.create(); // Round robin from node 0 -> node 1.
      EXPECT_EQ(A.ref().Node, 1);
      CounterProxy B(W.Runtime, 1); // Home == hosting node.
      EXPECT_FALSE(B.bind(CounterProxy::ClassName, A.ref()));
      EXPECT_FALSE(B.isLocal());
      co_await B.add(4);
      Total = co_await B.total(); // Dispatches through loopback.
    }
  };
  W.sim().spawn(Proc::run(W, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 4);
}




//===----------------------------------------------------------------------===//
// Passive objects (copies move between parallel objects)
//===----------------------------------------------------------------------===//

/// A passive linked node (reusable sequential code, per Section 3.1).
class PassiveNode : public serial::SerializableObject {
public:
  static constexpr const char *TypeNameStr = "scoopp.PassiveNode";
  int32_t Value = 0;
  PassiveNode *Next = nullptr;

  std::string_view typeName() const override { return TypeNameStr; }
  void writeFields(serial::ObjectWriter &Writer) const override {
    Writer.write(Value);
    Writer.writeRef(Next);
  }
  bool readFields(serial::ObjectReader &Reader) override {
    return Reader.read(Value) && Reader.readRefAs(Next);
  }
};

/// A parallel class consuming passive graphs: sums the list it receives.
class GraphSumImpl : public CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override {
    if (Method != "consume")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    serial::ObjectPool Pool;
    auto Root = decodePassiveGraph(Args, Pool);
    if (!Root)
      co_return Root.error();
    int32_t Sum = 0;
    int Guard = 0;
    for (serial::SerializableObject *Cursor = *Root; Cursor && Guard < 100;
         ++Guard) {
      auto *Node = serial::objectCast<PassiveNode>(Cursor);
      if (!Node)
        co_return Error(ErrorCode::MalformedMessage, "not a PassiveNode");
      Sum += Node->Value;
      // Mutating the received copy must never reach the sender.
      Node->Value = -1;
      Cursor = Node->Next;
    }
    Total += Sum;
    co_return serial::encodeValues(Total);
  }

private:
  int32_t Total = 0;
};

TEST(ScooppPassiveTest, GraphCopiesMoveBetweenParallelObjects) {
  serial::TypeRegistry::global().registerType<PassiveNode>();
  ScooppConfig Config;
  ScooppWorld W(Config);
  W.Runtime.cluster(); // Touch to silence unused warnings if any.
  // Register the consumer class in a fresh registry-backed world is not
  // possible post-construction, so publish it directly.
  auto Made = std::make_shared<GraphSumImpl>();
  W.Runtime.endpoint(1).publish("graphsum", Made);

  bool Done = false;
  struct Proc {
    static Task<void> run(ScooppWorld &W, bool &Done) {
      // Build a passive list 1 -> 2 -> 3 in the caller's context.
      serial::ObjectPool Mine;
      PassiveNode *A = Mine.create<PassiveNode>();
      PassiveNode *B = Mine.create<PassiveNode>();
      PassiveNode *C = Mine.create<PassiveNode>();
      A->Value = 1;
      B->Value = 2;
      C->Value = 3;
      A->Next = B;
      B->Next = C;

      remoting::RemoteHandle Handle(W.Runtime.endpoint(0), 1,
                                    W.Runtime.config().Port, "graphsum");
      ErrorOr<Bytes> First =
          co_await Handle.invoke("consume", encodePassiveGraph(A));
      EXPECT_TRUE(First.hasValue());
      int32_t Total = 0;
      if (First) {
        EXPECT_TRUE(serial::decodeValues(*First, Total));
        EXPECT_EQ(Total, 6);
      }
      // The remote mutated its *copy*; the original is untouched, so a
      // second transfer sums the same values again.
      EXPECT_EQ(A->Value, 1);
      ErrorOr<Bytes> Second =
          co_await Handle.invoke("consume", encodePassiveGraph(A));
      EXPECT_TRUE(Second.hasValue());
      if (Second) {
        EXPECT_TRUE(serial::decodeValues(*Second, Total));
        EXPECT_EQ(Total, 12);
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

TEST(ScooppPassiveTest, CloneIsolatesCoLocatedObjects) {
  serial::TypeRegistry::global().registerType<PassiveNode>();
  serial::ObjectPool Mine;
  PassiveNode *A = Mine.create<PassiveNode>();
  PassiveNode *B = Mine.create<PassiveNode>();
  A->Value = 10;
  B->Value = 20;
  A->Next = B;
  B->Next = A; // Cycle survives the copy.

  serial::ObjectPool Theirs;
  auto Copy = clonePassiveGraph(A, Theirs);
  ASSERT_TRUE(Copy.hasValue());
  auto *A2 = serial::objectCast<PassiveNode>(*Copy);
  ASSERT_NE(A2, nullptr);
  EXPECT_NE(A2, A);
  EXPECT_EQ(A2->Next->Next, A2);
  A2->Value = 999;
  EXPECT_EQ(A->Value, 10);
}

//===----------------------------------------------------------------------===//
// Concurrent access from multiple home nodes (active-object integrity)
//===----------------------------------------------------------------------===//

TEST(ScooppConcurrencyTest, ManyNodesHammerOneObjectWithoutLostUpdates) {
  // Drivers on every node add into the same parallel object through
  // their own proxies.  Parallel objects execute one method at a time,
  // so no update may be lost even though calls interleave arbitrarily.
  ScooppWorld W;
  const int32_t PerDriver = 25;
  struct Owner {
    static Task<void> run(ScooppWorld &W, ParallelRef &Ref,
                          sim::WaitGroup &Ready) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      Ref = P.ref();
      Ready.done();
    }
  };
  struct Driver {
    static Task<void> run(ScooppWorld &W, int Home, ParallelRef &Ref,
                          sim::WaitGroup &Ready, sim::WaitGroup &Done,
                          int32_t PerDriver) {
      co_await Ready.wait();
      CounterProxy P(W.Runtime, Home);
      EXPECT_FALSE(P.bind(CounterProxy::ClassName, Ref));
      for (int32_t I = 1; I <= PerDriver; ++I)
        co_await P.add(I);
      co_await P.flush();
      Done.done();
    }
  };
  ParallelRef Ref;
  sim::WaitGroup Ready(W.sim()), Done(W.sim());
  Ready.add(1);
  Done.add(4);
  W.sim().spawn(Owner::run(W, Ref, Ready));
  for (int Home = 0; Home < 4; ++Home)
    W.sim().spawn(Driver::run(W, Home, Ref, Ready, Done, PerDriver));

  ErrorOr<int32_t> Total(0);
  struct Check {
    static Task<void> run(ScooppWorld &W, ParallelRef &Ref,
                          sim::WaitGroup &Done, ErrorOr<int32_t> &Total) {
      co_await Done.wait();
      CounterProxy P(W.Runtime, 0);
      EXPECT_FALSE(P.bind(CounterProxy::ClassName, Ref));
      Total = co_await P.total();
    }
  };
  W.sim().spawn(Check::run(W, Ref, Done, Total));
  W.sim().run();
  ASSERT_TRUE(Total.hasValue());
  EXPECT_EQ(*Total, 4 * PerDriver * (PerDriver + 1) / 2);
}

//===----------------------------------------------------------------------===//
// Object destruction (ParC++ lifetime semantics)
//===----------------------------------------------------------------------===//

TEST(ScooppDestroyTest, RemoteObjectIsDestroyed) {
  ScooppWorld W;
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      int HostNode = P.ref().Node;
      ParallelRef Victim = P.ref();
      EXPECT_EQ(W.Runtime.om(HostNode).hostedObjects(), 1);
      Error E = co_await P.destroy();
      EXPECT_FALSE(E) << E.str();
      EXPECT_FALSE(P.created());
      EXPECT_EQ(W.Runtime.om(HostNode).hostedObjects(), 0);
      // Stale references now fault.
      CounterProxy Stale(W.Runtime, 0);
      EXPECT_FALSE(Stale.bind(CounterProxy::ClassName, Victim));
      auto Out = co_await Stale.total();
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::UnknownObject);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppDestroyTest, LocalAgglomeratedObjectIsDestroyed) {
  ScooppConfig Config;
  Config.Grain.AgglomerateObjects = true;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 1);
      (void)co_await P.create();
      EXPECT_TRUE(P.isLocal());
      EXPECT_EQ(W.Runtime.om(1).hostedObjects(), 1);
      Error E = co_await P.destroy();
      EXPECT_FALSE(E) << E.str();
      EXPECT_EQ(W.Runtime.om(1).hostedObjects(), 0);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppDestroyTest, DoubleDestroyFaults) {
  ScooppWorld W;
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy A(W.Runtime, 0);
      (void)co_await A.create();
      ParallelRef Victim = A.ref();
      EXPECT_FALSE(co_await A.destroy());
      CounterProxy B(W.Runtime, 0);
      EXPECT_FALSE(B.bind(CounterProxy::ClassName, Victim));
      Error Second = co_await B.destroy();
      EXPECT_TRUE(Second);
      EXPECT_EQ(Second.code(), ErrorCode::UnknownObject);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ScooppDestroyTest, PendingAggregatesFlushBeforeDestroy) {
  ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 100;
  ScooppWorld W(Config);
  struct Proc {
    static Task<void> run(ScooppWorld &W) {
      CounterProxy P(W.Runtime, 0);
      (void)co_await P.create();
      co_await P.add(1);
      co_await P.add(2);
      EXPECT_EQ(P.pendingCalls(), 2u);
      EXPECT_FALSE(co_await P.destroy());
      EXPECT_EQ(P.pendingCalls(), 0u);
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
  // The flushed adds really executed before destruction (one packed
  // message).
  EXPECT_EQ(W.Runtime.stats().PackedMessages, 1u);
}

//===----------------------------------------------------------------------===//
// E4: proxy overhead over raw remoting is "not noticeable"
//===----------------------------------------------------------------------===//

TEST(ScooppOverheadTest, ProxyPenaltyUnderFivePercent) {
  // Raw remoting round trips.
  double RawUs = 0, ProxyUs = 0;
  int Rounds = 40;
  {
    ScooppWorld W;
    struct Proc {
      static Task<void> run(ScooppWorld &W, int Rounds, double &OutUs) {
        auto Made = W.Runtime.instantiateImpl(1, "Counter");
        EXPECT_TRUE(Made.hasValue());
        remoting::RemoteHandle Handle(W.Runtime.endpoint(0), 1,
                                      W.Runtime.config().Port, Made->first);
        (void)co_await Handle.invokeTyped<int32_t>("total");
        SimTime Start = W.sim().now();
        for (int I = 0; I < Rounds; ++I)
          (void)co_await Handle.invokeTyped<int32_t>("total");
        OutUs = (W.sim().now() - Start).toMicrosF() / Rounds;
      }
    };
    W.sim().spawn(Proc::run(W, Rounds, RawUs));
    W.sim().run();
  }
  {
    ScooppWorld W;
    struct Proc {
      static Task<void> run(ScooppWorld &W, int Rounds, double &OutUs) {
        CounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
        (void)co_await P.total();
        SimTime Start = W.sim().now();
        for (int I = 0; I < Rounds; ++I)
          (void)co_await P.total();
        OutUs = (W.sim().now() - Start).toMicrosF() / Rounds;
      }
    };
    W.sim().spawn(Proc::run(W, Rounds, ProxyUs));
    W.sim().run();
  }
  EXPECT_GT(ProxyUs, RawUs) << "the proxy is not free";
  EXPECT_LT(ProxyUs, RawUs * 1.05) << "but its penalty is not noticeable";
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(ScooppTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = 4;
    ScooppWorld W(Config);
    struct Proc {
      static Task<void> run(ScooppWorld &W) {
        CounterProxy P(W.Runtime, 0);
        (void)co_await P.create();
        for (int32_t I = 0; I < 20; ++I)
          co_await P.add(I);
        (void)co_await P.total();
      }
    };
    W.sim().spawn(Proc::run(W));
    W.sim().run();
    return W.sim().now();
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

} // namespace
