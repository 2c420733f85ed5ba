//===- tests/ParcgenIntegrationTest.cpp - generated-code round trip -------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end check of parcgen: tests/data/accumulator.pci is compiled by
/// the parcgen *tool at build time* (see tests/CMakeLists.txt) into
/// AccumulatorGen.h; this file implements the generated skeleton and
/// drives the generated proxy over a live SCOOPP runtime.
///
//===----------------------------------------------------------------------===//

#include "AccumulatorGen.h"
#include "core/ObjectManager.h"
#include "net/Network.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

using namespace parcs;
using namespace parcs::sim;
using parcstest::gen::AccumulatorProxy;
using parcstest::gen::AccumulatorSkeleton;

namespace {

/// Implementation of the generated skeleton.
class AccumulatorImpl : public AccumulatorSkeleton {
public:
  using AccumulatorSkeleton::AccumulatorSkeleton;

  sim::Task<Unit> add(int32_t Value) override {
    co_await Host.compute(SimTime::microseconds(1));
    Sum += Value;
    co_return Unit();
  }

  sim::Task<Unit> addMany(std::vector<int32_t> Values) override {
    for (int32_t V : Values)
      Sum += V;
    co_return Unit();
  }

  sim::Task<int32_t> total() override { co_return Sum; }

  sim::Task<std::string> describe(std::string Prefix, bool Upper) override {
    std::string Text = Prefix + std::to_string(Sum);
    if (Upper)
      std::transform(Text.begin(), Text.end(), Text.begin(), [](char C) {
        return static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
      });
    co_return Text;
  }

  sim::Task<double> scale(double Factor) override {
    co_return Sum * Factor;
  }

  sim::Task<int64_t> big(int64_t X) override { co_return X * 2; }

  sim::Task<scoopp::ParallelRef> self() override { co_return SelfRef; }

  sim::Task<Unit> note(scoopp::ParallelRef Peer) override {
    LastPeer = Peer;
    co_return Unit();
  }

  int32_t Sum = 0;
  scoopp::ParallelRef SelfRef;
  scoopp::ParallelRef LastPeer;
};

struct GenWorld {
  GenWorld()
      : Machines(3, vm::VmKind::MonoVm117), Net(Machines.sim(), 3),
        Runtime(Machines, Net, [] {
          scoopp::ParallelClassRegistry Registry;
          parcstest::gen::registerAccumulatorClass<AccumulatorImpl>(Registry);
          return Registry;
        }()) {}

  Simulator &sim() { return Machines.sim(); }

  vm::Cluster Machines;
  net::Network Net;
  scoopp::ScooppRuntime Runtime;
};

TEST(ParcgenIntegrationTest, GeneratedProxyAndSkeletonInteroperate) {
  GenWorld W;
  bool Done = false;
  struct Proc {
    static Task<void> run(GenWorld &W, bool &Done) {
      AccumulatorProxy P(W.Runtime, 0);
      Error E = co_await P.create();
      EXPECT_FALSE(E) << E.str();

      co_await P.add(5);
      co_await P.add(7);
      std::vector<int32_t> More = {1, 2, 3};
      co_await P.addMany(More);

      auto Total = co_await P.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 18);
      }

      auto Text = co_await P.describe("sum=", true);
      EXPECT_TRUE(Text.hasValue());
      if (Text) {
        EXPECT_EQ(*Text, "SUM=18");
      }

      auto Scaled = co_await P.scale(0.5);
      EXPECT_TRUE(Scaled.hasValue());
      if (Scaled) {
        EXPECT_DOUBLE_EQ(*Scaled, 9.0);
      }

      auto Big = co_await P.big(1LL << 40);
      EXPECT_TRUE(Big.hasValue());
      if (Big) {
        EXPECT_EQ(*Big, 1LL << 41);
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

TEST(ParcgenIntegrationTest, RefArgumentsRoundTrip) {
  GenWorld W;
  bool Done = false;
  struct Proc {
    static Task<void> run(GenWorld &W, bool &Done) {
      AccumulatorProxy A(W.Runtime, 0);
      AccumulatorProxy B(W.Runtime, 0);
      (void)co_await A.create();
      (void)co_await B.create();
      // Pass B's reference to A through the generated ref<> plumbing.
      co_await A.note(B.ref());
      co_await A.flush();
      // Bind a third proxy to B through the wire-transported ref and use
      // it.
      AccumulatorProxy C(W.Runtime, 2);
      EXPECT_FALSE(C.bind(AccumulatorProxy::ClassName, B.ref()));
      co_await C.add(11);
      auto Total = co_await C.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 11);
      }
      Done = true;
    }
  };
  W.sim().spawn(Proc::run(W, Done));
  W.sim().run();
  EXPECT_TRUE(Done);
}

TEST(ParcgenIntegrationTest, GeneratedAsyncCallsAggregate) {
  GenWorld W;
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      for (int32_t I = 1; I <= 12; ++I)
        co_await P.add(I);
      auto Total = co_await P.total();
      EXPECT_TRUE(Total.hasValue());
      if (Total) {
        EXPECT_EQ(*Total, 78);
      }
    }
  };
  scoopp::ScooppConfig Config; // Unused here; default world.
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ParcgenIntegrationTest, GeneratedDispatchRejectsUnknownMethod) {
  GenWorld W;
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      auto Out = co_await P.invokeSync("nope", {});
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::UnknownMethod);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

TEST(ParcgenIntegrationTest, GeneratedDispatchRejectsMalformedArgs) {
  GenWorld W;
  struct Proc {
    static Task<void> run(GenWorld &W) {
      AccumulatorProxy P(W.Runtime, 0);
      (void)co_await P.create();
      remoting::Bytes Junk = {1};
      auto Out = co_await P.invokeSync("scale", Junk);
      EXPECT_FALSE(Out.hasValue());
      if (!Out) {
        EXPECT_EQ(Out.error().code(), ErrorCode::MalformedMessage);
      }
    }
  };
  W.sim().spawn(Proc::run(W));
  W.sim().run();
}

} // namespace
