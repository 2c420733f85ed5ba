//===- examples/quickstart.cpp - ParC# in 5 minutes -----------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: boot a simulated 3-node Mono cluster, define one parallel
/// class (a counter), create it through the SCOOPP runtime, call it
/// asynchronously and synchronously, and read the runtime's statistics.
///
/// Everything runs in *virtual time* on a deterministic simulator: the
/// printed times are the times the paper's testbed would observe, and a
/// re-run produces identical output.
///
//===----------------------------------------------------------------------===//

#include "core/ObjectManager.h"
#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "net/Network.h"
#include "vm/Cluster.h"

#include <cstdio>

using namespace parcs;

namespace {

/// The implementation object (IO): what the paper writes as
/// `class CounterImpl : MarshalByRefObject`.
class CounterImpl : public remoting::CallHandler {
public:
  explicit CounterImpl(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &Args) override {
    if (Method == "add") {
      int32_t Value = 0;
      if (!serial::decodeValues(Args, Value))
        co_return Error(ErrorCode::MalformedMessage, "add args");
      co_await Host.compute(sim::SimTime::microseconds(3));
      Sum += Value;
      co_return remoting::Bytes{};
    }
    if (Method == "total")
      co_return serial::encodeValues(Sum);
    co_return Error(ErrorCode::UnknownMethod, std::string(Method));
  }

private:
  vm::Node &Host;
  int32_t Sum = 0;
};

/// The proxy object (PO): what the paper's preprocessor generates (see
/// the parcgen_demo example for the automated version).
class CounterProxy : public scoopp::ProxyBase {
public:
  using ProxyBase::ProxyBase;
  sim::Task<Error> create() { return ProxyBase::create("Counter"); }
  sim::Task<void> add(int32_t Value) { // Asynchronous (void).
    return invokeAsync("add", serial::encodeValues(Value));
  }
  sim::Task<ErrorOr<int32_t>> total() { // Synchronous (returns a value).
    return invokeSyncTyped<int32_t>("total");
  }
};

sim::Task<void> mainProgram(scoopp::ScooppRuntime &Runtime) {
  // Create a parallel object; the object manager places it on a node.
  CounterProxy Counter(Runtime, /*HomeNode=*/0);
  Error E = co_await Counter.create();
  if (E) {
    std::printf("create failed: %s\n", E.str().c_str());
    co_return;
  }
  std::printf("counter placed on node %d (home is node 0)\n",
              Counter.ref().Node);

  // Asynchronous calls: buffered by method-call aggregation, shipped as
  // one packed message once 8 are pending.
  for (int32_t I = 1; I <= 20; ++I)
    co_await Counter.add(I);

  // A synchronous call flushes pending aggregates first, so it observes
  // every add.
  ErrorOr<int32_t> Total = co_await Counter.total();
  if (Total)
    std::printf("total = %d (expected 210) at virtual time %s\n", *Total,
                Runtime.sim().now().str().c_str());
}

} // namespace

int main() {
  // The paper's testbed shape: dual-CPU nodes, 100 Mbit Ethernet,
  // Mono 1.1.7.
  vm::Cluster Machines(3, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), Machines.nodeCount());

  scoopp::ParallelClassRegistry Registry;
  Registry.registerClass(
      {"Counter",
       [](scoopp::ScooppRuntime &, vm::Node &Host)
           -> std::shared_ptr<remoting::CallHandler> {
         return std::make_shared<CounterImpl>(Host);
       }});

  scoopp::ScooppConfig Config;
  Config.Grain.MaxCallsPerMessage = 8; // Method-call aggregation.
  scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry), Config);

  Machines.sim().spawn(mainProgram(Runtime));
  Machines.sim().run();

  const scoopp::ScooppStats &Stats = Runtime.stats();
  std::printf("stats: %llu async calls in %llu packed messages, "
              "%llu sync calls, %llu network messages\n",
              static_cast<unsigned long long>(Stats.RemoteAsyncCalls),
              static_cast<unsigned long long>(Stats.PackedMessages),
              static_cast<unsigned long long>(Stats.RemoteSyncCalls),
              static_cast<unsigned long long>(Net.messagesDelivered()));
  return 0;
}
