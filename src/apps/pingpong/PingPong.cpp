//===- apps/pingpong/PingPong.cpp -----------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/pingpong/PingPong.h"

#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "mpi/Mpi.h"
#include "net/Network.h"
#include "remoting/Engine.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

using namespace parcs;
using namespace parcs::apps::pingpong;

namespace {

/// The echo server shared by the remoting-style runners.
class EchoHandler : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &Args) override {
    if (Method != "echo")
      co_return Error(ErrorCode::UnknownMethod, std::string(Method));
    std::vector<int32_t> Payload;
    if (!serial::decodeValues(Args, Payload))
      co_return Error(ErrorCode::MalformedMessage, "echo args");
    co_return serial::encodeValues(Payload);
  }
};

std::vector<int32_t> makePayload(size_t PayloadBytes) {
  std::vector<int32_t> Ints(PayloadBytes / sizeof(int32_t));
  for (size_t I = 0; I < Ints.size(); ++I)
    Ints[I] = static_cast<int32_t>(I * 2654435761U);
  return Ints;
}

vm::VmKind vmFor(remoting::StackKind Stack) {
  switch (Stack) {
  case remoting::StackKind::MonoRemotingTcp105:
    return vm::VmKind::MonoVm105;
  case remoting::StackKind::JavaRmi:
  case remoting::StackKind::JavaNio:
    return vm::VmKind::SunJvm142;
  case remoting::StackKind::MonoRemotingTcp117:
  case remoting::StackKind::MonoRemotingHttp117:
    return vm::VmKind::MonoVm117;
  case remoting::StackKind::MonoRemotingTuned:
    return vm::VmKind::MonoTuned;
  }
  return vm::VmKind::MonoVm117;
}

/// The live per-round latency series the echo drivers feed.
metrics::Histogram &roundLatency() {
  return metrics::Registry::global().histogramHandle("app.round.latency");
}

PingPongResult finish(sim::SimTime Elapsed, size_t PayloadBytes, int Rounds,
                      uint64_t WireBytes) {
  metrics::Registry::global().counter("pingpong.rounds").add(
      static_cast<uint64_t>(Rounds));
  PingPongResult Out;
  double OneWaySeconds = Elapsed.toSecondsF() / (2.0 * Rounds);
  Out.OneWayLatencyUs = OneWaySeconds * 1e6;
  Out.BandwidthMBps =
      OneWaySeconds > 0
          ? static_cast<double>(PayloadBytes) / OneWaySeconds / 1e6
          : 0.0;
  Out.WireBytes = WireBytes;
  return Out;
}

} // namespace

PingPongResult
parcs::apps::pingpong::runRemotingPingPong(remoting::StackKind Stack,
                                           size_t PayloadBytes, int Rounds) {
  vm::Cluster Machines(2, vmFor(Stack));
  net::Network Net(Machines.sim(), 2);
  remoting::RpcEndpoint Client(Machines.node(0), Net,
                               remoting::stackProfile(Stack), 1050);
  remoting::RpcEndpoint Server(Machines.node(1), Net,
                               remoting::stackProfile(Stack), 1050);
  Server.publish("echo", std::make_shared<EchoHandler>());

  sim::SimTime Elapsed;
  struct Driver {
    static sim::Task<void> run(remoting::RpcEndpoint &Client,
                               std::vector<int32_t> Payload, int Rounds,
                               sim::SimTime &Elapsed,
                               metrics::Histogram &RoundLatency) {
      remoting::RemoteHandle Handle(Client, 1, 1050, "echo");
      // Warm-up round (connection establishment, JIT of the path).
      (void)co_await Handle.invokeTyped<std::vector<int32_t>>("echo",
                                                              Payload);
      sim::Simulator &Sim = Client.node().sim();
      sim::SimTime Start = Sim.now();
      for (int I = 0; I < Rounds; ++I) {
        sim::SimTime RoundStart = Sim.now();
        (void)co_await Handle.invokeTyped<std::vector<int32_t>>("echo",
                                                                Payload);
        metrics::record(RoundLatency,
                        (Sim.now() - RoundStart).nanosecondsCount(), 0,
                        Sim.now().nanosecondsCount());
      }
      Elapsed = Sim.now() - Start;
      trace::complete(0, 0, "pingpong.measured", Start.nanosecondsCount(),
                      Elapsed.nanosecondsCount());
    }
  };
  Machines.sim().spawn(Driver::run(Client, makePayload(PayloadBytes), Rounds,
                                   Elapsed, roundLatency()));
  Machines.sim().run();
  return finish(Elapsed, PayloadBytes, Rounds, Net.wireBytesCarried());
}

PingPongResult parcs::apps::pingpong::runMpiPingPong(size_t PayloadBytes,
                                                     int Rounds) {
  vm::Cluster Machines(2, vm::VmKind::NativeCpp);
  net::Network Net(Machines.sim(), 2);
  mpi::MpiWorld World(Machines, Net, /*TotalRanks=*/2, /*RanksPerNode=*/1);

  sim::SimTime Elapsed;
  World.launch([PayloadBytes, Rounds, &Elapsed](mpi::MpiComm Comm)
                   -> sim::Task<void> {
    // Explicit packing, as the paper contrasts with the remoting stacks.
    std::vector<int32_t> Ints = makePayload(PayloadBytes);
    serial::OutputArchive Packed;
    for (int32_t V : Ints)
      Packed.write(V);
    mpi::Bytes Buffer = Packed.take();
    if (Comm.rank() == 0) {
      co_await Comm.send(1, 0, Buffer);
      (void)co_await Comm.recv(1, 0);
      sim::Simulator &Sim = Comm.node().sim();
      sim::SimTime Start = Sim.now();
      for (int I = 0; I < Rounds; ++I) {
        co_await Comm.send(1, 0, Buffer);
        (void)co_await Comm.recv(1, 0);
      }
      Elapsed = Sim.now() - Start;
      trace::complete(0, 0, "pingpong.measured", Start.nanosecondsCount(),
                      Elapsed.nanosecondsCount());
    } else {
      for (int I = 0; I < Rounds + 1; ++I) {
        mpi::RecvResult In = co_await Comm.recv(0, 0);
        co_await Comm.send(0, 0, std::move(In.Data));
      }
    }
  });
  Machines.sim().run();
  return finish(Elapsed, PayloadBytes, Rounds, Net.wireBytesCarried());
}

namespace {

/// Parallel class used by the ParC# ping-pong.
void registerEcho(scoopp::ParallelClassRegistry &Registry) {
  Registry.registerClass(
      {"Echo", [](scoopp::ScooppRuntime &, vm::Node &)
                   -> std::shared_ptr<remoting::CallHandler> {
         return std::make_shared<EchoHandler>();
       }});
}

} // namespace

PingPongResult parcs::apps::pingpong::runScooppPingPong(size_t PayloadBytes,
                                                        int Rounds) {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  scoopp::ParallelClassRegistry Registry;
  registerEcho(Registry);
  scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry));

  sim::SimTime Elapsed;
  struct Driver {
    static sim::Task<void> run(scoopp::ScooppRuntime &Runtime,
                               std::vector<int32_t> Payload, int Rounds,
                               sim::SimTime &Elapsed,
                               metrics::Histogram &RoundLatency) {
      scoopp::ProxyBase Proxy(Runtime, 0);
      Error E = co_await Proxy.create("Echo");
      if (E)
        co_return;
      (void)co_await Proxy.invokeSyncTyped<std::vector<int32_t>>("echo",
                                                                 Payload);
      sim::Simulator &Sim = Runtime.sim();
      sim::SimTime Start = Sim.now();
      for (int I = 0; I < Rounds; ++I) {
        sim::SimTime RoundStart = Sim.now();
        (void)co_await Proxy.invokeSyncTyped<std::vector<int32_t>>("echo",
                                                                   Payload);
        metrics::record(RoundLatency,
                        (Sim.now() - RoundStart).nanosecondsCount(), 0,
                        Sim.now().nanosecondsCount());
      }
      Elapsed = Sim.now() - Start;
      trace::complete(0, 0, "pingpong.measured", Start.nanosecondsCount(),
                      Elapsed.nanosecondsCount());
    }
  };
  Machines.sim().spawn(Driver::run(Runtime, makePayload(PayloadBytes), Rounds,
                                   Elapsed, roundLatency()));
  Machines.sim().run();
  return finish(Elapsed, PayloadBytes, Rounds, Net.wireBytesCarried());
}
