//===- core/ObjectManager.cpp ---------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "core/ObjectManager.h"

#include "core/ImplAdapter.h"
#include "support/Compiler.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Calibration.h"

#include <cmath>
#include <cstdint>
#include <utility>

using namespace parcs;
using namespace parcs::scoopp;

namespace {

/// Adaptive grain control treats a class as fine-grained once its average
/// method execution time falls below this.
constexpr sim::SimTime SmallGrainThreshold = sim::SimTime::microseconds(500);

} // namespace

bool ObjectManager::shouldAgglomerate(const std::string &ClassName) const {
  const GrainPolicy &Grain = Runtime.config().Grain;
  if (Grain.AgglomerateObjects)
    return true;
  if (!Grain.Adaptive)
    return false;
  // Adaptive rule (after [9]): once the class is known to be fine-grained
  // (average method execution below the threshold), stop exporting new
  // instances -- excess parallelism is being removed.
  auto It = Grains.find(ClassName);
  if (It == Grains.end() || !It->second.hasData())
    return false;
  return It->second.average() < SmallGrainThreshold;
}

int ObjectManager::aggregationFactor(const std::string &ClassName) const {
  const GrainPolicy &Grain = Runtime.config().Grain;
  if (!Grain.Adaptive)
    return Grain.MaxCallsPerMessage;
  auto It = Grains.find(ClassName);
  if (It == Grains.end() || !It->second.hasData())
    return 1;
  sim::SimTime Avg = It->second.average();
  if (Avg >= SmallGrainThreshold)
    return 1;
  // Pack enough calls that one packed message amortises to the threshold,
  // bounded by the configured maximum.
  double Ratio = SmallGrainThreshold.toSecondsF() /
                 std::max(Avg.toSecondsF(), 1e-9);
  int Factor = static_cast<int>(std::ceil(Ratio));
  if (Factor < 1)
    Factor = 1;
  if (Factor > Grain.MaxCallsPerMessage)
    Factor = Grain.MaxCallsPerMessage;
  return Factor;
}

int ObjectManager::loadMetric() const {
  return Hosted +
         static_cast<int>(Runtime.endpoint(NodeId).dispatchPool().queueDepth());
}

sim::Task<int> ObjectManager::probeLoad(int Peer, int Fallback) {
  remoting::RemoteHandle Handle(Runtime.endpoint(NodeId), Peer,
                                Runtime.config().Port, ScooppRuntime::OmName);
  ErrorOr<int32_t> Load = co_await Handle.invokeTyped<int32_t>("getLoad");
  if (!Load) {
    if (ScooppRuntime::transportError(Load.error().code()))
      Runtime.noteCallOutcome(Peer, false);
    co_return Fallback;
  }
  Runtime.noteCallOutcome(Peer, true);
  co_return *Load;
}

sim::Task<int> ObjectManager::placeObject(std::string ClassName) {
  (void)ClassName; // Placement is currently class-independent.
  metrics::add(Runtime.instruments().Placements, 1);
  int Nodes = Runtime.nodeCount();
  // Failure awareness: a node the health tracker marked down is skipped,
  // and so is one the backpressure tracker marked saturated -- handing a
  // new object to a node actively refusing work only deepens its backlog
  // (our own node always counts as a candidate: local degradation beats
  // shipping work into a black hole, and all-saturated clusters degrade
  // fail-static to local placement the same way).  In a healthy cluster
  // the first candidate always passes, so the fault-free decisions --
  // including the rng draw sequence -- are exactly the legacy ones.
  auto Usable = [&](int Node) {
    if (Node == NodeId)
      return true;
    if (!Runtime.nodeHealthy(Node))
      return false;
    if (Runtime.nodeSaturated(Node)) {
      metrics::add(Runtime.instruments().CreationsDeferred, 1);
      return false;
    }
    return true;
  };
  auto degraded = [&] {
    metrics::add(Runtime.instruments().PlacementsDegraded, 1);
    return NodeId;
  };
  switch (Runtime.config().Placement) {
  case PlacementPolicy::RoundRobin: {
    int Candidate = (NodeId + 1 + NextPlacement++ % Nodes) % Nodes;
    for (int Step = 0; Step < Nodes; ++Step) {
      if (Usable(Candidate))
        co_return Candidate;
      Candidate = (Candidate + 1) % Nodes;
    }
    co_return degraded();
  }
  case PlacementPolicy::Random: {
    int Pick = static_cast<int>(
        Runtime.rng().nextBelow(static_cast<uint64_t>(Nodes)));
    if (Usable(Pick))
      co_return Pick;
    std::vector<int> Alive;
    for (int Node = 0; Node < Nodes; ++Node)
      if (Usable(Node))
        Alive.push_back(Node);
    if (Alive.empty())
      co_return degraded();
    co_return Alive[Runtime.rng().nextBelow(Alive.size())];
  }
  case PlacementPolicy::LocalOnly:
    co_return NodeId;
  case PlacementPolicy::LeastLoaded: {
    // Cooperate with peer OMs: small getLoad RPCs, self answered locally.
    int Best = NodeId;
    int BestLoad = loadMetric();
    for (int Peer = 0; Peer < Nodes; ++Peer) {
      if (Peer == NodeId || !Usable(Peer))
        continue;
      remoting::RemoteHandle Handle(Runtime.endpoint(NodeId), Peer,
                                    Runtime.config().Port,
                                    ScooppRuntime::OmName);
      ErrorOr<int32_t> Load =
          co_await Handle.invokeTyped<int32_t>("getLoad");
      if (!Load) {
        if (ScooppRuntime::transportError(Load.error().code()))
          Runtime.noteCallOutcome(Peer, false);
        continue; // Unreachable peers are simply skipped.
      }
      Runtime.noteCallOutcome(Peer, true);
      if (*Load < BestLoad || (*Load == BestLoad && Peer < Best)) {
        Best = Peer;
        BestLoad = *Load;
      }
    }
    co_return Best;
  }
  case PlacementPolicy::PowerOfTwoChoices: {
    // ROADMAP A4: O(1) probes instead of the O(nodes) LeastLoaded poll.
    // Two distinct seeded draws over the healthy peers (self included as a
    // free candidate -- its load needs no RPC); ties go to the lower node
    // id so the pick is a pure function of the draws and the loads.
    std::vector<int> Alive;
    for (int Node = 0; Node < Nodes; ++Node)
      if (Usable(Node))
        Alive.push_back(Node);
    if (Alive.empty())
      co_return degraded();
    int A = Alive[Runtime.rng().nextBelow(Alive.size())];
    int B = Alive[Runtime.rng().nextBelow(Alive.size())];
    if (A == B && Alive.size() > 1) {
      // Resample the second candidate until distinct: with two or more
      // candidates the draw sequence stays deterministic and terminates.
      while (B == A)
        B = Alive[Runtime.rng().nextBelow(Alive.size())];
    }
    if (A == B)
      co_return A;
    if (A > B)
      std::swap(A, B);
    int LoadA = A == NodeId ? loadMetric() : co_await probeLoad(A, INT32_MAX);
    int LoadB = B == NodeId ? loadMetric() : co_await probeLoad(B, INT32_MAX);
    if (LoadA == INT32_MAX && LoadB == INT32_MAX)
      co_return degraded();
    co_return LoadB < LoadA ? B : A;
  }
  }
  PARCS_UNREACHABLE("unhandled PlacementPolicy");
}

sim::Task<ErrorOr<ParallelRef>> ObjectManager::migrate(std::string Name,
                                                       int DstNode) {
  // Deliberately no cached endpoint/node references here: the protocol
  // suspends many times, so every layer is re-acquired through Runtime
  // after each resumption (the suspension-ref lint rule enforces this).
  if (DstNode < 0 || DstNode >= Runtime.nodeCount() || DstNode == NodeId)
    co_return Error(ErrorCode::InvalidArgument,
                    "migrate: bad destination node " +
                        std::to_string(DstNode));
  std::shared_ptr<CallHandler> Target =
      Runtime.endpoint(NodeId).findPublished(Name);
  if (!Target)
    co_return Error(ErrorCode::UnknownObject,
                    "migrate: no object published as '" + Name + "'");
  // Keeping the shared_ptr alive across the whole protocol matters: the
  // cutover unpublishes the name, and the adapter must not die (releasing
  // its OM accounting) until the state snapshot has safely left.
  auto *Adapter = dynamic_cast<ImplAdapter *>(Target.get());
  if (!Adapter)
    co_return Error(ErrorCode::InvalidArgument,
                    "migrate: '" + Name + "' is not a parallel object");
  if (Runtime.endpoint(NodeId).isParked(Name))
    co_return Error(ErrorCode::InvalidArgument,
                    "migrate: '" + Name + "' is already migrating");

  // The liveness epoch pins this migration to one incarnation of the
  // source node: any crash/restart underneath us is detected at the next
  // suspension point and aborts the move (the restart hook has already
  // dropped the park and the parked calls; client retries re-execute them
  // through the wiped dedup entries -- standard crash recovery).
  uint64_t Epoch = Runtime.cluster().node(NodeId).epoch();
  metrics::add(Runtime.instruments().MigrationsStarted, 1);
  trace::instant(NodeId, 0, "om.migrate.begin",
                 Runtime.sim().now().nanosecondsCount());

  auto Died = [this, Epoch] {
    vm::Node &Src = Runtime.cluster().node(NodeId);
    return !Src.alive() || Src.epoch() != Epoch;
  };
  auto Abort = [&](Error E) {
    metrics::add(Runtime.instruments().MigrationsAborted, 1);
    trace::instant(NodeId, 0, "om.migrate.abort",
                   Runtime.sim().now().nanosecondsCount());
    if (!Died())
      Runtime.endpoint(NodeId).cancelPark(Name);
    return E;
  };

  // 1. Park the mailbox: from here, arriving calls queue behind the move
  //    instead of executing.
  Runtime.endpoint(NodeId).parkName(Name);

  // 2. Drain calls already executing (the active-object lock means at most
  //    one runs the user method, but the adapter may hold several in its
  //    lock queue): deterministic fixed-step poll on virtual time.
  while (Runtime.endpoint(NodeId).inFlight(Name) > 0) {
    co_await Runtime.sim().delay(sim::SimTime::microseconds(10));
    if (Died())
      co_return Abort(Error(ErrorCode::ConnectionFailed,
                            "migrate: source crashed during drain"));
  }

  // 3. Snapshot the object's state through the serial layer, paying a
  //    size-proportional serialization cost.
  serial::OutputArchive State;
  Adapter->saveState(State);
  Bytes StateBytes = State.take();
  if (!co_await Runtime.cluster().node(NodeId).computeChecked(
          sim::SimTime::microseconds(5) +
          sim::SimTime::fromSecondsF(2e-9 *
                                     static_cast<double>(StateBytes.size()))))
    co_return Abort(Error(ErrorCode::ConnectionFailed,
                          "migrate: source crashed during snapshot"));

  // 4. Adopt at the destination: reliable call (retries ride the existing
  //    machinery) to its factory, which instantiates the class and
  //    hydrates it from the snapshot before replying with the new name.
  ErrorOr<Bytes> Raw = co_await Runtime.endpoint(NodeId).callReliable(
      DstNode, Runtime.config().Port, ScooppRuntime::FactoryName,
      "create_migrated",
      serial::encodeValues(Adapter->className(), StateBytes));
  if (Died())
    co_return Abort(Error(ErrorCode::ConnectionFailed,
                          "migrate: source crashed during handoff"));
  if (!Raw) {
    if (ScooppRuntime::transportError(Raw.error().code()))
      Runtime.noteCallOutcome(DstNode, false);
    else if (Raw.error().code() == ErrorCode::Overloaded)
      Runtime.noteOverloaded(DstNode);
    co_return Abort(Raw.error());
  }
  Runtime.noteCallOutcome(DstNode, true);
  std::string NewName;
  if (!serial::decodeValues(*Raw, NewName))
    co_return Abort(
        Error(ErrorCode::MalformedMessage, "create_migrated reply"));

  // 5. Atomic cutover (no suspension): tombstone + parked-call replay,
  //    unpublish the source copy, bump the URI route.  Stragglers that
  //    raced the cutover hit the tombstone and are forwarded; proxies
  //    refresh their refs through the route table on their next call.
  RpcEndpoint &Src = Runtime.endpoint(NodeId);
  Src.completeMove(Name, RpcEndpoint::MovedRoute{
                             DstNode, Runtime.config().Port, NewName});
  Src.unpublish(Name);
  Runtime.noteMigrated(ParallelRef{NodeId, Name},
                       ParallelRef{DstNode, NewName});
  int64_t DoneNs = Runtime.sim().now().nanosecondsCount();
  metrics::add(Runtime.instruments().Migrations, 1, NodeId, DoneNs);
  trace::instant(NodeId, 0, "om.migrate.done", DoneNs);
  co_return ParallelRef{DstNode, std::move(NewName)};
}

sim::Task<ErrorOr<Bytes>> ObjectManager::handleCall(std::string_view Method,
                                                    const Bytes &Args) {
  (void)Args;
  // Runs before any suspension (Task is lazy), so the dispatcher's
  // handoff slot is still ours to claim.
  uint64_t DispatchCtx = trace::takeHandoff();
  if (Method == "getLoad") {
    sim::Simulator &Sim = Runtime.cluster().node(NodeId).sim();
    int64_t StartNs = Sim.now().nanosecondsCount();
    co_await Runtime.cluster().node(NodeId).compute(
        sim::SimTime::microseconds(2));
    if (trace::enabled()) {
      uint64_t LoadCtx = trace::mintCausalId();
      trace::completeCtx(NodeId, 0, "om.get_load", StartNs,
                         Sim.now().nanosecondsCount() - StartNs, LoadCtx,
                         DispatchCtx);
    }
    co_return serial::encodeValues(static_cast<int32_t>(loadMetric()));
  }
  co_return Error(ErrorCode::UnknownMethod, std::string(Method));
}
