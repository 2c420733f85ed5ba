//===- net/Network.cpp ----------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "net/Network.h"

#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Trace.h"

using namespace parcs;
using namespace parcs::net;

FaultHook::~FaultHook() = default;

Network::~Network() {
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter("net.messages_delivered").add(Delivered);
  // The fault hook is the only way to lose a message: both rows read it.
  Reg.counter("net.messages_dropped").add(FaultDropped);
  Reg.counter("net.messages_fault_dropped").add(FaultDropped);
  Reg.counter("net.payload_bytes").add(PayloadBytes);
  Reg.counter("net.wire_bytes").add(WireBytes);
  Reg.counter("net.frames").add(Frames);
  Reg.gauge("net.peak_in_flight").noteMax(PeakInFlight);
}

Network::Network(sim::Simulator &Sim, int NodeCount) : Sim(Sim) {
  assert(NodeCount > 0 && "network needs at least one node");
  Nics.reserve(static_cast<size_t>(NodeCount));
  for (int I = 0; I < NodeCount; ++I)
    Nics.push_back(std::make_unique<Nic>(Sim));
}

sim::Channel<Message> &Network::bind(int NodeId, int Port) {
  assert(NodeId >= 0 && NodeId < nodeCount() && "bind: bad node id");
  auto &Slot = Ports[{NodeId, Port}];
  if (!Slot)
    Slot = std::make_unique<sim::Channel<Message>>(Sim);
  return *Slot;
}

bool Network::isBound(int NodeId, int Port) const {
  return Ports.count({NodeId, Port}) != 0;
}

sim::SimTime Network::packetTime(size_t Bytes) const {
  double Seconds =
      static_cast<double>(Bytes) * 8.0 / calib::LinkBitsPerSecond;
  return sim::SimTime::fromSecondsF(Seconds);
}

sim::SimTime Network::wireTime(size_t PayloadBytes) const {
  size_t Mss = static_cast<size_t>(calib::MaxSegmentBytes);
  size_t Packets = PayloadBytes == 0 ? 1 : (PayloadBytes + Mss - 1) / Mss;
  size_t TotalBytes =
      PayloadBytes + Packets * static_cast<size_t>(calib::FrameOverheadBytes);
  return packetTime(TotalBytes);
}

sim::SimTime Network::firstPacketTime(size_t PayloadBytes) const {
  size_t Mss = static_cast<size_t>(calib::MaxSegmentBytes);
  size_t FirstPayload = PayloadBytes < Mss ? PayloadBytes : Mss;
  return packetTime(FirstPayload +
                    static_cast<size_t>(calib::FrameOverheadBytes));
}

void Network::send(int Src, int Dst, int Port, std::vector<uint8_t> Payload,
                   uint64_t TraceCtx) {
  assert(Src >= 0 && Src < nodeCount() && "send: bad source node");
  assert(Dst >= 0 && Dst < nodeCount() && "send: bad destination node");
  assert(isBound(Dst, Port) && "send: destination port not bound");
  if (Hook && !Hook->nodeAlive(Src)) {
    // A crashed node's NIC blackholes: the send vanishes at the source
    // without occupying the wire.
    ++FaultDropped;
    return;
  }
  Message Msg;
  Msg.Src = Src;
  Msg.Dst = Dst;
  Msg.Port = Port;
  Msg.Id = NextMessageId++;
  // Loopback skips the fabric, so the sender's context passes through
  // unchanged; transfer() replaces it with the net.wire node's id.
  Msg.TraceCtx = TraceCtx;
  Msg.Payload = std::move(Payload);
  if (Src == Dst) {
    // Loopback: no wire, but keep it asynchronous (one event-queue hop) so
    // local and remote sends have the same re-entrancy behaviour.  A plain
    // callback event -- unlike the remote path there is no coroutine frame
    // per message, and the capture fits the inline buffer only because the
    // channel is looked up at delivery rather than captured.
    auto Deliver = [this, Msg = std::move(Msg)]() mutable {
      if (Hook && !Hook->nodeAlive(Msg.Dst)) {
        // The node crashed between send and delivery.
        ++FaultDropped;
        return;
      }
      ++Delivered;
      PayloadBytes += Msg.Payload.size();
      bind(Msg.Dst, Msg.Port).trySend(std::move(Msg));
    };
    static_assert(sim::EventCallback::fitsInline<decltype(Deliver)>(),
                  "loopback delivery must not heap-allocate");
    Sim.schedule(sim::SimTime(), std::move(Deliver));
    return;
  }
  Sim.spawn(transfer(std::move(Msg)));
}

sim::Task<void> Network::transfer(Message Msg) {
  Nic &Tx = *Nics[static_cast<size_t>(Msg.Src)];
  Nic &Rx = *Nics[static_cast<size_t>(Msg.Dst)];

  // The async span covers queueing on the source NIC through delivery (or
  // drop); the in-flight series is the fabric's queue depth over time.
  int64_t EnqueueNs = Sim.now().nanosecondsCount();
  trace::asyncBegin(Msg.Src, "net.transfer", EnqueueNs, Msg.Id);
  ++InFlight;
  if (InFlight > PeakInFlight)
    PeakInFlight = InFlight;
  trace::counter(-1, "net.in_flight", EnqueueNs, InFlight);

  co_await Tx.TxSlot.acquire();

  sim::SimTime Wire = wireTime(Msg.Payload.size());
  sim::SimTime TxStart = Sim.now();

  // DAG leg 1: time queued behind earlier messages on this NIC.
  uint64_t QueueCtx = 0;
  if (trace::enabled()) {
    QueueCtx = trace::mintCausalId();
    trace::completeCtx(Msg.Src, 0, "net.queue", EnqueueNs,
                       TxStart.nanosecondsCount() - EnqueueNs, QueueCtx,
                       Msg.TraceCtx);
  }

  // Reserve the receiver's downlink now (cut-through: the first packet
  // reaches the receiver one packet time + switch latency after transmit
  // starts; later packets pipeline behind it).
  sim::SimTime RxStart = TxStart + firstPacketTime(Msg.Payload.size()) +
                         calib::SwitchLatency;
  if (Rx.RxFreeAt > RxStart)
    RxStart = Rx.RxFreeAt;
  sim::SimTime RxDone = RxStart + Wire;
  Rx.RxFreeAt = RxDone;

  // Occupy our uplink for the transmit time, then free it for the next
  // message queued on this node.
  co_await Sim.delay(Wire);
  Tx.TxSlot.release();

  // Wait until the last packet has drained through the receiver's port.
  if (RxDone > Sim.now())
    co_await Sim.delay(RxDone - Sim.now());

  size_t Mss = static_cast<size_t>(calib::MaxSegmentBytes);
  size_t Packets =
      Msg.Payload.empty() ? 1 : (Msg.Payload.size() + Mss - 1) / Mss;
  WireBytes += Msg.Payload.size() +
               Packets * static_cast<size_t>(calib::FrameOverheadBytes);
  Frames += Packets;

  --InFlight;
  int64_t DoneNs = Sim.now().nanosecondsCount();
  trace::counter(-1, "net.in_flight", DoneNs, InFlight);
  trace::asyncEnd(Msg.Src, "net.transfer", DoneNs, Msg.Id);

  // DAG leg 2: transmit start through last-packet drain at the receiver.
  // Delivery below hands the wire node's id to the dispatcher.
  if (trace::enabled()) {
    uint64_t WireCtx = trace::mintCausalId();
    trace::completeCtx(Msg.Src, 0, "net.wire", TxStart.nanosecondsCount(),
                       DoneNs - TxStart.nanosecondsCount(), WireCtx, QueueCtx);
    Msg.TraceCtx = WireCtx;
  }

  // Seeded fault injection (src/fault): extra latency first, then the
  // delivery verdict.  The hook owns its own trace/metric emission; the
  // fabric only accounts the drop.
  if (Hook) {
    sim::SimTime Extra = Hook->extraLatency(Msg.Src, Msg.Dst);
    if (Extra > sim::SimTime())
      co_await Sim.delay(Extra);
    FaultHook::Verdict V = Hook->onDeliver(Msg.Src, Msg.Dst, Msg.Payload);
    if (V != FaultHook::Verdict::Deliver) {
      ++FaultDropped;
      LogNodeScope Scope(Msg.Dst);
      PARCS_LOG(Debug, "net: fault-dropped msg " << Msg.Id << " ("
                                                 << static_cast<int>(V)
                                                 << ")");
      co_return;
    }
  }

  ++Delivered;
  PayloadBytes += Msg.Payload.size();

  {
    LogNodeScope Scope(Msg.Dst);
    PARCS_LOG(Debug, "net: delivered msg " << Msg.Id << " " << Msg.Src << "->"
                                           << Msg.Dst << ":" << Msg.Port
                                           << " (" << Msg.Payload.size()
                                           << "B)");
  }
  sim::Channel<Message> &Port = bind(Msg.Dst, Msg.Port);
  Port.trySend(std::move(Msg));
}
