//===- net/Network.h - Switched Ethernet model ------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster interconnect: a switched, full-duplex 100 Mbit Ethernet (the
/// paper's testbed fabric).  The model captures the mechanisms that shape
/// Fig. 8's curves:
///
///  - packetisation: payloads are segmented at the TCP MSS and each packet
///    pays Ethernet+IP+TCP framing overhead, so small messages see poor
///    goodput and large messages approach ~11.9 MB/s;
///  - NIC transmit serialisation: one frame at a time leaves a node, in
///    send order (FIFO);
///  - receive-port contention with cut-through pipelining: a message's
///    receive occupancy overlaps its transmit occupancy (offset by one
///    packet time plus switch latency); concurrent senders to one receiver
///    serialise on the receiver's downlink;
///  - switch latency: a fixed per-message forwarding delay.
///
/// Messages carry real bytes; the protocol stacks above put their actual
/// envelopes in the payload, so wire sizes are honest.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_NET_NETWORK_H
#define PARCS_NET_NETWORK_H

#include "sim/Channel.h"
#include "sim/Simulator.h"
#include "sim/Sync.h"
#include "vm/Calibration.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace parcs::net {

/// A datagram delivered between nodes.  Payload bytes are the real encoded
/// bytes produced by the layer above.
struct Message {
  int Src = -1;
  int Dst = -1;
  int Port = -1;
  uint64_t Id = 0;
  /// Causal id (trace::CausalContext::Id) of the latest fabric-level DAG
  /// node for this message: the sender's context on submission, the
  /// net.wire span's id on delivery.  0 when tracing is off -- the field
  /// is a POD rider, never an allocation.
  uint64_t TraceCtx = 0;
  std::vector<uint8_t> Payload;
};

/// Interface the fault-injection subsystem (src/fault) implements.  The
/// fabric consults the installed hook at well-defined points; a null hook
/// (the default) leaves the event stream and wire bytes exactly as before,
/// which is what keeps the determinism golden trace valid for fault-free
/// runs.
class FaultHook {
public:
  virtual ~FaultHook();

  /// Why a message did (or did not) reach its destination port.
  enum class Verdict : uint8_t {
    Deliver,       ///< Pass through (possibly after payload corruption).
    DropLoss,      ///< Probabilistic / burst loss clause fired.
    DropPartition, ///< An active partition separates src and dst.
    DropNodeDown,  ///< The destination node is crashed.
  };

  /// False while \p Node is crashed: its NIC blackholes in both
  /// directions (sends vanish at the source, deliveries at the sink).
  virtual bool nodeAlive(int Node) const = 0;

  /// Extra one-way delay for (\p Src -> \p Dst) at the current virtual
  /// time (latency-degradation clauses).  Zero means no added delay and
  /// no extra simulator event.
  virtual sim::SimTime extraLatency(int Src, int Dst) = 0;

  /// Consulted after the message occupied the wire, right before
  /// delivery.  May mutate \p Payload (bit corruption) and still return
  /// Deliver; any Drop verdict loses the message after it consumed
  /// bandwidth, like real tail drops.
  virtual Verdict onDeliver(int Src, int Dst,
                            std::vector<uint8_t> &Payload) = 0;
};

/// The switched-Ethernet fabric connecting \c NodeCount nodes.  Link
/// rate, framing overhead, MSS and switch latency are the testbed's
/// (vm/Calibration.h); every loss or delay beyond that comes from the
/// installed FaultHook.
class Network {
public:
  Network(sim::Simulator &Sim, int NodeCount);
  Network(const Network &) = delete;
  Network &operator=(const Network &) = delete;
  /// Folds the fabric counters into the global metrics registry.
  ~Network();

  sim::Simulator &sim() { return Sim; }
  int nodeCount() const { return static_cast<int>(Nics.size()); }

  /// Binds (node, port) and returns the delivery channel.  Binding twice
  /// returns the same channel.
  sim::Channel<Message> &bind(int NodeId, int Port);
  /// False for unbound ports and for nodes outside the cluster alike.
  bool isBound(int NodeId, int Port) const;

  /// Queues \p Payload for transmission from \p Src to (\p Dst, \p Port).
  /// Non-suspending; the transfer proceeds in virtual time and the message
  /// appears on the destination channel when the last packet arrives.
  /// The destination port must already be bound.  \p TraceCtx is the
  /// sender's causal id; the fabric chains net.queue/net.wire DAG nodes
  /// under it and delivers the final id in Message::TraceCtx.
  void send(int Src, int Dst, int Port, std::vector<uint8_t> Payload,
            uint64_t TraceCtx = 0);

  /// Time the wire is occupied by \p PayloadBytes (packetised, with
  /// framing).
  sim::SimTime wireTime(size_t PayloadBytes) const;

  /// Serialisation time of the first packet of a message (cut-through
  /// pipelining offset).
  sim::SimTime firstPacketTime(size_t PayloadBytes) const;

  uint64_t messagesDelivered() const { return Delivered; }
  uint64_t payloadBytesDelivered() const { return PayloadBytes; }
  uint64_t wireBytesCarried() const { return WireBytes; }
  uint64_t messagesDropped() const { return Dropped; }
  uint64_t framesCarried() const { return Frames; }
  /// Subset of messagesDropped() caused by the fault hook (dropnth and
  /// loss clauses, partitions, dead nodes).
  uint64_t messagesFaultDropped() const { return FaultDropped; }

  /// Installs (or clears, with nullptr) the fault-injection hook.  The
  /// hook must outlive all traffic; layers above may key behaviour off a
  /// non-null hook (the RPC engine enables frame checksums), so install
  /// it before any messages flow.
  void setFaultHook(FaultHook *Hook) { this->Hook = Hook; }
  FaultHook *faultHook() const { return Hook; }

private:
  struct Nic {
    explicit Nic(sim::Simulator &Sim) : TxSlot(Sim, 1) {}
    /// Serialises transmissions out of this node, FIFO.
    sim::Semaphore TxSlot;
    /// When this node's receive downlink becomes free (virtual-time
    /// bookkeeping; reservations are made at transmit start).
    sim::SimTime RxFreeAt;
  };

  sim::Task<void> transfer(Message Msg);
  sim::SimTime packetTime(size_t Bytes) const;

  sim::Simulator &Sim;
  std::vector<std::unique_ptr<Nic>> Nics;
  std::map<std::pair<int, int>, std::unique_ptr<sim::Channel<Message>>> Ports;
  uint64_t NextMessageId = 1;
  uint64_t Delivered = 0;
  uint64_t PayloadBytes = 0;
  uint64_t WireBytes = 0;
  uint64_t Dropped = 0;
  uint64_t FaultDropped = 0;
  FaultHook *Hook = nullptr;
  /// Ethernet frames carried (packetised segments of non-loopback sends).
  uint64_t Frames = 0;
  /// Non-loopback transfers currently occupying the fabric, and the
  /// high-water mark (queue-depth view of the interconnect).
  int64_t InFlight = 0;
  int64_t PeakInFlight = 0;
};

} // namespace parcs::net

#endif // PARCS_NET_NETWORK_H
