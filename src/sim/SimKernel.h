//===- sim/SimKernel.h - Calendar-queue event kernel ------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation-free calendar-queue event kernel behind sim::Simulator.
/// A SimKernel is the pending-event set plus the virtual clock and
/// sequence counter that define pop order:
///
///  - events scheduled at exactly the current time go to a FIFO fast lane
///    (push order there is already (time, seq) order);
///  - near-future events live in time-bucketed per-bucket min-heaps behind
///    an occupancy bitmap;
///  - far-future events live in an overflow heap that drains into the
///    buckets as the window advances;
///  - event nodes are recycled through a free list, so a steady-state run
///    performs zero allocations per event.
///
/// Pop order is strictly (time, sequence); the unique key makes the order
/// independent of heap layout and of which lane an event landed in, so a
/// kernel's event stream is bit-for-bit reproducible.  The kernel is
/// single-threaded by contract.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SIM_SIMKERNEL_H
#define PARCS_SIM_SIMKERNEL_H

#include "sim/SimTime.h"
#include "support/InlineFunction.h"

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

namespace parcs::sim {

/// Event callback storage: 64 inline bytes covers every capture on the
/// kernel's hot paths (the largest is a network Message plus two pointers).
using EventCallback = parcs::InlineFunction<void(), 64>;

/// Scheduler observability counters (see Simulator::counters).  Plain
/// struct so benches can diff snapshots.
struct SchedulerCounters {
  /// Events executed, by kind.
  uint64_t CallbackEvents = 0;
  uint64_t ResumeEvents = 0;
  /// High-water mark of pending events.
  uint64_t PeakQueueDepth = 0;
  /// Callback captures that exceeded the inline buffer (heap fallback).
  uint64_t SboMisses = 0;
  /// Event nodes allocated (free-list misses; steady state allocates none).
  uint64_t NodesAllocated = 0;
  /// Events that landed beyond the calendar window, into the overflow heap.
  uint64_t OverflowInserts = 0;
  /// Times the calendar window jumped forward to the overflow minimum.
  uint64_t WindowAdvances = 0;
};

/// The pending-event set of one virtual-time event loop: clock, sequence
/// counter, three-lane calendar queue and the recycling free list.
class SimKernel {
public:
  /// One pending event.  Resume events carry the raw coroutine handle (Fn
  /// stays empty); callback events carry Fn (Handle stays null).  Nodes are
  /// recycled through the free list, linked via NextFree.
  struct EventNode {
    int64_t AtNs = 0;
    uint64_t Seq = 0;
    EventNode *NextFree = nullptr;
    std::coroutine_handle<> Handle;
    EventCallback Fn;
  };

  SimKernel();
  SimKernel(const SimKernel &) = delete;
  SimKernel &operator=(const SimKernel &) = delete;
  ~SimKernel();

  /// Virtual clock, owned by the kernel so the Immediate-lane test and the
  /// not-into-the-past asserts agree with pop order by construction.
  int64_t nowNs() const { return NowNs; }
  void setNowNs(int64_t Ns) {
    assert(Ns >= NowNs && "kernel clock went backwards");
    NowNs = Ns;
  }

  /// Claims the next event sequence number (ties at equal timestamps pop in
  /// claim order).
  uint64_t takeSeq() { return NextSeq++; }

  size_t pendingCount() const { return PendingCount; }

  // PARCS_HOT_BEGIN(calendar-queue-alloc): the inline half of the kernel;
  // a steady-state run must recycle instead of allocating.

  /// Returns a recycled (or, on free-list miss, freshly allocated) node
  /// stamped with (\p AtNs, \p Seq).  The caller emplaces the payload and
  /// hands the node to insert().
  EventNode *allocNode(int64_t AtNs, uint64_t Seq) {
    EventNode *Node = FreeList;
    if (Node) {
      FreeList = Node->NextFree;
      Node->NextFree = nullptr;
    } else {
      // parcs-lint: allow(hot-path-alloc): free-list miss is the cold
      // warm-up path; NodesAllocated counters + bench zero-alloc assert
      // bound it.
      Node = new EventNode();
      ++Counters.NodesAllocated;
    }
    Node->AtNs = AtNs;
    Node->Seq = Seq;
    return Node;
  }

  /// Returns a dead node (payload already destroyed) to the free list.
  void recycle(EventNode *Node) {
    assert(!Node->Fn && !Node->Handle && "recycling a live event");
    Node->NextFree = FreeList;
    FreeList = Node;
  }

  // PARCS_HOT_END

  /// Links \p Node into the lane its timestamp selects.
  void insert(EventNode *Node);

  /// Removes and returns the earliest event, or null when empty.
  EventNode *popEarliest();

  /// Time of the earliest pending event; only valid when pendingCount() > 0.
  /// May advance the calendar window (deterministically) to find it.
  int64_t earliestTimeNs();

  /// Bookkeeping hook for callers whose callable fell off the inline
  /// buffer (the template schedule path detects this at compile time).
  void noteSboMiss() { ++Counters.SboMisses; }

  const SchedulerCounters &counters() const { return Counters; }
  SchedulerCounters &counters() { return Counters; }

private:
  /// Calendar geometry: 4096 buckets of 2^9 ns (512 ns) cover a ~2 ms
  /// near-future window -- wider than one RPC round trip, narrower than the
  /// coarse timeouts that belong in the overflow heap.  Narrow buckets keep
  /// the per-bucket heaps a handful of entries, and the scan hint only
  /// moves forward, so the sparse-bucket scan is amortized O(1) per pop.
  static constexpr int BucketShift = 9;
  static constexpr size_t BucketCountLog2 = 12;
  static constexpr size_t NumBuckets = size_t(1) << BucketCountLog2;

  /// Repositions the calendar window at the overflow minimum and drains
  /// every overflow event that now falls inside it.
  void advanceWindow();
  void freeAllNodes();

  /// Power-of-two ring buffer of event nodes (the immediate lane).
  class EventFifo {
  public:
    EventFifo() : Slots(64), Mask(63) {}
    bool empty() const { return Count == 0; }
    size_t size() const { return Count; }
    EventNode *front() const { return Slots[Head]; }
    void push(EventNode *Node) {
      if (Count == Slots.size())
        grow();
      Slots[(Head + Count) & Mask] = Node;
      ++Count;
    }
    EventNode *pop() {
      EventNode *Node = Slots[Head];
      Head = (Head + 1) & Mask;
      --Count;
      return Node;
    }

  private:
    void grow();
    std::vector<EventNode *> Slots;
    size_t Mask;
    size_t Head = 0;
    size_t Count = 0;
  };

  int64_t NowNs = 0;
  uint64_t NextSeq = 0;

  /// Events scheduled at exactly the current time, in push order.  Because
  /// NowNs is non-decreasing and Seq is increasing, push order here IS
  /// (time, seq) order, so the head is always this lane's minimum.
  EventFifo Immediate;
  /// Near-future buckets; each is a (time, seq) min-heap of node pointers.
  std::vector<std::vector<EventNode *>> Buckets;
  /// One bit per bucket (set = non-empty), so finding the next occupied
  /// bucket is a word scan + countr_zero instead of touching each bucket.
  std::vector<uint64_t> BucketBits;
  void markBucket(size_t Idx) {
    BucketBits[Idx >> 6] |= uint64_t(1) << (Idx & 63);
  }
  void unmarkBucket(size_t Idx) {
    BucketBits[Idx >> 6] &= ~(uint64_t(1) << (Idx & 63));
  }
  /// First occupied bucket index >= From; call only when BucketedCount > 0.
  size_t firstOccupiedBucket(size_t From) const;
  /// Events at or beyond WindowEndNs, as a (time, seq) min-heap.
  std::vector<EventNode *> Overflow;
  /// Window start (multiple of the bucket width) and one-past-the-end.
  int64_t WindowStartNs = 0;
  int64_t WindowEndNs = 0;
  /// Lowest bucket index that may be non-empty (scan hint).
  size_t ScanHint = 0;
  /// Events currently in Buckets / in total.
  size_t BucketedCount = 0;
  size_t PendingCount = 0;

  EventNode *FreeList = nullptr;
  SchedulerCounters Counters;
};

} // namespace parcs::sim

#endif // PARCS_SIM_SIMKERNEL_H
