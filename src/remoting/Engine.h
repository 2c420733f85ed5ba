//===- remoting/Engine.h - Generic RPC endpoint -----------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RPC engine underneath every remoting flavour in this library.  One
/// RpcEndpoint per (node, stack) plays both roles: it publishes server
/// objects and issues client calls.  The C#-remoting facade (Remoting.h),
/// the Java RMI facade (rmi/) and the Java nio baseline all instantiate
/// this engine with different StackProfiles, which is exactly the paper's
/// framing: same RPC shape, different software stacks.
///
/// Message path and cost accounting (one call):
///   client thread: marshal args -> envelope -> [HTTP frame] -> charge
///     FixedPerSide + PerByteNs * wire bytes of node CPU -> NIC send
///   wire: packetised transfer (net::Network)
///   server: dispatch loop pulls the message, posts it to the node's
///     dispatch thread pool (Mono's bounded pool!); the pooled handler
///     charges FixedPerSide + PerByteNs * wire bytes, decodes, locates the
///     object, runs the method (which charges its own compute), marshals
///     the result and sends the reply symmetrically.
///
/// Wire layout.  A frame is [HTTP header], kind byte, envelope (named for
/// the method on calls, "ret" on replies) and, while a fault hook is
/// installed, a CRC32 trailer.  Bodies are little-endian with u32-length
/// strings; RpcEndpoint::encodeCall/decodeCall and encodeReply/decodeReply
/// are the only code that writes or reads them, and the decoders answer
/// hostile bytes with a typed error or a counted drop, never an abort:
///   call:  u64 CallId, u8 Flags, [causal context], [u64 DedupId],
///          i32 ReplyNode, i32 ReplyPort, str Object, str Method,
///          u32 ArgLen, ArgLen bytes of args
///   reply: u64 CallId, u8 Status, then the result bytes to the end (Ok),
///          u8 ErrorCode + str Message (Fault), or u64 retry-after ns
///          (Overloaded)
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_REMOTING_ENGINE_H
#define PARCS_REMOTING_ENGINE_H

#include "net/Network.h"
#include "remoting/CallHandler.h"
#include "remoting/Profiles.h"
#include "sim/Sync.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "vm/Node.h"
#include "vm/ThreadPool.h"

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace parcs::remoting {

/// Statistics an endpoint accumulates (read by benches/tests).
struct EndpointStats {
  uint64_t CallsIssued = 0;
  uint64_t CallsHandled = 0;
  uint64_t RepliesReceived = 0;
  uint64_t OneWaySent = 0;
  uint64_t WireBytesSent = 0;
  uint64_t MalformedDropped = 0;
  /// Replies that arrived after their call's deadline fired.  Expected
  /// under loss + timeouts (the reply raced the timer); dropped silently,
  /// unlike MalformedDropped which flags genuinely bogus frames.
  uint64_t LateReplies = 0;
  /// Frames rejected by the wire checksum (fault-injected corruption).
  uint64_t CorruptedDropped = 0;
  /// Attempts beyond the first made by callReliable().
  uint64_t Retries = 0;
  /// callReliable() invocations that failed every attempt.
  uint64_t RetriesExhausted = 0;
  /// Duplicate calls answered from the dedup window's cached reply.
  uint64_t DedupHits = 0;
  /// Duplicate calls dropped because the first attempt was still running.
  uint64_t DedupSuppressed = 0;
  /// Two-way calls refused at admission (StatusOverloaded replies sent).
  uint64_t OverloadRejected = 0;
  /// One-way calls shed at admission (no caller to tell; just dropped).
  uint64_t OverloadShed = 0;
  /// callReliable() waits taken on a server's retry-after hint (these do
  /// not burn retry attempts; see RetryPolicy::MaxOverloadWaits).
  uint64_t OverloadDeferred = 0;
  /// callReliable() invocations that gave up on persistent Overloaded.
  uint64_t OverloadExhausted = 0;
  /// Calls queued against a parked (migrating) name.
  uint64_t CallsParked = 0;
  /// Calls forwarded to a migrated object's new home (parked replays plus
  /// stragglers hitting the moved tombstone).
  uint64_t CallsForwarded = 0;
};

/// Client-side retry configuration for callReliable(): per-attempt
/// deadline plus exponential backoff with deterministic jitter (the jitter
/// stream is seeded, so retry schedules replay exactly).  The default is
/// disabled -- callReliable() then degrades to a single plain call() and
/// the wire/event stream is untouched.
struct RetryPolicy {
  /// Total attempts (first try included).  <= 1 disables retries.
  int MaxAttempts = 1;
  /// Deadline for each individual attempt; zero disables retries.
  sim::SimTime AttemptTimeout;
  /// Per-attempt deadline escalation (TCP-RTO style): attempt k runs
  /// under AttemptTimeout * TimeoutFactor^(k-1), capped by
  /// MaxAttemptTimeout when that is non-zero.  1.0 keeps every window
  /// fixed.  Escalation lets one policy serve both short control calls
  /// (fail fast on loss) and long server-side executions, where the
  /// at-most-once window answers a late retry from the cached reply
  /// once the original execution finishes.
  double TimeoutFactor = 1.0;
  sim::SimTime MaxAttemptTimeout;
  /// Backoff before the first retry; it doubles per retry up to
  /// MaxBackoff.
  sim::SimTime BaseBackoff = sim::SimTime::milliseconds(2);
  sim::SimTime MaxBackoff = sim::SimTime::milliseconds(200);
  /// How many StatusOverloaded rejections one logical call absorbs before
  /// callReliable() gives up with ErrorCode::Overloaded.  Rejections wait
  /// out the server's retry-after hint instead of burning MaxAttempts:
  /// the reply proved the network and the server alive, so the transport
  /// budget is the wrong thing to spend.
  int MaxOverloadWaits = 8;

  bool enabled() const {
    return MaxAttempts > 1 && AttemptTimeout > sim::SimTime();
  }
};

/// Server-side admission budget: once the endpoint's dispatch backlog
/// (pool queue + executing handlers) reaches MaxPending, new two-way calls
/// are refused with StatusOverloaded carrying a deterministic retry-after
/// hint, and one-way calls are shed.  Bounding the queue is what keeps an
/// open-loop overload from growing latency without bound -- rejected work
/// costs the server a fixed-size reply instead of an unbounded wait.
/// Disabled by default (MaxPending == 0), so fault-free wire bytes and
/// event streams are exactly the legacy ones.
struct AdmissionPolicy {
  /// Calls admitted concurrently (queued + executing).  0 disables.
  /// The refusal's retry-after hint grows with how deep past this budget
  /// the arrival lands (see RpcEndpoint::rejectOverloaded).
  size_t MaxPending = 0;

  bool enabled() const { return MaxPending > 0; }
};

/// A combined client/server RPC endpoint on one node.
class RpcEndpoint {
public:
  /// Binds \p Port on \p Host's node and starts the dispatch loop.
  /// \p DispatchWorkers caps concurrent server-side call handling
  /// (0 = the host VM's thread-pool cap).
  RpcEndpoint(vm::Node &Host, net::Network &Net, const StackProfile &Profile,
              int Port, int DispatchWorkers = 0);
  RpcEndpoint(const RpcEndpoint &) = delete;
  RpcEndpoint &operator=(const RpcEndpoint &) = delete;
  /// Folds the endpoint stats into the global metrics registry under
  /// "rpc.<profile-slug>.*" (one channel per messaging stack).
  ~RpcEndpoint();

  vm::Node &node() { return Host; }
  net::Network &network() { return Net; }
  int port() const { return Port; }
  const StackProfile &profile() const { return Profile; }
  const EndpointStats &stats() const { return Stats; }
  vm::ThreadPool &dispatchPool() { return Pool; }

  /// Publishes \p Object under \p Name (an explicitly instantiated
  /// singleton, like RMI's Naming.rebind of a live object).
  void publish(const std::string &Name, std::shared_ptr<CallHandler> Object);

  /// Publishes a well-known service type: the factory instantiates the
  /// object per .Net semantics (Singleton: first call; SingleCall: every
  /// call).
  void publishWellKnown(const std::string &Name, HandlerFactory Factory,
                        WellKnownObjectMode Mode);

  /// Removes a published name; returns false if it was not published.
  bool unpublish(const std::string &Name);

  /// Returns the live instance published under \p Name (null for unknown
  /// names or not-yet-instantiated well-known singletons).  Used by layers
  /// that can short-circuit local calls (the SCOOPP proxy's intra-grain
  /// path).
  std::shared_ptr<CallHandler> findPublished(const std::string &Name) const {
    const std::optional<Registration> &Reg = entry(Name).Reg;
    return Reg ? Reg->Instance : nullptr;
  }
  bool isPublished(const std::string &Name) const {
    return entry(Name).Reg.has_value();
  }

  /// Every published name, in sorted order (the name table is an ordered
  /// map).  Deterministic iteration for rebalancing policies that pick
  /// migration victims.
  std::vector<std::string> publishedNames() const {
    std::vector<std::string> Published;
    for (const auto &[Name, Entry] : Names)
      if (Entry.Reg)
        Published.push_back(Name);
    return Published;
  }

  /// Two-way call: returns the result bytes produced by the remote
  /// handler, or the transported error.  A positive \p Timeout bounds the
  /// wait: if no reply arrives in time the call completes with
  /// ErrorCode::TimedOut (a late reply is then dropped), which is how
  /// callers survive simulated packet loss.
  /// \p ParentCtx is the caller's causal id (trace::mintCausalId); the
  /// call mints its own context, parents it there, and carries it on the
  /// wire so the server restores the chain.  0 (the untraced default)
  /// keeps the body byte-identical to an uninstrumented build.
  /// \p DedupId, when non-zero, rides the wire so the server can detect
  /// retransmissions of the same logical call (see callReliable); 0 (the
  /// default) adds nothing to the frame.
  sim::Task<ErrorOr<Bytes>> call(int DstNode, int DstPort,
                                 std::string ObjectName, std::string Method,
                                 Bytes Args,
                                 sim::SimTime Timeout = sim::SimTime(),
                                 uint64_t ParentCtx = 0,
                                 uint64_t DedupId = 0);

  /// Two-way call with the endpoint's RetryPolicy applied: each attempt
  /// gets the policy's deadline; timed-out attempts are retried with
  /// exponential backoff + deterministic jitter, all attempts sharing one
  /// dedup id so the server executes the method at most once (duplicates
  /// are answered from the cached reply).  With retries disabled (the
  /// default policy) this is exactly one plain call().  Non-transport
  /// errors (unknown object, remote fault, ...) are returned immediately;
  /// exhausting the budget yields ErrorCode::ConnectionFailed.
  sim::Task<ErrorOr<Bytes>> callReliable(int DstNode, int DstPort,
                                         std::string ObjectName,
                                         std::string Method, Bytes Args,
                                         uint64_t ParentCtx = 0);

  /// Installs the retry policy used by callReliable() and reseeds the
  /// jitter stream (mixed with this endpoint's node:port, so endpoints
  /// don't retry in lockstep).
  void setRetryPolicy(const RetryPolicy &Policy);
  const RetryPolicy &retryPolicy() const { return Retry; }

  /// Installs the admission budget consulted by the dispatch loop.  The
  /// default policy admits everything (legacy behaviour).
  void setAdmissionPolicy(const AdmissionPolicy &Policy) {
    Admission = Policy;
  }
  const AdmissionPolicy &admissionPolicy() const { return Admission; }
  /// Current dispatch backlog (queued + executing calls): the quantity the
  /// admission budget bounds.
  size_t backlog() const { return AdmittedBacklog; }

  /// Where a migrated name now lives (see completeMove).
  struct MovedRoute {
    int Node = -1;
    int Port = 0;
    std::string Name;
  };

  /// Parks \p Name: calls arriving for it are queued (not executed, not
  /// entered into the dedup window) until completeMove or cancelPark.
  /// First step of a live migration -- the mailbox freezes while the
  /// object's state is captured.
  void parkName(const std::string &Name) { Names[Name].Parked = true; }
  bool isParked(const std::string &Name) const { return entry(Name).Parked; }
  /// Calls currently executing against \p Name (migration drains this to
  /// zero before touching state).
  size_t inFlight(const std::string &Name) const {
    return entry(Name).InFlight;
  }
  /// Calls parked against \p Name so far.
  size_t parkedCalls(const std::string &Name) const {
    return entry(Name).ParkedCalls.size();
  }

  /// Atomically (no suspension) finishes a migration: drops the park,
  /// installs the moved tombstone and forwards every parked call -- and,
  /// from now on, every straggler -- to \p Dst under its new name.
  /// Forwarded frames keep the original CallId, reply coordinates and
  /// dedup id, so the destination replies straight to the caller and its
  /// dedup window absorbs retransmissions: exactly-once survives the move.
  void completeMove(const std::string &Name, const MovedRoute &Dst);

  /// Abandons a park (migration aborted): parked calls are re-delivered
  /// locally over the loopback so the still-published source copy serves
  /// them as if the park never happened.
  void cancelPark(const std::string &Name);

  /// The moved tombstone for \p Name (null when it never migrated away).
  const MovedRoute *movedRoute(const std::string &Name) const {
    const std::optional<MovedRoute> &Moved = entry(Name).Moved;
    return Moved ? &*Moved : nullptr;
  }

  /// One-way (asynchronous, no result) call: returns once the message has
  /// been handed to the NIC; remote faults are dropped, as with .Net
  /// one-way delegate invocations.
  sim::Task<void> callOneWay(int DstNode, int DstPort, std::string ObjectName,
                             std::string Method, Bytes Args,
                             uint64_t ParentCtx = 0);

private:
  enum MsgKind : uint8_t { KindCall = 0xC1, KindReturn = 0xC2 };
  /// Call-body flag bits (layout in the file comment).  The context and
  /// dedup fields are present only on traced runs and callReliable()
  /// attempts respectively, so plain untraced calls carry neither.
  enum CallFlags : uint8_t {
    FlagOneWay = 0x01,
    FlagHasContext = 0x02,
    FlagHasDedup = 0x04,
  };
  enum ReturnStatus : uint8_t {
    StatusOk = 0,
    StatusFault = 1,
    /// Admission refused the call; the reply tail is a uint64 retry-after
    /// hint in nanoseconds.
    StatusOverloaded = 2,
  };

  struct Registration {
    WellKnownObjectMode Mode = WellKnownObjectMode::Singleton;
    HandlerFactory Factory;
    std::shared_ptr<CallHandler> Instance;
  };

  /// Cost of pushing/pulling \p WireBytes through this stack on one side.
  sim::SimTime sideCost(size_t WireBytes) const;

  /// Frames carry a CRC32 trailer only while a fault hook is installed on
  /// the network (corruption is possible); fault-free runs keep the exact
  /// legacy wire bytes.
  bool wireChecksums() const { return Net.faultHook() != nullptr; }

  /// One call body (layout in the file comment): what the issue path
  /// encodes, the server decodes, and a park holds for replay.
  struct CallBody {
    uint64_t CallId = 0;
    uint8_t Flags = 0;
    uint64_t WireCtx = 0, WireParent = 0;
    uint64_t DedupId = 0;
    int32_t ReplyNode = 0, ReplyPort = 0;
    std::string Object, Method;
    Bytes Args;
  };

  /// Writes, frames and counts (WireBytesSent) one call body.
  Bytes encodeCall(const CallBody &C);
  /// Reads a call body, only up to the reply port when \p PrefixOnly.
  /// False on truncation or a reply address no endpoint could answer.
  bool decodeCall(const serial::Envelope &Env, CallBody &Out,
                  bool PrefixOnly) const;
  /// Writes, frames and counts one reply body: \p Result's value or fault,
  /// or when \p Result is null an admission refusal with its hint.
  Bytes encodeReply(uint64_t CallId, const ErrorOr<Bytes> *Result,
                    uint64_t RetryAfterNs = 0);
  /// False (drop the frame) when CallId or status does not parse; else
  /// \p Result is what the caller gets, MalformedMessage for a bad tail.
  bool decodeReply(const serial::Envelope &Env, uint64_t &CallId,
                   ErrorOr<Bytes> &Result) const;

  /// Builds the final wire buffer for a message body: kind byte, envelope
  /// and (for HTTP stacks) the header, emitted into one reserved buffer.
  Bytes frame(MsgKind Kind, std::string_view EnvelopeName,
              const Bytes &Body) const;
  /// Verifies and strips transport framing; returns a view of the (kind,
  /// envelope) content inside \p Wire -- headers are parsed in place,
  /// nothing is copied.  The view is valid as long as \p Wire is.  The
  /// dispatch loop is its only caller: no frame is verified twice.
  ErrorOr<std::span<const uint8_t>> unframe(const Bytes &Wire) const;
  /// The envelope after the kind byte of content unframe() returned.
  ErrorOr<serial::Envelope>
  openContent(std::span<const uint8_t> Content) const {
    return serial::decodeEnvelope(Profile.Format, Content.data() + 1,
                                  Content.size() - 1);
  }

  /// A call frame the dispatch loop verified: the wire bytes as they
  /// arrived (the receive cost charges their size), the fabric's trace
  /// context and where the content lies.  With `this` and the receive
  /// time it fits the pool's inline work item.
  struct CallFrame {
    Bytes Wire;
    uint64_t TraceCtx = 0;
    size_t ContentAt = 0, ContentSize = 0;
  };

  /// What the endpoint holds for one object name: the registration (from
  /// publish to unpublish), the migration park with the calls it holds for
  /// replay, the moved tombstone (kept for good), and the count of calls
  /// executing against the name (migration drains it to zero).
  struct NameEntry {
    std::optional<Registration> Reg;
    bool Parked = false;
    std::vector<CallBody> ParkedCalls;
    std::optional<MovedRoute> Moved;
    size_t InFlight = 0;

    /// Held calls imply a park, so they need no test of their own.
    bool empty() const { return !Reg && !Parked && !Moved && InFlight == 0; }
  };

  /// Heterogeneous lookup: a find by a view or a decoded name builds no key.
  using NameTable = std::map<std::string, NameEntry, std::less<>>;

  /// The entry for \p Name; an empty one when the endpoint holds nothing.
  const NameEntry &entry(std::string_view Name) const {
    static const NameEntry None;
    auto It = Names.find(Name);
    return It == Names.end() ? None : It->second;
  }
  /// Erases \p It once its entry holds nothing.
  void eraseIfEmpty(NameTable::iterator It) {
    if (It->second.empty())
      Names.erase(It);
  }
  /// Lifts \p It's park and forwards the calls it held to \p To.
  void unpark(NameTable::iterator It, const MovedRoute &To);

  /// A sent call's id, causal context and issue time (after any connect).
  struct Issued {
    uint64_t CallId, Ctx;
    int64_t AtNs;
  };
  /// The one issue path under call() and callOneWay(): connect, encode,
  /// stats, spans, side cost and NIC send for \p C.
  sim::Task<Issued> issue(int DstNode, int DstPort, CallBody C);

  /// One two-way call awaiting its reply: the promise plus the causal id
  /// minted at issue (so the reply links back into the DAG).
  struct PendingCall {
    sim::Promise<ErrorOr<Bytes>> Reply;
    uint64_t Ctx = 0;
  };

  /// Remembers a timed-out call id (bounded FIFO) so its late reply is
  /// classified as LateReplies rather than MalformedDropped.
  void noteTimedOut(uint64_t CallId);

  sim::Task<void> dispatchLoop();
  /// \p RecvNs is when the dispatch loop pulled the message off the wire
  /// (the rpc.dispatch_queue span start; 0 on untraced runs).
  sim::Task<void> handleCall(CallFrame Frame, int64_t RecvNs);
  sim::Task<void> handleCallInner(CallFrame Frame, int64_t RecvNs);
  /// \p Content is the unframed reply, kind byte first (see unframe()).
  void handleReturn(std::span<const uint8_t> Content, int64_t RecvNs,
                    uint64_t WireCtx);

  /// Retargets \p C at \p Route's object name, re-encodes it and hands it
  /// to the NIC towards Route.Node (the loopback when that is this node).
  void forwardCall(CallBody &C, const MovedRoute &Route);

  /// Runs on the dispatch path for an overload rejection: decodes the body
  /// prefix of the verified \p Content and answers StatusOverloaded (or
  /// sheds a one-way call).  Deterministic: the hint is pure backlog
  /// arithmetic.
  sim::Task<void> rejectOverloaded(std::span<const uint8_t> Content);

  vm::Node &Host;
  net::Network &Net;
  const StackProfile &Profile;
  int Port;
  vm::ThreadPool Pool;
  /// One entry per object name this endpoint holds anything for.
  NameTable Names;
  std::unordered_map<uint64_t, PendingCall> PendingCalls;
  /// Destinations we already hold a connection to.
  std::set<std::pair<int, int>> Connected;
  uint64_t NextCallId = 1;
  /// Logical-call ids for callReliable(); a separate counter so retries
  /// of one logical call share an id while each attempt keeps a fresh
  /// CallId.
  uint64_t NextDedupId = 1;
  RetryPolicy Retry;
  AdmissionPolicy Admission;
  /// Calls admitted but not yet finished (pool queue + executing): the
  /// backlog the admission budget bounds.  Maintained even with admission
  /// disabled (one integer) so the policy can be enabled mid-run.
  size_t AdmittedBacklog = 0;
  /// Jitter stream for retry backoff (seeded; see setRetryPolicy).
  Rng RetryRng;
  /// Recently timed-out call ids, bounded FIFO: distinguishes a late
  /// reply (expected under loss) from a genuinely unknown call id.
  std::unordered_set<uint64_t> TimedOutIds;
  std::deque<uint64_t> TimedOutOrder;
  static constexpr size_t MaxTimedOutRemembered = 128;
  /// Server-side at-most-once window, keyed by the caller's identity plus
  /// its logical-call id.  An entry is born in progress (empty) when the
  /// first attempt starts executing and caches its result once done, so a
  /// retransmission's reply is re-encoded byte for byte; FIFO-evicted.
  using DedupKey = std::tuple<int32_t, int32_t, uint64_t>;
  std::map<DedupKey, std::optional<ErrorOr<Bytes>>> DedupWindow;
  std::deque<DedupKey> DedupOrder;
  static constexpr size_t DedupWindowCap = 256;
  /// Host restart hook that clears in-progress dedup entries (their
  /// handlers died with the crash and would otherwise block retries).
  uint64_t RestartHookId = 0;
  EndpointStats Stats;
  /// "rpc.<profile-slug>" -- the per-channel metric namespace.
  std::string MetricsPrefix;
  /// Instruments, resolved at construction: round-trip latency of
  /// two-way calls per stack profile, and the per-node live series.
  metrics::Histogram &CallLatency;
  metrics::Counter &CallsDone;
  metrics::Histogram &CallLatencyLive;
  metrics::Counter &OverloadShed;
  metrics::Counter &OverloadRejected;
  /// Staging buffer for HTTP-framed content (the header needs the content
  /// length up front); capacity is reused across calls.
  mutable Bytes EnvScratch;
};

} // namespace parcs::remoting

#endif // PARCS_REMOTING_ENGINE_H
