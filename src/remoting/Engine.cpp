//===- remoting/Engine.cpp ------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "remoting/Engine.h"

#include "serial/Crc32.h"
#include "support/Logging.h"
#include "support/PostMortem.h"
#include "support/Trace.h"

#include <charconv>
#include <utility>

using namespace parcs;
using namespace parcs::remoting;

namespace {

/// "Mono 1.1.7 (Tcp)" -> "mono_1_1_7_tcp": profile display names become
/// metric-name segments.
std::string profileSlug(std::string_view Name) {
  std::string Slug;
  Slug.reserve(Name.size());
  for (char C : Name) {
    if (C >= 'A' && C <= 'Z')
      Slug += static_cast<char>(C - 'A' + 'a');
    else if ((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9'))
      Slug += C;
    else if (!Slug.empty() && Slug.back() != '_')
      Slug += '_';
  }
  while (!Slug.empty() && Slug.back() == '_')
    Slug.pop_back();
  return Slug;
}

/// Globally unique async-span id for a call: CallId is only unique per
/// endpoint, so mix in the issuing (node, port).
uint64_t callSpanId(int Node, int Port, uint64_t CallId) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(Node + 1)) << 48) ^
         (static_cast<uint64_t>(static_cast<uint32_t>(Port)) << 32) ^ CallId;
}

/// Seed of every endpoint's retry-jitter stream, before the endpoint's
/// node:port is mixed in.
constexpr uint64_t RetryJitterSeed = 0x7e57ab1eULL;
/// callReliable's backoff grows by this factor per retry (exponential).
constexpr double RetryBackoffFactor = 2.0;

/// An admission refusal hints a retry-after of RetryAfterBaseNs per call
/// past the budget, clamped to [RetryAfterBaseNs, RetryAfterMaxNs]:
/// integer arithmetic on simulation state only, so hints replay exactly.
constexpr int64_t RetryAfterBaseNs = 1'000'000;
constexpr int64_t RetryAfterMaxNs = 50'000'000;

void appendText(Bytes &Out, std::string_view Text) {
  Out.insert(Out.end(), Text.begin(), Text.end());
}

void appendNumber(Bytes &Out, size_t Value) {
  char Buf[20];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr;
  Out.insert(Out.end(), Buf, End);
}

/// Realistic HTTP/1.0 request header for the HttpChannel (the bytes are
/// really on the wire; Content-Length is filled in per message).  Appended
/// piecewise to the wire buffer -- no intermediate header string.
void appendHttpRequestHeader(Bytes &Out, size_t ContentLength,
                             std::string_view Action) {
  appendText(Out, "POST /factory.soap HTTP/1.0\r\n");
  appendText(Out,
             "User-Agent: Mozilla/4.0+(compatible; Mono Remoting; MonoCLR)\r\n");
  appendText(Out, "Content-Type: text/xml; charset=\"utf-8\"\r\n");
  appendText(Out, "SOAPAction: \"http://schemas.microsoft.com/clr/");
  appendText(Out, Action);
  appendText(Out, "\"\r\n");
  appendText(Out, "Expect: 100-continue\r\n");
  appendText(Out, "Connection: Keep-Alive\r\n");
  appendText(Out, "Content-Length: ");
  appendNumber(Out, ContentLength);
  appendText(Out, "\r\n\r\n");
}

void appendHttpResponseHeader(Bytes &Out, size_t ContentLength) {
  appendText(Out, "HTTP/1.0 200 OK\r\n");
  appendText(Out, "Server: Mono Remoting Server/1.1\r\n");
  appendText(Out, "Content-Type: text/xml; charset=\"utf-8\"\r\n");
  appendText(Out, "Content-Length: ");
  appendNumber(Out, ContentLength);
  appendText(Out, "\r\n\r\n");
}

/// Upper bound on the headers above (the request header with a long
/// SOAPAction stays comfortably under this).
constexpr size_t MaxHttpHeaderBytes = 320;

/// Extracts the server's retry-after hint from an ErrorCode::Overloaded
/// message ("... retry-after=<N>ns"); 0 when absent or unparsable.
int64_t parseRetryAfterNs(const std::string &Message) {
  constexpr std::string_view Tag = "retry-after=";
  size_t Pos = Message.find(Tag);
  if (Pos == std::string::npos)
    return 0;
  int64_t Value = 0;
  const char *First = Message.data() + Pos + Tag.size();
  if (std::from_chars(First, Message.data() + Message.size(), Value).ec !=
      std::errc())
    return 0;
  return Value;
}

} // namespace

CallHandler::~CallHandler() = default;

RpcEndpoint::RpcEndpoint(vm::Node &Host, net::Network &Net,
                         const StackProfile &Profile, int Port,
                         int DispatchWorkers)
    : Host(Host), Net(Net), Profile(Profile), Port(Port),
      Pool(Host, DispatchWorkers),
      MetricsPrefix("rpc." + profileSlug(Profile.Name)),
      CallLatency(metrics::Registry::global().histogram(MetricsPrefix +
                                                        ".call_latency_ns")),
      CallsDone(metrics::Registry::global().counterHandle("rpc.calls")),
      CallLatencyLive(
          metrics::Registry::global().histogramHandle("rpc.call.latency")),
      OverloadShed(
          metrics::Registry::global().counterHandle("rpc.overload_shed")),
      OverloadRejected(
          metrics::Registry::global().counterHandle("rpc.overload_rejected")) {
  assert(!Net.isBound(Host.id(), Port) &&
         "another endpoint is already bound to this node:port");
  // A node crash kills every in-flight handler, so dedup entries that were
  // in progress at that moment can never complete -- left in place they
  // would suppress retries forever.  Restart wipes them (exactly the
  // in-flight state a real server loses when it reboots); finished entries
  // keep their cached replies and at-most-once still holds within one
  // liveness epoch.
  RestartHookId = Host.addRestartHook([this] {
    for (auto It = DedupWindow.begin(); It != DedupWindow.end();) {
      if (!It->second) {
        std::erase(DedupOrder, It->first);
        It = DedupWindow.erase(It);
      } else {
        ++It;
      }
    }
    // A crash also kills any in-progress migration on this node: parked
    // calls die with the endpoint's volatile state (their callers' retries
    // re-execute them through the wiped dedup entries above), the park
    // itself lifts, and the executing-handler counts those dead coroutines
    // held are settled.  Registrations and moved tombstones survive: they
    // are naming and routing knowledge, not in-flight state, and a moved
    // object's destination copy is alive.
    for (auto It = Names.begin(); It != Names.end();) {
      It->second.Parked = false;
      It->second.ParkedCalls.clear();
      It->second.InFlight = 0;
      It = It->second.empty() ? Names.erase(It) : std::next(It);
    }
    // Queued pool items survived the crash and still decrement the
    // backlog as they run; the executing handlers' decrements died.
    AdmittedBacklog = Pool.queueDepth();
  });
  Net.bind(Host.id(), Port);
  Host.sim().spawn(dispatchLoop());
}

RpcEndpoint::~RpcEndpoint() {
  Host.removeRestartHook(RestartHookId);
  metrics::Registry &Reg = metrics::Registry::global();
  Reg.counter(MetricsPrefix + ".calls_issued").add(Stats.CallsIssued);
  Reg.counter(MetricsPrefix + ".calls_handled").add(Stats.CallsHandled);
  Reg.counter(MetricsPrefix + ".replies_received").add(Stats.RepliesReceived);
  Reg.counter(MetricsPrefix + ".oneway_sent").add(Stats.OneWaySent);
  Reg.counter(MetricsPrefix + ".wire_bytes_sent").add(Stats.WireBytesSent);
  Reg.counter(MetricsPrefix + ".malformed_dropped").add(Stats.MalformedDropped);
  Reg.counter(MetricsPrefix + ".late_replies").add(Stats.LateReplies);
  Reg.counter(MetricsPrefix + ".corrupted_dropped").add(Stats.CorruptedDropped);
  Reg.counter(MetricsPrefix + ".retries").add(Stats.Retries);
  Reg.counter(MetricsPrefix + ".retries_exhausted")
      .add(Stats.RetriesExhausted);
  Reg.counter(MetricsPrefix + ".dedup_hits").add(Stats.DedupHits);
  Reg.counter(MetricsPrefix + ".dedup_suppressed").add(Stats.DedupSuppressed);
  Reg.counter(MetricsPrefix + ".overload_rejected").add(Stats.OverloadRejected);
  Reg.counter(MetricsPrefix + ".overload_shed").add(Stats.OverloadShed);
  Reg.counter(MetricsPrefix + ".overload_deferred").add(Stats.OverloadDeferred);
  Reg.counter(MetricsPrefix + ".overload_exhausted")
      .add(Stats.OverloadExhausted);
  Reg.counter(MetricsPrefix + ".calls_parked").add(Stats.CallsParked);
  Reg.counter(MetricsPrefix + ".calls_forwarded").add(Stats.CallsForwarded);
}

void RpcEndpoint::publish(const std::string &Name,
                          std::shared_ptr<CallHandler> Object) {
  assert(Object && "publishing a null object");
  Names[Name].Reg =
      Registration{WellKnownObjectMode::Singleton, nullptr, std::move(Object)};
}

void RpcEndpoint::publishWellKnown(const std::string &Name,
                                   HandlerFactory Factory,
                                   WellKnownObjectMode Mode) {
  assert(Factory && "publishing a null factory");
  Names[Name].Reg = Registration{Mode, std::move(Factory), nullptr};
}

bool RpcEndpoint::unpublish(const std::string &Name) {
  auto It = Names.find(Name);
  if (It == Names.end() || !It->second.Reg)
    return false;
  It->second.Reg.reset();
  eraseIfEmpty(It);
  return true;
}

sim::SimTime RpcEndpoint::sideCost(size_t WireBytes) const {
  return Profile.FixedPerSide +
         sim::SimTime::fromSecondsF(Profile.PerByteNs * 1e-9 *
                                    static_cast<double>(WireBytes));
}

// PARCS_HOT_BEGIN(wire-framing): once per RPC in each direction; framing
// emits into reserved/reused buffers, unframing aliases the wire bytes, and
// the call/reply codec below is the only code that writes or reads a body.

Bytes RpcEndpoint::frame(MsgKind Kind, std::string_view EnvelopeName,
                         const Bytes &Body) const {
  bool Checksummed = wireChecksums();
  Bytes Wire;
  if (!Profile.HttpFraming) {
    // Kind byte + envelope emitted straight into the wire buffer.
    Wire.reserve(Body.size() + 96 + (Checksummed ? 4 : 0));
    Wire.push_back(static_cast<uint8_t>(Kind));
    serial::encodeEnvelopeInto(Profile.Format, EnvelopeName, Body, Wire);
  } else {
    // HTTP framing: the header carries the content length, so stage the
    // content in the endpoint's scratch buffer (capacity reused across
    // calls), then emit header + content into one reserved wire buffer.
    EnvScratch.clear();
    EnvScratch.push_back(static_cast<uint8_t>(Kind));
    serial::encodeEnvelopeInto(Profile.Format, EnvelopeName, Body, EnvScratch);
    Wire.reserve(MaxHttpHeaderBytes + EnvScratch.size() +
                 (Checksummed ? 4 : 0));
    if (Kind == KindReturn)
      appendHttpResponseHeader(Wire, EnvScratch.size());
    else
      appendHttpRequestHeader(Wire, EnvScratch.size(), EnvelopeName);
    Wire.insert(Wire.end(), EnvScratch.begin(), EnvScratch.end());
  }
  if (Checksummed) {
    // Integrity trailer (only while faults can corrupt frames): CRC32 of
    // everything before it, little-endian.
    uint32_t Crc = serial::crc32(Wire.data(), Wire.size());
    Wire.push_back(static_cast<uint8_t>(Crc));
    Wire.push_back(static_cast<uint8_t>(Crc >> 8));
    Wire.push_back(static_cast<uint8_t>(Crc >> 16));
    Wire.push_back(static_cast<uint8_t>(Crc >> 24));
  }
  return Wire;
}

ErrorOr<std::span<const uint8_t>> RpcEndpoint::unframe(const Bytes &Wire) const {
  size_t Size = Wire.size();
  if (wireChecksums()) {
    // Verify and strip the integrity trailer before trusting any byte of
    // the frame -- a flipped bit anywhere (header included) must not be
    // mis-decoded.
    if (Size < 5)
      return Error(ErrorCode::ChecksumMismatch,
                   "frame too short for its checksum trailer");
    uint32_t Stored = static_cast<uint32_t>(Wire[Size - 4]) |
                      (static_cast<uint32_t>(Wire[Size - 3]) << 8) |
                      (static_cast<uint32_t>(Wire[Size - 2]) << 16) |
                      (static_cast<uint32_t>(Wire[Size - 1]) << 24);
    if (serial::crc32(Wire.data(), Size - 4) != Stored)
      return Error(ErrorCode::ChecksumMismatch, "frame checksum mismatch");
    Size -= 4;
  }
  if (!Profile.HttpFraming)
    return std::span<const uint8_t>(Wire.data(), Size);
  // Parse the header in place over a view of the wire bytes and honour
  // Content-Length; the returned span aliases the body inside Wire.
  std::string_view Text(reinterpret_cast<const char *>(Wire.data()), Size);
  size_t Split = Text.find("\r\n\r\n");
  if (Split == std::string_view::npos)
    return Error(ErrorCode::MalformedMessage, "http framing: no header end");
  size_t BodyStart = Split + 4;
  size_t LenPos = Text.find("Content-Length: ");
  if (LenPos == std::string_view::npos || LenPos > Split)
    return Error(ErrorCode::MalformedMessage, "http framing: no length");
  size_t Length = 0;
  const char *Digits = Text.data() + LenPos + 16;
  if (std::from_chars(Digits, Text.data() + Text.size(), Length).ec !=
      std::errc())
    return Error(ErrorCode::MalformedMessage, "http framing: bad length");
  if (BodyStart + Length > Size)
    return Error(ErrorCode::MalformedMessage, "http framing: short body");
  return std::span<const uint8_t>(Wire.data() + BodyStart, Length);
}

Bytes RpcEndpoint::encodeCall(const CallBody &C) {
  serial::OutputArchive Body;
  Body.write(C.CallId);
  Body.write(C.Flags);
  if (C.Flags & FlagHasContext)
    serial::encodeCausalContext(Body, C.WireCtx, C.WireParent);
  if (C.Flags & FlagHasDedup)
    Body.write(C.DedupId);
  Body.write(C.ReplyNode);
  Body.write(C.ReplyPort);
  Body.write(C.Object);
  Body.write(C.Method);
  Body.write(static_cast<uint32_t>(C.Args.size()));
  Body.writeRaw(C.Args);
  Bytes Wire = frame(KindCall, C.Method, Body.bytes());
  Stats.WireBytesSent += Wire.size();
  return Wire;
}

bool RpcEndpoint::decodeCall(const serial::Envelope &Env, CallBody &Out,
                             bool PrefixOnly) const {
  serial::InputArchive Body(Env.Payload);
  if (!Body.read(Out.CallId) || !Body.read(Out.Flags) ||
      ((Out.Flags & FlagHasContext) &&
       !serial::decodeCausalContext(Body, Out.WireCtx, Out.WireParent)) ||
      ((Out.Flags & FlagHasDedup) && !Body.read(Out.DedupId)) ||
      !Body.read(Out.ReplyNode) || !Body.read(Out.ReplyPort))
    return false;
  // Replies, forwards and parked replays all send to these coordinates, so
  // a forged address is rejected here rather than when a reply is sent.
  if (!Net.isBound(Out.ReplyNode, Out.ReplyPort))
    return false;
  if (PrefixOnly)
    return true;
  uint32_t ArgsSize = 0;
  return Body.read(Out.Object) && Body.read(Out.Method) &&
         Body.read(ArgsSize) && Body.readRaw(Out.Args, ArgsSize);
}

Bytes RpcEndpoint::encodeReply(uint64_t CallId, const ErrorOr<Bytes> *Result,
                               uint64_t RetryAfterNs) {
  serial::OutputArchive Body;
  Body.write(CallId);
  if (!Result) {
    Body.write(static_cast<uint8_t>(StatusOverloaded));
    Body.write(RetryAfterNs);
  } else if (*Result) {
    Body.write(static_cast<uint8_t>(StatusOk));
    Body.writeRaw(Result->get());
  } else {
    Body.write(static_cast<uint8_t>(StatusFault));
    Body.write(static_cast<uint8_t>(Result->error().code()));
    Body.write(Result->error().message());
  }
  Bytes Wire = frame(KindReturn, "ret", Body.bytes());
  Stats.WireBytesSent += Wire.size();
  return Wire;
}

bool RpcEndpoint::decodeReply(const serial::Envelope &Env, uint64_t &CallId,
                              ErrorOr<Bytes> &Result) const {
  serial::InputArchive Body(Env.Payload);
  uint8_t Status = 0;
  if (!Body.read(CallId) || !Body.read(Status))
    return false;
  if (Status == StatusOk) {
    Bytes Value;
    Body.readRemaining(Value);
    Result = std::move(Value);
    return true;
  }
  if (Status == StatusOverloaded) {
    // Admission refusal: surface the server's retry-after hint in the
    // message so callReliable() can honour it (and callers can log it).
    uint64_t RetryAfterNs = 0;
    if (!Body.read(RetryAfterNs)) {
      Result = Error(ErrorCode::MalformedMessage, "truncated overload hint");
      return true;
    }
    char Digits[20];
    char *End =
        std::to_chars(Digits, Digits + sizeof(Digits), RetryAfterNs).ptr;
    std::string Message = "server overloaded; retry-after=";
    Message.append(Digits, End);
    Message += "ns";
    Result = Error(ErrorCode::Overloaded, std::move(Message));
    return true;
  }
  uint8_t Code = 0;
  std::string Message;
  if (!Body.read(Code) || !Body.read(Message)) {
    Result = Error(ErrorCode::MalformedMessage, "truncated fault");
    return true;
  }
  if (Code < static_cast<uint8_t>(ErrorCode::MalformedMessage) ||
      Code > static_cast<uint8_t>(ErrorCode::Overloaded)) {
    Result = Error(ErrorCode::MalformedMessage, "fault with unknown code");
    return true;
  }
  Result = Error(static_cast<ErrorCode>(Code), std::move(Message));
  return true;
}

// PARCS_HOT_END

sim::Task<RpcEndpoint::Issued>
RpcEndpoint::issue(int DstNode, int DstPort, CallBody C) {
  // First contact with a destination pays the stack's connection setup,
  // marked before the wait so concurrent first calls pay it once.
  if (!Profile.ConnectSetup.isZero() && DstNode != Host.id() &&
      Connected.insert({DstNode, DstPort}).second)
    co_await Host.sim().delay(Profile.ConnectSetup);
  C.CallId = NextCallId++;
  // The call's causal identity: minted here, carried in the body's
  // optional context header, restored server-side.  0 (and absent from
  // the wire) when tracing is off.
  C.WireCtx = trace::mintCausalId();
  if (C.WireCtx)
    C.Flags |= FlagHasContext;
  C.ReplyNode = Host.id();
  C.ReplyPort = Port;
  Bytes Wire = encodeCall(C);

  Issued Out{C.CallId, C.WireCtx, Host.sim().now().nanosecondsCount()};
  if (C.Flags & FlagOneWay) {
    ++Stats.OneWaySent;
    trace::instantCtx(Host.id(), 0, "rpc.oneway", Out.AtNs, C.WireCtx,
                      C.WireParent);
  } else {
    ++Stats.CallsIssued;
    trace::asyncBeginCtx(Host.id(), "rpc.call", Out.AtNs,
                         callSpanId(Host.id(), Port, C.CallId), C.WireCtx,
                         C.WireParent);
  }

  // Client-side marshalling + channel sink cost, then hand to the NIC.
  co_await Host.compute(sideCost(Wire.size()));
  uint64_t SendCtx = 0;
  if (C.WireCtx) {
    SendCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.send", Out.AtNs,
                       Host.sim().now().nanosecondsCount() - Out.AtNs,
                       SendCtx, C.WireCtx);
  }
  Net.send(Host.id(), DstNode, DstPort, std::move(Wire), SendCtx);
  co_return Out;
}

sim::Task<ErrorOr<Bytes>> RpcEndpoint::call(int DstNode, int DstPort,
                                            std::string ObjectName,
                                            std::string Method, Bytes Args,
                                            sim::SimTime Timeout,
                                            uint64_t ParentCtx,
                                            uint64_t DedupId) {
  CallBody C{.Flags = static_cast<uint8_t>(DedupId ? FlagHasDedup : 0),
             .WireParent = ParentCtx, .DedupId = DedupId,
             .Object = std::move(ObjectName), .Method = std::move(Method),
             .Args = std::move(Args)};
  Issued Sent = co_await issue(DstNode, DstPort, std::move(C));

  sim::Promise<ErrorOr<Bytes>> Reply(Host.sim());
  PendingCalls.emplace(Sent.CallId, PendingCall{Reply, Sent.Ctx});
  if (Timeout > sim::SimTime()) {
    // Arm the deadline: if the reply has not resolved the promise by
    // then, fail the call and forget it (a late reply is dropped as an
    // unknown call id).
    Host.sim().schedule(Timeout, [this, CallId = Sent.CallId] {
      auto It = PendingCalls.find(CallId);
      if (It == PendingCalls.end())
        return;
      sim::Promise<ErrorOr<Bytes>> Timed = It->second.Reply;
      PendingCalls.erase(It);
      // Remember the id: should the reply still show up, it is a late
      // reply (expected under loss), not a malformed frame.
      noteTimedOut(CallId);
      Timed.set(Error(ErrorCode::TimedOut,
                      "no reply within the call deadline"));
    });
  }

  ErrorOr<Bytes> Result = co_await Reply.future();
  int64_t DoneNs = Host.sim().now().nanosecondsCount();
  // PARCS_HOT_BEGIN(rpc-call-accounting): once per completed call;
  // resolved handles only, no name lookups.
  metrics::record(CallLatency, DoneNs - Sent.AtNs);
  metrics::add(CallsDone, 1, Host.id(), DoneNs);
  metrics::record(CallLatencyLive, DoneNs - Sent.AtNs, Host.id(), DoneNs);
  // PARCS_HOT_END
  trace::asyncEndCtx(Host.id(), "rpc.call", DoneNs,
                     callSpanId(Host.id(), Port, Sent.CallId), Sent.Ctx,
                     ParentCtx);
  co_return Result;
}

void RpcEndpoint::noteTimedOut(uint64_t CallId) {
  if (TimedOutOrder.size() >= MaxTimedOutRemembered) {
    TimedOutIds.erase(TimedOutOrder.front());
    TimedOutOrder.pop_front();
  }
  TimedOutIds.insert(CallId);
  TimedOutOrder.push_back(CallId);
}

void RpcEndpoint::setRetryPolicy(const RetryPolicy &Policy) {
  Retry = Policy;
  RetryRng.reseed(RetryJitterSeed ^
                  (static_cast<uint64_t>(static_cast<uint32_t>(Host.id()))
                   << 32) ^
                  static_cast<uint64_t>(static_cast<uint32_t>(Port)));
}

sim::Task<ErrorOr<Bytes>> RpcEndpoint::callReliable(int DstNode, int DstPort,
                                                    std::string ObjectName,
                                                    std::string Method,
                                                    Bytes Args,
                                                    uint64_t ParentCtx) {
  if (!Retry.enabled())
    // Degraded mode: exactly one plain call -- same frames, same events
    // as code that never heard of retries (AttemptTimeout is zero here
    // unless the caller configured a deadline without retries).
    co_return co_await call(DstNode, DstPort, std::move(ObjectName),
                            std::move(Method), std::move(Args),
                            Retry.AttemptTimeout, ParentCtx);

  uint64_t DedupId = NextDedupId++;
  sim::SimTime Backoff = Retry.BaseBackoff;
  sim::SimTime Deadline = Retry.AttemptTimeout;
  int Attempt = 1;
  int OverloadWaits = 0;
  for (;;) {
    ErrorOr<Bytes> Result =
        co_await call(DstNode, DstPort, ObjectName, Method, Args,
                      Deadline, ParentCtx, DedupId);
    if (Result)
      co_return Result;
    ErrorCode Code = Result.error().code();
    if (Code == ErrorCode::Overloaded) {
      // The server refused admission and said when to come back.  The
      // reply proved the network and the server alive, so this does not
      // burn a transport attempt: it waits out the server's deterministic
      // retry-after hint (its own bounded budget) and tries again under
      // the same dedup id.
      if (OverloadWaits >= Retry.MaxOverloadWaits) {
        ++Stats.OverloadExhausted;
        // Distinct post-mortem reason: congestion collapse at the peer,
        // not a dead network -- operators page differently on the two.
        postmortem::fire("overloaded", Host.id(),
                         Host.sim().now().nanosecondsCount());
        co_return Error(ErrorCode::Overloaded,
                        "server overloaded: '" + ObjectName + "." + Method +
                            "' on node " + std::to_string(DstNode));
      }
      ++OverloadWaits;
      ++Stats.OverloadDeferred;
      trace::instant(Host.id(), 0, "rpc.overload_wait",
                     Host.sim().now().nanosecondsCount());
      int64_t HintNs = parseRetryAfterNs(Result.error().message());
      sim::SimTime Wait =
          HintNs > 0 ? sim::SimTime::nanoseconds(HintNs) : Backoff;
      co_await Host.sim().delay(Wait);
      continue;
    }
    if (Code != ErrorCode::TimedOut && Code != ErrorCode::ChecksumMismatch)
      // Unknown object, remote fault, malformed reply...: retrying won't
      // change the answer.
      co_return Result;
    if (Attempt >= Retry.MaxAttempts) {
      ++Stats.RetriesExhausted;
      postmortem::fire("retries_exhausted", Host.id(),
                       Host.sim().now().nanosecondsCount());
      co_return Error(ErrorCode::ConnectionFailed,
                      "retries exhausted: '" + ObjectName + "." + Method +
                          "' on node " + std::to_string(DstNode));
    }
    ++Attempt;
    ++Stats.Retries;
    trace::instant(Host.id(), 0, "rpc.retry",
                   Host.sim().now().nanosecondsCount());
    // PARCS_HOT_BEGIN(rpc-retry): the backoff/deadline schedule is
    // integer arithmetic plus one seeded draw -- no allocation, no
    // wall clock.
    int64_t HalfNs = Backoff.nanosecondsCount() / 2;
    sim::SimTime Jitter = sim::SimTime::nanoseconds(static_cast<int64_t>(
        RetryRng.nextBelow(static_cast<uint64_t>(HalfNs) + 1)));
    sim::SimTime Wait = Backoff + Jitter;
    sim::SimTime Next = sim::SimTime::fromSecondsF(Backoff.toSecondsF() *
                                                   RetryBackoffFactor);
    Backoff = Next < Retry.MaxBackoff ? Next : Retry.MaxBackoff;
    if (Retry.TimeoutFactor > 1.0) {
      sim::SimTime Grown = sim::SimTime::fromSecondsF(
          Deadline.toSecondsF() * Retry.TimeoutFactor);
      Deadline = (Retry.MaxAttemptTimeout > sim::SimTime() &&
                  Retry.MaxAttemptTimeout < Grown)
                     ? Retry.MaxAttemptTimeout
                     : Grown;
    }
    // PARCS_HOT_END
    co_await Host.sim().delay(Wait);
  }
}

sim::Task<void> RpcEndpoint::callOneWay(int DstNode, int DstPort,
                                        std::string ObjectName,
                                        std::string Method, Bytes Args,
                                        uint64_t ParentCtx) {
  CallBody C{.Flags = FlagOneWay, .WireParent = ParentCtx,
             .Object = std::move(ObjectName), .Method = std::move(Method),
             .Args = std::move(Args)};
  co_await issue(DstNode, DstPort, std::move(C));
}

sim::Task<void> RpcEndpoint::dispatchLoop() {
  // parcs-lint: allow(suspension-ref): the channel lives in Network's bind
  // map, which is stable for the simulation's lifetime.
  sim::Channel<net::Message> &Inbox = Net.bind(Host.id(), Port);
  for (;;) {
    net::Message Msg = co_await Inbox.recv();
    // parcs-lint: allow(suspension-ref): Content aliases Msg.Payload, which
    // this frame owns and leaves untouched across the receive-cost and
    // overload-rejection suspensions below.
    ErrorOr<std::span<const uint8_t>> Content = unframe(Msg.Payload);
    if (!Content || Content->empty()) {
      if (!Content &&
          Content.error().code() == ErrorCode::ChecksumMismatch) {
        // Fault-injected corruption caught by the wire CRC: counted
        // separately (it is expected under a chaos plan) and dropped
        // before any byte is decoded.  The sender's timeout/retry covers
        // recovery.
        ++Stats.CorruptedDropped;
        trace::instant(Host.id(), 0, "fault.corrupt_dropped",
                       Host.sim().now().nanosecondsCount());
        LogNodeScope Scope(Host.id());
        PARCS_LOG(Debug, "endpoint " << Host.id() << ":" << Port
                                     << " dropped corrupted frame");
        continue;
      }
      ++Stats.MalformedDropped;
      LogNodeScope Scope(Host.id());
      PARCS_LOG(Warn, "endpoint " << Host.id() << ":" << Port
                                  << " dropped malformed message");
      continue;
    }
    uint8_t Kind = Content->front();
    if (Kind == KindReturn) {
      // Replies are decoded on the I/O thread: charge the receive cost,
      // then resolve the pending call.  computeChecked (not compute) so a
      // crash never parks the dispatch loop -- the endpoint must be
      // listening again after a restart.
      int64_t RecvNs = Host.sim().now().nanosecondsCount();
      if (!co_await Host.computeChecked(sideCost(Msg.Payload.size())))
        continue;
      handleReturn(*Content, RecvNs, Msg.TraceCtx);
      continue;
    }
    if (Kind == KindCall) {
      // PARCS_HOT_BEGIN(rpc-admission): the admission decision is one
      // integer compare against live backlog -- no allocation; only the
      // (rare) rejection path builds a reply.
      if (Admission.enabled() && AdmittedBacklog >= Admission.MaxPending) {
        // Budget exhausted: refuse before the call touches the pool, so
        // rejected work costs a fixed-size reply rather than an unbounded
        // queue wait.  Handled inline on the dispatch path -- rejection
        // must not itself queue behind the congestion it polices.
        co_await rejectOverloaded(*Content);
        continue;
      }
      // PARCS_HOT_END
      // Calls are dispatched through the node's (bounded) thread pool;
      // this is where Mono's small pool throttles overlap.  The handler
      // gets the verified frame with its content's place, so it opens the
      // content in place and never checks the frame again.
      ++Stats.CallsHandled;
      ++AdmittedBacklog;
      size_t ContentAt =
          static_cast<size_t>(Content->data() - Msg.Payload.data());
      CallFrame Frame{std::move(Msg.Payload), Msg.TraceCtx, ContentAt,
                      Content->size()};
      int64_t RecvNs =
          trace::enabled() ? Host.sim().now().nanosecondsCount() : 0;
      auto Work = [Self = this, RecvNs,
                   Owned = std::move(Frame)]() mutable -> sim::Task<void> {
        return Self->handleCall(std::move(Owned), RecvNs);
      };
      static_assert(vm::ThreadPool::WorkItem::fitsInline<decltype(Work)>(),
                    "a posted call must not heap-allocate its work item");
      Pool.post(std::move(Work));
      continue;
    }
    ++Stats.MalformedDropped;
  }
}

void RpcEndpoint::handleReturn(std::span<const uint8_t> Content,
                               int64_t RecvNs, uint64_t WireCtx) {
  // The dispatch loop already unframed the reply (checksum, HTTP header)
  // to read its kind byte; decode the envelope after it in place.
  ErrorOr<serial::Envelope> Env = openContent(Content);
  uint64_t CallId = 0;
  ErrorOr<Bytes> Result(Bytes{});
  if (!Env || !decodeReply(*Env, CallId, Result)) {
    ++Stats.MalformedDropped;
    return;
  }
  auto It = PendingCalls.find(CallId);
  if (It == PendingCalls.end()) {
    auto Timed = TimedOutIds.find(CallId);
    if (Timed != TimedOutIds.end()) {
      // The reply raced the deadline and lost: expected under loss plus
      // timeouts, so count it as late, not malformed, and stay quiet.
      // (The FIFO deque keeps a stale entry; eviction tolerates that.)
      TimedOutIds.erase(Timed);
      ++Stats.LateReplies;
      return;
    }
    ++Stats.MalformedDropped;
    return;
  }
  sim::Promise<ErrorOr<Bytes>> Reply = It->second.Reply;
  uint64_t CallCtx = It->second.Ctx;
  PendingCalls.erase(It);
  ++Stats.RepliesReceived;
  if (trace::enabled()) {
    // Reply-side deserialize leg, chained off the reply's wire node; the
    // rpc.link instant grafts it onto the round trip's DAG node so the
    // chain closes client -> server -> client.
    int64_t NowNs = Host.sim().now().nanosecondsCount();
    uint64_t ReplyCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.reply_recv", RecvNs,
                       NowNs - RecvNs, ReplyCtx, WireCtx);
    trace::instantCtx(Host.id(), 0, "rpc.link", NowNs, CallCtx, ReplyCtx);
  }
  Reply.set(std::move(Result));
}

sim::Task<void>
RpcEndpoint::rejectOverloaded(std::span<const uint8_t> Content) {
  // Decode just the body prefix: enough to know who to answer.  Content
  // is read only before the first suspension.
  ErrorOr<serial::Envelope> Env = openContent(Content);
  CallBody C;
  if (!Env || !decodeCall(*Env, C, /*PrefixOnly=*/true)) {
    ++Stats.MalformedDropped;
    co_return;
  }
  int64_t NowNs = Host.sim().now().nanosecondsCount();
  if (C.Flags & FlagOneWay) {
    // No caller is waiting for a reply, so there is nobody to hint: the
    // call is shed and the counter is its only residue.
    ++Stats.OverloadShed;
    metrics::add(OverloadShed, 1, Host.id(), NowNs);
    trace::instant(Host.id(), 0, "rpc.overload_shed", NowNs);
    co_return;
  }
  ++Stats.OverloadRejected;
  metrics::add(OverloadRejected, 1, Host.id(), NowNs);
  trace::instant(Host.id(), 0, "rpc.overload_reject", NowNs);
  // Deterministic retry-after: linear in how deep past budget the backlog
  // sits, clamped to the policy's band.  Depth-proportional hints spread
  // a burst of rejected callers over time instead of re-synchronising
  // them onto one future instant.
  size_t Overflow = AdmittedBacklog - Admission.MaxPending + 1;
  int64_t HintNs = RetryAfterBaseNs * static_cast<int64_t>(Overflow);
  if (HintNs < RetryAfterBaseNs)
    HintNs = RetryAfterBaseNs;
  if (HintNs > RetryAfterMaxNs)
    HintNs = RetryAfterMaxNs;
  Bytes Wire =
      encodeReply(C.CallId, /*Result=*/nullptr, static_cast<uint64_t>(HintNs));
  // computeChecked: a crash mid-rejection must not park the dispatch loop.
  if (!co_await Host.computeChecked(sideCost(Wire.size())))
    co_return;
  Net.send(Host.id(), C.ReplyNode, C.ReplyPort, std::move(Wire), 0);
}

// PARCS_HOT_BEGIN(migrate-replay): forwarding re-encodes one frame from
// already-decoded fields and hands it to the NIC -- no re-parse, no
// suspension; cutover itself is plain map surgery.

void RpcEndpoint::forwardCall(CallBody &C, const MovedRoute &Route) {
  C.Object = Route.Name;
  Bytes Wire = encodeCall(C);
  ++Stats.CallsForwarded;
  trace::instant(Host.id(), 0, "om.migrate.forward",
                 Host.sim().now().nanosecondsCount());
  Net.send(Host.id(), Route.Node, Route.Port, std::move(Wire), 0);
}

void RpcEndpoint::unpark(NameTable::iterator It, const MovedRoute &To) {
  // Replay in arrival order; the original CallId / reply coordinates /
  // dedup id ride along, so replies go straight to the callers and the
  // receiving dedup window absorbs any retransmitted twins.
  std::vector<CallBody> Replay = std::exchange(It->second.ParkedCalls, {});
  It->second.Parked = false;
  eraseIfEmpty(It);
  for (CallBody &C : Replay)
    forwardCall(C, To);
}

void RpcEndpoint::completeMove(const std::string &Name,
                               const MovedRoute &Dst) {
  // Atomic cutover (no suspension between these lines): from here on no
  // call can slip between "parked" and "forwarded".
  auto It = Names.try_emplace(Name).first;
  It->second.Moved = Dst;
  unpark(It, Dst);
}

void RpcEndpoint::cancelPark(const std::string &Name) {
  // Aborted migration: the source copy is still published, so re-deliver
  // the parked calls to ourselves over the loopback -- they re-enter the
  // normal dispatch path (admission included) as if the park never
  // happened.
  auto It = Names.find(Name);
  if (It != Names.end())
    unpark(It, MovedRoute{Host.id(), Port, Name});
}

// PARCS_HOT_END

sim::Task<void> RpcEndpoint::handleCall(CallFrame Frame, int64_t RecvNs) {
  // Thin wrapper settling the admission backlog on normal completion.  A
  // handler that crash-parks never resumes this frame either, so the
  // decrement is simply lost with it -- the restart hook re-bases the
  // count from the surviving pool queue.
  co_await handleCallInner(std::move(Frame), RecvNs);
  if (AdmittedBacklog > 0)
    --AdmittedBacklog;
}

sim::Task<void> RpcEndpoint::handleCallInner(CallFrame Frame,
                                             int64_t RecvNs) {
  // Server-side handling as one complete span on the serving node, and as
  // the server leg of the call's async pair (same id the client opened --
  // Perfetto links the legs across node lanes).
  int64_t ServeStartNs = Host.sim().now().nanosecondsCount();

  // Server-side unmarshalling cost for the incoming wire bytes.
  co_await Host.compute(sideCost(Frame.Wire.size()));

  ErrorOr<serial::Envelope> Env =
      openContent({Frame.Wire.data() + Frame.ContentAt, Frame.ContentSize});
  CallBody C;
  if (!Env || !decodeCall(*Env, C, /*PrefixOnly=*/false)) {
    ++Stats.MalformedDropped;
    co_return;
  }

  // DAG legs on the serving node: time queued between the wire and this
  // handler (the dispatch pool's backlog), then the unmarshal work above.
  // The serve umbrella's declared parent is the restored wire context (the
  // cross-node edge); rpc.link grafts the local timing chain onto it.
  uint64_t ServeCtx = 0;
  if (trace::enabled()) {
    int64_t NowNs = Host.sim().now().nanosecondsCount();
    uint64_t QueueCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.dispatch_queue", RecvNs,
                       ServeStartNs - RecvNs, QueueCtx, Frame.TraceCtx);
    uint64_t UnmarshalCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.unmarshal", ServeStartNs,
                       NowNs - ServeStartNs, UnmarshalCtx, QueueCtx);
    ServeCtx = trace::mintCausalId();
    trace::instantCtx(Host.id(), 0, "rpc.link", NowNs, ServeCtx,
                      UnmarshalCtx);
  }

  // At-most-once: a retransmission of a logical call we have already seen
  // must not execute the method again.  In-progress duplicates are
  // dropped (the original execution's reply, or the client's next retry,
  // covers it); completed ones are answered from the cached result under
  // the retransmission's fresh CallId.
  bool TwoWay = !(C.Flags & FlagOneWay);
  DedupKey Key{C.ReplyNode, C.ReplyPort, C.DedupId};
  if (TwoWay && C.DedupId != 0) {
    auto Dup = DedupWindow.find(Key);
    if (Dup != DedupWindow.end()) {
      if (!Dup->second) {
        ++Stats.DedupSuppressed;
        co_return;
      }
      ++Stats.DedupHits;
      Bytes CachedWire = encodeReply(C.CallId, &*Dup->second);
      co_await Host.compute(sideCost(CachedWire.size()));
      Net.send(Host.id(), C.ReplyNode, C.ReplyPort, std::move(CachedWire), 0);
      co_return;
    }
  }

  // Migration interception -- strictly between the dedup *lookup* (a call
  // this node already answered keeps being answered from the cached reply,
  // never re-executed at the destination) and the in-progress *insert* (a
  // parked call must not squat an entry its own forwarded replay would
  // then trip over).
  // PARCS_HOT_BEGIN(rpc-name-lookup): one find, keyed by the decoded name
  // itself, serves the tombstone, the park and the target.
  auto Entry = Names.find(C.Object);
  if (Entry != Names.end() && Entry->second.Moved) {
    // Straggler for a name that migrated away: forward it under the new
    // name; the destination replies straight to the original caller.
    forwardCall(C, *Entry->second.Moved);
    co_return;
  }
  if (Entry != Names.end() && Entry->second.Parked) {
    // The object's mailbox is frozen mid-migration: hold the decoded call
    // for replay at cutover (or local re-delivery on abort).
    ++Stats.CallsParked;
    trace::instant(Host.id(), 0, "om.migrate.parked",
                   Host.sim().now().nanosecondsCount());
    Entry->second.ParkedCalls.push_back(std::move(C));
    co_return;
  }
  // PARCS_HOT_END

  if (TwoWay && C.DedupId != 0) {
    if (DedupOrder.size() >= DedupWindowCap) {
      DedupWindow.erase(DedupOrder.front());
      DedupOrder.pop_front();
    }
    DedupWindow.emplace(Key, std::nullopt);
    DedupOrder.push_back(Key);
  }

  ErrorOr<Bytes> Result(Bytes{});
  if (Entry == Names.end() || !Entry->second.Reg) {
    Result = Error(ErrorCode::UnknownObject,
                   "no object published as '" + C.Object + "'");
  } else {
    // SingleCall: a fresh instance per call, no state retained.  Singleton:
    // the published instance, made on first use for a well-known type.
    Registration &Reg = *Entry->second.Reg;
    if (Reg.Mode == WellKnownObjectMode::Singleton && !Reg.Instance)
      Reg.Instance = Reg.Factory();
    std::shared_ptr<CallHandler> Target =
        Reg.Mode == WellKnownObjectMode::SingleCall ? Reg.Factory()
                                                    : Reg.Instance;
    // Hand the serve context to the callee: its body up to the first
    // suspension runs synchronously inside this co_await (lazy tasks), so
    // the one-slot hand-off cannot be observed by anything else first.
    // Cleared afterwards in case the target does not claim it.
    if (ServeCtx)
      trace::handoff(ServeCtx);
    // Executing-call count per name: migration drains this to zero after
    // parking, so state capture never races a running method.
    ++Entry->second.InFlight;
    Result = co_await Target->handleCall(C.Method, C.Args);
    // PARCS_HOT_BEGIN(rpc-name-settle): re-find -- the name may have been
    // unpublished, or a restart zeroed its count, while the method ran.
    auto Settle = Names.find(C.Object);
    if (Settle != Names.end() && Settle->second.InFlight > 0 &&
        --Settle->second.InFlight == 0)
      eraseIfEmpty(Settle);
    // PARCS_HOT_END
    if (ServeCtx)
      trace::handoff(0);
  }

  if (!TwoWay) {
    if (!Result) {
      LogNodeScope Scope(Host.id());
      PARCS_LOG(Warn, "one-way call '" << C.Object << "." << C.Method
                                       << "' faulted: "
                                       << Result.error().str());
    }
    trace::completeCtx(Host.id(), 0, "rpc.serve", ServeStartNs,
                       Host.sim().now().nanosecondsCount() - ServeStartNs,
                       ServeCtx, C.WireCtx);
    co_return;
  }

  int64_t ReplyStartNs = Host.sim().now().nanosecondsCount();
  if (C.DedupId != 0) {
    // A retransmission gets the same status + payload under its own
    // attempt's id.  Refind -- the entry may have been FIFO-evicted while
    // the method ran.
    auto Dup = DedupWindow.find(Key);
    if (Dup != DedupWindow.end())
      Dup->second = Result;
  }
  Bytes Wire = encodeReply(C.CallId, &Result);
  co_await Host.compute(sideCost(Wire.size()));
  uint64_t ReplySendCtx = 0;
  if (ServeCtx) {
    ReplySendCtx = trace::mintCausalId();
    trace::completeCtx(Host.id(), 0, "rpc.send", ReplyStartNs,
                       Host.sim().now().nanosecondsCount() - ReplyStartNs,
                       ReplySendCtx, ServeCtx);
  }
  Net.send(Host.id(), C.ReplyNode, C.ReplyPort, std::move(Wire), ReplySendCtx);
  trace::completeCtx(Host.id(), 0, "rpc.serve", ServeStartNs,
                     Host.sim().now().nanosecondsCount() - ServeStartNs,
                     ServeCtx, C.WireCtx);
}
