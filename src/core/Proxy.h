//===- core/Proxy.h - PO base class ------------------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProxyBase is the PO (proxy object) of the paper: "A PO represents a
/// local or a remote parallel object and has the same interface as the
/// object it represents.  It transparently replaces remote parallel
/// objects and forwards all method invocations to the remote parallel
/// object implementation."  Generated proxy classes (parcgen output, or
/// hand-written equivalents) derive from it and add one typed method per
/// user method.
///
/// create() reproduces Fig. 5's generated constructor: consult the OM;
/// either create the IO locally (object agglomeration, call d in Fig. 3)
/// or ask the OM for a host and request creation from that node's remote
/// factory (calls c in Fig. 3).
///
/// invokeAsync() reproduces Fig. 4/7: an asynchronous (delegate-style)
/// invocation that, under method-call aggregation, is buffered and later
/// shipped as one packed message.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_CORE_PROXY_H
#define PARCS_CORE_PROXY_H

#include "core/ImplAdapter.h"
#include "core/Scoopp.h"

#include <map>
#include <vector>

namespace parcs::scoopp {

/// Base of all generated proxy (PO) classes.
class ProxyBase {
public:
  /// A proxy living on \p HomeNode (the node whose OM it consults and
  /// whose endpoint it calls through).
  ProxyBase(ScooppRuntime &Runtime, int HomeNode);
  virtual ~ProxyBase();

  ScooppRuntime &runtime() { return Runtime; }
  int homeNode() const { return Home; }
  vm::Node &node();

  /// True once create()/bind() succeeded.
  bool created() const { return Ref.valid(); }
  /// True when the implementation lives on the home node and calls are
  /// intra-grain.
  bool isLocal() const { return Local != nullptr; }
  const ParallelRef &ref() const { return Ref; }
  const std::string &className() const { return Class; }

  /// The generated constructor body: creates the IO (locally or remotely)
  /// per the OM's grain/placement decisions.
  sim::Task<Error> create(std::string ClassName);

  /// Attaches this proxy to an existing parallel object (a received
  /// ParallelRef).  Calls become remote unless the ref is home-hosted.
  /// A ref naming no runtime endpoint (a node outside the cluster, say)
  /// is refused with ConnectionFailed and leaves the proxy unbound.
  [[nodiscard]] Error bind(std::string ClassName, ParallelRef ExistingRef);

  /// Asynchronous (void) method invocation; may be buffered for
  /// aggregation.  Completion of the returned task means "accepted", not
  /// "executed" (fire-and-forget, like a delegate BeginInvoke without
  /// EndInvoke).
  sim::Task<void> invokeAsync(std::string Method, Bytes Args);

  /// Synchronous method invocation (a value is returned).  Flushes any
  /// buffered calls for this object first, preserving program order.
  sim::Task<ErrorOr<Bytes>> invokeSync(std::string Method, Bytes Args);

  /// Typed wrapper over invokeSync.
  template <typename Ret, typename... Args>
  sim::Task<ErrorOr<Ret>> invokeSyncTyped(std::string Method,
                                          const Args &...CallArgs) {
    return invokeSyncTypedImpl<Ret>(this, std::move(Method),
                                    serial::encodeValues(CallArgs...));
  }

  /// Ships any buffered aggregated calls immediately.
  sim::Task<void> flush();

  /// Destroys the implementation object (the ParC++ semantics the paper
  /// contrasts with .Net-managed lifetime: "the PO always destroys a
  /// local IO; non-local objects are destroyed by the RTS, upon a request
  /// from the PO").  Buffered calls are flushed first; afterwards the
  /// proxy is unusable and other references to the object fault.
  sim::Task<Error> destroy();

  /// Buffered (not yet shipped) aggregated calls.
  size_t pendingCalls() const;

private:
  template <typename Ret>
  static sim::Task<ErrorOr<Ret>>
  invokeSyncTypedImpl(ProxyBase *Self, std::string Method, Bytes Encoded) {
    ErrorOr<Bytes> Raw =
        co_await Self->invokeSync(std::move(Method), std::move(Encoded));
    if (!Raw)
      co_return Raw.error();
    Ret Value{};
    if (!serial::decodeValues(*Raw, Value))
      co_return Error(ErrorCode::MalformedMessage,
                      "result bytes did not decode");
    co_return Value;
  }

  sim::Task<void> shipPacked(std::string Method,
                             std::vector<BufferedCall> Calls);
  remoting::RemoteHandle remoteHandle();
  /// Trace/metrics record of one agglomerate-vs-parallel grain decision.
  void recordCreateDecision(bool Agglomerated);

  ScooppRuntime &Runtime;
  int Home;
  std::string Class;
  ParallelRef Ref;
  /// Non-null when the IO is local (direct dispatch path).
  std::shared_ptr<CallHandler> Local;
  /// Aggregation buffers, one per method, in insertion order per method.
  /// Each buffered call keeps the causal id minted at its invokeAsync, so
  /// aggregation never collapses causality.
  std::map<std::string, std::vector<BufferedCall>> PendingByMethod;
  /// Methods in first-buffered order, so flush preserves program order
  /// across methods.
  std::vector<std::string> PendingOrder;
};

} // namespace parcs::scoopp

#endif // PARCS_CORE_PROXY_H
