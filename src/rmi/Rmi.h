//===- rmi/Rmi.h - Java-RMI flavoured API -----------------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Java RMI baseline of the paper's comparison, shaped like the JDK
/// API the paper walks through in Fig. 1: a name registry
/// (Naming.rebind/lookup on "rmi://host:1099/Name" URIs), explicitly
/// instantiated and exported server objects (UnicastRemoteObject), and
/// stub-style typed proxies on the client.  Runs over the shared RPC
/// engine with the JavaRmi stack profile (Java object-stream wire format,
/// 520 us class latency, RMI per-byte costs).
///
/// What the paper contrasts with C# remoting shows up here faithfully:
/// every server object must be *explicitly* registered by name (step 2 of
/// the paper's list) and clients must contact the registry to obtain a
/// reference (step 3); there is no object-factory publication mode.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_RMI_RMI_H
#define PARCS_RMI_RMI_H

#include "remoting/Engine.h"
#include "remoting/Remoting.h"

#include <map>

namespace parcs::rmi {

using remoting::Bytes;
using remoting::RemoteHandle;
using remoting::RpcEndpoint;

/// Java-flavoured name for the dispatch base class: a server object that
/// has been exported for remote invocation.
using UnicastRemoteObject = remoting::CallHandler;

/// Default registry port, as in the JDK.
inline constexpr int RegistryPort = 1099;

/// A parsed "rmi://node<K>[:<port>]/<name>" URI; the port defaults to
/// RegistryPort (remoting::parseUri does the parsing).
using RmiUri = remoting::ObjectUri;
ErrorOr<RmiUri> parseRmiUri(const std::string &Uri);

/// The registry server object (what `rmiregistry` runs): a string -> URI
/// binding table, itself remotely callable.
class RegistryServer : public UnicastRemoteObject {
public:
  explicit RegistryServer(vm::Node &Host) : Host(Host) {}

  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view Method,
                                       const Bytes &Args) override;

  /// Name under which every registry endpoint publishes its registry.
  static constexpr const char *ObjectName = "__rmi_registry";

private:
  vm::Node &Host;
  std::map<std::string, std::string> Bindings;
};

/// Installs a registry on \p Endpoint (idempotent).  The endpoint then
/// serves Naming calls on its port.
void installRegistry(RpcEndpoint &Endpoint);

/// The java.rmi.Naming operations.  \p Local is the calling node's
/// endpoint; registry location comes from the URI.
namespace Naming {

/// Binds \p Uri to the object published as \p ObjectName on \p Local's
/// endpoint (rebind semantics: silently replaces).
sim::Task<Error> rebind(RpcEndpoint &Local, std::string Uri,
                        std::string ObjectName);

/// Removes a binding.
sim::Task<Error> unbind(RpcEndpoint &Local, std::string Uri);

/// Resolves \p Uri to a callable handle for the bound object.
sim::Task<ErrorOr<RemoteHandle>> lookup(RpcEndpoint &Local, std::string Uri);

/// Lists all bound names at the registry addressed by \p Uri (its name
/// part is ignored).
sim::Task<ErrorOr<std::vector<std::string>>> list(RpcEndpoint &Local,
                                                  std::string Uri);

} // namespace Naming

} // namespace parcs::rmi

#endif // PARCS_RMI_RMI_H
