//===- rmi/Rmi.cpp --------------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "rmi/Rmi.h"

#include "vm/Calibration.h"

using namespace parcs;
using namespace parcs::rmi;

ErrorOr<RmiUri> parcs::rmi::parseRmiUri(const std::string &Uri) {
  return remoting::parseUri(Uri, "rmi://", RegistryPort);
}

sim::Task<ErrorOr<Bytes>> RegistryServer::handleCall(std::string_view Method,
                                                     const Bytes &Args) {
  // Registry operations are cheap table updates; charge a token cost.
  co_await Host.compute(sim::SimTime::microseconds(5));
  if (Method == "rebind") {
    std::string Name, Target;
    if (!serial::decodeValues(Args, Name, Target))
      co_return Error(ErrorCode::MalformedMessage, "rebind args");
    Bindings[Name] = Target;
    co_return serial::encodeValues(Unit());
  }
  if (Method == "unbind") {
    std::string Name;
    if (!serial::decodeValues(Args, Name))
      co_return Error(ErrorCode::MalformedMessage, "unbind args");
    if (Bindings.erase(Name) == 0)
      co_return Error(ErrorCode::UnknownObject,
                      "registry has no binding '" + Name + "'");
    co_return serial::encodeValues(Unit());
  }
  if (Method == "lookup") {
    std::string Name;
    if (!serial::decodeValues(Args, Name))
      co_return Error(ErrorCode::MalformedMessage, "lookup args");
    auto It = Bindings.find(Name);
    if (It == Bindings.end())
      co_return Error(ErrorCode::UnknownObject,
                      "registry has no binding '" + Name + "'");
    co_return serial::encodeValues(It->second);
  }
  if (Method == "list") {
    std::vector<std::string> Names;
    Names.reserve(Bindings.size());
    for (const auto &[Name, Target] : Bindings)
      Names.push_back(Name);
    co_return serial::encodeValues(Names);
  }
  co_return Error(ErrorCode::UnknownMethod, std::string(Method));
}

void parcs::rmi::installRegistry(RpcEndpoint &Endpoint) {
  if (Endpoint.isPublished(RegistryServer::ObjectName))
    return;
  Endpoint.publish(RegistryServer::ObjectName,
                   std::make_shared<RegistryServer>(Endpoint.node()));
}

namespace {

/// Handle to the registry named in \p Uri.
ErrorOr<RemoteHandle> registryHandle(RpcEndpoint &Local, const RmiUri &Uri) {
  return remoting::connectHandle(Local, Uri.Node, Uri.Port,
                                 RegistryServer::ObjectName);
}

} // namespace

sim::Task<Error> Naming::rebind(RpcEndpoint &Local, std::string Uri,
                                std::string ObjectName) {
  ErrorOr<RmiUri> Parsed = parseRmiUri(Uri);
  if (!Parsed)
    co_return Parsed.error();
  // The binding target is the caller's endpoint (where the exported object
  // lives), recorded as a tcp URI the client can dial directly.
  std::string Target = remoting::makeObjectUri(
      remoting::ChannelKind::Tcp, Local.node().id(), Local.port(),
      ObjectName);
  ErrorOr<RemoteHandle> Registry = registryHandle(Local, *Parsed);
  if (!Registry)
    co_return Registry.error();
  ErrorOr<Unit> Result =
      co_await Registry->invokeTyped<Unit>("rebind", Parsed->Name, Target);
  if (!Result)
    co_return Result.error();
  co_return Error();
}

sim::Task<Error> Naming::unbind(RpcEndpoint &Local, std::string Uri) {
  ErrorOr<RmiUri> Parsed = parseRmiUri(Uri);
  if (!Parsed)
    co_return Parsed.error();
  ErrorOr<RemoteHandle> Registry = registryHandle(Local, *Parsed);
  if (!Registry)
    co_return Registry.error();
  ErrorOr<Unit> Result =
      co_await Registry->invokeTyped<Unit>("unbind", Parsed->Name);
  if (!Result)
    co_return Result.error();
  co_return Error();
}

sim::Task<ErrorOr<RemoteHandle>> Naming::lookup(RpcEndpoint &Local,
                                                std::string Uri) {
  ErrorOr<RmiUri> Parsed = parseRmiUri(Uri);
  if (!Parsed)
    co_return Parsed.error();
  ErrorOr<RemoteHandle> Registry = registryHandle(Local, *Parsed);
  if (!Registry)
    co_return Registry.error();
  ErrorOr<std::string> Target =
      co_await Registry->invokeTyped<std::string>("lookup", Parsed->Name);
  if (!Target)
    co_return Target.error();
  ErrorOr<remoting::ObjectUri> Obj = remoting::parseObjectUri(*Target);
  if (!Obj)
    co_return Obj.error();
  co_return remoting::connectHandle(Local, Obj->Node, Obj->Port,
                                    std::move(Obj->Name));
}

sim::Task<ErrorOr<std::vector<std::string>>>
Naming::list(RpcEndpoint &Local, std::string Uri) {
  ErrorOr<RmiUri> Parsed = parseRmiUri(Uri);
  if (!Parsed)
    co_return Parsed.error();
  ErrorOr<RemoteHandle> Registry = registryHandle(Local, *Parsed);
  if (!Registry)
    co_return Registry.error();
  ErrorOr<std::vector<std::string>> Names =
      co_await Registry->invokeTyped<std::vector<std::string>>("list");
  co_return Names;
}
