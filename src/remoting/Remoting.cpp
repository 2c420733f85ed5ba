//===- remoting/Remoting.cpp ----------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "remoting/Remoting.h"

#include "support/StringUtils.h"

#include <charconv>
#include <climits>

using namespace parcs;
using namespace parcs::remoting;

namespace {

/// Reads all of \p Text as a decimal in [\p Min, \p Max]; false on
/// anything else (empty, trailing junk, out of range).
bool parseDecimal(std::string_view Text, int Min, int Max, int &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End && Out >= Min && Out <= Max;
}

} // namespace

ErrorOr<ObjectUri> parcs::remoting::parseUri(std::string_view Uri,
                                             std::string_view Scheme,
                                             int DefaultPort) {
  auto Reject = [Uri](std::string_view Why) {
    return Error(ErrorCode::InvalidArgument,
                 std::string(Why) + ": " + std::string(Uri));
  };
  if (!startsWith(Uri, Scheme))
    return Reject("uri must start with " + std::string(Scheme));
  std::string_view Rest = Uri.substr(Scheme.size());
  size_t Slash = Rest.find('/');
  if (Slash == std::string_view::npos || Slash + 1 >= Rest.size())
    return Reject("uri missing /objectName");
  ObjectUri Result;
  Result.Name = std::string(Rest.substr(Slash + 1));
  std::string_view Host = Rest.substr(0, Slash);
  size_t Colon = Host.find(':');
  Result.Port = DefaultPort;
  if (Colon != std::string_view::npos) {
    if (!parseDecimal(Host.substr(Colon + 1), 1, 65535, Result.Port))
      return Reject("bad port in uri");
    Host = Host.substr(0, Colon);
  } else if (DefaultPort == 0) {
    return Reject("uri missing :port");
  }
  if (Host == "localhost")
    Result.Node = 0;
  else if (!startsWith(Host, "node") ||
           !parseDecimal(Host.substr(4), 0, INT_MAX, Result.Node))
    return Reject("hosts are node<K> or localhost");
  return Result;
}

ErrorOr<ObjectUri> parcs::remoting::parseObjectUri(const std::string &Uri) {
  bool Http = startsWith(Uri, "http://");
  ErrorOr<ObjectUri> Result = parseUri(Uri, Http ? "http://" : "tcp://");
  if (Result && Http)
    Result->Channel = ChannelKind::Http;
  return Result;
}

std::string parcs::remoting::makeObjectUri(ChannelKind Channel, int Node,
                                           int Port,
                                           const std::string &Name) {
  std::string Uri = Channel == ChannelKind::Tcp ? "tcp://" : "http://";
  Uri += "node" + std::to_string(Node) + ":" + std::to_string(Port) + "/" +
         Name;
  return Uri;
}

ErrorOr<RemoteHandle> parcs::remoting::getObject(RpcEndpoint &Local,
                                                 const std::string &Uri) {
  ErrorOr<ObjectUri> Parsed = parseObjectUri(Uri);
  if (!Parsed)
    return Parsed.error();
  bool WantHttp = Parsed->Channel == ChannelKind::Http;
  if (WantHttp != Local.profile().HttpFraming)
    return Error(ErrorCode::InvalidArgument,
                 "endpoint channel does not match uri channel: " + Uri);
  return connectHandle(Local, Parsed->Node, Parsed->Port,
                       std::move(Parsed->Name));
}

ErrorOr<RemoteHandle> parcs::remoting::connectHandle(RpcEndpoint &Local,
                                                     int Node, int Port,
                                                     std::string Name) {
  if (!Local.network().isBound(Node, Port))
    return Error(ErrorCode::ConnectionFailed,
                 "no endpoint at node" + std::to_string(Node) + ":" +
                     std::to_string(Port) + " for '" + Name + "'");
  return RemoteHandle(Local, Node, Port, std::move(Name));
}
