//===- telemetry/FlightRecorder.cpp - Crash post-mortem dumps -------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/PostMortem.h"
#include "support/Trace.h"

#include <cstdio>

namespace parcs::telemetry {

FlightRecorder::FlightRecorder(std::string Path, size_t RingEvents)
    : Path(std::move(Path)) {
  trace::setFlightCapacity(RingEvents);
  trace::setFlightRecording(true);
  postmortem::setHandler(&FlightRecorder::onFatal, this);
}

FlightRecorder::~FlightRecorder() {
  postmortem::clearHandler(this);
  trace::setFlightRecording(false);
  metrics::Registry::global().counter("flight.dumps").add(Dumps);
}

void FlightRecorder::onFatal(void *Self, const char *Reason, int Node,
                             int64_t AtNs) {
  static_cast<FlightRecorder *>(Self)->writeDump(Reason, Node, AtNs);
}

std::string FlightRecorder::dumpJson(const char *Reason, int Node,
                                     int64_t AtNs) const {
  std::string Out = "{\n  \"reason\": \"";
  Out += Reason;
  Out += "\",\n  \"node\": ";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%d", Node);
  Out += Buf;
  Out += ",\n  \"at_ns\": ";
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(AtNs));
  Out += Buf;
  // Both sub-documents are complete JSON objects rendered by their own
  // deterministic exporters, embedded verbatim.
  Out += ",\n  \"trace\": ";
  Out += trace::exportFlightJson();
  Out += ",\n  \"metrics\": ";
  Out += metrics::Registry::global().jsonReport();
  Out += "\n}\n";
  return Out;
}

void FlightRecorder::writeDump(const char *Reason, int Node, int64_t AtNs) {
  ++Dumps;
  if (!json::writeFile(Path, dumpJson(Reason, Node, AtNs)))
    std::fprintf(stderr, "[parcs:flight] cannot write %s\n", Path.c_str());
}

} // namespace parcs::telemetry
