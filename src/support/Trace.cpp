//===- support/Trace.cpp - Deterministic sim-time trace recorder ----------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/EnvSpec.h"
#include "support/Json.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

namespace parcs::trace {

uint8_t detail::Mode = 0;
uint64_t detail::LastCausalId = 0;
uint64_t detail::HandoffCtx = 0;

namespace {

enum class EventKind : uint8_t {
  Complete,
  Instant,
  Counter,
  AsyncBegin,
  AsyncEnd,
};

/// One recorded event, 48 bytes.  Value is the duration (Complete), the
/// sample (Counter) or the pairing id (Async*); Ctx/Parent are the causal
/// identity (0 = none); Name points at a string literal owned by the call
/// site.
struct Event {
  int64_t AtNs;
  int64_t Value;
  uint64_t Ctx;
  uint64_t Parent;
  const char *Name;
  int32_t Tid;
  EventKind Kind;
};

/// Fixed-capacity ring holding one node's events, oldest overwritten.
struct Ring {
  std::vector<Event> Buf;
  size_t Next = 0;     // Slot the next event goes into.
  uint64_t Total = 0;  // Events ever recorded (Total - size() = dropped).
};

struct Track {
  int Node;
  std::string Name;
};

class Recorder {
public:
  static Recorder &instance() {
    static Recorder R;
    return R;
  }

  void setCapacity(size_t Events) { Cap = Events ? Events : 1; }
  void setFlightCapacity(size_t Events) { FlightCap = Events ? Events : 1; }

  void record(int Node, const Event &E) {
    if (detail::Mode & detail::ModeTrace)
      push(ring(Rings, Cap, Node), E);
    if (detail::Mode & detail::ModeFlight)
      push(ring(FlightRings, FlightCap, Node), E);
  }

  int addTrack(int Node, std::string_view Name) {
    Tracks.push_back({Node, std::string(Name)});
    return static_cast<int>(Tracks.size());
  }

  int trackCount() const { return static_cast<int>(Tracks.size()); }

  void reset() {
    Rings.clear();
    FlightRings.clear();
    Tracks.clear();
  }

  std::string exportJson() const { return render(Rings, /*WarnWrap=*/true); }
  std::string exportFlightJson() const {
    return render(FlightRings, /*WarnWrap=*/false);
  }

private:
  static void push(Ring &R, const Event &E) {
    R.Buf[R.Next] = E;
    R.Next = R.Next + 1 == R.Buf.size() ? 0 : R.Next + 1;
    ++R.Total;
  }

  Ring &ring(std::vector<Ring> &Set, size_t Capacity, int Node) {
    size_t Index = static_cast<size_t>(Node + 1);
    if (Index >= Set.size())
      Set.resize(Index + 1);
    Ring &R = Set[Index];
    if (R.Buf.empty())
      R.Buf.resize(Capacity);
    return R;
  }

  std::string render(const std::vector<Ring> &Set, bool WarnWrap) const;

  /// Index Node+1, so index 0 / pid 0 is the simulator itself.
  std::vector<Ring> Rings;
  /// Small always-on rings for post-mortem dumps; same layout.
  std::vector<Ring> FlightRings;
  /// Tid = index + 1; tid 0 is every node's implicit "main" track.
  std::vector<Track> Tracks;
  size_t Cap = 1 << 16;
  size_t FlightCap = 512;
};

//===----------------------------------------------------------------------===//
// Chrome trace-event JSON export
//===----------------------------------------------------------------------===//

/// Sim-time ns -> trace-format microseconds with ns precision.
void appendTs(std::string &Out, int64_t Ns) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%lld.%03lld",
                static_cast<long long>(Ns / 1000),
                static_cast<long long>(Ns % 1000));
  Out += Buf;
}

/// Emits the ", \"args\": {...}" clause shared by all shapes: causal
/// identity when present, plus the truncation marker for async halves
/// whose partner was overwritten at ring wrap.
void appendArgs(std::string &Out, const Event &E, bool Truncated) {
  if (E.Ctx == 0 && !Truncated)
    return;
  Out += ", \"args\": {";
  bool Need = false;
  char Buf[96];
  if (E.Ctx != 0) {
    // Parent 0 means "root": omitted, so analyzers can key on presence.
    if (E.Parent != 0)
      std::snprintf(Buf, sizeof(Buf), "\"ctx\": %llu, \"parent\": %llu",
                    static_cast<unsigned long long>(E.Ctx),
                    static_cast<unsigned long long>(E.Parent));
    else
      std::snprintf(Buf, sizeof(Buf), "\"ctx\": %llu",
                    static_cast<unsigned long long>(E.Ctx));
    Out += Buf;
    Need = true;
  }
  if (Truncated) {
    if (Need)
      Out += ", ";
    Out += "\"truncated\": true";
  }
  Out += '}';
}

void appendEvent(std::string &Out, int Pid, const Event &E, bool Truncated,
                 bool &First) {
  Out += First ? "\n  " : ",\n  ";
  First = false;
  Out += "{\"name\": ";
  json::appendString(Out, E.Name);
  char Buf[96];
  switch (E.Kind) {
  case EventKind::Complete:
    std::snprintf(Buf, sizeof(Buf), ", \"ph\": \"X\", \"pid\": %d, \"tid\": %d",
                  Pid, E.Tid);
    Out += Buf;
    Out += ", \"ts\": ";
    appendTs(Out, E.AtNs);
    Out += ", \"dur\": ";
    appendTs(Out, E.Value);
    appendArgs(Out, E, Truncated);
    break;
  case EventKind::Instant:
    std::snprintf(Buf, sizeof(Buf),
                  ", \"ph\": \"i\", \"s\": \"t\", \"pid\": %d, \"tid\": %d",
                  Pid, E.Tid);
    Out += Buf;
    Out += ", \"ts\": ";
    appendTs(Out, E.AtNs);
    appendArgs(Out, E, Truncated);
    break;
  case EventKind::Counter:
    std::snprintf(Buf, sizeof(Buf), ", \"ph\": \"C\", \"pid\": %d", Pid);
    Out += Buf;
    Out += ", \"ts\": ";
    appendTs(Out, E.AtNs);
    std::snprintf(Buf, sizeof(Buf), ", \"args\": {\"value\": %lld}",
                  static_cast<long long>(E.Value));
    Out += Buf;
    break;
  case EventKind::AsyncBegin:
  case EventKind::AsyncEnd:
    // The id is scoped to the pid: per-node id generators may collide
    // across nodes, and Chrome matches async pairs on (cat, id) alone.
    std::snprintf(Buf, sizeof(Buf),
                  ", \"cat\": \"parcs\", \"ph\": \"%c\", "
                  "\"id\": \"p%d-0x%llx\", \"pid\": %d, \"tid\": 0",
                  E.Kind == EventKind::AsyncBegin ? 'b' : 'e', Pid,
                  static_cast<unsigned long long>(E.Value), Pid);
    Out += Buf;
    Out += ", \"ts\": ";
    appendTs(Out, E.AtNs);
    appendArgs(Out, E, Truncated);
    break;
  }
  Out += '}';
}

void appendMetadata(std::string &Out, const char *What, int Pid, int Tid,
                    std::string_view Name, bool &First) {
  Out += First ? "\n  " : ",\n  ";
  First = false;
  char Buf[96];
  if (Tid < 0)
    std::snprintf(Buf, sizeof(Buf), "{\"name\": \"%s\", \"ph\": \"M\", "
                  "\"pid\": %d, \"args\": {\"name\": ", What, Pid);
  else
    std::snprintf(Buf, sizeof(Buf), "{\"name\": \"%s\", \"ph\": \"M\", "
                  "\"pid\": %d, \"tid\": %d, \"args\": {\"name\": ",
                  What, Pid, Tid);
  Out += Buf;
  json::appendString(Out, Name);
  Out += "}}";
}

std::string Recorder::render(const std::vector<Ring> &Set,
                             bool WarnWrap) const {
  std::string Out = "{\"traceEvents\": [";
  bool First = true;

  // Metadata first: process names for every node with a ring, thread
  // names for tid 0 ("main") and every registered track.
  for (size_t I = 0; I < Set.size(); ++I) {
    if (Set[I].Total == 0)
      continue;
    int Pid = static_cast<int>(I);
    char NameBuf[32];
    if (Pid == 0)
      std::snprintf(NameBuf, sizeof(NameBuf), "sim");
    else
      std::snprintf(NameBuf, sizeof(NameBuf), "node %d", Pid - 1);
    appendMetadata(Out, "process_name", Pid, -1, NameBuf, First);
    appendMetadata(Out, "thread_name", Pid, 0, "main", First);
  }
  for (size_t T = 0; T < Tracks.size(); ++T)
    appendMetadata(Out, "thread_name", Tracks[T].Node + 1,
                   static_cast<int>(T) + 1, Tracks[T].Name, First);

  // Events, per node, oldest first.
  for (size_t I = 0; I < Set.size(); ++I) {
    const Ring &R = Set[I];
    if (R.Total == 0)
      continue;
    int Pid = static_cast<int>(I);
    uint64_t Dropped = R.Total > R.Buf.size() ? R.Total - R.Buf.size() : 0;
    if (Dropped && WarnWrap) {
      std::fprintf(stderr,
                   "[parcs:trace] pid %d ring wrapped, oldest %llu of %llu "
                   "events dropped\n",
                   Pid, static_cast<unsigned long long>(Dropped),
                   static_cast<unsigned long long>(R.Total));
    }
    size_t Count = Dropped ? R.Buf.size() : static_cast<size_t>(R.Total);
    size_t Start = Dropped ? R.Next : 0;

    // Pre-pass: pair up surviving async begins/ends by (name, id).  An
    // end whose begin was overwritten -- or a begin whose end was -- would
    // render as an open-ended interval; mark both cases truncated.
    std::vector<bool> Truncated(Count, false);
    std::map<std::pair<const char *, uint64_t>, std::vector<size_t>> Open;
    for (size_t K = 0; K < Count; ++K) {
      size_t Slot = Start + K;
      if (Slot >= R.Buf.size())
        Slot -= R.Buf.size();
      const Event &E = R.Buf[Slot];
      if (E.Kind == EventKind::AsyncBegin) {
        Open[{E.Name, static_cast<uint64_t>(E.Value)}].push_back(K);
      } else if (E.Kind == EventKind::AsyncEnd) {
        auto It = Open.find({E.Name, static_cast<uint64_t>(E.Value)});
        if (It != Open.end() && !It->second.empty())
          It->second.pop_back();
        else
          Truncated[K] = true;
      }
    }
    for (const auto &[Key, Begins] : Open)
      for (size_t K : Begins)
        Truncated[K] = true;

    for (size_t K = 0; K < Count; ++K) {
      size_t Slot = Start + K;
      if (Slot >= R.Buf.size())
        Slot -= R.Buf.size();
      appendEvent(Out, Pid, R.Buf[Slot], Truncated[K], First);
    }
  }

  Out += "\n]}\n";
  return Out;
}

/// Reads PARCS_TRACE at static-init time and exports at process shutdown.
/// Constructed after (and therefore destroyed before) the recorder
/// singleton, which its constructor touches to pin the order.
struct EnvTracer {
  TraceSpec Spec;
  bool Active = false;

  EnvTracer() {
    Recorder::instance();
    if (const char *Env = std::getenv("PARCS_TRACE")) {
      std::string BadToken;
      Active = parseTraceSpec(Env, Spec, &BadToken);
      if (!Active)
        std::fprintf(stderr,
                     "[parcs:trace] ignoring malformed PARCS_TRACE \"%s\": "
                     "bad token \"%s\"\n",
                     Env, BadToken.c_str());
    }
    if (Active) {
      Recorder::instance().setCapacity(Spec.RingCapacity);
      detail::Mode |= detail::ModeTrace;
    }
  }

  ~EnvTracer() {
    if (!Active)
      return;
    if (!writeJson(Spec.Path))
      std::fprintf(stderr, "[parcs:trace] cannot write %s\n",
                   Spec.Path.c_str());
  }
};

EnvTracer TheEnvTracer;

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

void detail::recordComplete(int Node, int Tid, const char *Name,
                            int64_t StartNs, int64_t DurNs, uint64_t Ctx,
                            uint64_t Parent) {
  Recorder::instance().record(
      Node, {StartNs, DurNs, Ctx, Parent, Name, Tid, EventKind::Complete});
}

void detail::recordInstant(int Node, int Tid, const char *Name, int64_t AtNs,
                           uint64_t Ctx, uint64_t Parent) {
  Recorder::instance().record(
      Node, {AtNs, 0, Ctx, Parent, Name, Tid, EventKind::Instant});
}

void detail::recordCounter(int Node, const char *Name, int64_t AtNs,
                           int64_t Value) {
  Recorder::instance().record(
      Node, {AtNs, Value, 0, 0, Name, 0, EventKind::Counter});
}

void detail::recordAsync(int Node, const char *Name, int64_t AtNs, uint64_t Id,
                         bool Begin, uint64_t Ctx, uint64_t Parent) {
  Recorder::instance().record(
      Node, {AtNs, static_cast<int64_t>(Id), Ctx, Parent, Name, 0,
             Begin ? EventKind::AsyncBegin : EventKind::AsyncEnd});
}

void setEnabled(bool On) {
  if (On)
    detail::Mode |= detail::ModeTrace;
  else
    detail::Mode &= uint8_t(~detail::ModeTrace);
}

void setFlightRecording(bool On) {
  if (On)
    detail::Mode |= detail::ModeFlight;
  else
    detail::Mode &= uint8_t(~detail::ModeFlight);
}

void setRingCapacity(size_t Events) {
  Recorder::instance().setCapacity(Events);
}

void setFlightCapacity(size_t Events) {
  Recorder::instance().setFlightCapacity(Events);
}

int track(int Node, std::string_view Name) {
  if (!detail::Mode)
    return 0;
  return Recorder::instance().addTrack(Node, Name);
}

int trackCount() { return Recorder::instance().trackCount(); }

std::string exportJson() { return Recorder::instance().exportJson(); }

std::string exportFlightJson() {
  return Recorder::instance().exportFlightJson();
}

bool writeJson(const std::string &Path) {
  return json::writeFile(Path, exportJson());
}

void reset() {
  Recorder::instance().reset();
  detail::LastCausalId = 0;
  detail::HandoffCtx = 0;
}

bool parseTraceSpec(std::string_view Spec, TraceSpec &Out,
                    std::string *BadToken) {
  std::string_view Path;
  std::vector<envspec::Option> Opts;
  if (!envspec::split(Spec, Path, Opts, BadToken))
    return false;
  auto Fail = [&](std::string_view Token) {
    if (BadToken)
      *BadToken = std::string(Token);
    return false;
  };
  size_t Cap = TraceSpec{}.RingCapacity;
  for (const envspec::Option &O : Opts) {
    uint64_t N = 0;
    if (O.Key != "cap" || !envspec::parseUint(O.Value, N) || N == 0)
      return Fail(O.Token);
    Cap = static_cast<size_t>(N);
  }
  Out.Path = std::string(Path);
  Out.RingCapacity = Cap;
  return true;
}

} // namespace parcs::trace
