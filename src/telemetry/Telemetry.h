//===- telemetry/Telemetry.h - In-band cluster telemetry plane --*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live half of the observability subsystem: cluster-wide windowed
/// time-series built *in-band*, out of the object model itself.  While a
/// plane is attached to the metrics registry, every timed instrument
/// update (metrics::add/record with a node and a sim-time, see
/// support/Metrics.h) also lands in that node's open window, keyed by
/// instrument; a periodic heartbeat on the node's own
/// simulator closes fully-elapsed windows and ships them as ordinary
/// framed messages over the fabric -- paying real wire time, competing
/// with real traffic -- to a collector object on one node, which merges
/// them into cluster series and evaluates SLOs (telemetry/Slo.h) at every
/// window roll.
///
/// Everything is keyed on sim-time, so the exported time-series and the
/// slo.breach/slo.recover instants are byte-identical across repeated
/// runs:
///
///  - merging is commutative (bucket-wise adds), so snapshot arrival
///    interleaving cannot change the merged series;
///  - windows are finalized in index order once the *frontier* -- the
///    minimum heartbeat time heard from every agent (a node never heard
///    from pins it at zero) -- passes their end, so SLO evaluation sees
///    only complete windows, in a deterministic order.
///
/// Agents *park* when a flush finds nothing pending (the heartbeat does
/// not reschedule), and the first timed update afterwards re-arms them, so an
/// idle cluster generates no telemetry events and run() terminates.
/// Snapshots that arrive for already-final windows (a parked agent waking
/// late, or heartbeats lost to an in-band fault plan) are counted and
/// dropped, never merged -- late data may not rewrite history that SLOs
/// already judged.
///
/// Enable with
///
///   PARCS_TELEMETRY=<file>[,window=<dur>][,collector=<node>]
///                        [,port=<port>][,model=<file>]
///                        [,slo=slo(<series>, p<P> < <dur>, window=<dur>)]...
///
/// which exports the cluster time-series as JSON to <file> at teardown
/// and writes a crash flight-recorder dump to <file>.flight.json (see
/// telemetry/FlightRecorder.h).  tools/parcs_top renders the export.
/// model=<file> additionally writes a one-point parcs-model sweep whose
/// metrics are *exact* whole-run series summaries (percentiles from the
/// merged buckets, not window averages) -- feed files from runs at
/// several scales to `parcs-model fit` to get scaling laws.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_TELEMETRY_TELEMETRY_H
#define PARCS_TELEMETRY_TELEMETRY_H

#include "net/Network.h"
#include "support/Metrics.h"
#include "telemetry/Slo.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace parcs::telemetry {

/// How the plane should run (parsed from PARCS_TELEMETRY).
struct TelemetrySpec {
  std::string Path;                ///< Export file ("" = keep in memory).
  int64_t WindowNs = 1'000'000;    ///< Series bucket and flush period (1ms).
  int CollectorNode = 0;           ///< Node hosting the collector object.
  int Port = 9700;                 ///< Fabric port the collector binds.
  std::string ModelPath;           ///< Sweep-point file ("" = none).
  std::vector<SloSpec> Slos;
};

/// Parses "<path>[,window=dur][,collector=N][,port=N]
/// [,slo=...]...".  Durations are integers with an ns/us/ms/s suffix
/// ("2ms", "50us"; a bare integer is nanoseconds) -- see
/// envspec::parseDurationNs.  Numbers that overflow are malformed.
/// Returns false leaving \p Out untouched on malformation; \p BadToken
/// (when non-null) receives the offending token.
bool parseTelemetrySpec(std::string_view Spec, TelemetrySpec &Out,
                        std::string *BadToken = nullptr);

/// Reads PARCS_TELEMETRY for a cluster of \p Nodes nodes.  Returns true
/// and fills \p Out when the knob is set, well-formed and names a
/// collector inside the cluster; warns on stderr naming the bad token
/// (and returns false) otherwise; silently returns false when unset.
bool envTelemetrySpec(TelemetrySpec &Out, int Nodes);

/// The telemetry plane: per-node agents + in-band collector + SLO engine.
/// Construct after the fabric and before the workload runs; destroy (or
/// finish()) after run() to fold straggler windows and write the export.
/// Attaches its open windows to the global metrics registry for its
/// lifetime.
class Plane {
public:
  Plane(net::Network &Net, TelemetrySpec Spec);
  ~Plane();

  Plane(const Plane &) = delete;
  Plane &operator=(const Plane &) = delete;

  /// Folds windows still pending in the agents (in node order) and
  /// finalizes every remaining window -- evaluating SLOs for each --
  /// then writes the export file when the spec names one.  Idempotent;
  /// the destructor calls it.  Call only after run() has returned.
  void finish();

  /// The cluster time-series as JSON (calls finish()).  Deterministic:
  /// a pure function of the recorded (node, time, value) stream.
  std::string exportJson();

  /// The run summarized as a one-point parcs-model sweep (calls
  /// finish()): params {nodes}, metrics "<series>.n" / ".rate_per_s" and,
  /// for histogram series, exact whole-run ".p50/.p99/.p999/.mean"
  /// computed from the merged buckets.  Written to spec().ModelPath at
  /// teardown when the model= option names a file.  Deterministic.
  std::string modelPointsJson();

  /// Installs \p Cb to be invoked at every SLO state-machine edge (breach
  /// and recover) during the live run, at the deterministic
  /// window-finalization time.  Edges found by the teardown finish() pass
  /// do NOT fire the callback -- the run is over, nothing can act on them.
  /// This is the control-plane hook the SCOOPP rebalancer consumes to
  /// trigger live object migration.  Pass nullptr to uninstall.
  using SloEdgeCallback =
      std::function<void(const SloSpec &Spec, bool Breach, int64_t AtNs)>;
  void onSloEdge(SloEdgeCallback Cb) { EdgeCallback = std::move(Cb); }

  // Collector health, for tests and reports.
  uint64_t snapshotsReceived() const { return SnapshotsReceived; }
  uint64_t lateWindows() const { return LateWindows; }
  uint64_t corruptSnapshots() const { return CorruptSnapshots; }

  const TelemetrySpec &spec() const { return Spec; }

private:
  /// One series' contribution to one window, as the agents collect it.
  using SeriesDelta = metrics::LiveWindows::Slot;

  struct SloState {
    SloSpec Spec;
    int64_t SpanWindows = 1; ///< Trailing windows the slow burn reads.
    bool InBreach = false;
    uint64_t FastBurnWindows = 0;
    uint64_t SlowBurnWindows = 0;
    struct Edge {
      int64_t Window;
      int64_t AtNs;
      bool Breach; ///< false = recover.
    };
    std::vector<Edge> Edges;
  };

  sim::Task<void> collectorLoop(sim::Channel<net::Message> &Chan);
  void arm(int Node, int64_t AtNs);
  void heartbeat(int Node, int64_t NowNs);
  void onSnapshot(const net::Message &Msg);
  void advanceFrontier();
  void finalizeThrough(int64_t FirstOpenWindow);
  void evaluateSlos(int64_t Window);

  TelemetrySpec Spec;
  net::Network &Net;
  metrics::LiveWindows Live;             ///< The agents' open windows.
  std::vector<uint64_t> NextSeq;         ///< Per node snapshot sequence.
  metrics::LiveWindows *PrevLive = nullptr;

  // Collector state (fed by snapshots during the run, then by
  // finish()).
  std::map<std::string, std::map<int64_t, SeriesDelta>, std::less<>> Merged;
  std::vector<int64_t> LastHeartbeatNs; ///< Per node; -1 = never heard.
  int64_t FirstOpenWindow = 0;          ///< Windows below this are final.
  std::vector<SloState> Slos;
  SloEdgeCallback EdgeCallback;
  uint64_t SnapshotsReceived = 0;
  uint64_t LateWindows = 0;
  uint64_t CorruptSnapshots = 0;
  bool Finished = false;
};

} // namespace parcs::telemetry

#endif // PARCS_TELEMETRY_TELEMETRY_H
