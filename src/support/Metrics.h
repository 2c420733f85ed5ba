//===- support/Metrics.h - Named end-of-run metrics -------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one instrument API of the observability subsystem: a registry of
/// named counters, gauges and fixed-bucket latency histograms that the
/// instrumented layers (simulator, network, remoting, SCOOPP runtime,
/// thread pools, apps) feed, rendered as a text table or JSON at the end
/// of a run and, for timed updates, windowed live by an attached
/// telemetry plane.
///
/// Owners resolve their instruments once, in their constructors
/// (Registry::counterHandle / histogramHandle), and update them with
/// metrics::add / metrics::record -- no name lookup on any update path.
/// A *timed* update also names the node and sim-time it happened at; that
/// same call feeds the node's open window of a plane attached to the
/// registry (Registry::attach, see LiveWindows and telemetry::Plane).
/// With no plane attached it costs the instrument update plus one load
/// and branch, so no enable flag is needed on any hot path.  Long-lived
/// components that keep plain struct counters *fold* them into the
/// global registry by name when they are destroyed, so the report
/// aggregates every simulator/network/endpoint a process created.
/// Reporting happens only on request, or automatically at process exit
/// when the environment knob
///
///   PARCS_METRICS=<file>[,format=text|json]
///
/// is set (format defaults to json when <file> ends in ".json", text
/// otherwise).  Histograms keep an exact integer summary (count, sum, min,
/// max) and answer percentile queries by interpolating within power-of-two
/// buckets; the telemetry plane ships and merges the same type.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_METRICS_H
#define PARCS_SUPPORT_METRICS_H

// <cstddef>, <limits> and <memory> are not needed here but stay: the
// benchmark harness compiles bench sources that get them through this
// header, and it must keep building unchanged.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace parcs::metrics {

class LiveWindows;
class Registry;

namespace detail {

/// Index of the log2 bucket holding \p Value: 0 for 0, otherwise
/// 1 + floor(log2), with everything >= 2^Histogram::MaxShift in one
/// overflow bucket (see Histogram).
int bucketIndex(uint64_t Value);

} // namespace detail

/// What makes a counter, gauge or histogram a registry instrument, set by
/// the registry that owns it: its name, its id (a live plane's slot key),
/// the registry whose attached plane a timed update feeds, and whether
/// reports list it yet.  Plain values (plane windows, merged series) leave
/// it unset.
class Instrument {
public:
  const std::string *Name = nullptr;
  Registry *Owner = nullptr;
  int Id = -1;
  bool Listed = false;
};

/// Monotonically increasing event count.
class Counter : public Instrument {
public:
  void add(uint64_t N = 1) { Value_ += N; }
  uint64_t value() const { return Value_; }

private:
  uint64_t Value_ = 0;
};

/// A point-in-time level.  noteMax keeps the running maximum, which is
/// how peak depths from many short-lived components fold into one value.
class Gauge : public Instrument {
public:
  void set(int64_t Value) {
    Value_ = Value;
    Seen = true;
  }
  void noteMax(int64_t Value) {
    if (!Seen || Value > Value_)
      set(Value);
  }
  int64_t value() const { return Seen ? Value_ : 0; }

private:
  int64_t Value_ = 0;
  bool Seen = false;
};

/// Fixed-bucket histogram for non-negative integer samples (latencies in
/// nanoseconds, sizes in bytes) -- the one distribution type: the
/// end-of-run registry, the telemetry plane's per-window deltas, merged
/// cluster series and SLO windows, and the load generator all use it.
/// Bucket 0 holds the value 0; bucket B (1..MaxShift) holds
/// [2^(B-1), 2^B); values >= 2^MaxShift land in one overflow bucket.  The
/// summary (count, sum, min, max) is exact integer state, so merging two
/// histograms equals recording every sample into one.  Percentiles are
/// interpolated within a bucket and clamped to the observed [min, max], so
/// a single sample reports itself exactly and overflow samples never
/// report beyond the true maximum.  An empty histogram has no
/// percentiles: percentile() returns the EmptyPercentile sentinel (-1,
/// impossible for real samples, which clamp to >= 0).
class Histogram : public Instrument {
public:
  /// Last finite bucket bound is 2^MaxShift ns (~18 minutes).
  static constexpr int MaxShift = 40;
  static constexpr int NumBuckets = MaxShift + 2; // 0-bucket + overflow.

  /// What percentile() reports when no samples were recorded.  Negative
  /// on purpose: samples clamp to >= 0, so it cannot collide with data.
  static constexpr double EmptyPercentile = -1.0;

  /// Rebuilds a histogram from what buckets(), count(), min(), max() and
  /// sum() returned (the telemetry wire format).  Returns nullopt when the
  /// parts cannot come from recording: \p N differs from the bucket
  /// total, or [\p Lo, \p Hi] is negative, inverted, or outside the
  /// outermost occupied buckets.
  static std::optional<Histogram>
  fromParts(std::span<const uint64_t, NumBuckets> Parts, uint64_t N,
            int64_t Lo, int64_t Hi, uint64_t Total);

  /// Records one sample; negative values clamp to 0.
  void record(int64_t Value);

  /// Folds \p Other in: bucket-wise add, count/sum add, min/max widen.
  void merge(const Histogram &Other);

  uint64_t count() const { return Count; }
  /// The exact summary; all 0 when empty.
  int64_t min() const { return Min; }
  int64_t max() const { return Max; }
  uint64_t sum() const { return Sum; }
  double mean() const {
    return Count == 0 ? 0.0 : double(Sum) / double(Count);
  }

  std::span<const uint64_t, NumBuckets> buckets() const { return Buckets; }
  uint64_t overflowCount() const { return Buckets[NumBuckets - 1]; }

  /// The \p P-th percentile (0..100); EmptyPercentile when empty.
  double percentile(double P) const;

  /// One-line "n=.. mean=.. p50=.. p90=.. p99=.. max=.." rendering.
  std::string str() const;

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  int64_t Min = 0;
  int64_t Max = 0;
  uint64_t Sum = 0;
};

/// How a report should be written (parsed from PARCS_METRICS).
struct ReportSpec {
  std::string Path;
  bool Json = false;
};

/// Parses "path[,format=text|json]".  The format defaults from the path
/// extension (".json" selects JSON).  Returns false (leaving \p Out
/// untouched) for an empty path or an unknown format value; when
/// \p BadToken is non-null it receives the offending token.
bool parseMetricsSpec(std::string_view Spec, ReportSpec &Out,
                      std::string *BadToken = nullptr);

/// Named metrics, ordered by name.  Instantiable for tests; production
/// code uses the process-wide global() instance.
class Registry {
public:
  Registry() = default;
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// The process-wide registry every instrumented layer folds into.
  static Registry &global();

  /// Finds or creates the named metric; reports list it from this call
  /// on.  For destructor folds, one-shot reporting and tests.  A name
  /// identifies exactly one kind; asking for an existing name with a
  /// different kind asserts.
  Counter &counter(std::string_view Name) { return find<Counter>(Name, true); }
  Gauge &gauge(std::string_view Name) { return find<Gauge>(Name, true); }
  Histogram &histogram(std::string_view Name) {
    return find<Histogram>(Name, true);
  }

  /// Resolves an instrument handle for an owner to keep and update with
  /// metrics::add / record.  Reports list the metric only once an update
  /// reaches it, so resolving instruments for events that never happen
  /// leaves the report as it was.  Handles point into the registry: none
  /// may outlive reset().
  Counter &counterHandle(std::string_view Name) {
    return find<Counter>(Name, false);
  }
  Histogram &histogramHandle(std::string_view Name) {
    return find<Histogram>(Name, false);
  }

  /// Attaches \p Live (nullptr detaches) as the plane every timed update
  /// of this registry's instruments also feeds; returns the previous one.
  LiveWindows *attach(LiveWindows *Live) {
    return std::exchange(Attached, Live);
  }
  LiveWindows *attached() const { return Attached; }

  size_t size() const { return Metrics.size(); }

  /// Aligned name/value table, one metric per line.
  std::string textReport() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{n,mean,...}}}.
  std::string jsonReport() const;
  /// Renders per \p Spec and writes the file; returns false on I/O error.
  bool writeReport(const ReportSpec &Spec) const;

  /// Drops every metric (tests); every handle dangles afterwards.
  void reset() { Metrics.clear(); }

private:
  /// The variant index is the report section: counters, gauges,
  /// histograms.
  using Metric = std::variant<Counter, Gauge, Histogram>;
  template <class T> T &find(std::string_view Name, bool List);

  /// std::map: deterministic (sorted) report order and stable node
  /// addresses, so handles stay valid while the metric exists.
  std::map<std::string, Metric, std::less<>> Metrics;
  /// Ids are never reused, so a plane attached across reset() cannot
  /// confuse an old instrument with a new one.
  int NextId = 0;
  LiveWindows *Attached = nullptr;
};

/// The open windows of a live telemetry plane, per node: each window
/// holds one slot per instrument that a timed update reached in it,
/// indexed by a dense column the instrument gets on its first timed
/// update.  telemetry::Plane owns one, attaches it to the global registry
/// and ships closed windows in-band (see telemetry/Telemetry.h).
class LiveWindows {
public:
  /// One instrument's contribution to one window on one node.
  struct Slot {
    bool Touched = false;
    uint64_t Count = 0; ///< Counter increments.
    Histogram Hist;     ///< Histogram samples.

    void merge(const Slot &Other) {
      Count += Other.Count;
      Hist.merge(Other.Hist);
    }
  };
  struct Window {
    int64_t Index = 0;
    std::vector<Slot> Slots; ///< By column; may be shorter than columns().
  };
  /// Called with the first timed update a parked node receives.
  using ArmFn = std::function<void(int Node, int64_t AtNs)>;

  LiveWindows(int Nodes, int64_t WindowNs, ArmFn OnArm);
  LiveWindows(const LiveWindows &) = delete;
  LiveWindows &operator=(const LiveWindows &) = delete;

  /// The slot a timed update of \p I on \p Node at sim-time \p AtNs
  /// lands in, arming the node if it was parked; null for nodes outside
  /// [0, Nodes), whose samples are dropped.
  Slot *slot(const Instrument &I, int Node, int64_t AtNs);

  /// Instrument name per column.
  const std::vector<std::string> &columns() const { return Names; }

  /// Removes and returns \p Node's windows with index below \p FirstOpen,
  /// in index order.  A node left with nothing pending parks: its next
  /// timed update calls OnArm again.
  std::vector<Window> takeClosed(int Node, int64_t FirstOpen);
  bool armed(int Node) const { return Nodes[size_t(Node)].Armed; }

private:
  struct NodeWindows {
    std::vector<Window> Pending; ///< Ascending window index.
    bool Armed = false;
  };

  int64_t WindowNs;
  ArmFn OnArm;
  std::vector<NodeWindows> Nodes;
  std::vector<int> ColumnOf; ///< Instrument id -> column (-1: none yet).
  std::vector<std::string> Names;
};

/// Updates a handle; reports list it from now on.
inline void add(Counter &C, uint64_t N) {
  C.add(N);
  C.Listed = true;
}
inline void record(Histogram &H, int64_t Value) {
  H.record(Value);
  H.Listed = true;
}

/// Timed updates of a registry handle: the same, plus the open window of
/// \p Node at sim-time \p AtNs of the plane attached to the handle's
/// registry, if any.
inline void add(Counter &C, uint64_t N, int Node, int64_t AtNs) {
  add(C, N);
  if (LiveWindows *Live = C.Owner->attached())
    if (LiveWindows::Slot *S = Live->slot(C, Node, AtNs))
      S->Count += N;
}
inline void record(Histogram &H, int64_t Value, int Node, int64_t AtNs) {
  record(H, Value);
  if (LiveWindows *Live = H.Owner->attached())
    if (LiveWindows::Slot *S = Live->slot(H, Node, AtNs))
      S->Hist.record(Value);
}

} // namespace parcs::metrics

#endif // PARCS_SUPPORT_METRICS_H
