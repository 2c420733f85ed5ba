//===- support/Metrics.h - Named end-of-run metrics -------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability subsystem: a registry of named
/// counters, gauges and fixed-bucket latency histograms that the
/// instrumented layers (simulator, network, remoting, SCOOPP runtime,
/// thread pools, apps) feed and that is rendered as a text table or JSON
/// at the end of a run.
///
/// Collection is always on -- recording is an integer add (counters,
/// gauges) or a bit-scan plus two adds (histograms), cheap enough that no
/// enable flag is needed on any hot path.  Long-lived components update
/// plain struct counters as before and *fold* them into the global
/// registry when they are destroyed, so the report aggregates every
/// simulator/network/endpoint a process created.  Reporting happens only
/// on request, or automatically at process exit when the environment knob
///
///   PARCS_METRICS=<file>[,format=text|json]
///
/// is set (format defaults to json when <file> ends in ".json", text
/// otherwise).  Histograms reuse the Statistics.h machinery for their
/// exact summary (count/mean/min/max) and answer percentile queries by
/// interpolating within power-of-two buckets.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_METRICS_H
#define PARCS_SUPPORT_METRICS_H

#include "support/Statistics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace parcs::metrics {

namespace detail {

/// Index of the log2 bucket holding \p Value: 0 for 0, otherwise
/// 1 + floor(log2), with everything >= 2^Histogram::MaxShift in one
/// overflow bucket (see Histogram).
int bucketIndex(uint64_t Value);

/// Percentile interpolation over a Histogram-layout bucket array holding
/// \p Count samples with observed range [\p Min, \p Max], clamped to that
/// range so a single sample reports itself exactly.  Returns
/// Histogram::EmptyPercentile when \p Count is zero.  Shared by the
/// cumulative Histogram, the windowed variant, and the telemetry
/// collector's merged cluster series.
double bucketsPercentile(const uint64_t *Buckets, uint64_t Count, double Min,
                         double Max, double P);

} // namespace detail

/// Monotonically increasing event count.
class Counter {
public:
  void add(uint64_t N = 1) { Value_ += N; }
  uint64_t value() const { return Value_; }

private:
  uint64_t Value_ = 0;
};

/// A point-in-time level.  noteMax keeps the running maximum, which is
/// how peak depths from many short-lived components fold into one value.
class Gauge {
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
/// nanoseconds, sizes in bytes).  Bucket 0 holds the value 0; bucket B
/// (1..MaxShift) holds [2^(B-1), 2^B); values >= 2^MaxShift land in one
/// overflow bucket.  The exact summary (count, mean, min, max) comes from
/// an embedded RunningStats; percentiles are interpolated within a bucket
/// and clamped to the observed [min, max], so a single sample reports
/// itself exactly and overflow samples never report beyond the true
/// maximum.  An empty histogram has no percentiles: percentile() returns
/// the EmptyPercentile sentinel (-1, impossible for real samples, which
/// clamp to >= 0).
class Histogram {
public:
  /// Last finite bucket bound is 2^MaxShift ns (~18 minutes).
  static constexpr int MaxShift = 40;
  static constexpr int NumBuckets = MaxShift + 2; // 0-bucket + overflow.

  /// What percentile() reports when no samples were recorded.  Negative
  /// on purpose: samples clamp to >= 0, so it cannot collide with data.
  static constexpr double EmptyPercentile = -1.0;

  /// Records one sample; negative values clamp to 0.
  void record(int64_t Value);

  size_t count() const { return Stats.count(); }
  const RunningStats &summary() const { return Stats; }
  uint64_t overflowCount() const { return Buckets[NumBuckets - 1]; }

  /// The \p P-th percentile (0..100); EmptyPercentile when empty.
  double percentile(double P) const;

  /// One-line "n=.. mean=.. p50=.. p90=.. p99=.. max=.." rendering.
  std::string str() const;

private:
  uint64_t Buckets[NumBuckets] = {};
  RunningStats Stats;
};

//===----------------------------------------------------------------------===//
// Sliding sim-time windows
//===----------------------------------------------------------------------===//
//
// The cumulative metrics above answer "what happened over the whole run";
// the windowed variants below answer "what happened over the last W
// nanoseconds of sim-time" -- the question live SLO evaluation and online
// controllers need.  Both are rings of fixed-width slots keyed by the
// *sample timestamp*, not by any wall clock, so results are a pure
// function of the recorded (time, value) stream, byte-identical across
// repeated runs.
//
// Slots are reclaimed lazily: each slot remembers which absolute slot
// index it last held, and a reader simply ignores slots whose index has
// fallen out of the queried window.  That makes add() O(1), queries O(#
// slots), and -- the important edge case -- a multi-hour idle gap costs
// nothing: stale slots are skipped, never eagerly zeroed one by one.

/// Event count over a sliding sim-time window: a ring of \p Slots slots,
/// each WindowNs / Slots wide.  Timestamps must be non-decreasing (stale
/// samples older than the newest slot are dropped).
class WindowedCounter {
public:
  explicit WindowedCounter(int64_t WindowNs = 100'000'000, int Slots = 10);

  /// Records \p N events at sim-time \p AtNs (>= 0).
  void add(int64_t AtNs, uint64_t N = 1);

  /// Events recorded in the window (AtNs - windowNs(), AtNs].
  uint64_t inWindow(int64_t AtNs) const;

  int64_t windowNs() const { return SlotNs * int64_t(Ring.size()); }
  int64_t slotNs() const { return SlotNs; }

private:
  struct Slot {
    int64_t Index = -1; // Absolute slot index (AtNs / SlotNs); -1 = never.
    uint64_t Count = 0;
  };
  int64_t SlotNs;
  std::vector<Slot> Ring;
};

/// Log2-bucket histogram over a sliding sim-time window, same ring layout
/// as WindowedCounter.  Queries merge the live slots into a Snapshot and
/// reuse the cumulative Histogram's percentile interpolation, clamped to
/// the window's observed min/max; an empty window reports
/// Histogram::EmptyPercentile, exactly like an empty Histogram.
class WindowedHistogram {
public:
  /// The merged view of one window (also the telemetry wire/merge unit:
  /// snapshots from many nodes merge bucket-wise into a cluster series).
  struct Snapshot {
    uint64_t Buckets[Histogram::NumBuckets] = {};
    uint64_t Count = 0;
    int64_t Min = 0;
    int64_t Max = 0;
    uint64_t Sum = 0;

    bool empty() const { return Count == 0; }
    double mean() const {
      return Count == 0 ? 0.0 : double(Sum) / double(Count);
    }
    /// The \p P-th percentile (0..100); Histogram::EmptyPercentile when
    /// the snapshot is empty.
    double percentile(double P) const;
    /// Folds \p Other in (bucket-wise add, min/max/sum/count merge).
    void merge(const Snapshot &Other);
    /// Records one sample directly into the snapshot (the telemetry
    /// agents accumulate per-window deltas this way).
    void record(int64_t Value);
  };

  explicit WindowedHistogram(int64_t WindowNs = 100'000'000, int Slots = 10);

  /// Records one sample at sim-time \p AtNs; negative values clamp to 0.
  void record(int64_t AtNs, int64_t Value);

  /// Samples in the window (AtNs - windowNs(), AtNs].
  uint64_t countInWindow(int64_t AtNs) const;

  /// The \p P-th percentile over the window; Histogram::EmptyPercentile
  /// for an empty window.
  double percentileInWindow(int64_t AtNs, double P) const;

  /// The merged window contents ending at \p AtNs.
  Snapshot snapshot(int64_t AtNs) const;

  int64_t windowNs() const { return SlotNs * int64_t(Ring.size()); }
  int64_t slotNs() const { return SlotNs; }

private:
  struct Slot {
    int64_t Index = -1;
    Snapshot Data;
  };
  int64_t SlotNs;
  std::vector<Slot> Ring;
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

  /// Finds or creates the named metric.  A name identifies exactly one
  /// kind; asking for an existing name with a different kind asserts.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  size_t size() const { return Metrics.size(); }

  /// Aligned name/value table, one metric per line.
  std::string textReport() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{n,mean,...}}}.
  std::string jsonReport() const;
  /// Renders per \p Spec and writes the file; returns false on I/O error.
  bool writeReport(const ReportSpec &Spec) const;

  /// Drops every metric (tests).
  void reset() { Metrics.clear(); }

private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Metric {
    Kind MetricKind;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
  };
  Metric &find(std::string_view Name, Kind K);

  /// std::map: deterministic (sorted) report order and stable addresses,
  /// so callers may cache the returned references.
  std::map<std::string, Metric, std::less<>> Metrics;
};

} // namespace parcs::metrics

#endif // PARCS_SUPPORT_METRICS_H
