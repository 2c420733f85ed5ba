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
/// otherwise).  Histograms keep an exact integer summary (count, sum, min,
/// max) and answer percentile queries by interpolating within power-of-two
/// buckets; the telemetry plane ships and merges the same type.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_SUPPORT_METRICS_H
#define PARCS_SUPPORT_METRICS_H

// <cstddef>, <limits> and <utility> are not needed here but stay: the
// benchmark harness compiles bench sources that get them through this
// header, and it must keep building unchanged.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace parcs::metrics {

namespace detail {

/// Index of the log2 bucket holding \p Value: 0 for 0, otherwise
/// 1 + floor(log2), with everything >= 2^Histogram::MaxShift in one
/// overflow bucket (see Histogram).
int bucketIndex(uint64_t Value);

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
class Histogram {
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
