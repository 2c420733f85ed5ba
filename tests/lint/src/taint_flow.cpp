// Fixture: determinism-taint -- wall-clock/randomness values flowing
// through assignments and helper returns into export sinks, plus an
// unordered container passed straight into a sink.  Findings come from the
// whole-program layer (lint/Analysis.h), not the per-file rules.
#include <unordered_map>
namespace trace {
void counter(const char *Name, double Value);
void dump(const char *Name, const std::unordered_map<int, int> &M);
}
namespace metrics { void gauge(const char *Name, double Value); }
struct WallTimer { double seconds(); };

double scaled() {
  WallTimer T;
  double Raw = T.seconds();
  return Raw * 1000.0;
}

void exportsDirect() {
  WallTimer T;
  double S = T.seconds();
  trace::counter("elapsed", S); // FINDING
}

void exportsThroughHelper() {
  double MS = scaled();
  metrics::gauge("elapsed_ms", MS); // FINDING: helper returns taint
}

void exportsUnordered() {
  std::unordered_map<int, int> Hist;
  trace::dump("hist", Hist); // FINDING: hash order leaks
}

void simClockIsClean(double SimNow) {
  double S = SimNow * 2.0;
  trace::counter("sim_now", S); // clean
}

void suppressedExport() {
  WallTimer T;
  double S = T.seconds();
  // parcs-lint: allow(determinism-taint): one-shot debug export, audited.
  trace::counter("debug_elapsed", S);
}

namespace metrics {
struct Histogram;
void record(Histogram &H, long Value, int Node, long AtNs);
}

void exportsTimedRecord(metrics::Histogram &H, long SimNow) {
  WallTimer T;
  long Ns = static_cast<long>(T.seconds() * 1e9);
  metrics::record(H, Ns, 0, SimNow); // FINDING: wall-clock live sample
}
