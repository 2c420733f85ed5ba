// Fixture for the cross-partition-shared-state rule: PARCS_HOT regions
// touch no process-wide mutable state (mutable statics, singleton
// accessors).  Not real code; never compiled.

namespace metrics {
struct Registry {
  static Registry &global();
  int counter(const char *);
};
} // namespace metrics

int coldCounter() {
  static int Calls = 0; // cold code: statics are fine outside hot regions
  return metrics::Registry::global().counter("cold");
}

// PARCS_HOT_BEGIN(fixture-hot): pretend event-loop hot path.
static int internalLinkageFn(int X) { return X + 1; } // function, not state
int hotCounter() {
  static int Calls = 0;
  static const int Limit = 64;
  static constexpr int Shift = 9;
  static thread_local int Local = 0;
  ++Local;
  int Total = metrics::Registry::global().counter("hot");
  int Inst = metrics::Registry::instance().counter("hot2");
  // parcs-lint: allow(cross-partition-shared-state): cold branch taken
  // once per run, priced by the bench.
  int Folded = metrics::Registry::global().counter("barrier");
  return internalLinkageFn(Calls + Limit + Shift + Total + Inst + Folded);
}
// PARCS_HOT_END(fixture-hot)

int coldAgain() {
  static int More = 0; // cold again after the region closes
  return ++More + metrics::Registry::instance().counter("cold2");
}
