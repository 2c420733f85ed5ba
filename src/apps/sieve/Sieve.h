//===- apps/sieve/Sieve.h - Prime sieve pipeline ----------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (Figs. 4-7): a pipelined sieve of
/// Eratosthenes built from PrimeFilter parallel objects.  Each filter
/// stores up to \c Capacity primes; candidate numbers stream through in
/// batches ("process(int[] num)"); survivors that don't fit are forwarded
/// to the next filter, which the filter itself creates on demand -- so
/// the pipeline grows dynamically and exercises exactly the mechanisms
/// SCOOPP adapts: many small async calls (method-call aggregation) and
/// many small objects (object agglomeration).
///
/// Correctness engineering: the sieve invariant ("a survivor that fits in
/// this filter is prime") requires batches to be *processed* in
/// generation order, but a bounded dispatch pool may pick up two batches
/// concurrently.  Batches therefore carry sequence numbers and each
/// filter keeps a reorder buffer; end-of-stream is an in-band empty batch
/// that flows the same ordered path.  The driver never issues nested
/// synchronous calls (it walks the chain iteratively), so bounded thread
/// pools cannot deadlock.
///
/// The paper also uses a sequential prime sieve for the VM comparison
/// ("running another application, a prime number sieve, the Mono
/// execution time is about the same as the JVM") -- sequentialSieve below.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_APPS_SIEVE_SIEVE_H
#define PARCS_APPS_SIEVE_SIEVE_H

#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "support/Metrics.h"

#include <map>

namespace parcs::apps::sieve {

/// Tuning knobs of the pipeline workload.
struct SieveJob {
  int32_t MaxN = 1000;     ///< Sieve primes in [2, MaxN].
  int FilterCapacity = 8;  ///< Primes stored per filter object.
  int BatchSize = 16;      ///< Candidates per process() call.
  /// Reference-VM cost of one divisibility test.
  double NsPerTest = 40.0;
};

/// The PrimeFilter implementation object.
class PrimeFilterHandler : public remoting::CallHandler {
public:
  PrimeFilterHandler(scoopp::ScooppRuntime &Runtime, vm::Node &Host,
                     std::shared_ptr<const SieveJob> Job)
      : Runtime(Runtime), Host(Host), Job(std::move(Job)),
        FiltersCreated(metrics::Registry::global().counterHandle(
            "sieve.filters_created")),
        Batches(metrics::Registry::global().counterHandle("sieve.batches")),
        TestCount(metrics::Registry::global().counterHandle("sieve.tests")) {}

  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &Args) override;

  static constexpr const char *ClassName = "PrimeFilter";

private:
  /// Runs one in-order batch (empty = end of stream).
  sim::Task<Error> processInOrder(std::vector<int32_t> Numbers);
  /// Forwards a batch downstream, creating the next filter on first use.
  sim::Task<Error> forward(std::vector<int32_t> Survivors);

  scoopp::ScooppRuntime &Runtime;
  vm::Node &Host;
  std::shared_ptr<const SieveJob> Job;
  metrics::Counter &FiltersCreated, &Batches, &TestCount;
  std::vector<int32_t> Primes;
  std::unique_ptr<scoopp::ProxyBase> Next;
  uint64_t Tests = 0;
  /// Reorder machinery.
  int32_t ExpectedSeq = 0;
  std::map<int32_t, std::vector<int32_t>> Stash;
  int32_t ForwardSeq = 0;
  bool EosSeen = false;
};

/// Generated-proxy shape for PrimeFilterHandler.
class PrimeFilterProxy : public scoopp::ProxyBase {
public:
  using ProxyBase::ProxyBase;
  sim::Task<Error> create() {
    return ProxyBase::create(PrimeFilterHandler::ClassName);
  }
  /// Asynchronous: filter one sequenced batch (empty batch = EOS).
  sim::Task<void> process(int32_t Seq, const std::vector<int32_t> &Numbers) {
    return invokeAsync("process", serial::encodeValues(Seq, Numbers));
  }
  /// Synchronous: primes stored in this filter.
  sim::Task<ErrorOr<std::vector<int32_t>>> primes() {
    return invokeSyncTyped<std::vector<int32_t>>("primes");
  }
  /// Synchronous: has the end-of-stream marker been processed here?
  sim::Task<ErrorOr<bool>> eosSeen() {
    return invokeSyncTyped<bool>("eosSeen");
  }
  /// Synchronous: divisibility tests executed by this filter.
  sim::Task<ErrorOr<uint64_t>> tests() {
    return invokeSyncTyped<uint64_t>("tests");
  }
  /// Synchronous: reference to the next filter (invalid ref if none).
  sim::Task<ErrorOr<scoopp::ParallelRef>> nextRef();
};

/// Registers the PrimeFilter class backed by \p Job.
void registerSieveClasses(scoopp::ParallelClassRegistry &Registry,
                          std::shared_ptr<const SieveJob> Job);

/// Result of a pipeline run.
struct PipelineResult {
  std::vector<int32_t> Primes; ///< In increasing order.
  int FilterCount = 0;         ///< Pipeline length at completion.
};

/// Drives the full pipeline from \p HomeNode: streams candidates, waits
/// for the end-of-stream marker to reach the tail, then walks the chain
/// collecting primes.
sim::Task<ErrorOr<PipelineResult>>
runSievePipeline(scoopp::ScooppRuntime &Runtime, int HomeNode,
                 std::shared_ptr<const SieveJob> Job);

/// Sequential trial-division sieve with the same counted work; returns
/// primes and the number of divisibility tests (the VM-comparison
/// workload).
struct SequentialSieveResult {
  std::vector<int32_t> Primes;
  uint64_t Tests = 0;
  double Seconds = 0; ///< Under the given VM's integer multiplier.
};
SequentialSieveResult sequentialSieve(const SieveJob &Job, vm::VmKind Vm);

} // namespace parcs::apps::sieve

#endif // PARCS_APPS_SIEVE_SIEVE_H
