//===- apps/sieve/Sieve.cpp -----------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/sieve/Sieve.h"

#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/VmKind.h"

using namespace parcs;
using namespace parcs::apps::sieve;
using scoopp::ParallelRef;

sim::Task<ErrorOr<scoopp::ParallelRef>> PrimeFilterProxy::nextRef() {
  ErrorOr<remoting::Bytes> Raw = co_await invokeSync("nextRef", {});
  if (!Raw)
    co_return Raw.error();
  serial::InputArchive In(*Raw);
  int32_t HasNext = 0;
  if (!In.read(HasNext))
    co_return Error(ErrorCode::MalformedMessage, "nextRef reply");
  ParallelRef Ref;
  if (HasNext && !ParallelRef::decode(In, Ref))
    co_return Error(ErrorCode::MalformedMessage, "nextRef payload");
  co_return Ref; // Invalid (default) ref means "end of chain".
}

sim::Task<Error> PrimeFilterHandler::forward(std::vector<int32_t> Survivors) {
  if (!Next) {
    // Dynamic pipeline growth: the filter itself creates its successor
    // (a parallel object creating a parallel object).
    auto Proxy = std::make_unique<PrimeFilterProxy>(Runtime, Host.id());
    Error E = co_await static_cast<PrimeFilterProxy &>(*Proxy).create();
    if (E)
      co_return E;
    Next = std::move(Proxy);
    metrics::add(FiltersCreated, 1);
    trace::instant(Host.id(), 0, "sieve.filter_spawn",
                   Host.sim().now().nanosecondsCount());
  }
  int32_t Seq = ForwardSeq++;
  co_await static_cast<PrimeFilterProxy &>(*Next).process(Seq, Survivors);
  co_return Error();
}

sim::Task<Error>
PrimeFilterHandler::processInOrder(std::vector<int32_t> Numbers) {
  if (Numbers.empty()) {
    // End of stream: push any buffered aggregate downstream, then pass
    // the marker along the same ordered path.
    EosSeen = true;
    if (Next) {
      Error E = co_await forward({});
      if (E)
        co_return E;
      co_await Next->flush();
    }
    co_return Error();
  }
  int64_t BatchStartNs = Host.sim().now().nanosecondsCount();
  std::vector<int32_t> Survivors;
  uint64_t BatchTests = 0;
  for (int32_t N : Numbers) {
    bool Composite = false;
    for (int32_t P : Primes) {
      ++BatchTests;
      if (N % P == 0) {
        Composite = true;
        break;
      }
    }
    if (Composite)
      continue;
    if (static_cast<int>(Primes.size()) < Job->FilterCapacity) {
      // Batches are processed in generation order, so a survivor that
      // fits here is prime.
      Primes.push_back(N);
      continue;
    }
    Survivors.push_back(N);
  }
  Tests += BatchTests;
  co_await Host.computeWork(
      vm::WorkKind::Integer,
      sim::SimTime::fromSecondsF(Job->NsPerTest * 1e-9 *
                                 static_cast<double>(BatchTests)));
  trace::complete(Host.id(), 0, "sieve.filter_batch", BatchStartNs,
                  Host.sim().now().nanosecondsCount() - BatchStartNs);
  // PARCS_HOT_BEGIN(sieve-batch-accounting): once per batch; resolved
  // handles only, no name lookups.
  metrics::add(Batches, 1);
  metrics::add(TestCount, BatchTests);
  // PARCS_HOT_END
  if (!Survivors.empty()) {
    Error E = co_await forward(std::move(Survivors));
    if (E)
      co_return E;
  }
  co_return Error();
}

sim::Task<ErrorOr<remoting::Bytes>>
PrimeFilterHandler::handleCall(std::string_view Method,
                               const remoting::Bytes &Args) {
  if (Method == "process") {
    int32_t Seq = 0;
    std::vector<int32_t> Numbers;
    if (!serial::decodeValues(Args, Seq, Numbers))
      co_return Error(ErrorCode::MalformedMessage, "process args");
    if (Seq != ExpectedSeq) {
      // Arrived early: hold it in the reorder buffer.
      Stash[Seq] = std::move(Numbers);
      co_return remoting::Bytes{};
    }
    Error E = co_await processInOrder(std::move(Numbers));
    if (E)
      co_return E;
    ++ExpectedSeq;
    // Drain any stashed successors now in order.
    auto It = Stash.find(ExpectedSeq);
    while (It != Stash.end()) {
      std::vector<int32_t> Stashed = std::move(It->second);
      Stash.erase(It);
      Error E2 = co_await processInOrder(std::move(Stashed));
      if (E2)
        co_return E2;
      ++ExpectedSeq;
      It = Stash.find(ExpectedSeq);
    }
    co_return remoting::Bytes{};
  }
  if (Method == "primes")
    co_return serial::encodeValues(Primes);
  if (Method == "eosSeen")
    co_return serial::encodeValues(EosSeen);
  if (Method == "tests")
    co_return serial::encodeValues(static_cast<uint64_t>(Tests));
  if (Method == "nextRef") {
    serial::OutputArchive Out;
    if (Next && Next->created()) {
      Out.write(static_cast<int32_t>(1));
      Next->ref().encode(Out);
    } else {
      Out.write(static_cast<int32_t>(0));
    }
    co_return Out.take();
  }
  co_return Error(ErrorCode::UnknownMethod, std::string(Method));
}

void parcs::apps::sieve::registerSieveClasses(
    scoopp::ParallelClassRegistry &Registry,
    std::shared_ptr<const SieveJob> Job) {
  Registry.registerClass(
      {PrimeFilterHandler::ClassName,
       [Job](scoopp::ScooppRuntime &Runtime, vm::Node &Host)
           -> std::shared_ptr<remoting::CallHandler> {
         return std::make_shared<PrimeFilterHandler>(Runtime, Host, Job);
       }});
}

sim::Task<ErrorOr<PipelineResult>>
parcs::apps::sieve::runSievePipeline(scoopp::ScooppRuntime &Runtime,
                                     int HomeNode,
                                     std::shared_ptr<const SieveJob> Job) {
  PrimeFilterProxy First(Runtime, HomeNode);
  Error E = co_await First.create();
  if (E)
    co_return E;

  // Stream candidates in sequenced batches, then the in-band EOS marker.
  int32_t Seq = 0;
  std::vector<int32_t> Batch;
  Batch.reserve(static_cast<size_t>(Job->BatchSize));
  for (int32_t N = 2; N <= Job->MaxN; ++N) {
    Batch.push_back(N);
    if (static_cast<int>(Batch.size()) == Job->BatchSize) {
      co_await First.process(Seq++, Batch);
      Batch.clear();
    }
  }
  if (!Batch.empty())
    co_await First.process(Seq++, Batch);
  co_await First.process(Seq++, {});
  co_await First.flush();

  const std::string Class = PrimeFilterHandler::ClassName;

  // Wait for the EOS marker to drain through the (still growing) chain:
  // walk to the tail and check its marker, iteratively -- at most one
  // outstanding synchronous call, so bounded pools cannot deadlock.
  for (;;) {
    ParallelRef Cursor = First.ref();
    ParallelRef Tail = Cursor;
    while (Cursor.valid()) {
      Tail = Cursor;
      PrimeFilterProxy Link(Runtime, HomeNode);
      if (Error E = Link.bind(Class, Cursor))
        co_return E;
      ErrorOr<ParallelRef> NextRef = co_await Link.nextRef();
      if (!NextRef)
        co_return NextRef.error();
      Cursor = *NextRef;
    }
    PrimeFilterProxy TailProxy(Runtime, HomeNode);
    if (Error E = TailProxy.bind(Class, Tail))
      co_return E;
    ErrorOr<bool> Done = co_await TailProxy.eosSeen();
    if (!Done)
      co_return Done.error();
    if (*Done)
      break;
    co_await Runtime.sim().delay(sim::SimTime::milliseconds(1));
  }

  // Collect primes in chain order.
  PipelineResult Result;
  ParallelRef Cursor = First.ref();
  while (Cursor.valid()) {
    PrimeFilterProxy Link(Runtime, HomeNode);
    if (Error E = Link.bind(Class, Cursor))
      co_return E;
    ErrorOr<std::vector<int32_t>> Stored = co_await Link.primes();
    if (!Stored)
      co_return Stored.error();
    Result.Primes.insert(Result.Primes.end(), Stored->begin(), Stored->end());
    ++Result.FilterCount;
    ErrorOr<ParallelRef> NextRef = co_await Link.nextRef();
    if (!NextRef)
      co_return NextRef.error();
    Cursor = *NextRef;
  }
  co_return Result;
}

SequentialSieveResult parcs::apps::sieve::sequentialSieve(const SieveJob &Job,
                                                          vm::VmKind Vm) {
  SequentialSieveResult Out;
  for (int32_t N = 2; N <= Job.MaxN; ++N) {
    bool Composite = false;
    for (int32_t P : Out.Primes) {
      ++Out.Tests;
      if (static_cast<int64_t>(P) * P > N)
        break;
      if (N % P == 0) {
        Composite = true;
        break;
      }
    }
    if (!Composite)
      Out.Primes.push_back(N);
  }
  Out.Seconds = static_cast<double>(Out.Tests) * Job.NsPerTest * 1e-9 *
                vm::vmCostModel(Vm).IntMultiplier;
  return Out;
}
