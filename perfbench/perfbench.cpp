//===- perfbench/perfbench.cpp - Repo benchmark driver --------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark (see perfbench/README.md).  One process runs one
/// of the paper's three workloads -- ray_farm (Fig. 9), sieve_pipeline (the
/// A1/A2 sieve, distributed regime) and bulk_pingpong (Fig. 8a/8b + the E3
/// latency rows) -- and reports the host cost of regenerating it:
///
///  - untraced (--trace 0): wall_s, setup_s and peak_rss_mb, medians over
///    repeated passes of the whole workload inside one process;
///  - traced (--trace 1): untraced and span-traced passes interleaved, then
///    one isolated drive per layer that replays the workload's shapes, so
///    each layer's self time is an exact count x an isolated unit cost.
///
/// Every simulation run is verified (checksums, prime lists, byte-compared
/// echoes, pinned virtual times, paper anchors); virtual time is never
/// timed.  The last stdout line is the result JSON.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

// The kernel bench keeps its drivers (benchRawEvents, benchScheduleResume,
// benchRpc, benchTelemetryHook) in an anonymous namespace beside its main().
// Compiling that file into this one, with its main renamed, lets the layer
// stack reuse them instead of copying them.
#define main parcs_sim_kernel_main
#include "sim_kernel.cpp"
#undef main

#include "apps/ray/Farm.h"
#include "apps/sieve/Sieve.h"
#include "mpi/Mpi.h"
#include "serial/Envelope.h"
#include "support/Json.h"
#include "support/Random.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <thread>

namespace {

//===----------------------------------------------------------------------===//
// Statistics, process accounting, result checks
//===----------------------------------------------------------------------===//

/// Median and quartiles, with the same interpolation as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method).
struct Spread {
  size_t N = 0;
  double Median = 0, Q1 = 0, Q3 = 0;
};

Spread spreadOf(std::vector<double> V) {
  Spread S;
  S.N = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  auto At = [&](double P) {
    if (V.size() == 1)
      return V[0];
    double Pos = P * static_cast<double>(V.size() + 1) - 1.0;
    Pos = std::clamp(Pos, 0.0, static_cast<double>(V.size() - 1));
    size_t Lo = static_cast<size_t>(Pos);
    size_t Hi = std::min(Lo + 1, V.size() - 1);
    return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
  };
  S.Median = At(0.5);
  S.Q1 = At(0.25);
  S.Q3 = At(0.75);
  return S;
}

double median(std::vector<double> V) { return spreadOf(std::move(V)).Median; }

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Counts verified simulation runs and remembers why any failed.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Reasons;

  void fail(const std::string &Why) {
    if (Reasons.size() < 20)
      Reasons.push_back(Why);
  }
};

/// Expected virtual time of one simulation run, pinned at the commit that
/// introduced this benchmark.  Virtual time is the paper reproduction
/// itself: a run that lands anywhere else counts as failed.
struct Pin {
  const char *Key;
  int64_t VirtualNs;
};

//===----------------------------------------------------------------------===//
// Spans: the benchmark's own trace, kept in memory, written at exit
//===----------------------------------------------------------------------===//

class SpanLog {
public:
  bool Enabled = false;

  int begin(std::string Name, int Parent = -1) {
    if (!Enabled)
      return -1;
    Spans.push_back({std::move(Name), Parent, Clock.seconds(), 0.0});
    return static_cast<int>(Spans.size()) - 1;
  }
  void end(int Id) {
    if (Id >= 0)
      Spans[static_cast<size_t>(Id)].EndS = Clock.seconds();
  }

  /// [{id, parent, name, start_s, end_s, self_s}]; self time is the
  /// duration minus what the span's children cover.
  std::string json() const {
    std::vector<double> ChildS(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildS[static_cast<size_t>(S.Parent)] += S.EndS - S.StartS;
    std::string Out = "[";
    char Buf[256];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                    "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}",
                    I ? "," : "", I, S.Parent, S.Name.c_str(), S.StartS,
                    S.EndS, S.EndS - S.StartS - ChildS[I]);
      Out += Buf;
    }
    return Out + "\n]\n";
  }

private:
  struct Span {
    std::string Name;
    int Parent;
    double StartS, EndS;
  };
  WallTimer Clock;
  std::vector<Span> Spans;
};

SpanLog Spans;

/// RAII span around one call into the program.
struct SpanScope {
  int Id;
  SpanScope(std::string Name, int Parent = -1)
      : Id(Spans.begin(std::move(Name), Parent)) {}
  ~SpanScope() { Spans.end(Id); }
};

//===----------------------------------------------------------------------===//
// Exact work counts: the global metrics registry, folded at teardown
//===----------------------------------------------------------------------===//

using Counts = std::map<std::string, uint64_t>;

/// Every counter currently in metrics::Registry::global().
Counts registryCounters() {
  Counts Out;
  json::Value Doc;
  if (!json::parse(metrics::Registry::global().jsonReport(), Doc))
    return Out;
  if (const json::Value *C = Doc.field("counters"))
    for (const auto &[Name, V] : C->Obj)
      Out[Name] = static_cast<uint64_t>(V.Num);
  return Out;
}

uint64_t get(const Counts &C, const std::string &Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

/// Sum of the per-stack remoting counters rpc.<stack>.<Field>, restricted
/// to stacks whose slug does (\p Http) or does not contain "http".
uint64_t rpcSum(const Counts &C, std::string_view Field, bool Http) {
  uint64_t Sum = 0;
  for (const auto &[Name, V] : C) {
    if (Name.rfind("rpc.", 0) != 0 || Name.size() <= Field.size() + 1 ||
        Name.compare(Name.size() - Field.size(), Field.size(), Field) != 0 ||
        Name[Name.size() - Field.size() - 1] != '.')
      continue;
    if ((Name.find("http") != std::string::npos) == Http)
      Sum += V;
  }
  return Sum;
}

/// Clears every per-process recording so the next counts belong to one
/// pass (or one drive) alone.
void resetRecording() {
  metrics::Registry::global().reset();
  trace::reset();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One workload: a set-up phase (references, inputs) and a list of
/// simulation runs that together regenerate one paper artefact.  run()
/// verifies its own result and reports the run's virtual time;
/// checkAnchors() applies the cross-run paper anchors after a pass.
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  virtual void setup(uint64_t Seed) = 0;
  virtual size_t runCount() const = 0;
  virtual std::string runKey(size_t I) const = 0;
  /// Runs simulation \p I; returns false (and says why) on a wrong result.
  virtual bool run(size_t I, int64_t &VirtualNs, std::string &Why) = 0;
  /// Marks runs that break a cross-run anchor in \p Ok.
  virtual void checkAnchors(std::vector<bool> &Ok, Tally &T) {
    (void)Ok;
    (void)T;
  }
  /// The run repeated with the program trace recorder on and off.
  virtual size_t probeRun() const = 0;
  virtual std::span<const Pin> pins() const = 0;
};

//--- ray_farm ---------------------------------------------------------------//

const Pin RayPins[] = {
#include "pins_ray_farm.inc"
};

class RayFarm : public Workload {
public:
  const char *name() const override { return "ray_farm"; }

  void setup(uint64_t) override {
    auto NewJob = std::make_shared<apps::ray::RayJob>();
    NewJob->SceneData = apps::ray::Scene::javaGrande(4);
    NewJob->Width = 500;
    NewJob->Height = 500;
    NewJob->LinesPerTask = 25;
    NewJob->NsPerOp = apps::ray::calibrateNsPerOp(
        NewJob->SceneData, NewJob->Width, NewJob->Height, 100.0);
    Reference = apps::ray::sequentialRender(*NewJob, vm::VmKind::SunJvm142);
    Job = std::move(NewJob);
    ElapsedNs.assign(runCount(), 0);
  }

  // Runs 2P-2 / 2P-1: the ParC# (SCOOPP over Mono Tcp) and Java RMI farms
  // at P processors, P = 1..6.
  size_t runCount() const override { return 12; }
  std::string runKey(size_t I) const override {
    return std::string(I % 2 ? "rmi" : "parcs") + ".P" +
           std::to_string(I / 2 + 1);
  }
  size_t probeRun() const override { return 6; } // ParC# at P=4.

  bool run(size_t I, int64_t &VirtualNs, std::string &Why) override {
    apps::ray::FarmConfig Config;
    Config.Processors = static_cast<int>(I / 2) + 1;
    apps::ray::FarmResult R = I % 2 ? apps::ray::runRmiRayFarm(Job, Config)
                                    : apps::ray::runScooppRayFarm(Job, Config);
    VirtualNs = ElapsedNs[I] = R.Elapsed.nanosecondsCount();
    if (!R.Complete || R.Checksum != Reference.Checksum) {
      Why = "checksum differs from sequentialRender";
      return false;
    }
    return true;
  }

  void checkAnchors(std::vector<bool> &Ok, Tally &T) override {
    for (size_t P = 0; P < 6; ++P) {
      double Ratio = static_cast<double>(ElapsedNs[2 * P]) /
                     static_cast<double>(ElapsedNs[2 * P + 1]);
      if (fmt(Ratio, 2) != "1.40") {
        Ok[2 * P] = Ok[2 * P + 1] = false;
        T.fail("ParC#/RMI ratio " + fmt(Ratio, 3) + " != 1.40 at P=" +
               std::to_string(P + 1));
      }
    }
  }

  std::span<const Pin> pins() const override { return RayPins; }

private:
  std::shared_ptr<const apps::ray::RayJob> Job;
  apps::ray::SequentialResult Reference;
  std::vector<int64_t> ElapsedNs;
};

//--- sieve_pipeline ---------------------------------------------------------//

const Pin SievePins[] = {
#include "pins_sieve_pipeline.inc"
};

/// The distributed regime: no agglomeration, one call per message or a low
/// aggregation factor, so every candidate batch is a remote async call.
struct SieveShape {
  int Capacity;
  int Factor;
};
constexpr SieveShape SieveShapes[] = {
    // A2 capacity sweep, distributed regime (aggregation off).
    {2, 1}, {4, 1}, {8, 1}, {16, 1}, {32, 1}, {64, 1},
    // A1 low aggregation factors.
    {16, 2}, {16, 4}};

class SievePipeline : public Workload {
public:
  const char *name() const override { return "sieve_pipeline"; }

  void setup(uint64_t) override {
    Jobs.clear();
    for (const SieveShape &S : SieveShapes) {
      auto Job = std::make_shared<apps::sieve::SieveJob>();
      Job->MaxN = 4000;
      Job->FilterCapacity = S.Capacity;
      Job->BatchSize = 8;
      Jobs.push_back(std::move(Job));
    }
    Expected = apps::sieve::sequentialSieve(*Jobs[0], vm::VmKind::SunJvm142)
                   .Primes;
  }

  size_t runCount() const override { return std::size(SieveShapes); }
  std::string runKey(size_t I) const override {
    return "cap" + std::to_string(SieveShapes[I].Capacity) + ".f" +
           std::to_string(SieveShapes[I].Factor);
  }
  size_t probeRun() const override { return 2; }

  bool run(size_t I, int64_t &VirtualNs, std::string &Why) override {
    vm::Cluster Machines(3, vm::VmKind::MonoVm117);
    net::Network Net(Machines.sim(), Machines.nodeCount());
    scoopp::ParallelClassRegistry Registry;
    apps::sieve::registerSieveClasses(Registry, Jobs[I]);
    scoopp::ScooppConfig Config;
    Config.Grain.MaxCallsPerMessage = SieveShapes[I].Factor;
    scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry), Config);

    struct Driver {
      static sim::Task<void>
      run(scoopp::ScooppRuntime &Runtime,
          std::shared_ptr<const apps::sieve::SieveJob> Job,
          std::vector<int32_t> &Primes, int64_t &VirtualNs, bool &Done) {
        sim::SimTime Start = Runtime.sim().now();
        auto Result = co_await apps::sieve::runSievePipeline(Runtime, 0, Job);
        VirtualNs = (Runtime.sim().now() - Start).nanosecondsCount();
        if (Result) {
          Primes = std::move(Result->Primes);
          Done = true;
        }
      }
    };
    std::vector<int32_t> Primes;
    bool Done = false;
    Machines.sim().spawn(
        Driver::run(Runtime, Jobs[I], Primes, VirtualNs, Done));
    Machines.sim().run();
    if (!Done || Primes != Expected) {
      Why = "primes differ from sequentialSieve";
      return false;
    }
    return true;
  }

  std::span<const Pin> pins() const override { return SievePins; }

private:
  std::vector<std::shared_ptr<const apps::sieve::SieveJob>> Jobs;
  std::vector<int32_t> Expected;
};

//--- bulk_pingpong ----------------------------------------------------------//

const Pin BulkPins[] = {
#include "pins_bulk_pingpong.inc"
};

/// Echo object: decodes the int array and encodes it back, the work the
/// paper's remote "echo" method does.
class IntArrayEcho : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    std::vector<int32_t> Payload;
    if (!serial::decodeValues(Args, Payload))
      co_return Error(ErrorCode::MalformedMessage, "echo args");
    co_return serial::encodeValues(Payload);
  }
};

enum class Transport { Mpi, Rmi, MonoTcp117, MonoTcp105, MonoHttp117 };

struct BulkShape {
  Transport Via;
  size_t Bytes;
  int Rounds;
  const char *Label;
};

const char *transportName(Transport T) {
  switch (T) {
  case Transport::Mpi:
    return "mpi";
  case Transport::Rmi:
    return "rmi";
  case Transport::MonoTcp117:
    return "mono117tcp";
  case Transport::MonoTcp105:
    return "mono105tcp";
  case Transport::MonoHttp117:
    return "mono117http";
  }
  return "?";
}

class BulkPingPong : public Workload {
public:
  BulkPingPong() {
    // Fig. 8a (MPI, RMI, Mono 1.1.7 Tcp) and 8b (Mono 1.0.5 Tcp, 1.1.7
    // Http) at the paper's sizes, 10 rounds each as the figure benches
    // run them; then the E3 rows: one int, 100 rounds.
    for (Transport T : {Transport::Mpi, Transport::Rmi, Transport::MonoTcp117,
                        Transport::MonoTcp105, Transport::MonoHttp117})
      for (size_t Size : fig8MessageSizes())
        Shapes.push_back({T, Size, 10, nullptr});
    Shapes.push_back({Transport::Mpi, 4, 100, "e3"});
    Shapes.push_back({Transport::MonoTcp117, 4, 100, "e3"});
    Shapes.push_back({Transport::Rmi, 4, 100, "e3"});
  }

  const char *name() const override { return "bulk_pingpong"; }

  /// Seeded int arrays per size, shared by every transport.
  void setup(uint64_t Seed) override {
    parcs::Rng R(Seed);
    Payloads.clear();
    for (const BulkShape &S : Shapes) {
      if (Payloads.count(S.Bytes))
        continue;
      std::vector<int32_t> Ints(S.Bytes / sizeof(int32_t));
      for (int32_t &V : Ints)
        V = static_cast<int32_t>(R.next());
      Payloads[S.Bytes] = std::move(Ints);
    }
    OneWayUs.assign(Shapes.size(), 0.0);
  }

  size_t runCount() const override { return Shapes.size(); }
  std::string runKey(size_t I) const override {
    const BulkShape &S = Shapes[I];
    return std::string(S.Label ? S.Label : transportName(S.Via)) +
           (S.Label ? std::string(".") + transportName(S.Via) : "") + "." +
           sizeLabel(S.Bytes);
  }
  size_t probeRun() const override { return 2 * 8 + 5; } // Mono Tcp, 64 KB.

  bool run(size_t I, int64_t &VirtualNs, std::string &Why) override {
    const BulkShape &S = Shapes[I];
    const std::vector<int32_t> &Payload = Payloads.at(S.Bytes);
    uint64_t Mismatches = S.Via == Transport::Mpi
                              ? runMpi(Payload, S.Rounds, VirtualNs)
                              : runRemoting(S.Via, Payload, S.Rounds,
                                            VirtualNs);
    // Same arithmetic as apps/pingpong, so anchors round as the paper
    // tables print them.
    OneWayUs[I] = sim::SimTime::nanoseconds(VirtualNs).toSecondsF() /
                  (2.0 * S.Rounds) * 1e6;
    if (Mismatches != 0) {
      Why = std::to_string(Mismatches) + " echoes differ from what was sent";
      return false;
    }
    return true;
  }

  void checkAnchors(std::vector<bool> &Ok, Tally &T) override {
    // E3: the calibrated one-way latencies, as EXPERIMENTS.md prints them.
    const std::pair<Transport, double> E3[] = {{Transport::Mpi, 100.7},
                                               {Transport::MonoTcp117, 273.7},
                                               {Transport::Rmi, 520.7}};
    for (const auto &[Via, Us] : E3) {
      size_t I = find(Via, 4, 100);
      if (fmt(OneWayUs[I], 1) != fmt(Us, 1)) {
        Ok[I] = false;
        T.fail("E3 " + std::string(transportName(Via)) + " latency " +
               fmt(OneWayUs[I], 2) + " us != " + fmt(Us, 1));
      }
    }
    // Fig. 8a: Mono's lower per-call cost wins at 4 KB, Java's cheaper
    // serialisation wins from 16 KB.
    size_t Mono4 = find(Transport::MonoTcp117, 4096, 10);
    size_t Rmi4 = find(Transport::Rmi, 4096, 10);
    size_t Mono16 = find(Transport::MonoTcp117, 16384, 10);
    size_t Rmi16 = find(Transport::Rmi, 16384, 10);
    if (!(OneWayUs[Mono4] < OneWayUs[Rmi4] &&
          OneWayUs[Mono16] > OneWayUs[Rmi16])) {
      Ok[Mono4] = Ok[Rmi4] = Ok[Mono16] = Ok[Rmi16] = false;
      T.fail("Mono/RMI crossover not between 4 KB and 16 KB");
    }
  }

  std::span<const Pin> pins() const override { return BulkPins; }

private:
  size_t find(Transport Via, size_t Bytes, int Rounds) const {
    for (size_t I = 0; I < Shapes.size(); ++I)
      if (Shapes[I].Via == Via && Shapes[I].Bytes == Bytes &&
          Shapes[I].Rounds == Rounds)
        return I;
    assert(false && "no such bulk shape");
    return 0;
  }

  /// The remoting ping-pong of apps/pingpong (one warm-up round, then
  /// \p Rounds timed ones) with every reply byte-compared to its request.
  static uint64_t runRemoting(Transport Via,
                              const std::vector<int32_t> &Payload, int Rounds,
                              int64_t &VirtualNs) {
    remoting::StackKind Stack = remoting::StackKind::MonoRemotingTcp117;
    vm::VmKind Vm = vm::VmKind::MonoVm117;
    if (Via == Transport::Rmi) {
      Stack = remoting::StackKind::JavaRmi;
      Vm = vm::VmKind::SunJvm142;
    } else if (Via == Transport::MonoTcp105) {
      Stack = remoting::StackKind::MonoRemotingTcp105;
      Vm = vm::VmKind::MonoVm105;
    } else if (Via == Transport::MonoHttp117) {
      Stack = remoting::StackKind::MonoRemotingHttp117;
    }
    vm::Cluster Machines(2, Vm);
    net::Network Net(Machines.sim(), 2);
    remoting::RpcEndpoint Client(Machines.node(0), Net,
                                 remoting::stackProfile(Stack), 1050);
    remoting::RpcEndpoint Server(Machines.node(1), Net,
                                 remoting::stackProfile(Stack), 1050);
    Server.publish("echo", std::make_shared<IntArrayEcho>());

    struct Driver {
      static sim::Task<void> run(remoting::RpcEndpoint &Client,
                                 const std::vector<int32_t> &Payload,
                                 int Rounds, int64_t &VirtualNs,
                                 uint64_t &Mismatches) {
        remoting::RemoteHandle Handle(Client, 1, 1050, "echo");
        sim::Simulator &Sim = Client.node().sim();
        sim::SimTime Start;
        for (int I = 0; I <= Rounds; ++I) {
          if (I == 1)
            Start = Sim.now(); // Round 0 is the warm-up.
          Bytes Args = serial::encodeValues(Payload);
          ErrorOr<Bytes> Reply = co_await Handle.invoke("echo", Args);
          if (!Reply || *Reply != Args)
            ++Mismatches;
        }
        VirtualNs = (Sim.now() - Start).nanosecondsCount();
      }
    };
    uint64_t Mismatches = 0;
    Machines.sim().spawn(
        Driver::run(Client, Payload, Rounds, VirtualNs, Mismatches));
    Machines.sim().run();
    return Mismatches;
  }

  /// The MPI ping-pong of apps/pingpong (explicitly packed buffer, one
  /// warm-up round) with every echoed buffer byte-compared.
  static uint64_t runMpi(const std::vector<int32_t> &Payload, int Rounds,
                         int64_t &VirtualNs) {
    vm::Cluster Machines(2, vm::VmKind::NativeCpp);
    net::Network Net(Machines.sim(), 2);
    mpi::MpiWorld World(Machines, Net, /*TotalRanks=*/2, /*RanksPerNode=*/1);
    uint64_t Mismatches = 0;
    World.launch([&Payload, Rounds, &VirtualNs,
                  &Mismatches](mpi::MpiComm Comm) -> sim::Task<void> {
      serial::OutputArchive Packed;
      for (int32_t V : Payload)
        Packed.write(V);
      mpi::Bytes Buffer = Packed.take();
      if (Comm.rank() == 0) {
        sim::Simulator &Sim = Comm.node().sim();
        sim::SimTime Start;
        for (int I = 0; I <= Rounds; ++I) {
          if (I == 1)
            Start = Sim.now();
          co_await Comm.send(1, 0, Buffer);
          mpi::RecvResult Back = co_await Comm.recv(1, 0);
          if (Back.Data != Buffer)
            ++Mismatches;
        }
        VirtualNs = (Sim.now() - Start).nanosecondsCount();
      } else {
        for (int I = 0; I <= Rounds; ++I) {
          mpi::RecvResult In = co_await Comm.recv(0, 0);
          co_await Comm.send(0, 0, std::move(In.Data));
        }
      }
    });
    Machines.sim().run();
    return Mismatches;
  }

  std::vector<BulkShape> Shapes;
  std::map<size_t, std::vector<int32_t>> Payloads;
  std::vector<double> OneWayUs;
};

std::unique_ptr<Workload> makeWorkload(std::string_view Name) {
  if (Name == "ray_farm")
    return std::make_unique<RayFarm>();
  if (Name == "sieve_pipeline")
    return std::make_unique<SievePipeline>();
  if (Name == "bulk_pingpong")
    return std::make_unique<BulkPingPong>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

struct PassResult {
  double WallS = 0;
  double CpuS = 0;
  Counts Work;
};

/// Runs and verifies one simulation run; false when its result or (with
/// \p CheckPin) its pinned virtual time is wrong.
bool verifiedRun(Workload &W, size_t I, Tally &T, bool CheckPin = true) {
  int64_t VirtualNs = -1;
  std::string Why;
  bool Ok = W.run(I, VirtualNs, Why);
  std::string Key = W.runKey(I);
  std::span<const Pin> Pins = W.pins();
  auto Found = std::find_if(Pins.begin(), Pins.end(),
                            [&](const Pin &P) { return Key == P.Key; });
  if (CheckPin && (Found == Pins.end() || Found->VirtualNs != VirtualNs)) {
    Ok = false;
    Why += (Why.empty() ? "" : "; ") + std::string("virtual time ") +
           std::to_string(VirtualNs) + " ns, pinned " +
           (Found == Pins.end() ? std::string("nothing")
                                : std::to_string(Found->VirtualNs));
  }
  if (!Ok)
    T.fail(std::string(W.name()) + "/" + Key + ": " + Why);
  return Ok;
}

/// One pass: every simulation run of the workload once, in a seeded order,
/// verified.  Counts are the registry's view of exactly this pass.
PassResult runPass(Workload &W, uint64_t Seed, uint64_t PassNo, Tally &T) {
  std::vector<size_t> Order(W.runCount());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  parcs::Rng R(Seed * 0x9e3779b97f4a7c15ULL + PassNo);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);

  resetRecording();
  std::vector<bool> Ok(W.runCount(), true);
  SpanScope Pass("pass");
  double Cpu0 = cpuSeconds();
  WallTimer Timer;
  for (size_t I : Order) {
    SpanScope Run("run." + W.runKey(I), Pass.Id);
    Ok[I] = verifiedRun(W, I, T);
  }
  PassResult P;
  P.WallS = Timer.seconds();
  P.CpuS = cpuSeconds() - Cpu0;
  W.checkAnchors(Ok, T);
  T.Attempted += Ok.size();
  T.Failed += static_cast<uint64_t>(std::count(Ok.begin(), Ok.end(), false));
  P.Work = registryCounters();
  return P;
}

//===----------------------------------------------------------------------===//
// Layer drives: each replays the workload's shapes against one layer's
// public functions; unit costs exclude the layers below, priced by the
// drive's own exact counts.
//===----------------------------------------------------------------------===//

/// Isolated unit costs, filled bottom-up.
struct UnitCosts {
  double CallbackNs = 0, ResumeNs = 0; // sim
  double EncodeNsPerKb = 0, DecodeNsPerKb = 0; // serial
  double NetNsPerMessage = 0, NetEventsPerMessage = 0; // net
  double FrameNsBinary = 0, FrameNsSoap = 0; // remoting framing, workload size
  double Frame64NsBinary = 0, Frame64NsSoap = 0; // ... at the echo's 64 B
  double CallNsTcp = 0, CallNsHttp = 0; // full-path echo call
  double DispatchNsTcp = 0, DispatchNsHttp = 0; // remoting's own share
  double AsyncCallNs = 0; // core
  double LineNs = 0, OpsPerLine = 0; // apps.ray

  /// Kernel ns per event for the callback/resume mix in \p C.
  double nsPerEvent(const Counts &C) const {
    double Cb = static_cast<double>(get(C, "sim.callback_events"));
    double Res = static_cast<double>(get(C, "sim.resume_events"));
    return Cb + Res > 0 ? (Cb * CallbackNs + Res * ResumeNs) / (Cb + Res)
                        : 0.0;
  }

  /// Kernel ns for the events in \p C that the fabric did not cause (the
  /// fabric's own events are inside NetNsPerMessage).
  double simNs(const Counts &C) const {
    double Events = static_cast<double>(get(C, "sim.events")) -
                    static_cast<double>(get(C, "net.messages_delivered")) *
                        NetEventsPerMessage;
    return std::max(0.0, Events) * nsPerEvent(C);
  }

  /// Host ns the layers below remoting spend on the work in \p C.
  double lowerNs(const Counts &C) const {
    return simNs(C) +
           static_cast<double>(get(C, "net.messages_delivered")) *
               NetNsPerMessage +
           static_cast<double>(get(C, "net.payload_bytes")) / 1024.0 *
               (EncodeNsPerKb + DecodeNsPerKb);
  }
};

/// Repeat count for a drive (tiny mode runs each once).
int Reps = 3;
/// Scales drive iteration counts (tiny mode shrinks them).
uint64_t DriveScale = 1;

uint64_t scaled(uint64_t N) { return std::max<uint64_t>(N / DriveScale, 1); }

void driveSim(UnitCosts &U, int Parent) {
  SpanScope S("drive.sim", Parent);
  std::vector<double> Cb, Res;
  for (int R = 0; R < Reps; ++R) {
    Cb.push_back(1e9 / benchRawEvents(scaled(1'000'000)));
    Res.push_back(1e9 / benchScheduleResume(scaled(1'000'000)));
  }
  U.CallbackNs = median(Cb);
  U.ResumeNs = median(Res);
}

/// Encodes/decodes int arrays of the workload's mean message size.
void driveSerial(UnitCosts &U, size_t MeanBytes, int Parent) {
  SpanScope S("drive.serial", Parent);
  parcs::Rng R(7);
  std::vector<int32_t> Ints(std::max<size_t>(MeanBytes / 4, 1));
  for (int32_t &V : Ints)
    V = static_cast<int32_t>(R.next());
  size_t Iters = std::max<size_t>(scaled(32u << 20) / (Ints.size() * 4), 8);
  std::vector<double> Enc, Dec;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Bytes Encoded;
    size_t Sink = 0;
    WallTimer T;
    for (size_t I = 0; I < Iters; ++I) {
      Encoded = serial::encodeValues(Ints);
      Sink += Encoded.size();
    }
    double EncS = T.seconds();
    std::vector<int32_t> Back;
    T.restart();
    for (size_t I = 0; I < Iters; ++I)
      if (!serial::decodeValues(Encoded, Back))
        Sink = 0;
    double DecS = T.seconds();
    if (Back != Ints || Sink == 0) {
      std::fprintf(stderr, "perfbench: serial round trip failed\n");
      std::exit(1);
    }
    double Kb = static_cast<double>(Encoded.size() * Iters) / 1024.0;
    Enc.push_back(EncS * 1e9 / Kb);
    Dec.push_back(DecS * 1e9 / Kb);
  }
  U.EncodeNsPerKb = median(Enc);
  U.DecodeNsPerKb = median(Dec);
}

/// Sends messages of the workload's mean size across a two-node fabric,
/// one in flight, reusing the delivered buffer (no payload copies).  The
/// unit cost includes the kernel events each transfer needs.
void driveNet(UnitCosts &U, size_t MeanBytes, int Parent) {
  SpanScope S("drive.net", Parent);
  uint64_t Messages = scaled(50'000);
  std::vector<double> Ns;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    resetRecording();
    WallTimer T;
    {
      vm::Cluster Machines(2, vm::VmKind::MonoVm117);
      net::Network Net(Machines.sim(), 2);
      sim::Channel<net::Message> &Inbox = Net.bind(1, 7000);
      struct Driver {
        static sim::Task<void> run(net::Network &Net,
                                   sim::Channel<net::Message> &Inbox,
                                   size_t Bytes, uint64_t Messages) {
          std::vector<uint8_t> Payload(Bytes, 0x5a);
          for (uint64_t I = 0; I < Messages; ++I) {
            Net.send(0, 1, 7000, std::move(Payload));
            net::Message In = co_await Inbox.recv();
            Payload = std::move(In.Payload);
          }
        }
      };
      Machines.sim().spawn(Driver::run(Net, Inbox, MeanBytes, Messages));
      Machines.sim().run();
    }
    double Secs = T.seconds();
    Counts C = registryCounters();
    if (get(C, "net.messages_delivered") != Messages) {
      std::fprintf(stderr, "perfbench: net drive lost messages\n");
      std::exit(1);
    }
    Ns.push_back(Secs * 1e9 / static_cast<double>(Messages));
    U.NetEventsPerMessage = static_cast<double>(get(C, "sim.events")) /
                            static_cast<double>(Messages);
  }
  U.NetNsPerMessage = median(Ns);
}

/// ns to frame and unframe one envelope of \p Bytes payload.
double frameNs(serial::WireFormat Format, size_t PayloadBytes) {
  Bytes Payload(PayloadBytes, 0x33);
  size_t Iters =
      std::max<size_t>(scaled(16u << 20) / std::max<size_t>(PayloadBytes, 64),
                       16);
  std::vector<double> Ns;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    size_t Sink = 0;
    WallTimer T;
    for (size_t I = 0; I < Iters; ++I) {
      Bytes Wire = serial::encodeEnvelope(Format, "echo", Payload);
      ErrorOr<serial::Envelope> Back = serial::decodeEnvelope(Format, Wire);
      Sink += Back ? Back->Payload.size() : 0;
    }
    double Secs = T.seconds();
    if (Sink != Iters * PayloadBytes) {
      std::fprintf(stderr, "perfbench: envelope round trip failed\n");
      std::exit(1);
    }
    Ns.push_back(Secs * 1e9 / static_cast<double>(Iters));
  }
  return median(Ns);
}

/// The kernel bench's echo RPC on \p Stack: full-path ns per call, and the
/// share left to remoting once the lower layers' exact work is priced.
void driveRpc(remoting::StackKind Stack, double Frame64Ns, double &CallNs,
              double &DispatchNs, const UnitCosts &U) {
  uint64_t Calls = scaled(20'000);
  std::vector<double> Full, Own;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    resetRecording();
    double CallsPerSec = benchRpc(Stack, Calls).CallsPerSec;
    Counts C = registryCounters();
    double PerCall = 1e9 / CallsPerSec;
    Full.push_back(PerCall);
    Own.push_back(std::max(0.0, PerCall - U.lowerNs(C) /
                                              static_cast<double>(Calls) -
                                    2 * Frame64Ns));
  }
  CallNs = median(Full);
  DispatchNs = median(Own);
}

/// Trivial parallel object for the proxy drive.
class NullSink : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &) override {
    co_return Bytes{};
  }
};

/// Asynchronous calls through a SCOOPP proxy to a remote object, shaped
/// like a sieve batch (sequence number + 8 ints), one call per message.
void driveCore(UnitCosts &U, int Parent) {
  SpanScope S("drive.core", Parent);
  uint64_t Calls = scaled(20'000);
  std::vector<double> Ns;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    resetRecording();
    WallTimer T;
    {
      vm::Cluster Machines(2, vm::VmKind::MonoVm117);
      net::Network Net(Machines.sim(), 2);
      scoopp::ParallelClassRegistry Registry;
      Registry.registerClass(
          {"NullSink", [](scoopp::ScooppRuntime &, vm::Node &)
                           -> std::shared_ptr<remoting::CallHandler> {
             return std::make_shared<NullSink>();
           }});
      scoopp::ScooppRuntime Runtime(Machines, Net, std::move(Registry));
      struct Driver {
        static sim::Task<void> run(scoopp::ScooppRuntime &Runtime,
                                   uint64_t Calls) {
          // Placement is round-robin: keep creating until one is remote.
          std::vector<std::unique_ptr<scoopp::ProxyBase>> Proxies;
          scoopp::ProxyBase *Remote = nullptr;
          for (int I = 0; I < 4 && !Remote; ++I) {
            Proxies.push_back(std::make_unique<scoopp::ProxyBase>(Runtime, 0));
            if (!co_await Proxies.back()->create("NullSink") &&
                !Proxies.back()->isLocal())
              Remote = Proxies.back().get();
          }
          if (!Remote)
            co_return;
          std::vector<int32_t> Batch(8, 17);
          for (uint64_t I = 0; I < Calls; ++I)
            co_await Remote->invokeAsync(
                "process",
                serial::encodeValues(static_cast<int32_t>(I), Batch));
        }
      };
      Machines.sim().spawn(Driver::run(Runtime, Calls));
      Machines.sim().run();
    }
    double Secs = T.seconds();
    Counts C = registryCounters();
    if (get(C, "scoopp.remote_async_calls") != Calls) {
      std::fprintf(stderr, "perfbench: proxy drive issued %llu of %llu "
                           "remote async calls\n",
                   static_cast<unsigned long long>(
                       get(C, "scoopp.remote_async_calls")),
                   static_cast<unsigned long long>(Calls));
      std::exit(1);
    }
    double Lower = U.lowerNs(C) +
                   static_cast<double>(rpcSum(C, "calls_issued", false) +
                                       rpcSum(C, "oneway_sent", false)) *
                       U.DispatchNsTcp;
    Ns.push_back(std::max(0.0, (Secs * 1e9 - Lower) /
                                   static_cast<double>(Calls)));
  }
  U.AsyncCallNs = median(Ns);
}

/// Renders the workload's lines of the Fig. 9 scene (every line for
/// ray_farm; a sample of 50 elsewhere, so the unit cost is always known).
void driveRay(UnitCosts &U, bool AllLines, int Parent) {
  SpanScope S("drive.apps.ray", Parent);
  apps::ray::Scene Scene = apps::ray::Scene::javaGrande(4);
  int Step = AllLines ? 1 : 10;
  if (DriveScale > 1)
    Step *= 10;
  std::vector<double> Ns;
  uint64_t Ops = 0, Lines = 0;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Ops = Lines = 0;
    WallTimer T;
    for (int Y = 0; Y < 500; Y += Step) {
      apps::ray::LineResult L = Scene.renderLine(Y, 500, 500);
      Ops += L.Ops;
      ++Lines;
    }
    Ns.push_back(T.seconds() * 1e9 / static_cast<double>(Lines));
  }
  U.LineNs = median(Ns);
  U.OpsPerLine = static_cast<double>(Ops) / static_cast<double>(Lines);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
           jsonNumber(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  return Out + "}";
}

std::string spreadJson(const Spread &S) {
  return "{\"n\": " + std::to_string(S.N) + ", \"median\": " +
         jsonNumber(S.Median) + ", \"q1\": " + jsonNumber(S.Q1) +
         ", \"q3\": " + jsonNumber(S.Q3) + "}";
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  bool Tiny = false;
  std::string SpansOut;
  std::string SourceId = "unknown";
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{ray_farm|sieve_pipeline|bulk_pingpong} --seed N --seconds S "
               "--trace {0|1} [--tiny] [--spans-out FILE] [--source-id ID]\n",
               Why);
  return 2;
}

/// Environment knobs that change the program's host cost.
constexpr const char *CostKnobs[] = {"PARCS_TRACE",     "PARCS_METRICS",
                                     "PARCS_TELEMETRY", "PARCS_LOG",
                                     "PARCS_SIM_THREADS", "PARCS_MODEL"};

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--workload" && HasValue)
      O.Workload = Argv[++I];
    else if (A == "--seed" && HasValue)
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      O.Seconds = std::atof(Argv[++I]);
    else if (A == "--trace" && HasValue)
      O.Traced = std::string_view(Argv[++I]) == "1";
    else if (A == "--tiny")
      O.Tiny = true;
    else if (A == "--spans-out" && HasValue)
      O.SpansOut = Argv[++I];
    else if (A == "--source-id" && HasValue)
      O.SourceId = Argv[++I];
    else
      return usage(("unknown argument '" + std::string(A) + "'").c_str());
  }
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    return usage("unknown or missing --workload");
  if (!(O.Seconds > 0) || O.Seconds > 120)
    return usage("--seconds must be in (0, 120]");
  for (const char *Knob : CostKnobs)
    if (const char *V = std::getenv(Knob); V && *V) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "program's host cost\n",
                   Knob);
      return 2;
    }
  if (O.Tiny) {
    Reps = 1;
    DriveScale = 20;
  }

  Tally T;

  // Set-up, repeated: its median is setup_s.  Cheap set-ups repeat until
  // they fill a second, so the median is not one page fault's worth.
  std::vector<double> SetupS;
  {
    WallTimer Total;
    size_t MaxReps = O.Tiny ? 1 : 5000;
    do {
      WallTimer One;
      W->setup(O.Seed);
      SetupS.push_back(One.seconds());
    } while (SetupS.size() < MaxReps &&
             (SetupS.size() < 5 || Total.seconds() < 1.0));
  }

  // Warm-up pass: verified, not timed.
  uint64_t PassNo = 0;
  PassResult Ref = runPass(*W, O.Seed, PassNo++, T);

  std::vector<double> WallS, CpuS, TracedS;
  int MinPasses = O.Tiny ? 1 : 3;
  WallTimer Budget;
  bool CountsRepeat = true;
  while (static_cast<int>(WallS.size()) < MinPasses ||
         Budget.seconds() < O.Seconds) {
    // Traced mode interleaves untraced and span-traced passes, flipping
    // which goes first each pair.
    bool TracedFirst = O.Traced && WallS.size() % 2 == 1;
    for (int Half = 0; Half < (O.Traced ? 2 : 1); ++Half) {
      bool WithSpans = O.Traced && ((Half == 0) == TracedFirst);
      Spans.Enabled = WithSpans;
      PassResult P = runPass(*W, O.Seed, PassNo++, T);
      Spans.Enabled = false;
      CountsRepeat = CountsRepeat && P.Work == Ref.Work;
      if (WithSpans) {
        TracedS.push_back(P.WallS);
      } else {
        WallS.push_back(P.WallS);
        CpuS.push_back(P.CpuS);
      }
    }
    if (WallS.size() >= 1000)
      break;
  }
  if (!CountsRepeat) {
    ++T.Failed;
    T.fail("exact work counts differ between passes");
  }

  Spread Wall = spreadOf(WallS), Setup = spreadOf(SetupS);
  std::vector<Metric> Out;
  std::string Extra;

  if (!O.Traced) {
    Out = {{"wall_s", Wall.Median, "s"},
           {"setup_s", Setup.Median, "s"},
           {"peak_rss_mb", peakRssMb(), "MB"}};
  } else {
    const Counts &C = Ref.Work;
    UnitCosts U;
    Spans.Enabled = true;
    int Layers = Spans.begin("layers");
    uint64_t NetMsgs = get(C, "net.messages_delivered");
    uint64_t PayloadBytes = get(C, "net.payload_bytes");
    size_t MeanBytes = NetMsgs ? static_cast<size_t>(PayloadBytes / NetMsgs)
                               : 64;
    driveSim(U, Layers);
    driveSerial(U, MeanBytes, Layers);
    driveNet(U, MeanBytes, Layers);
    {
      SpanScope S("drive.remoting", Layers);
      U.FrameNsBinary = frameNs(serial::WireFormat::NetBinary, MeanBytes);
      U.FrameNsSoap = frameNs(serial::WireFormat::NetSoap, MeanBytes);
      U.Frame64NsBinary = frameNs(serial::WireFormat::NetBinary, 64);
      U.Frame64NsSoap = frameNs(serial::WireFormat::NetSoap, 64);
      driveRpc(remoting::StackKind::MonoRemotingTcp117, U.Frame64NsBinary,
               U.CallNsTcp, U.DispatchNsTcp, U);
      driveRpc(remoting::StackKind::MonoRemotingHttp117, U.Frame64NsSoap,
               U.CallNsHttp, U.DispatchNsHttp, U);
    }
    driveCore(U, Layers);
    driveRay(U, std::string_view(W->name()) == "ray_farm", Layers);
    Spans.end(Layers);

    // Observability costs, each an interleaved same-process ratio.
    std::vector<double> TraceRatio;
    {
      SpanScope S("paired.trace_recorder");
      for (int Rep = 0; Rep < Reps; ++Rep) {
        double Secs[2] = {0, 0}; // [recorder off, recorder on]
        for (int Half = 0; Half < 2; ++Half) {
          bool On = (Half == 0) == (Rep % 2 == 1);
          resetRecording();
          WallTimer Timer;
          {
            std::unique_ptr<TracedRunScope> Recorder;
            if (On)
              Recorder = std::make_unique<TracedRunScope>();
            // The recorder ships causal contexts on the wire, which moves
            // virtual time by design (docs/observability.md): with it on,
            // only the result is checked.
            ++T.Attempted;
            if (!verifiedRun(*W, W->probeRun(), T, /*CheckPin=*/!On))
              ++T.Failed;
          }
          Secs[On] = Timer.seconds();
        }
        TraceRatio.push_back(Secs[1] / Secs[0]);
      }
    }
    std::vector<double> HookNs, PlaneRatio;
    {
      SpanScope S("paired.telemetry");
      for (int Rep = 0; Rep < Reps; ++Rep)
        HookNs.push_back(1e9 / benchTelemetryHook(scaled(20'000'000)));
      uint64_t Calls = scaled(20'000);
      int PlanePairs = O.Tiny ? 1 : 5;
      for (int Rep = 0; Rep < PlanePairs; ++Rep) {
        bool OnFirst = Rep % 2 == 1;
        double First =
            benchRpc(remoting::StackKind::MonoRemotingTcp117, Calls, OnFirst)
                .CallsPerSec;
        double Second =
            benchRpc(remoting::StackKind::MonoRemotingTcp117, Calls, !OnFirst)
                .CallsPerSec;
        PlaneRatio.push_back(OnFirst ? Second / First : First / Second);
      }
    }
    Spans.Enabled = false;

    // Self time per layer: exact count x isolated unit cost.
    auto N = [&](const char *Name) {
      return static_cast<double>(get(C, Name));
    };
    double SimSelf = U.simNs(C) * 1e-9;
    double NetSelf = N("net.messages_delivered") * U.NetNsPerMessage * 1e-9;
    double SerialSelf = N("net.payload_bytes") / 1024.0 *
                        (U.EncodeNsPerKb + U.DecodeNsPerKb) * 1e-9;
    double CallsTcp = static_cast<double>(rpcSum(C, "calls_issued", false) +
                                          rpcSum(C, "oneway_sent", false));
    double CallsHttp = static_cast<double>(rpcSum(C, "calls_issued", true) +
                                           rpcSum(C, "oneway_sent", true));
    // A two-way call frames a request and a reply; a one-way call one.
    double FramesTcp = CallsTcp + static_cast<double>(
                                      rpcSum(C, "calls_issued", false));
    double FramesHttp = CallsHttp + static_cast<double>(
                                        rpcSum(C, "calls_issued", true));
    double RemotingSelf =
        (CallsTcp * U.DispatchNsTcp + CallsHttp * U.DispatchNsHttp +
         FramesTcp * U.FrameNsBinary + FramesHttp * U.FrameNsSoap) *
        1e-9;
    double AsyncCalls = N("scoopp.remote_async_calls");
    double CoreSelf = AsyncCalls * U.AsyncCallNs * 1e-9;
    double Lines = N("ray.lines_rendered");
    double RaySelf = Lines * U.LineNs * 1e-9;
    double Attributed =
        SimSelf + NetSelf + SerialSelf + RemotingSelf + CoreSelf + RaySelf;
    double Events = N("sim.events");
    double PackedCalls = N("scoopp.packed_calls");
    double AsyncMessages =
        AsyncCalls - PackedCalls + N("scoopp.packed_messages");
    double CpuMedian = median(CpuS);

    Out = {
        {"sim.events", Events, "count"},
        {"sim.resume_events", N("sim.resume_events"), "count"},
        {"sim.ns_per_event", U.nsPerEvent(C), "ns"},
        {"sim.self_s", SimSelf, "s"},
        {"net.messages", N("net.messages_delivered"), "count"},
        {"net.frames", N("net.frames"), "count"},
        {"net.wire_bytes", N("net.wire_bytes"), "bytes"},
        {"net.ns_per_message", U.NetNsPerMessage, "ns"},
        {"net.self_s", NetSelf, "s"},
        {"serial.payload_bytes", N("net.payload_bytes"), "bytes"},
        {"serial.encode_ns_per_kb", U.EncodeNsPerKb, "ns/KB"},
        {"serial.decode_ns_per_kb", U.DecodeNsPerKb, "ns/KB"},
        {"serial.self_s", SerialSelf, "s"},
        {"remoting.calls", CallsTcp + CallsHttp, "count"},
        {"remoting.frame_ns.binary", U.FrameNsBinary, "ns"},
        {"remoting.frame_ns.soap", U.FrameNsSoap, "ns"},
        {"remoting.ns_per_call.tcp", U.CallNsTcp, "ns"},
        {"remoting.ns_per_call.http", U.CallNsHttp, "ns"},
        {"remoting.self_s", RemotingSelf, "s"},
        {"core.remote_async_calls", AsyncCalls, "count"},
        {"core.packed_messages", N("scoopp.packed_messages"), "count"},
        {"core.calls_per_message",
         AsyncMessages > 0 ? AsyncCalls / AsyncMessages : 0, "calls/msg"},
        {"core.ns_per_async_call", U.AsyncCallNs, "ns"},
        {"core.self_s", CoreSelf, "s"},
        {"vm.pool_items", N("pool.items_posted"), "count"},
        {"ray.lines", Lines, "count"},
        {"ray.mops", Lines * U.OpsPerLine * 1e-6, "Mop"},
        {"ray.ns_per_line", U.LineNs, "ns"},
        {"ray.self_s", RaySelf, "s"},
        {"trace.on_ratio", median(TraceRatio), "ratio"},
        {"telemetry.hook_off_ns", median(HookNs), "ns"},
        {"telemetry.plane_on_ratio", median(PlaneRatio), "ratio"},
        {"stack.attributed_s", Attributed, "s"},
        {"stack.coverage", Attributed / Wall.Median, "ratio"},
        {"proc.cpu_s", CpuMedian, "s"},
        {"proc.cpu_per_wall", CpuMedian / Wall.Median, "ratio"},
        {"bench.span_overhead_ratio", median(TracedS) / Wall.Median - 1.0,
         "ratio"},
    };
    Extra = ", \"traced_pass_s\": " + spreadJson(spreadOf(TracedS)) +
            ", \"drive_reps\": " + std::to_string(Reps);

    if (!O.SpansOut.empty()) {
      if (FILE *F = std::fopen(O.SpansOut.c_str(), "w")) {
        std::fputs(Spans.json().c_str(), F);
        std::fclose(F);
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     O.SpansOut.c_str());
      }
    }
  }

  for (const std::string &R : T.Reasons)
    std::printf("FAILED: %s\n", R.c_str());
  std::printf("%s: ops=%llu ops_failed=%llu wall_s median=%.4f q1=%.4f "
              "q3=%.4f n=%zu setup_s median=%.4f n=%zu\n",
              W->name(), static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed), Wall.Median, Wall.Q1,
              Wall.Q3, Wall.N, Setup.Median, Setup.N);
  // Run context: enough to compare this result across commits.
#ifdef NDEBUG
  const char *Assertions = "off";
#else
  const char *Assertions = "on";
#endif
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %s, \"nproc\": %u, \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"assertions\": \"%s\", \"source\": \"%s\", "
      "\"ops\": %llu, \"ops_failed\": %llu, \"wall_s\": %s, \"setup_s\": %s, "
      "\"cpu_s\": %s%s}\n",
      W->name(), static_cast<unsigned long long>(O.Seed), O.Seconds,
      O.Traced ? 1 : 0, O.Tiny ? "true" : "false",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      Assertions, O.SourceId.c_str(),
      static_cast<unsigned long long>(T.Attempted),
      static_cast<unsigned long long>(T.Failed), spreadJson(Wall).c_str(),
      spreadJson(Setup).c_str(), spreadJson(spreadOf(CpuS)).c_str(),
      Extra.c_str());
  bool Correct = T.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed),
              metricsJson(Out).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
