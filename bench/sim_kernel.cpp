//===- bench/sim_kernel.cpp - Kernel/message-path throughput (M2) ---------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the raw speed of the substrate everything else in this repo sits
/// on: the discrete-event kernel (events/sec, coroutine resumes/sec) and the
/// remoting message path (RPC frames/sec through the full engine, TCP-binary
/// and HTTP-SOAP stacks).  Every paper figure is generated by millions of
/// these operations, so this bench is the trajectory tracker for kernel
/// optimisation PRs: it writes BENCH_sim_kernel.json next to the binary's
/// working directory for before/after comparison.
///
/// Run with --smoke for a fast correctness pass (the bench_smoke CTest
/// target), in which case no JSON is written.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "net/Network.h"
#include "remoting/Engine.h"
#include "serial/Archive.h"
#include "support/Metrics.h"
#include "telemetry/Telemetry.h"
#include "vm/Cluster.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace parcs;
using namespace parcs::bench;
using serial::Bytes;

namespace {

/// Tiny deterministic RNG for spreading event times (xorshift32).
struct Rng {
  uint32_t State = 0x9e3779b9;
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State;
  }
};

/// \p Sim's scheduler counters as one "name=value ..." line, named like
/// the sim.* metrics they fold into.
std::string counterLine(const sim::Simulator &Sim) {
  const sim::SchedulerCounters &C = Sim.counters();
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "events=%llu callback_events=%llu resume_events=%llu "
                "peak_queue_depth=%llu sbo_misses=%llu nodes_allocated=%llu "
                "overflow_inserts=%llu window_advances=%llu",
                (unsigned long long)Sim.eventsProcessed(),
                (unsigned long long)C.CallbackEvents,
                (unsigned long long)C.ResumeEvents,
                (unsigned long long)C.PeakQueueDepth,
                (unsigned long long)C.SboMisses,
                (unsigned long long)C.NodesAllocated,
                (unsigned long long)C.OverflowInserts,
                (unsigned long long)C.WindowAdvances);
  return Buf;
}

/// Raw event throughput: a self-replenishing population of scheduled
/// callbacks with a representative capture size (pointer + counters) and a
/// mix of zero-delay and short-delay events, mimicking channel wake-ups and
/// cost-model delays.
double benchRawEvents(uint64_t Total) {
  sim::Simulator Sim;
  uint64_t Remaining = Total;
  Rng R;
  WallTimer Timer;
  struct Pump {
    sim::Simulator &Sim;
    uint64_t &Remaining;
    Rng &R;
    void operator()() const {
      if (Remaining == 0)
        return;
      --Remaining;
      // Half the events fire "now" (wake-ups), half a few microseconds out
      // (cost-model delays) so the queue sees realistic time spread.
      uint32_t Roll = R.next();
      sim::SimTime Delay = (Roll & 1)
                               ? sim::SimTime()
                               : sim::SimTime::nanoseconds(Roll % 8192);
      Sim.schedule(Delay, Pump{Sim, Remaining, R});
    }
  };
  constexpr int Population = 64;
  for (int I = 0; I < Population; ++I)
    Sim.schedule(sim::SimTime::nanoseconds(I), Pump{Sim, Remaining, R});
  Sim.run();
  double Secs = Timer.seconds();
  std::printf("  raw-events   %s\n", counterLine(Sim).c_str());
  // The Pump capture fits the inline buffer and the node free list covers
  // the steady-state population: no per-event allocations.
  assert(Sim.counters().SboMisses == 0 && "Pump capture fell off the SBO");
  assert(Sim.counters().NodesAllocated <= 2 * Population &&
         "event nodes not recycled");
  return static_cast<double>(Total) / Secs;
}

/// Coroutine resume throughput: tasks that do nothing but sleep a few
/// nanoseconds of virtual time, i.e. the scheduleResume fast path.
double benchScheduleResume(uint64_t Total) {
  sim::Simulator Sim;
  constexpr int Tasks = 64;
  uint64_t PerTask = Total / Tasks;
  struct Sleeper {
    static sim::Task<void> run(sim::Simulator &Sim, uint64_t Rounds) {
      for (uint64_t I = 0; I < Rounds; ++I)
        co_await Sim.delay(sim::SimTime::nanoseconds(7));
      co_return;
    }
  };
  WallTimer Timer;
  for (int I = 0; I < Tasks; ++I)
    Sim.spawn(Sleeper::run(Sim, PerTask));
  Sim.run();
  double Secs = Timer.seconds();
  std::printf("  resumes      %s\n", counterLine(Sim).c_str());
  // The acceptance bar for the resume fast path: raw coroutine handles in
  // recycled nodes, so a steady-state resume allocates nothing.
  assert(Sim.counters().SboMisses == 0 && "resume path took the SBO path?");
  assert(Sim.counters().NodesAllocated <= 2 * Tasks &&
         "resume nodes not recycled");
  return static_cast<double>(PerTask * Tasks) / Secs;
}

/// Echo service: returns its argument bytes without charging compute, so
/// the measurement isolates the message path (marshal, frame, wire model,
/// dispatch, unframe) rather than application work.
class EchoServer : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_return Args;
  }
};

struct RpcResult {
  double CallsPerSec = 0;
  double EventsPerCall = 0;
};

/// Full-path RPC throughput: sequential echo calls between two nodes.
/// With \p WithTelemetry a live telemetry plane rides the same network, so
/// the engine's rpc.* series are windowed, snapshotted and shipped in-band
/// while the bench runs -- pricing what "telemetry on" costs a real
/// workload rather than a synthetic hook loop.
RpcResult benchRpc(remoting::StackKind Stack, uint64_t Calls,
                   bool WithTelemetry = false) {
  vm::Cluster Machines(2, vm::VmKind::MonoVm117);
  net::Network Net(Machines.sim(), 2);
  std::unique_ptr<telemetry::Plane> Plane;
  if (WithTelemetry) {
    telemetry::TelemetrySpec Spec; // no Path: keep the export in memory
    Spec.WindowNs = 1'000'000;
    Plane = std::make_unique<telemetry::Plane>(Net, Spec);
  }
  remoting::RpcEndpoint Client(Machines.node(0), Net,
                               remoting::stackProfile(Stack), 1050);
  remoting::RpcEndpoint Server(Machines.node(1), Net,
                               remoting::stackProfile(Stack), 1050);
  Server.publish("echo", std::make_shared<EchoServer>());

  Bytes Args = serial::encodeValues(std::string(64, 'x'));
  struct Driver {
    static sim::Task<void> run(remoting::RpcEndpoint &Ep, uint64_t Calls,
                               Bytes Args) {
      for (uint64_t I = 0; I < Calls; ++I) {
        ErrorOr<Bytes> Reply =
            co_await Ep.call(1, 1050, "echo", "ping", Args);
        assert(Reply && "echo call failed");
        (void)Reply;
      }
    }
  };

  WallTimer Timer;
  Machines.sim().spawn(Driver::run(Client, Calls, Args));
  Machines.sim().run();
  double Secs = Timer.seconds();
  std::printf("  rpc(%s%s) %s\n", remoting::stackProfile(Stack).Name,
              WithTelemetry ? "+telemetry" : "",
              counterLine(Machines.sim()).c_str());
  RpcResult Result;
  Result.CallsPerSec = static_cast<double>(Calls) / Secs;
  Result.EventsPerCall =
      static_cast<double>(Machines.sim().eventsProcessed()) /
      static_cast<double>(Calls);
  return Result;
}

//===----------------------------------------------------------------------===//
// Telemetry hook cost
//===----------------------------------------------------------------------===//

/// A live call site with no telemetry plane attached: one timed
/// metrics::record, i.e. the histogram update plus the load and branch
/// that finds no plane.  The instrument lives in a private registry so the
/// loop leaves the global report alone.  The memory clobber stops the
/// compiler hoisting the plane check out of the loop, which would price
/// one check for N calls.
double benchTelemetryHook(uint64_t Total) {
  metrics::Registry Local;
  metrics::Histogram &Hook = Local.histogramHandle("bench.hook");
  WallTimer Timer;
  for (uint64_t I = 0; I < Total; ++I) {
    metrics::record(Hook, 1, 0, static_cast<int64_t>(I));
    asm volatile("" ::: "memory");
  }
  double Secs = Timer.seconds();
  assert(Hook.count() == Total && "hook bench lost samples");
  return static_cast<double>(Total) / Secs;
}

} // namespace

/// Seed baseline: the binary-heap kernel at commit f2d4936, best-of-N on
/// the reference machine.  Kept in the JSON so a fresh run still carries
/// the before/after comparison.
struct Baseline {
  double EventsPerSec = 13865254;
  double ResumesPerSec = 14990362;
  double TcpCallsPerSec = 553863;
  double HttpCallsPerSec = 248007;
};

int main(int argc, char **argv) {
  bool Smoke = false;
  const char *MetricsJsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strcmp(argv[I], "--metrics-json") == 0 && I + 1 < argc) {
      MetricsJsonPath = argv[++I];
    } else {
      std::fprintf(stderr,
                   "unknown option '%s' (supported: --smoke, "
                   "--metrics-json <file>)\n",
                   argv[I]);
      return 2;
    }
  }

  uint64_t EventTotal = Smoke ? 20000 : 4000000;
  uint64_t ResumeTotal = Smoke ? 20000 : 4000000;
  uint64_t RpcCalls = Smoke ? 200 : 40000;

  banner("M2", "simulation kernel + message path throughput");

  // Best-of-5 for the two kernel microbenches: single samples are biased
  // low by scheduler noise alone.
  int Reps = Smoke ? 1 : 5;
  double EventsPerSec = 0, ResumesPerSec = 0;
  for (int R = 0; R < Reps; ++R)
    EventsPerSec = std::max(EventsPerSec, benchRawEvents(EventTotal));
  for (int R = 0; R < Reps; ++R)
    ResumesPerSec = std::max(ResumesPerSec, benchScheduleResume(ResumeTotal));
  RpcResult Tcp = benchRpc(remoting::StackKind::MonoRemotingTcp117, RpcCalls);
  RpcResult Http =
      benchRpc(remoting::StackKind::MonoRemotingHttp117, RpcCalls);

  // Telemetry cost, two ways: a timed record with no plane attached (what
  // every live call site pays with the plane off), and the TCP RPC bench
  // rerun with a live in-band plane windowing and shipping the engine's
  // rpc.* series over the same network.
  uint64_t HookTotal = Smoke ? 200000 : 40000000;
  double HookOffPerSec = 0;
  for (int R = 0; R < Reps; ++R)
    HookOffPerSec = std::max(HookOffPerSec, benchTelemetryHook(HookTotal));
  RpcResult TcpTel = benchRpc(remoting::StackKind::MonoRemotingTcp117,
                              RpcCalls, /*WithTelemetry=*/true);
  double RpcTelOverheadPct = (1.0 - TcpTel.CallsPerSec / Tcp.CallsPerSec) * 100.0;

  row({"metric", "ops/sec", "note"});
  row({"events", fmt(EventsPerSec, 0), "mixed-delay callbacks"});
  row({"resumes", fmt(ResumesPerSec, 0), "coroutine delay loop"});
  row({"rpc-tcp", fmt(Tcp.CallsPerSec, 0),
       fmt(Tcp.EventsPerCall, 1) + " ev/call"});
  row({"rpc-http", fmt(Http.CallsPerSec, 0),
       fmt(Http.EventsPerCall, 1) + " ev/call"});
  row({"tel-hook-off", fmt(HookOffPerSec, 0), "timed record, no plane"});
  row({"rpc-tcp+tel", fmt(TcpTel.CallsPerSec, 0),
       fmt(RpcTelOverheadPct, 1) + "% vs rpc-tcp"});

  if (MetricsJsonPath) {
    metrics::ReportSpec Spec;
    Spec.Path = MetricsJsonPath;
    Spec.Json = true;
    if (metrics::Registry::global().writeReport(Spec))
      std::printf("wrote %s\n", MetricsJsonPath);
    else
      std::fprintf(stderr, "failed to write %s\n", MetricsJsonPath);
  }

  if (!Smoke) {
    FILE *Json = std::fopen("BENCH_sim_kernel.json", "w");
    if (Json) {
      Baseline Before;
      std::fprintf(
          Json,
          "{\n"
          "  \"note\": \"wall-clock; events/resumes are best-of-5 in one "
          "run, rpc is single-shot; compare on a quiet machine; 'before' "
          "is the seed binary-heap kernel\",\n"
          "  \"before\": {\n"
          "    \"events_per_sec\": %.0f,\n"
          "    \"resumes_per_sec\": %.0f,\n"
          "    \"rpc_tcp_calls_per_sec\": %.0f,\n"
          "    \"rpc_http_calls_per_sec\": %.0f\n"
          "  },\n"
          "  \"after\": {\n"
          "    \"events_per_sec\": %.0f,\n"
          "    \"resumes_per_sec\": %.0f,\n"
          "    \"rpc_tcp_calls_per_sec\": %.0f,\n"
          "    \"rpc_tcp_events_per_call\": %.1f,\n"
          "    \"rpc_http_calls_per_sec\": %.0f,\n"
          "    \"rpc_http_events_per_call\": %.1f\n"
          "  },\n"
          "  \"speedup\": {\n"
          "    \"events\": %.2f,\n"
          "    \"resumes\": %.2f,\n"
          "    \"rpc_tcp\": %.2f,\n"
          "    \"rpc_http\": %.2f\n"
          "  },\n"
          "  \"telemetry_overhead\": {\n"
          "    \"note\": \"hook = one timed metrics::record with no plane "
          "attached, the cost every live call site pays with the plane "
          "off; rpc rows rerun the TCP echo bench with a live in-band "
          "plane shipping the engine's rpc.* series over the same "
          "network\",\n"
          "    \"hook_disabled_calls_per_sec\": %.0f,\n"
          "    \"hook_disabled_ns_per_call\": %.3f,\n"
          "    \"rpc_tcp_calls_per_sec_plane_off\": %.0f,\n"
          "    \"rpc_tcp_calls_per_sec_plane_on\": %.0f,\n"
          "    \"rpc_tcp_plane_overhead_pct\": %.2f\n"
          "  }\n"
          "}\n",
          Before.EventsPerSec, Before.ResumesPerSec, Before.TcpCallsPerSec,
          Before.HttpCallsPerSec, EventsPerSec, ResumesPerSec,
          Tcp.CallsPerSec, Tcp.EventsPerCall, Http.CallsPerSec,
          Http.EventsPerCall, EventsPerSec / Before.EventsPerSec,
          ResumesPerSec / Before.ResumesPerSec,
          Tcp.CallsPerSec / Before.TcpCallsPerSec,
          Http.CallsPerSec / Before.HttpCallsPerSec, HookOffPerSec,
          1e9 / HookOffPerSec, Tcp.CallsPerSec,
          TcpTel.CallsPerSec, RpcTelOverheadPct);
      std::fclose(Json);
      std::printf("\nwrote BENCH_sim_kernel.json\n");
    }
  }
  return 0;
}
