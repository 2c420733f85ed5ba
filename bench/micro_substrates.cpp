//===- bench/micro_substrates.cpp - M1: substrate micro-benchmarks --------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Real wall-clock micro-benchmarks (google-benchmark) of the library's
/// own substrates: event-loop throughput, coroutine scheduling, channel
/// hand-off, serialisation, base64/envelopes and scene rendering.  These
/// measure the *reproduction's* code, not the paper's systems; they guard
/// against performance regressions in the simulator itself.
///
//===----------------------------------------------------------------------===//

#include "apps/ray/Scene.h"
#include "serial/Envelope.h"
#include "serial/ObjectGraph.h"
#include "sim/Channel.h"
#include "sim/Simulator.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace parcs;

namespace {

void BM_SimulatorEventThroughput(benchmark::State &State) {
  for (auto _ : State) {
    sim::Simulator Sim;
    for (int I = 0; I < 1000; ++I)
      Sim.schedule(sim::SimTime::microseconds(I), [] {});
    benchmark::DoNotOptimize(Sim.run());
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

sim::Task<void> hopTask(sim::Simulator &Sim, int Hops) {
  for (int I = 0; I < Hops; ++I)
    co_await Sim.delay(sim::SimTime::nanoseconds(1));
}

void BM_CoroutineDelayHops(benchmark::State &State) {
  for (auto _ : State) {
    sim::Simulator Sim;
    Sim.spawn(hopTask(Sim, 1000));
    Sim.run();
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayHops);

sim::Task<void> producer(sim::Channel<int> &Chan, int Count) {
  for (int I = 0; I < Count; ++I)
    co_await Chan.send(I);
}

sim::Task<void> consumer(sim::Channel<int> &Chan, int Count) {
  for (int I = 0; I < Count; ++I)
    (void)co_await Chan.recv();
}

void BM_ChannelHandoff(benchmark::State &State) {
  for (auto _ : State) {
    sim::Simulator Sim;
    sim::Channel<int> Chan(Sim, 16);
    Sim.spawn(producer(Chan, 1000));
    Sim.spawn(consumer(Chan, 1000));
    Sim.run();
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_ChannelHandoff);

void BM_ArchiveEncodeIntArray(benchmark::State &State) {
  std::vector<int32_t> Ints(static_cast<size_t>(State.range(0)) / 4);
  for (size_t I = 0; I < Ints.size(); ++I)
    Ints[I] = static_cast<int32_t>(I);
  for (auto _ : State) {
    serial::OutputArchive Out;
    Out.write(Ints);
    benchmark::DoNotOptimize(Out.bytes().data());
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_ArchiveEncodeIntArray)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_ArchiveDecodeIntArray(benchmark::State &State) {
  std::vector<int32_t> Ints(static_cast<size_t>(State.range(0)) / 4, 7);
  serial::OutputArchive Out;
  Out.write(Ints);
  serial::Bytes Wire = Out.take();
  for (auto _ : State) {
    serial::InputArchive In(Wire);
    std::vector<int32_t> Back;
    bool Ok = In.read(Back);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_ArchiveDecodeIntArray)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_Base64Encode(benchmark::State &State) {
  Rng R(1);
  serial::Bytes Data(static_cast<size_t>(State.range(0)));
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(R.nextBelow(256));
  for (auto _ : State)
    benchmark::DoNotOptimize(serial::base64Encode(Data));
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Base64Encode)->Arg(1024)->Arg(65536)->Arg(1 << 20);

/// Range is the decoded payload size; bytes processed counts that payload.
void BM_Base64Decode(benchmark::State &State) {
  Rng R(1);
  serial::Bytes Data(static_cast<size_t>(State.range(0)));
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(R.nextBelow(256));
  std::string Text = serial::base64Encode(Data);
  for (auto _ : State) {
    auto Back = serial::base64Decode(Text);
    benchmark::DoNotOptimize(Back);
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Base64Decode)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_SoapEnvelopeRoundTrip(benchmark::State &State) {
  serial::Bytes Payload(4096, 0x5a);
  for (auto _ : State) {
    serial::Bytes Wire = serial::encodeEnvelope(serial::WireFormat::NetSoap,
                                                "call", Payload);
    auto Back = serial::decodeEnvelope(serial::WireFormat::NetSoap, Wire);
    benchmark::DoNotOptimize(Back.hasValue());
  }
}
BENCHMARK(BM_SoapEnvelopeRoundTrip);

void BM_SceneRenderLine(benchmark::State &State) {
  apps::ray::Scene S = apps::ray::Scene::javaGrande(4);
  int Y = 0;
  for (auto _ : State) {
    apps::ray::LineResult Line = S.renderLine(Y % 100, 100, 100);
    benchmark::DoNotOptimize(Line.Ops);
    ++Y;
  }
}
BENCHMARK(BM_SceneRenderLine);

} // namespace

BENCHMARK_MAIN();
