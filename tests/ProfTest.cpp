//===- tests/ProfTest.cpp - Critical-path analyzer ------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Covers the parcs-prof analyzer: DAG reconstruction from synthetic trace
// JSON (ctx/parent args, rpc.link edges, async pairs, truncation), the
// critical-path walk with the gap-jump rule, per-class attribution, and --
// end to end -- that analyzing a real traced RPC workload yields a path
// covering >= 95% of the run window with byte-identical repeat reports.
//
//===----------------------------------------------------------------------===//

#include "prof/Prof.h"

#include "net/Network.h"
#include "remoting/Engine.h"
#include "remoting/Profiles.h"
#include "serial/Archive.h"
#include "support/Trace.h"
#include "vm/Cluster.h"

#include <gtest/gtest.h>

using namespace parcs;
using serial::Bytes;

namespace {

/// Builds a traceEvents JSON document from raw event fragments.
std::string traceJson(const std::vector<std::string> &Events) {
  std::string Out = "{\"traceEvents\": [";
  for (size_t I = 0; I < Events.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Events[I];
  }
  Out += "]}";
  return Out;
}

/// A complete (X) span with ctx/parent args; ts/dur in microseconds like
/// the exporter emits.
std::string span(const char *Name, int Pid, double TsUs, double DurUs,
                 uint64_t Ctx, uint64_t Parent) {
  char Buf[256];
  if (Parent)
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 0, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"ctx\": %llu, "
                  "\"parent\": %llu}}",
                  Name, Pid, TsUs, DurUs, (unsigned long long)Ctx,
                  (unsigned long long)Parent);
  else
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 0, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"ctx\": %llu}}",
                  Name, Pid, TsUs, DurUs, (unsigned long long)Ctx);
  return Buf;
}

TEST(ProfLoadTest, RejectsGarbage) {
  EXPECT_FALSE(prof::loadTrace("not json").hasValue());
  EXPECT_FALSE(prof::loadTrace("{}").hasValue());
  EXPECT_FALSE(prof::loadTrace("{\"traceEvents\": 3}").hasValue());
}

TEST(ProfLoadTest, EmptyTraceHasNoNodes) {
  auto T = prof::loadTrace("{\"traceEvents\": []}");
  ASSERT_TRUE(T.hasValue());
  EXPECT_TRUE(T->Nodes.empty());
  prof::Analysis A = prof::analyze(*T);
  EXPECT_EQ(A.CriticalNs, 0);
  EXPECT_TRUE(A.Segments.empty());
}

TEST(ProfLoadTest, ParsesCtxSpansAndLinks) {
  auto T = prof::loadTrace(traceJson({
      span("rpc.send", 1, 0.100, 0.050, 10, 0),
      span("net.wire", 1, 0.150, 0.200, 11, 10),
      // rpc.link adds a second parent edge to ctx 12.
      "{\"name\": \"rpc.link\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 2, "
      "\"tid\": 0, \"ts\": 0.350, \"args\": {\"ctx\": 12, \"parent\": 11}}",
      span("rpc.serve", 2, 0.350, 0.100, 12, 10),
  }));
  ASSERT_TRUE(T.hasValue());
  ASSERT_EQ(T->Nodes.size(), 3u);
  // Nodes are sorted by start time.
  EXPECT_EQ(T->Nodes[0].Name, "rpc.send");
  EXPECT_EQ(T->Nodes[0].Ctx, 10u);
  EXPECT_EQ(T->Nodes[0].StartNs, 100);
  EXPECT_EQ(T->Nodes[0].EndNs, 150);
  EXPECT_TRUE(T->Nodes[0].Parents.empty());
  EXPECT_EQ(T->Nodes[1].Name, "net.wire");
  ASSERT_EQ(T->Nodes[1].Parents.size(), 1u);
  EXPECT_EQ(T->Nodes[1].Parents[0], 10u);
  // serve merged its declared parent (10) with the linked one (11).
  EXPECT_EQ(T->Nodes[2].Name, "rpc.serve");
  EXPECT_EQ(T->Nodes[2].Parents, (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(T->RunStartNs, 100);
  EXPECT_EQ(T->RunEndNs, 450);
}

TEST(ProfLoadTest, AsyncPairBecomesOneNode) {
  auto T = prof::loadTrace(traceJson({
      "{\"name\": \"rpc.call\", \"cat\": \"parcs\", \"ph\": \"b\", \"id\": "
      "\"p1-0x2a\", \"pid\": 1, \"tid\": 0, \"ts\": 0.100, \"args\": "
      "{\"ctx\": 7}}",
      "{\"name\": \"rpc.call\", \"cat\": \"parcs\", \"ph\": \"e\", \"id\": "
      "\"p1-0x2a\", \"pid\": 1, \"tid\": 0, \"ts\": 0.900, \"args\": "
      "{\"ctx\": 7}}",
  }));
  ASSERT_TRUE(T.hasValue());
  ASSERT_EQ(T->Nodes.size(), 1u);
  EXPECT_EQ(T->Nodes[0].StartNs, 100);
  EXPECT_EQ(T->Nodes[0].EndNs, 900);
  EXPECT_FALSE(T->Nodes[0].Truncated);
}

TEST(ProfLoadTest, OrphanAsyncHalvesAreTruncatedNodes) {
  auto T = prof::loadTrace(traceJson({
      // End without begin (begin was wrapped away), marked by the
      // exporter.
      "{\"name\": \"rpc.call\", \"cat\": \"parcs\", \"ph\": \"e\", \"id\": "
      "\"p1-0x1\", \"pid\": 1, \"tid\": 0, \"ts\": 0.500, \"args\": "
      "{\"ctx\": 9, \"truncated\": true}}",
  }));
  ASSERT_TRUE(T.hasValue());
  ASSERT_EQ(T->Nodes.size(), 1u);
  EXPECT_TRUE(T->Nodes[0].Truncated);
  EXPECT_EQ(T->Nodes[0].StartNs, T->Nodes[0].EndNs);
}

TEST(ProfLoadTest, ReadsBackControlBytesTheExporterEscapes) {
  // The exporter writes a control byte in a name as \u00XX; the loader
  // must read it back as that byte, not as the text "u0001".
  const char *Name = "odd\x01"
                     "name";
  trace::reset();
  trace::setEnabled(true);
  trace::completeCtx(0, 0, Name, 100, 50, /*Ctx=*/5, /*Parent=*/0);
  std::string Json = trace::exportJson();
  trace::setEnabled(false);
  trace::reset();
  ASSERT_NE(Json.find("odd\\u0001name"), std::string::npos) << Json;
  auto T = prof::loadTrace(Json);
  ASSERT_TRUE(T.hasValue()) << T.error().str();
  ASSERT_EQ(T->Nodes.size(), 1u);
  EXPECT_EQ(T->Nodes[0].Name, Name);
}

TEST(ProfAnalyzeTest, WalksDeclaredParentsAndClassifies) {
  // send(100..150) -> wire(150..350) -> serve(350..450): contiguous chain.
  auto T = prof::loadTrace(traceJson({
      span("rpc.send", 1, 0.100, 0.050, 10, 0),
      span("net.wire", 1, 0.150, 0.200, 11, 10),
      span("rpc.serve", 2, 0.350, 0.100, 12, 11),
  }));
  ASSERT_TRUE(T.hasValue());
  prof::Analysis A = prof::analyze(*T);
  ASSERT_EQ(A.Segments.size(), 3u);
  EXPECT_EQ(A.Segments[0].Name, "rpc.send");
  EXPECT_EQ(A.Segments[0].Class, prof::SegClass::Serialize);
  EXPECT_EQ(A.Segments[1].Name, "net.wire");
  EXPECT_EQ(A.Segments[1].Class, prof::SegClass::Wire);
  EXPECT_EQ(A.Segments[2].Name, "rpc.serve");
  EXPECT_EQ(A.Segments[2].Class, prof::SegClass::Compute);
  EXPECT_EQ(A.CriticalNs, 350);
  EXPECT_EQ(A.runNs(), 350);
  EXPECT_DOUBLE_EQ(A.coverage(), 1.0);
}

TEST(ProfAnalyzeTest, GapJumpAttributesComputeGap) {
  // Two spans on one pid with no declared edge and a 100 ns hole between
  // them: the gap-jump rule bridges the hole as compute.
  auto T = prof::loadTrace(traceJson({
      span("scoopp.execute", 2, 0.100, 0.100, 20, 0),
      span("rpc.send", 2, 0.300, 0.050, 21, 0),
  }));
  ASSERT_TRUE(T.hasValue());
  prof::Analysis A = prof::analyze(*T);
  ASSERT_EQ(A.Segments.size(), 3u);
  EXPECT_EQ(A.Segments[0].Name, "scoopp.execute");
  EXPECT_EQ(A.Segments[1].Name, "<gap>");
  EXPECT_EQ(A.Segments[1].Class, prof::SegClass::Compute);
  EXPECT_EQ(A.Segments[1].StartNs, 200);
  EXPECT_EQ(A.Segments[1].EndNs, 300);
  EXPECT_EQ(A.Segments[2].Name, "rpc.send");
  EXPECT_EQ(A.CriticalNs, 250);
  EXPECT_DOUBLE_EQ(A.coverage(), 1.0);
}

TEST(ProfAnalyzeTest, OverlappingParentClipsSegment) {
  // Parent ends inside the child: only the child's tail beyond the
  // parent's end is attributed to the child.
  auto T = prof::loadTrace(traceJson({
      span("net.wire", 1, 0.100, 0.300, 30, 0),  // 100..400
      span("rpc.serve", 2, 0.200, 0.400, 31, 30) // 200..600, overlaps
  }));
  ASSERT_TRUE(T.hasValue());
  prof::Analysis A = prof::analyze(*T);
  ASSERT_EQ(A.Segments.size(), 2u);
  EXPECT_EQ(A.Segments[0].Name, "net.wire");
  EXPECT_EQ(A.Segments[0].durationNs(), 300);
  EXPECT_EQ(A.Segments[1].Name, "rpc.serve");
  EXPECT_EQ(A.Segments[1].StartNs, 400) << "clipped at the parent's end";
  EXPECT_EQ(A.Segments[1].EndNs, 600);
  EXPECT_EQ(A.CriticalNs, 500);
}

TEST(ProfAnalyzeTest, TruncatedNodesPropagateWarning) {
  auto T = prof::loadTrace(traceJson({
      "{\"name\": \"rpc.call\", \"cat\": \"parcs\", \"ph\": \"e\", \"id\": "
      "\"p1-0x1\", \"pid\": 1, \"tid\": 0, \"ts\": 0.500, \"args\": "
      "{\"ctx\": 9, \"truncated\": true}}",
  }));
  ASSERT_TRUE(T.hasValue());
  prof::Analysis A = prof::analyze(*T);
  EXPECT_TRUE(A.SawTruncated);
  EXPECT_NE(prof::textReport(A).find("truncated"), std::string::npos);
}

TEST(ProfReportTest, FlamegraphAggregatesAndSorts) {
  auto T = prof::loadTrace(traceJson({
      span("rpc.send", 1, 0.100, 0.050, 10, 0),
      span("net.wire", 1, 0.150, 0.200, 11, 10),
      span("rpc.send", 1, 0.350, 0.050, 12, 11),
  }));
  ASSERT_TRUE(T.hasValue());
  std::string Folded = prof::flamegraph(prof::analyze(*T));
  // Two rpc.send segments fold into one line; lines are sorted.
  EXPECT_EQ(Folded, "parcs;serialize;rpc.send 100\n"
                    "parcs;wire;net.wire 200\n");
}

//===----------------------------------------------------------------------===//
// End to end: a real traced RPC workload.
//===----------------------------------------------------------------------===//

class EchoServer : public remoting::CallHandler {
public:
  sim::Task<ErrorOr<Bytes>> handleCall(std::string_view,
                                       const Bytes &Args) override {
    co_return Args;
  }
};

std::string runTracedWorkloadAndExport() {
  trace::reset();
  trace::setEnabled(true);
  {
    vm::Cluster Machines(2, vm::VmKind::MonoVm117);
    net::Network Net(Machines.sim(), 2);
    remoting::RpcEndpoint Client(
        Machines.node(0), Net,
        remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
    remoting::RpcEndpoint Server(
        Machines.node(1), Net,
        remoting::stackProfile(remoting::StackKind::MonoRemotingTcp117), 1050);
    Server.publish("echo", std::make_shared<EchoServer>());

    struct Driver {
      static sim::Task<void> run(remoting::RpcEndpoint &Ep) {
        for (int I = 0; I < 8; ++I) {
          Bytes Args = serial::encodeValues(std::string(size_t(32 + I), 'x'));
          ErrorOr<Bytes> Reply =
              co_await Ep.call(1, 1050, "echo", "ping", Args);
          EXPECT_TRUE(Reply);
        }
      }
    };
    Machines.sim().spawn(Driver::run(Client));
    Machines.sim().run();
  }
  std::string Json = trace::exportJson();
  trace::setEnabled(false);
  trace::reset();
  return Json;
}

TEST(ProfEndToEndTest, TracedRpcWorkloadCoversRunWindow) {
  std::string Json = runTracedWorkloadAndExport();
  auto T = prof::loadTrace(Json);
  ASSERT_TRUE(T.hasValue());
  ASSERT_FALSE(T->Nodes.empty());
  prof::Analysis A = prof::analyze(*T);
  // Acceptance bar: the path's segment sim-times sum to >= 95% of the
  // end-to-end window, with honest per-class attribution.
  EXPECT_GE(A.coverage(), 0.95) << prof::textReport(A);
  EXPECT_FALSE(A.SawTruncated);
  int64_t Wire = 0, Serialize = 0;
  for (const auto &[Class, Ns] : A.ByClass) {
    if (Class == prof::SegClass::Wire)
      Wire = Ns;
    if (Class == prof::SegClass::Serialize)
      Serialize = Ns;
  }
  EXPECT_GT(Wire, 0) << "8 remote round trips must cross the wire";
  EXPECT_GT(Serialize, 0);
}

TEST(ProfEndToEndTest, RepeatAnalysesAreByteIdentical) {
  std::string First = runTracedWorkloadAndExport();
  std::string Second = runTracedWorkloadAndExport();
  // Causal ids are minted from a process-global counter that reset()
  // rewinds, so the exports themselves match too.
  EXPECT_EQ(First, Second);
  auto T1 = prof::loadTrace(First);
  auto T2 = prof::loadTrace(Second);
  ASSERT_TRUE(T1.hasValue());
  ASSERT_TRUE(T2.hasValue());
  prof::Analysis A1 = prof::analyze(*T1);
  prof::Analysis A2 = prof::analyze(*T2);
  EXPECT_EQ(prof::textReport(A1), prof::textReport(A2));
  EXPECT_EQ(prof::flamegraph(A1), prof::flamegraph(A2));
}

} // namespace
