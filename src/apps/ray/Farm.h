//===- apps/ray/Farm.h - Parallel ray tracer farms --------------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's high-level experiment (Fig. 9): the Java Grande ray tracer
/// "parallelised using a farming approach, where each worker renders
/// several lines from the generated image", in two builds:
///
///  - ParC# farm: workers are SCOOPP parallel objects on a Mono 1.1.7
///    cluster; the master issues asynchronous render calls through proxy
///    objects and collects results synchronously;
///  - Java RMI farm: workers are unicast remote objects on a Sun JVM
///    cluster; asynchronous behaviour "must be explicitly programmed
///    using threads", so the master spawns one driver thread per worker
///    issuing synchronous RMI calls.
///
/// Both farms really render (checksums are compared against a sequential
/// render) and charge virtual CPU per counted operation, scaled by the
/// executing VM's floating-point multiplier -- which is how the paper's
/// "C# sequential time is 40% superior" shows up in the curves.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_APPS_RAY_FARM_H
#define PARCS_APPS_RAY_FARM_H

#include "apps/ray/Scene.h"
#include "core/Proxy.h"
#include "core/Scoopp.h"
#include "fault/FaultPlan.h"
#include "mpi/Mpi.h"
#include "rmi/Rmi.h"
#include "support/Metrics.h"

#include <memory>

namespace parcs {
class HostPool;
} // namespace parcs

namespace parcs::apps::ray {

/// Immutable job description shared by every worker.
struct RayJob {
  Scene SceneData;
  int Width = 500;
  int Height = 500;
  /// Reference-VM (Sun JVM) cost of one counted ray operation.
  double NsPerOp = 1.0;
  /// Lines per render task (the "several lines" each worker gets).
  int LinesPerTask = 25;
};

/// Result of one farm run.
struct FarmResult {
  sim::SimTime Elapsed;
  uint64_t Checksum = 0;
  uint64_t PixelBytes = 0;
  /// Rows re-rendered by the recovery loop after a worker was lost
  /// (SCOOPP farm only; 0 on a fault-free run).
  int RowsRecovered = 0;
  /// False when some rows could not be produced within the recovery
  /// budget (the checksum then covers a partial image).
  bool Complete = true;
};

/// Rows one worker has rendered.
struct RenderedRows {
  /// Pixel rows keyed by Y (the map keeps them in image order).
  std::map<int32_t, std::vector<uint8_t>> Rows;
  /// Sum of the rows' Scene::lineChecksum.
  uint64_t ChecksumSum = 0;
};

/// The worker implementation object: renders line blocks ("render") and
/// hands back its accumulated rows ("collect").  Used both as a SCOOPP
/// parallel class and as an RMI unicast object.  Lines are rendered on
/// \p Pool (null = HostPool::shared()).
class RayWorkerHandler : public remoting::CallHandler {
public:
  RayWorkerHandler(vm::Node &Host, std::shared_ptr<const RayJob> Job,
                   HostPool *Pool = nullptr);

  sim::Task<ErrorOr<remoting::Bytes>>
  handleCall(std::string_view Method, const remoting::Bytes &Args) override;

  static constexpr const char *ClassName = "RayWorker";

private:
  vm::Node &Host;
  std::shared_ptr<const RayJob> Job;
  HostPool *Pool;
  metrics::Counter &RenderBlocks, &LinesRendered;
  RenderedRows Rendered;
  /// This worker's trace lane on its node (0 when tracing is off).
  int TraceTid = 0;
};

/// The generated-proxy shape for RayWorkerHandler (ParC# side).
class RayWorkerProxy : public scoopp::ProxyBase {
public:
  using ProxyBase::ProxyBase;
  sim::Task<Error> create() {
    return ProxyBase::create(RayWorkerHandler::ClassName);
  }
  /// Asynchronous: render lines [Y0, Y1).
  sim::Task<void> render(int32_t Y0, int32_t Y1) {
    return invokeAsync("render", serial::encodeValues(Y0, Y1));
  }
  /// Synchronous: returns (checksum, pixel rows).
  sim::Task<ErrorOr<remoting::Bytes>> collect() {
    return invokeSync("collect", remoting::Bytes{});
  }
};

/// Registers the RayWorker parallel class backed by \p Job, rendering on
/// \p Pool (null = HostPool::shared()).
void registerRayWorker(scoopp::ParallelClassRegistry &Registry,
                       std::shared_ptr<const RayJob> Job,
                       HostPool *Pool = nullptr);

/// Farm run shared by both stacks; deterministic.
struct FarmConfig {
  /// "Processors" on the paper's x-axis; workers = processors, two per
  /// dual-CPU node (calib::CoresPerNode).
  int Processors = 1;
  /// Dispatch-pool worker cap per endpoint (0 = the VM's default; the
  /// Mono pool cap is what Section 4 blames for lost overlap).
  int DispatchWorkers = 0;
  /// VM and remoting stack of the ParC# side (defaults are the paper's
  /// platform; MonoTuned projects the paper's future work).
  vm::VmKind Vm = vm::VmKind::MonoVm117;
  remoting::StackKind Stack = remoting::StackKind::MonoRemotingTcp117;
  /// Fault plan injected into the SCOOPP farm's network (empty = no
  /// injector attached; the fault-free event stream is untouched).
  fault::FaultPlan Faults{};
  /// Endpoint retry policy for the SCOOPP farm.  Left disabled with a
  /// non-empty fault plan, an escalating-deadline default (12 attempts
  /// from a 50ms window, doubling) is applied so the farm survives loss
  /// and crashes without starving long collect() calls.
  remoting::RetryPolicy Retry{};
  /// Host threads that render the workers' lines (null =
  /// HostPool::shared()).  No simulated result depends on its size.
  HostPool *Pool = nullptr;
};

/// Runs the ParC# farm on a fresh Mono 1.1.7 cluster: elapsed virtual
/// time, image checksum and recovery outcome.  \p Grain controls
/// aggregation/agglomeration (Fig. 9 uses the defaults).
FarmResult runScooppRayFarm(std::shared_ptr<const RayJob> Job,
                            FarmConfig Config,
                            scoopp::GrainPolicy Grain = scoopp::GrainPolicy());

/// Runs the Java RMI farm on a fresh Sun JVM cluster.
FarmResult runRmiRayFarm(std::shared_ptr<const RayJob> Job, FarmConfig Config);

/// Extension baseline: the traditional C/MPI farm the paper's
/// introduction contrasts with object-oriented parallelism -- explicit
/// message passing, packed buffers, native-code execution.  Rank 0 is the
/// master; ranks 1..Processors render (so the world holds one extra
/// rank).
FarmResult runMpiRayFarm(std::shared_ptr<const RayJob> Job, FarmConfig Config);

/// Tags of the MPI farm protocol.
enum MpiFarmTag : int {
  TagWork = 1,   ///< (y0, y1) line block.
  TagDone = 2,   ///< No more work; report results.
  TagResult = 3, ///< (checksum, row bytes, rows in image order).
};

/// One worker rank of the MPI farm: renders the line blocks rank 0 sends
/// until TagDone, then sends rank 0 its rows, explicitly packed.  A block
/// that fails to decode or lies outside the frame is dropped.
sim::Task<void> mpiRayWorker(mpi::MpiComm Comm,
                             std::shared_ptr<const RayJob> Job,
                             HostPool *Pool);

/// Sequential execution time of the whole frame under \p Vm (the paper's
/// VM comparison), plus the reference checksum.
struct SequentialResult {
  double Seconds = 0;
  uint64_t Checksum = 0;
};
SequentialResult sequentialRender(const RayJob &Job, vm::VmKind Vm);

} // namespace parcs::apps::ray

#endif // PARCS_APPS_RAY_FARM_H
