//===- vm/Cluster.cpp -----------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "vm/Cluster.h"

using namespace parcs;
using namespace parcs::vm;

Cluster::Cluster(int NodeCount, VmKind Vm)
    : Sim(std::make_unique<sim::Simulator>()) {
  assert(NodeCount > 0 && "cluster needs at least one node");
  Nodes.reserve(static_cast<size_t>(NodeCount));
  for (int I = 0; I < NodeCount; ++I)
    Nodes.push_back(std::make_unique<Node>(*Sim, I, Vm));
}

Cluster::~Cluster() {
  // Destroy the simulator first: it owns the frames of still-suspended
  // coroutines, which reference the nodes destroyed right after.
  Sim.reset();
}
