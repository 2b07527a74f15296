#pragma once
/// \file network.hpp
/// Flow-level discrete-event simulation of the cluster network.
///
/// A *flow* is one point-to-point transfer between ranks.  Flows started
/// together share the machine under max–min fairness over per-node NIC
/// capacities (in and out directions separately), per-node memory
/// bandwidth for intra-node transfers, and an optional switch bisection
/// cap.  The simulation advances from flow completion to flow completion,
/// re-solving the fair allocation each time — the standard fluid model.
///
/// A *phase* is one synchronized step of a parallel algorithm: every rank
/// computes for some time, then the phase's flows are exchanged.  Phase
/// cost = max compute time + communication makespan, matching the paper's
/// additive accounting of computation and communication.  An algorithm
/// that repeats one phase, such as the √P identical ring-shift steps of
/// a Cannon rotation, runs it with a repeat count: simulated once and
/// costed √P times.

#include <cstdint>
#include <string>
#include <vector>

#include "tce/simnet/spec.hpp"

namespace tce {

/// One point-to-point transfer.
struct Flow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
};

/// Per-rank compute load in floating-point operations.
struct ComputeLoad {
  std::uint32_t rank = 0;
  std::uint64_t flops = 0;
};

/// One synchronized algorithm step.
struct Phase {
  std::vector<Flow> flows;
  std::vector<ComputeLoad> compute;
  /// Display name on the trace timeline (e.g. "T1 rotate step (one of
  /// 4)"); empty renders as "phase".  No effect on simulation results.
  std::string label;
};

/// Outcome of one phase.
struct PhaseResult {
  double comm_s = 0.0;     ///< Communication makespan.
  double compute_s = 0.0;  ///< Max per-rank compute time.
  double total_s() const { return comm_s + compute_s; }
};

/// The simulated cluster network.
class Network {
 public:
  explicit Network(ClusterSpec spec);

  const ClusterSpec& spec() const noexcept { return spec_; }

  /// Result of running a set of simultaneous flows.
  struct RunResult {
    std::vector<double> finish_s;  ///< Per-flow completion time.
    double makespan_s = 0.0;       ///< Max over flows (0 when empty).
  };

  /// Simulates flows that all start at time 0.  Zero-byte flows
  /// complete at latency only; a self-flow (src == dst) is an intra-node
  /// transfer through its node's memory engine, like any flow between
  /// ranks of one node.  Throws on out-of-range ranks.
  RunResult run_flows(const std::vector<Flow>& flows) const;

  /// Runs one synchronized phase (see file comment) \p repeat times in a
  /// row.  The phase is simulated once; its comm and compute are then
  /// added \p repeat times in order, bit for bit what run_phases returns
  /// for \p repeat copies, and the trace clock advances over the copies
  /// that were not simulated.
  PhaseResult run_phase(const Phase& phase, std::uint32_t repeat = 1) const;

  /// Runs a sequence of phases, summing their costs.
  PhaseResult run_phases(const std::vector<Phase>& phases) const;

 private:
  ClusterSpec spec_;
};

}  // namespace tce
