#pragma once
/// \file spec.hpp
/// Cluster hardware description for the simulated machine.
///
/// The paper evaluates on an Intel Itanium cluster (2 processors/node,
/// 4 GB/node) whose communication behaviour enters the algorithm only
/// through an empirically measured characterization table.  We stand up a
/// simulated cluster with the same structure: nodes with full-duplex NICs
/// behind a switch, several processors per node sharing their NIC, a
/// per-flow start-up latency, and optional finite switch bisection.  The
/// itanium2003() preset is calibrated so that rotation measurements taken
/// on the simulated machine land near the costs published in Tables 1–2
/// (per-processor effective rotation bandwidth ≈ 13.5 MB/s, per-message
/// start-up ≈ 60 ms, ≈ 615 MFLOP/s per processor — all back-derived from
/// the paper's own numbers).

#include <cstdint>

#include "tce/common/assert.hpp"

namespace tce {

/// How ranks map onto nodes.
enum class RankLayout {
  /// Rank r lives on node r mod nodes.  Both grid dimensions of a
  /// √P×√P rank grid see the same NIC contention (the paper's measured
  /// costs show no row/column asymmetry, so this is the default).
  kCyclic,
  /// Rank r lives on node r / procs_per_node.  Consecutive ranks share
  /// a node, so ring shifts along grid dimension 2 (adjacent ranks) are
  /// partly intra-node and cheaper than shifts along dimension 1 — an
  /// asymmetric machine the optimizer can exploit through its choice of
  /// rotation dimensions.
  kBlocked,
};

/// Static description of the simulated cluster.
struct ClusterSpec {
  std::uint32_t nodes = 1;
  std::uint32_t procs_per_node = 1;
  RankLayout layout = RankLayout::kCyclic;

  /// NIC bandwidth per node, bytes/s, independently in each direction.
  double nic_bw = 100e6;
  /// Intra-node (shared-memory) transfer bandwidth per node, bytes/s.
  double mem_bw = 500e6;
  /// Fixed start-up charged to every flow (software + wire latency), s.
  double latency_s = 50e-6;
  /// Total switch bisection bandwidth, bytes/s; 0 disables the cap.
  double bisection_bw = 0.0;
  /// Sustained floating-point rate per processor, FLOP/s.
  double flops_per_proc = 1e9;

  std::uint32_t procs() const { return nodes * procs_per_node; }

  /// Node housing a rank, per the configured layout.
  std::uint32_t node_of(std::uint32_t rank) const {
    TCE_EXPECTS(rank < procs());
    return layout == RankLayout::kCyclic ? rank % nodes
                                         : rank / procs_per_node;
  }

  /// The calibrated stand-in for the paper's Itanium cluster; see file
  /// comment.  \p nodes is 32 for the Table 1 setting, 8 for Table 2;
  /// \p procs_per_node is the paper's 2 unless a grid asks otherwise.
  static ClusterSpec itanium2003(std::uint32_t nodes,
                                 std::uint32_t procs_per_node = 2) {
    ClusterSpec s;
    s.nodes = nodes;
    s.procs_per_node = procs_per_node;
    // The paper's two processors per node share the NIC during a
    // rotation, so the per-processor effective bandwidth is nic_bw / 2
    // = 13.5 MB/s.
    s.nic_bw = 27.0e6;
    s.mem_bw = 400e6;
    s.latency_s = 0.060;
    s.bisection_bw = 0.0;
    s.flops_per_proc = 615e6;
    return s;
  }

  /// Validates field sanity; throws on nonsense.
  void validate() const {
    TCE_EXPECTS(nodes >= 1);
    TCE_EXPECTS(procs_per_node >= 1);
    TCE_EXPECTS(nic_bw > 0);
    TCE_EXPECTS(mem_bw > 0);
    TCE_EXPECTS(latency_s >= 0);
    TCE_EXPECTS(bisection_bw >= 0);
    TCE_EXPECTS(flops_per_proc > 0);
  }
};

}  // namespace tce
