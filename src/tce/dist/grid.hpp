#pragma once
/// \file grid.hpp
/// The two-dimensional logical processor grid of §3.1.
///
/// P processors are viewed as a √P×√P grid; every array is distributed
/// along the two processor dimensions.  The paper's testbed packs 2
/// processors per node, and memory limits are stated per *node*, so the
/// grid also carries the procs-per-node factor used for memory accounting.

#include <cstdint>
#include <string>

#include "tce/common/checked.hpp"

namespace tce {

/// Logical √P×√P processor grid.
struct ProcGrid {
  std::uint32_t procs = 1;           ///< P; must be a perfect square.
  std::uint32_t edge = 1;            ///< √P.
  std::uint32_t procs_per_node = 1;  ///< For per-node memory accounting.

  /// Why \p p processors at \p per_node per node form no grid, or an
  /// empty string when they do.  Input boundaries (CLI flags, daemon
  /// requests, machine files) check it and report their own error;
  /// make() treats a bad shape as a programming error.
  static std::string shape_error(std::uint32_t p, std::uint32_t per_node) {
    if (p == 0 || isqrt(p) * isqrt(p) != p) {
      return "processor count " + std::to_string(p) +
             " is not a positive perfect square";
    }
    if (per_node == 0 || p % per_node != 0) {
      return "processor count " + std::to_string(p) +
             " is not a multiple of " + std::to_string(per_node) +
             " processors per node";
    }
    return {};
  }

  /// Builds a grid, validating that \p p is a perfect square and divisible
  /// into nodes.
  static ProcGrid make(std::uint32_t p, std::uint32_t per_node = 2) {
    TCE_EXPECTS_MSG(shape_error(p, per_node).empty(),
                    "processor count must be a positive perfect square "
                    "and a multiple of procs per node");
    ProcGrid g;
    g.procs = p;
    g.edge = exact_isqrt(p);
    g.procs_per_node = per_node;
    return g;
  }

  std::uint32_t nodes() const { return procs / procs_per_node; }

  /// Rank of grid position (z1, z2), row-major.
  std::uint32_t rank(std::uint32_t z1, std::uint32_t z2) const {
    TCE_EXPECTS(z1 < edge && z2 < edge);
    return z1 * edge + z2;
  }
  std::uint32_t row(std::uint32_t rank) const { return rank / edge; }
  std::uint32_t col(std::uint32_t rank) const { return rank % edge; }

  /// Node housing a given rank (ranks are packed onto nodes in order).
  std::uint32_t node_of(std::uint32_t rank) const {
    TCE_EXPECTS(rank < procs);
    return rank / procs_per_node;
  }

  std::string str() const {
    return std::to_string(edge) + "x" + std::to_string(edge) + " (" +
           std::to_string(procs) + " procs, " + std::to_string(nodes()) +
           " nodes)";
  }
};

}  // namespace tce
