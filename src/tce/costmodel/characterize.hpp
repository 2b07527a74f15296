#pragma once
/// \file characterize.hpp
/// Generates a CharacterizationTable by running measurement kernels on a
/// simulated cluster — the stand-in for the paper's empirical Itanium
/// measurements.
///
/// For each grid dimension, the kernel times a full Cannon rotation for
/// a ladder of block sizes: one ring-shift step in which *every* rank
/// forwards its block to its ring neighbor, simulated once and run √P
/// times (Network::run_phase's repeat count).  The redistribution kernel
/// scatters each rank's block across its grid row.  Measurements
/// therefore include all NIC/memory contention effects the simulated
/// machine models, exactly as real measurements would include the real
/// machine's.  A collective that moves nothing, on a one-rank grid or
/// grid line, records a 1 ns floor, since every curve sample must be
/// positive.
///
/// The flow builders below define the machine's collectives once:
/// characterize() measures them, and core/simulate and both executor
/// templates replay them.  No builder sends a rank's data to itself.  A
/// non-empty \p name labels their phases on the trace timeline, e.g.
/// "T2 allgather (ring of 36)".

#include <string>
#include <vector>

#include "tce/costmodel/characterization.hpp"
#include "tce/simnet/network.hpp"

namespace tce {

/// Options for the measurement sweep.
struct CharacterizeOptions {
  /// Block sizes (bytes per processor) to sample.  Empty selects a
  /// default log-spaced ladder from 1 KB to 512 MB.
  std::vector<std::uint64_t> sizes;
};

/// Measures \p net (whose spec must match \p grid in processor count) and
/// returns the filled table.
CharacterizationTable characterize(const Network& net, const ProcGrid& grid,
                                   const CharacterizeOptions& options = {});

/// Convenience: simulated-Itanium characterization for a given processor
/// count (paper settings: 64 or 16, 2 procs/node) on the bundled cluster
/// of that grid, ClusterSpec::itanium2003.  `tcemin characterize` prints
/// this table.
CharacterizationTable characterize_itanium(std::uint32_t procs,
                                           std::uint32_t procs_per_node = 2);

/// The one model loader of the planner front ends (`tcemin plan`/`lint`
/// and the daemon): the bundled cluster's characterization of \p grid
/// when \p table_text is empty, otherwise the parsed characterization
/// file.  A table whose grid differs from \p grid in processors or in
/// processors per node throws tce::Error, as does a malformed one.
CharacterizationTable characterization_for(const std::string& table_text,
                                           const ProcGrid& grid);

/// One array's part of a ring shift: every rank sends its \p bytes to
/// its ring neighbor along grid dimension \p dim.
struct RingShift {
  std::uint64_t bytes;
  int dim;
};

/// One synchronized ring-shift step moving all of \p shifts at once.
/// On a one-rank ring it moves nothing.
Phase ring_shift_phase(const ProcGrid& grid,
                       const std::vector<RingShift>& shifts,
                       const std::string& name = {});

/// Row-scatter redistribution: each rank splits \p block_bytes equally
/// among the other ranks of its grid row.
Phase redistribute_phase(const ProcGrid& grid, std::uint64_t block_bytes);

/// Allgather of an array of \p total_bytes block-distributed over all P
/// ranks: recursive doubling when P is a power of two (log2 P exchange
/// phases with doubling payloads), a ring otherwise (P−1 shift phases).
std::vector<Phase> allgather_phases(const ProcGrid& grid,
                                    std::uint64_t total_bytes,
                                    const std::string& name = {});

/// Reduce-scatter of \p partial_bytes per rank within each grid line
/// along \p dim: a butterfly with halving payloads when √P is a power of
/// two, a ring of √P−1 shift phases otherwise, no phase on a one-rank
/// line.
std::vector<Phase> reduce_scatter_phases(const ProcGrid& grid, int dim,
                                         std::uint64_t partial_bytes,
                                         const std::string& name = {});

}  // namespace tce
