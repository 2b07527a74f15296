#include "tce/costmodel/characterize.hpp"

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/obs/trace.hpp"
#include "tce/tensor/kernel.hpp"

namespace tce {

namespace {

std::vector<std::uint64_t> default_sizes() {
  // Log-spaced ladder, 1 KB .. 512 MB, two points per octave.
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t base = 1024; base <= 512ull * 1024 * 1024; base *= 2) {
    sizes.push_back(base);
    const std::uint64_t mid = base + base / 2;
    if (mid < 512ull * 1024 * 1024) sizes.push_back(mid);
  }
  return sizes;
}

/// Labels a collective's phase "<name> <what> (<detail> <n>)" on the
/// trace timeline when tracing and \p name is non-empty.
void label(Phase& phase, const std::string& name, const char* what,
           const char* detail, std::uint32_t n) {
  if (name.empty() || !obs::trace_enabled()) return;
  phase.label =
      name + " " + what + " (" + detail + " " + std::to_string(n) + ")";
}

}  // namespace

Phase ring_shift_phase(const ProcGrid& grid,
                       const std::vector<RingShift>& shifts,
                       const std::string& name) {
  Phase phase;
  label(phase, name, "rotate step", "one of", grid.edge);
  for (std::uint32_t z1 = 0; z1 < grid.edge; ++z1) {
    for (std::uint32_t z2 = 0; z2 < grid.edge; ++z2) {
      const std::uint32_t src = grid.rank(z1, z2);
      for (const RingShift& r : shifts) {
        const std::uint32_t dst =
            r.dim == 1 ? grid.rank((z1 + 1) % grid.edge, z2)
                       : grid.rank(z1, (z2 + 1) % grid.edge);
        if (dst != src) phase.flows.push_back({src, dst, r.bytes});
      }
    }
  }
  return phase;
}

Phase redistribute_phase(const ProcGrid& grid, std::uint64_t block_bytes) {
  Phase phase;
  const std::uint64_t piece =
      block_bytes / std::max<std::uint32_t>(grid.edge - 1, 1);
  for (std::uint32_t z1 = 0; z1 < grid.edge; ++z1) {
    for (std::uint32_t z2 = 0; z2 < grid.edge; ++z2) {
      for (std::uint32_t p = 0; p < grid.edge; ++p) {
        if (p == z2) continue;
        phase.flows.push_back({grid.rank(z1, z2), grid.rank(z1, p), piece});
      }
    }
  }
  return phase;
}

std::vector<Phase> allgather_phases(const ProcGrid& grid,
                                    std::uint64_t total_bytes,
                                    const std::string& name) {
  const std::uint32_t p = grid.procs;
  const std::uint64_t block = std::max<std::uint64_t>(total_bytes / p, 1);
  std::vector<Phase> phases;
  if ((p & (p - 1)) == 0) {
    for (std::uint32_t dist = 1; dist < p; dist *= 2) {
      Phase phase;
      label(phase, name, "allgather", "distance", dist);
      for (std::uint32_t r = 0; r < p; ++r) {
        phase.flows.push_back({r, r ^ dist, checked_mul(block, dist)});
      }
      phases.push_back(std::move(phase));
    }
  } else {
    Phase step;
    label(step, name, "allgather", "ring of", p);
    for (std::uint32_t r = 0; r < p; ++r) {
      step.flows.push_back({r, (r + 1) % p, block});
    }
    phases.assign(p - 1, step);
  }
  return phases;
}

std::vector<Phase> reduce_scatter_phases(const ProcGrid& grid, int dim,
                                         std::uint64_t partial_bytes,
                                         const std::string& name) {
  const std::uint32_t e = grid.edge;
  std::vector<Phase> phases;
  auto rank_in_line = [&](std::uint32_t line, std::uint32_t pos) {
    return dim == 1 ? grid.rank(pos, line) : grid.rank(line, pos);
  };
  if ((e & (e - 1)) == 0 && e > 1) {
    std::uint64_t payload = partial_bytes / 2;
    for (std::uint32_t dist = e / 2; dist >= 1; dist /= 2) {
      Phase phase;
      label(phase, name, "reduce-scatter", "distance", dist);
      for (std::uint32_t line = 0; line < e; ++line) {
        for (std::uint32_t pos = 0; pos < e; ++pos) {
          phase.flows.push_back({rank_in_line(line, pos),
                                 rank_in_line(line, pos ^ dist),
                                 std::max<std::uint64_t>(payload, 1)});
        }
      }
      phases.push_back(std::move(phase));
      payload /= 2;
    }
  } else if (e > 1) {
    Phase step;
    label(step, name, "reduce-scatter", "ring of", e);
    const std::uint64_t chunk =
        std::max<std::uint64_t>(partial_bytes / e, 1);
    for (std::uint32_t line = 0; line < e; ++line) {
      for (std::uint32_t pos = 0; pos < e; ++pos) {
        step.flows.push_back({rank_in_line(line, pos),
                              rank_in_line(line, (pos + 1) % e), chunk});
      }
    }
    phases.assign(e - 1, step);
  }
  return phases;
}

namespace {

/// Simulated seconds of a collective: each of \p phases in order, run
/// \p repeat times.  A collective that moves nothing (a one-rank grid
/// or grid line) records 1 ns, since curve samples must be positive.
double measure(const Network& net, const std::vector<Phase>& phases,
               std::uint32_t repeat = 1) {
  double seconds = 0;
  bool moves = false;
  for (const Phase& p : phases) {
    moves = moves || !p.flows.empty();
    seconds += net.run_phase(p, repeat).comm_s;
  }
  return moves ? seconds : 1e-9;
}

/// One full rotation along \p dim: edge synchronized ring-shift steps.
double measure_rotation(const Network& net, const ProcGrid& grid, int dim,
                        std::uint64_t block_bytes) {
  return measure(net, {ring_shift_phase(grid, {{block_bytes, dim}})},
                 grid.edge);
}

/// Local-compute curve: seconds for a square n×n×n GEMM as a function
/// of flops, derated from the peak rate by the tiled kernel's
/// *structural* efficiency model (pack traffic + microtile padding —
/// deterministic, never wall-clock, so characterizations are
/// reproducible across hosts).  The ladder spans 2·8³ ≈ 1e3 up to
/// 2·16384³ ≈ 8.8e12 flops, which covers the per-processor work of the
/// paper-scale problems without extrapolating.
void fill_compute_curve(CostCurve& curve, double flops_per_proc) {
  for (std::uint64_t n = 8; n <= 16384; n *= 2) {
    const std::uint64_t flops = checked_mul(checked_mul(2 * n, n), n);
    const double eff = gemm_model_efficiency(n, n, n);
    curve.add_sample(flops,
                     static_cast<double>(flops) / (flops_per_proc * eff));
  }
}

}  // namespace

CharacterizationTable characterize(const Network& net, const ProcGrid& grid,
                                   const CharacterizeOptions& options) {
  if (net.spec().procs() != grid.procs) {
    throw Error("characterize: network and grid processor counts differ");
  }
  const std::vector<std::uint64_t> sizes =
      options.sizes.empty() ? default_sizes() : options.sizes;

  CharacterizationTable t;
  t.grid = grid;
  for (std::uint64_t s : sizes) {
    t.rotate_dim1.add_sample(s, measure_rotation(net, grid, 1, s));
    t.rotate_dim2.add_sample(s, measure_rotation(net, grid, 2, s));
    t.redistribute.add_sample(
        s, measure(net, {redistribute_phase(grid, s)}));
    t.allgather.add_sample(s, measure(net, allgather_phases(grid, s)));
    t.reduce_dim1.add_sample(
        s, measure(net, reduce_scatter_phases(grid, 1, s)));
    t.reduce_dim2.add_sample(
        s, measure(net, reduce_scatter_phases(grid, 2, s)));
  }
  fill_compute_curve(t.compute, net.spec().flops_per_proc);
  return t;
}

CharacterizationTable characterize_itanium(std::uint32_t procs,
                                           std::uint32_t procs_per_node) {
  const ProcGrid grid = ProcGrid::make(procs, procs_per_node);
  Network net(ClusterSpec::itanium2003(grid.nodes(), procs_per_node));
  return characterize(net, grid);
}

CharacterizationTable characterization_for(const std::string& table_text,
                                           const ProcGrid& grid) {
  if (table_text.empty()) {
    return characterize_itanium(grid.procs, grid.procs_per_node);
  }
  CharacterizationTable table =
      CharacterizationTable::load_string(table_text);
  if (table.grid.procs != grid.procs ||
      table.grid.procs_per_node != grid.procs_per_node) {
    throw Error("machine table is for " + std::to_string(table.grid.procs) +
                " processors at " + std::to_string(table.grid.procs_per_node) +
                " per node, not the requested " + std::to_string(grid.procs) +
                " processors at " + std::to_string(grid.procs_per_node) +
                " per node");
  }
  return table;
}

}  // namespace tce
