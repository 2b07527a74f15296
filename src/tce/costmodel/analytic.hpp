#pragma once
/// \file analytic.hpp
/// Closed-form α–β machine model.
///
/// One rotation step costs latency + bytes / bw; a full rotation is √P
/// such steps.  Useful as a fast oracle in tests and as a sanity baseline
/// for the characterized model (on a contention-symmetric machine the two
/// agree closely).

#include "tce/costmodel/machine_model.hpp"

namespace tce {

/// α–β cost model parameters.
struct AnalyticParams {
  double step_latency_s = 0.060;  ///< Per ring-shift step start-up.
  double proc_bw = 13.5e6;        ///< Effective per-processor bytes/s.
  double flops_per_proc = 615e6;  ///< FLOP/s per processor.
};

/// MachineModel with closed-form costs (grid-dimension symmetric).
class AnalyticModel final : public MachineModel {
 public:
  AnalyticModel(ProcGrid grid, AnalyticParams params)
      : grid_(grid), p_(params) {
    TCE_EXPECTS(p_.proc_bw > 0);
    TCE_EXPECTS(p_.flops_per_proc > 0);
    TCE_EXPECTS(p_.step_latency_s >= 0);
  }

  double rotate_cost(std::uint64_t local_bytes,
                     int rot_dim) const override {
    TCE_EXPECTS(rot_dim == 1 || rot_dim == 2);
    const double per_step =
        p_.step_latency_s + static_cast<double>(local_bytes) / p_.proc_bw;
    return static_cast<double>(grid_.edge) * per_step;
  }

  /// Redistribution moves each block once across the machine: √P
  /// start-ups (pairwise exchanges in a row) plus bytes / proc_bw.
  double redistribute_cost(std::uint64_t local_bytes) const override {
    return static_cast<double>(grid_.edge) * p_.step_latency_s +
           static_cast<double>(local_bytes) / p_.proc_bw;
  }

  double allgather_cost(std::uint64_t total_bytes) const override {
    // Recursive doubling: ceil(log2 P) start-ups; every rank receives
    // total·(P−1)/P bytes.
    const double p = static_cast<double>(grid_.procs);
    double steps = 0;
    for (std::uint32_t n = 1; n < grid_.procs; n *= 2) steps += 1;
    return steps * p_.step_latency_s +
           static_cast<double>(total_bytes) * (p - 1) / p / p_.proc_bw;
  }

  double reduce_scatter_cost(std::uint64_t partial_bytes,
                             int dim) const override {
    TCE_EXPECTS(dim == 1 || dim == 2);
    // Butterfly over the √P ranks of one line: halving exchanges, each
    // rank moving partial·(1−1/√P) bytes in total.
    const double e = static_cast<double>(grid_.edge);
    double steps = 0;
    for (std::uint32_t n = 1; n < grid_.edge; n *= 2) steps += 1;
    return steps * p_.step_latency_s +
           static_cast<double>(partial_bytes) * (e - 1) / e / p_.proc_bw;
  }

  double compute_time(std::uint64_t flops) const override {
    return static_cast<double>(flops) / p_.flops_per_proc;
  }

  const ProcGrid& grid() const override { return grid_; }

 private:
  ProcGrid grid_;
  AnalyticParams p_;
};

}  // namespace tce
