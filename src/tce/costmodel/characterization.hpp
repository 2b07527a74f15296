#pragma once
/// \file characterization.hpp
/// The empirical characterization table and the model that interpolates
/// it.
///
/// §3.3: "Although generating the characterization is somewhat laborious,
/// once a characterization file is completed, it can be used to predict,
/// by interpolation or extrapolation, the communication times for
/// arbitrary array distributions and sizes."  This file implements that
/// artifact: a table of measured (block size → seconds) samples per
/// communication pattern, log–log linear interpolation between samples,
/// slope-preserving extrapolation beyond them, and a text serialization
/// so a characterization can be generated once and reused.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tce/costmodel/machine_model.hpp"

namespace tce {

/// Running totals of CostCurve evaluations on this thread.  Always
/// counted (two increments per eval — far below measurement noise);
/// the optimizer snapshots deltas into OptimizerStats and the metrics
/// registry.
struct CurveCounters {
  std::uint64_t lookups = 0;
  std::uint64_t extrapolations = 0;  ///< Queries outside the sampled range.
};

/// This thread's counters since start (monotone; take deltas).
CurveCounters curve_counters() noexcept;

/// A monotone size→seconds curve with log–log interpolation.
class CostCurve {
 public:
  /// Adds a sample; sizes must be added strictly increasing.
  void add_sample(std::uint64_t bytes, double seconds);

  /// Number of samples.
  std::size_t size() const noexcept { return bytes_.size(); }
  bool empty() const noexcept { return bytes_.empty(); }

  /// Evaluates the curve: exact at samples, log–log linear between,
  /// end-slope extrapolated outside.  Needs at least one sample (two for
  /// meaningful extrapolation).  A query of 0 bytes returns the first
  /// sample's value (pure start-up).
  double eval(std::uint64_t bytes) const;

  /// Same evaluation, but without touching the thread's CurveCounters.
  /// Compute-time queries use this: the lookup/extrapolation totals feed
  /// the optimizer's *communication*-model telemetry (and its
  /// extrapolation-based tolerance loosening), which a compute-curve
  /// query must not perturb.
  double eval_quiet(std::uint64_t bytes) const;

  /// Samples, for serialization and tests.
  const std::vector<std::uint64_t>& sample_bytes() const { return bytes_; }
  const std::vector<double>& sample_seconds() const { return seconds_; }

 private:
  std::vector<std::uint64_t> bytes_;
  std::vector<double> seconds_;
};

/// The full characterization of one (machine, grid) pairing.
struct CharacterizationTable {
  ProcGrid grid;
  CostCurve rotate_dim1;  ///< Full-rotation cost along grid dimension 1.
  CostCurve rotate_dim2;  ///< Along grid dimension 2.
  CostCurve redistribute;
  /// Allgather over all P ranks, keyed by *total* array bytes.
  CostCurve allgather;
  /// Reduce-scatter within one grid line, keyed by per-rank partial
  /// bytes.
  CostCurve reduce_dim1;
  CostCurve reduce_dim2;
  /// Local-contraction curve, keyed by *flops* rather than bytes:
  /// measured/modeled seconds for one rank to execute a GEMM of that
  /// many flops.  Captures the size-dependent efficiency of the tiled
  /// kernel (small products never reach peak).
  CostCurve compute;

  /// Serializes to the characterization-file text format.
  void save(std::ostream& os) const;
  std::string save_string() const;

  /// Parses a characterization file; throws tce::Error on malformed
  /// input or on any file version but 3.  The `flops_per_proc` line of
  /// files written before the compute curve carried the rate is skipped.
  static CharacterizationTable load(std::istream& is);
  static CharacterizationTable load_string(const std::string& text);
};

/// MachineModel backed by a CharacterizationTable.
class CharacterizedModel final : public MachineModel {
 public:
  explicit CharacterizedModel(CharacterizationTable table);

  double rotate_cost(std::uint64_t local_bytes, int rot_dim) const override;
  double redistribute_cost(std::uint64_t local_bytes) const override;
  double allgather_cost(std::uint64_t total_bytes) const override;
  double reduce_scatter_cost(std::uint64_t partial_bytes,
                             int dim) const override;
  double compute_time(std::uint64_t flops) const override;
  const ProcGrid& grid() const override { return table_.grid; }

  const CharacterizationTable& table() const { return table_; }

 private:
  CharacterizationTable table_;
};

}  // namespace tce
