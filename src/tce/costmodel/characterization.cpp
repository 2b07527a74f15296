#include "tce/costmodel/characterization.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <sstream>

#include "tce/common/error.hpp"
#include "tce/common/strings.hpp"

namespace tce {

namespace {
thread_local CurveCounters g_curve_counters;
}  // namespace

CurveCounters curve_counters() noexcept { return g_curve_counters; }

void CostCurve::add_sample(std::uint64_t bytes, double seconds) {
  TCE_EXPECTS(seconds > 0);
  TCE_EXPECTS_MSG(bytes_.empty() || bytes > bytes_.back(),
                  "samples must be added in strictly increasing size");
  bytes_.push_back(bytes);
  seconds_.push_back(seconds);
}

double CostCurve::eval(std::uint64_t bytes) const {
  TCE_EXPECTS_MSG(!bytes_.empty(), "empty cost curve");
  ++g_curve_counters.lookups;
  if (bytes_.size() > 1 && bytes != 0 &&
      (bytes < bytes_.front() || bytes > bytes_.back())) {
    ++g_curve_counters.extrapolations;
  }
  return eval_quiet(bytes);
}

double CostCurve::eval_quiet(std::uint64_t bytes) const {
  TCE_EXPECTS_MSG(!bytes_.empty(), "empty cost curve");
  if (bytes_.size() == 1) return seconds_[0];
  if (bytes == 0) return seconds_[0];

  const double x = std::log(static_cast<double>(bytes));
  auto lx = [&](std::size_t i) {
    return std::log(static_cast<double>(bytes_[i]));
  };
  auto ly = [&](std::size_t i) { return std::log(seconds_[i]); };

  // Pick the bracketing segment, clamping to the end segments for
  // extrapolation.
  std::size_t hi = 1;
  while (hi + 1 < bytes_.size() && bytes > bytes_[hi]) ++hi;
  const std::size_t lo = hi - 1;

  const double t = (x - lx(lo)) / (lx(hi) - lx(lo));
  return std::exp(ly(lo) + t * (ly(hi) - ly(lo)));
}

namespace {

void save_curve(std::ostream& os, const std::string& name,
                const CostCurve& curve) {
  os << name << " " << curve.size() << "\n";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    os << curve.sample_bytes()[i] << " " << curve.sample_seconds()[i]
       << "\n";
  }
}

/// Reads section \p want.  A file is outside input, so every sample
/// add_sample would reject throws tce::Error here instead.
CostCurve load_curve(std::istream& is, const std::string& want) {
  const std::string where = "characterization file: section '" + want + "'";
  std::string name;
  std::size_t count = 0;
  if (!(is >> name >> count) || name != want) {
    throw Error("characterization file: expected section '" + want + "'");
  }
  if (count == 0) throw Error(where + " is empty");
  CostCurve curve;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bytes = 0;
    double seconds = 0;
    if (!(is >> bytes >> seconds)) throw Error(where + " is truncated");
    if (!(seconds > 0) || !std::isfinite(seconds)) {
      throw Error(where + ": sample " + std::to_string(i) +
                  " has non-positive or non-finite seconds");
    }
    if (!curve.empty() && bytes <= curve.sample_bytes().back()) {
      throw Error(where + ": sample sizes must strictly increase");
    }
    curve.add_sample(bytes, seconds);
  }
  return curve;
}

}  // namespace

void CharacterizationTable::save(std::ostream& os) const {
  os << "tce-characterization 3\n";
  os << "grid " << grid.procs << " " << grid.procs_per_node << "\n";
  save_curve(os, "rotate_dim1", rotate_dim1);
  save_curve(os, "rotate_dim2", rotate_dim2);
  save_curve(os, "redistribute", redistribute);
  save_curve(os, "allgather", allgather);
  save_curve(os, "reduce_dim1", reduce_dim1);
  save_curve(os, "reduce_dim2", reduce_dim2);
  save_curve(os, "compute", compute);  // sample key is flops, not bytes
}

std::string CharacterizationTable::save_string() const {
  std::ostringstream os;
  os.precision(17);
  save(os);
  return os.str();
}

CharacterizationTable CharacterizationTable::load(std::istream& is) {
  std::string magic;
  std::string version;
  if (!(is >> magic >> version) || magic != "tce-characterization") {
    throw Error("not a tce characterization file");
  }
  if (version != "3") {
    throw Error("characterization file version " + version +
                " is not supported (only version 3 is); regenerate it "
                "with `tcemin characterize`");
  }

  CharacterizationTable t;
  std::string key;
  std::uint32_t procs = 0, per_node = 0;
  if (!(is >> key >> procs >> per_node) || key != "grid") {
    throw Error("characterization file: missing grid line");
  }
  if (const std::string why = ProcGrid::shape_error(procs, per_node);
      !why.empty()) {
    throw Error("characterization file: bad grid line: " + why);
  }
  t.grid = ProcGrid::make(procs, per_node);
  // Older version 3 files carry the flop rate the compute curve was
  // derated from; nothing reads it, so its line is skipped.
  if ((is >> std::ws).peek() == 'f') {
    if (!(is >> key) || key != "flops_per_proc") {
      throw Error("characterization file: expected section 'rotate_dim1'");
    }
    is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  t.rotate_dim1 = load_curve(is, "rotate_dim1");
  t.rotate_dim2 = load_curve(is, "rotate_dim2");
  t.redistribute = load_curve(is, "redistribute");
  t.allgather = load_curve(is, "allgather");
  t.reduce_dim1 = load_curve(is, "reduce_dim1");
  t.reduce_dim2 = load_curve(is, "reduce_dim2");
  t.compute = load_curve(is, "compute");
  return t;
}

CharacterizationTable CharacterizationTable::load_string(
    const std::string& text) {
  std::istringstream is(text);
  return load(is);
}

CharacterizedModel::CharacterizedModel(CharacterizationTable table)
    : table_(std::move(table)) {
  TCE_EXPECTS_MSG(!table_.rotate_dim1.empty() &&
                      !table_.rotate_dim2.empty() &&
                      !table_.redistribute.empty() &&
                      !table_.allgather.empty() &&
                      !table_.reduce_dim1.empty() &&
                      !table_.reduce_dim2.empty() &&
                      !table_.compute.empty(),
                  "characterization table has empty sections");
}

double CharacterizedModel::rotate_cost(std::uint64_t local_bytes,
                                       int rot_dim) const {
  TCE_EXPECTS(rot_dim == 1 || rot_dim == 2);
  return (rot_dim == 1 ? table_.rotate_dim1 : table_.rotate_dim2)
      .eval(local_bytes);
}

double CharacterizedModel::redistribute_cost(
    std::uint64_t local_bytes) const {
  return table_.redistribute.eval(local_bytes);
}

double CharacterizedModel::allgather_cost(std::uint64_t total_bytes) const {
  return table_.allgather.eval(total_bytes);
}

double CharacterizedModel::reduce_scatter_cost(std::uint64_t partial_bytes,
                                               int dim) const {
  TCE_EXPECTS(dim == 1 || dim == 2);
  return (dim == 1 ? table_.reduce_dim1 : table_.reduce_dim2)
      .eval(partial_bytes);
}

double CharacterizedModel::compute_time(std::uint64_t flops) const {
  if (flops == 0) return 0.0;
  // Quiet eval: the extrapolation counters drive the *communication*
  // model's telemetry and tolerance decisions; see eval_quiet.
  return table_.compute.eval_quiet(flops);
}

}  // namespace tce
