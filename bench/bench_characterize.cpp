// Regenerates the §3.3 empirical characterization: RCost(localsize, α, i)
// measured on the simulated cluster for both grid dimensions plus the
// redistribution curve, at the two machine sizes the paper evaluates.
// The table is also round-tripped through the characterization-file
// format, demonstrating the "generate once, reuse by interpolation"
// workflow the paper describes.

#include <cmath>
#include <sstream>

#include "tce/common/table.hpp"
#include "tce/tensor/kernel.hpp"

#include "bench_common.hpp"

namespace {

void show(std::uint32_t procs, tce::bench::BenchOutput& out) {
  using namespace tce;
  using namespace tce::bench;

  heading("RCost characterization — " + std::to_string(procs) +
          " processors");
  CharacterizationTable t = characterize_itanium(procs);

  TextTable table({"block bytes", "rotate dim1 (s)", "rotate dim2 (s)",
                   "redistribute (s)"});
  for (std::size_t c = 0; c < 4; ++c) table.set_right_aligned(c);
  const auto& bytes = t.rotate_dim1.sample_bytes();
  for (std::size_t i = 0; i < bytes.size(); i += 4) {
    table.add_row({std::to_string(bytes[i]),
                   fixed(t.rotate_dim1.sample_seconds()[i], 4),
                   fixed(t.rotate_dim2.sample_seconds()[i], 4),
                   fixed(t.redistribute.sample_seconds()[i], 4)});
  }
  std::printf("%s", table.str().c_str());

  // Round-trip through the file format and spot-check interpolation.
  CharacterizationTable loaded =
      CharacterizationTable::load_string(t.save_string());
  CharacterizedModel model(std::move(loaded));
  std::printf(
      "\ninterpolation spot checks (between samples):\n"
      "  55.3MB rotation:  %s s (Table 2's per-f T1 rotation step cost)\n"
      "  118MB  rotation:  %s s (Table 2's unfused A/T2 rotation)\n\n",
      fixed(model.rotate_cost(55'296'000, 1), 2).c_str(),
      fixed(model.rotate_cost(117'964'800, 1), 2).c_str());

  out.row(json::ObjectWriter()
              .field("procs", procs)
              .field("samples", bytes.size())
              .field("rotate_55mb_s", model.rotate_cost(55'296'000, 1))
              .field("rotate_118mb_s", model.rotate_cost(117'964'800, 1)));

  // The v3 compute curve: per-rank GEMM seconds vs flops, derated from
  // the peak rate by the tiled kernel's structural efficiency model
  // (deterministic — no wall clock; docs/KERNELS.md).
  heading("compute curve (flops → seconds, structural efficiency)");
  TextTable ct({"n (square GEMM)", "flops", "efficiency", "seconds",
                "effective GF/s"});
  for (std::size_t c = 0; c < 5; ++c) ct.set_right_aligned(c);
  const auto& cf = t.compute.sample_bytes();
  for (std::size_t i = 0; i < cf.size(); i += 2) {
    const double s = t.compute.sample_seconds()[i];
    const double fl = static_cast<double>(cf[i]);
    const auto n = static_cast<std::uint64_t>(std::cbrt(fl / 2.0) + 0.5);
    ct.add_row({std::to_string(n), std::to_string(cf[i]),
                fixed(gemm_model_efficiency(n, n, n), 4), fixed(s, 4),
                fixed(fl / s / 1e9, 4)});
  }
  std::printf("%s", ct.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  tce::bench::BenchOutput out("characterize", argc, argv);
  tce::bench::reject_unknown_args(argc, argv);
  show(64, out);
  show(16, out);
  out.finish();
  return 0;
}
