// Tests for tce/costmodel: cost curves, characterization file round-trip
// and simulated measurement.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "tce/common/error.hpp"
#include "tce/costmodel/analytic.hpp"
#include "tce/costmodel/characterize.hpp"

namespace tce {
namespace {

// ---------------------------------------------------------------- CostCurve

TEST(CostCurve, ExactAtSamples) {
  CostCurve c;
  c.add_sample(1000, 0.5);
  c.add_sample(10000, 3.0);
  c.add_sample(100000, 25.0);
  EXPECT_NEAR(c.eval(1000), 0.5, 1e-12);
  EXPECT_NEAR(c.eval(10000), 3.0, 1e-12);
  EXPECT_NEAR(c.eval(100000), 25.0, 1e-12);
}

TEST(CostCurve, LogLogInterpolationIsMonotone) {
  CostCurve c;
  c.add_sample(1024, 0.1);
  c.add_sample(1024 * 1024, 2.0);
  double prev = 0.0;
  for (std::uint64_t b = 1024; b <= 1024 * 1024; b += 16384) {
    const double v = c.eval(b);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(CostCurve, InterpolatesPowerLawsExactly) {
  // For t = a·b^p the log-log interpolation is exact everywhere.
  CostCurve c;
  auto t = [](double b) { return 3e-8 * std::pow(b, 1.25); };
  for (std::uint64_t b : {1000ull, 8000ull, 64000ull}) {
    c.add_sample(b, t(static_cast<double>(b)));
  }
  EXPECT_NEAR(c.eval(4000), t(4000), 1e-9 * t(4000));
  // Extrapolation keeps the end slope.
  EXPECT_NEAR(c.eval(512000), t(512000), 1e-9 * t(512000));
  EXPECT_NEAR(c.eval(100), t(100), 1e-9 * t(100));
}

TEST(CostCurve, RejectsNonIncreasingSamples) {
  CostCurve c;
  c.add_sample(1000, 1.0);
  EXPECT_THROW(c.add_sample(1000, 2.0), ContractViolation);
  EXPECT_THROW(c.add_sample(10, 2.0), ContractViolation);
}

TEST(CostCurve, EmptyCurveThrowsOnEval) {
  EXPECT_THROW(CostCurve().eval(10), ContractViolation);
}

// ------------------------------------------------- Characterization file

TEST(CharacterizationFile, RoundTrips) {
  CharacterizationTable t = characterize_itanium(16);
  const std::string text = t.save_string();
  CharacterizationTable u = CharacterizationTable::load_string(text);
  EXPECT_EQ(u.grid.procs, 16u);
  EXPECT_EQ(u.grid.procs_per_node, 2u);
  ASSERT_EQ(u.rotate_dim1.size(), t.rotate_dim1.size());
  for (std::size_t i = 0; i < t.rotate_dim1.size(); ++i) {
    EXPECT_EQ(u.rotate_dim1.sample_bytes()[i],
              t.rotate_dim1.sample_bytes()[i]);
    EXPECT_DOUBLE_EQ(u.rotate_dim1.sample_seconds()[i],
                     t.rotate_dim1.sample_seconds()[i]);
  }

  // Files written before the compute curve carried the flop rate have a
  // flops_per_proc line after the grid line; they load to the same
  // curves as the file without it.
  EXPECT_EQ(text.find("flops_per_proc"), std::string::npos);
  const std::size_t body = text.find('\n', text.find("grid ")) + 1;
  EXPECT_EQ(CharacterizationTable::load_string(
                text.substr(0, body) + "flops_per_proc 615000000\n" +
                text.substr(body))
                .save_string(),
            text);
}

TEST(CharacterizationFile, RejectsGarbage) {
  EXPECT_THROW(CharacterizationTable::load_string("not a file"), Error);
  EXPECT_THROW(CharacterizationTable::load_string(
                   "tce-characterization 2\ngrid 16 2\n"),
               Error);
  EXPECT_THROW(CharacterizationTable::load_string(
                   "tce-characterization 1\ngrid 16 2\nflops_per_proc "
                   "1e9\nrotate_dim1 3\n1000 0.5\n"),
               Error);  // truncated
  // Complete version 1 and 2 files (which stopped before the collective
  // and the compute curves) are rejected too, naming their version.
  const std::string v3 = characterize_itanium(16).save_string();
  const std::size_t body = v3.find('\n');
  for (const auto& [version, cut_at] :
       {std::pair<std::string, std::string>{"1", "allgather "},
        {"2", "compute "}}) {
    const std::string text = "tce-characterization " + version +
                             v3.substr(body, v3.find(cut_at) - body);
    try {
      (void)CharacterizationTable::load_string(text);
      ADD_FAILURE() << "loaded a version " << version << " file";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("version " + version),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------- Simulated measurement

TEST(Characterize, RotationCostsScaleWithSizeAndAreSymmetric) {
  CharacterizationTable t = characterize_itanium(16);
  CharacterizedModel m(std::move(t));
  const double small = m.rotate_cost(1 << 20, 1);
  const double large = m.rotate_cost(16u << 20, 1);
  EXPECT_GT(large, 4 * small);
  // The cyclic rank→node layout makes both grid dimensions symmetric.
  for (std::uint64_t b : {1ull << 16, 1ull << 22, 1ull << 26}) {
    EXPECT_NEAR(m.rotate_cost(b, 1), m.rotate_cost(b, 2),
                0.05 * m.rotate_cost(b, 1));
  }
}

TEST(Characterize, MatchesAnalyticModelOnSymmetricMachine) {
  // The simulated itanium cluster was calibrated to α=60 ms per step and
  // 13.5 MB/s per processor; the characterized and analytic models must
  // agree within a few percent at rotation-relevant sizes.
  CharacterizedModel cm(characterize_itanium(16));
  AnalyticModel am(ProcGrid::make(16, 2), AnalyticParams{});
  for (std::uint64_t b :
       {500ull * 1024, 8ull << 20, 55ull << 20, 230ull << 20}) {
    const double c = cm.rotate_cost(b, 1);
    const double a = am.rotate_cost(b, 1);
    EXPECT_NEAR(c, a, 0.08 * a) << "bytes=" << b;
  }
}

TEST(Characterize, PaperScaleSpotChecks) {
  // Table 1 (64 procs): a full rotation of D's 59 MB per-processor blocks
  // cost 35.7 s; of C's 3.9 MB blocks, 2.8 s.  Our simulated machine
  // should land within ~20% of those.
  CharacterizedModel m(characterize_itanium(64));
  EXPECT_NEAR(m.rotate_cost(58'982'400, 2), 35.7, 7.0);
  EXPECT_NEAR(m.rotate_cost(251'658'240 / 64, 2), 2.8, 0.6);
}

TEST(Characterize, RotationSamplesEqualTheStepByStepMeasurement) {
  // A rotation sample is one ring-shift step run edge times.  It must
  // equal, bit for bit, simulating all edge steps one by one, as
  // characterization measured rotations before.
  for (const std::uint32_t procs : {16u, 64u}) {
    const ProcGrid grid = ProcGrid::make(procs, 2);
    const Network net(ClusterSpec::itanium2003(grid.nodes()));
    const CharacterizationTable t = characterize(net, grid);
    for (const int dim : {1, 2}) {
      const CostCurve& curve = dim == 1 ? t.rotate_dim1 : t.rotate_dim2;
      ASSERT_GT(curve.size(), 0u);
      for (std::size_t i = 0; i < curve.size(); ++i) {
        const Phase step =
            ring_shift_phase(grid, {{curve.sample_bytes()[i], dim}});
        const double want =
            net.run_phases(std::vector<Phase>(grid.edge, step)).comm_s;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(curve.sample_seconds()[i]),
                  std::bit_cast<std::uint64_t>(want))
            << "procs=" << procs << " dim=" << dim
            << " bytes=" << curve.sample_bytes()[i];
      }
    }
  }
}

TEST(Characterize, OneRankGridRecordsTheFloor) {
  // On a 1×1 grid no collective moves anything: every sample records
  // the 1 ns floor, and the table round-trips.
  const CharacterizationTable t = characterize_itanium(1, 1);
  for (const CostCurve* curve : {&t.rotate_dim1, &t.rotate_dim2,
                                 &t.redistribute, &t.allgather,
                                 &t.reduce_dim1, &t.reduce_dim2}) {
    ASSERT_GT(curve->size(), 0u);
    for (const double s : curve->sample_seconds()) EXPECT_EQ(s, 1e-9);
  }
  EXPECT_EQ(CharacterizationTable::load_string(t.save_string()).grid.procs,
            1u);
}

TEST(Characterize, RejectsMismatchedGrid) {
  Network net(ClusterSpec::itanium2003(8));
  EXPECT_THROW(characterize(net, ProcGrid::make(64, 2)), Error);
}

}  // namespace
}  // namespace tce
