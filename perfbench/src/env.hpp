#pragma once
/// \file env.hpp
/// The environment fingerprint printed with every result, and the
/// measured single-core FMA peak that kernel efficiency is a share of.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// The seed used while the benchmark was written, and one kept out of
/// that work so later claims can be re-checked on unseen inputs.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

/// Processors this process may run on (what `nproc` prints).
unsigned usable_cpus();

/// CPU brand string from cpuid, or "unknown".
std::string cpu_model();

/// Best double-precision GFLOP/s of one thread running independent FMA
/// chains with the instruction set the GEMM microkernel dispatched to
/// (tce::gemm_microkernel_isa()).  Runs for about \p budget_s seconds and
/// reports the fastest trial.
double measure_fma_peak_gflops(double budget_s);

/// One JSON object: nproc, CPU model, microkernel ISA, build type and
/// flags, the seeds, plus the workload's own \p settings (threads,
/// connections, cache capacity, ...).
std::string fingerprint_json(
    const std::string& workload, std::uint64_t seed, bool trace,
    const std::map<std::string, std::string>& settings);

}  // namespace perfbench
