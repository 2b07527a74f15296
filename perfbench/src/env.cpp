#include "env.hpp"

#include <sched.h>

#include <algorithm>
#include <cstring>

#include "report.hpp"
#include "tce/common/json.hpp"
#include "tce/tensor/kernel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define PERFBENCH_X86 1
#endif

namespace perfbench {

namespace {

/// Independent accumulator chains: enough to cover FMA latency times
/// throughput (4 cycles × 2 ports) with room to spare.  Written out as
/// named variables so every chain stays in a register.
constexpr int kChains = 10;

#define PERFBENCH_CHAINS(X) X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9)

#ifdef PERFBENCH_X86
__attribute__((target("avx2,fma"))) double fma_avx2(std::uint64_t iters) {
#define PERFBENCH_INIT(c) __m256d a##c = _mm256_set1_pd(0.5 + c);
#define PERFBENCH_STEP(c) a##c = _mm256_fmadd_pd(a##c, mul, add);
#define PERFBENCH_SUM(c) s = _mm256_add_pd(s, a##c);
  PERFBENCH_CHAINS(PERFBENCH_INIT)
  const __m256d mul = _mm256_set1_pd(0.999999);
  const __m256d add = _mm256_set1_pd(1e-6);
  for (std::uint64_t i = 0; i < iters; ++i) {
    PERFBENCH_CHAINS(PERFBENCH_STEP)
  }
  __m256d s = _mm256_setzero_pd();
  PERFBENCH_CHAINS(PERFBENCH_SUM)
#undef PERFBENCH_INIT
#undef PERFBENCH_STEP
#undef PERFBENCH_SUM
  double lanes[4];
  _mm256_storeu_pd(lanes, s);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
#endif

double fma_generic(std::uint64_t iters) {
#define PERFBENCH_INIT(c) double a##c = 0.5 + c;
#define PERFBENCH_STEP(c) a##c = a##c * 0.999999 + 1e-6;
#define PERFBENCH_SUM(c) s += a##c;
  PERFBENCH_CHAINS(PERFBENCH_INIT)
  for (std::uint64_t i = 0; i < iters; ++i) {
    PERFBENCH_CHAINS(PERFBENCH_STEP)
  }
  double s = 0;
  PERFBENCH_CHAINS(PERFBENCH_SUM)
#undef PERFBENCH_INIT
#undef PERFBENCH_STEP
#undef PERFBENCH_SUM
  return s;
}

#undef PERFBENCH_CHAINS

}  // namespace

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
#ifdef PERFBENCH_X86
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned r[4];
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * leaf, r, sizeof(r));
    }
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double measure_fma_peak_gflops(double budget_s) {
  const bool avx2 = std::strcmp(tce::gemm_microkernel_isa(), "avx2") == 0;
  // Flops per iteration: every chain does one multiply and one add per
  // lane.
  const double flops_per_iter = 2.0 * kChains * (avx2 ? 4 : 1);
  std::uint64_t iters = 1 << 16;
  double best = 0;
  volatile double sink = 0;
  const double deadline = now_s() + budget_s;
  do {
    const double t0 = now_s();
#ifdef PERFBENCH_X86
    sink = sink + (avx2 ? fma_avx2(iters) : fma_generic(iters));
#else
    sink = sink + fma_generic(iters);
#endif
    const double dt = now_s() - t0;
    if (dt < 0.01) {
      iters *= 2;  // too short to time reliably; grow the trial
      continue;
    }
    best = std::max(best, flops_per_iter * static_cast<double>(iters) / dt /
                              1e9);
  } while (now_s() < deadline || best == 0);
  return best;
}

std::string fingerprint_json(
    const std::string& workload, std::uint64_t seed, bool trace,
    const std::map<std::string, std::string>& settings) {
  tce::json::ObjectWriter s;
  for (const auto& [k, v] : settings) s.field(k, v);
  return tce::json::ObjectWriter()
      .field("fingerprint", "perfbench/1")
      .field("workload", workload)
      .field("seed", seed)
      .field("default_seed", kDefaultSeed)
      .field("held_out_seed", kHeldOutSeed)
      .field("trace", trace)
      .field("nproc", usable_cpus())
      .field("cpu_model", cpu_model())
      .field("microkernel_isa", tce::gemm_microkernel_isa())
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("cxx_flags", PERFBENCH_CXX_FLAGS)
      .field("compiler", PERFBENCH_COMPILER)
      .raw("settings", s.str())
      .str();
}

}  // namespace perfbench
