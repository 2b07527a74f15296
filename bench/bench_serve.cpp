/// \file bench_serve.cpp
/// Load generator for the `tcemin serve` daemon (docs/SERVING.md):
/// drives thousands of mixed hot/cold tce-serve/1 plan requests at an
/// in-process Server and pins the cache-hit rate and the cold-search
/// vs warm-hit latency split (p50/p99).
///
/// Phases:
///   cold — every unique problem once; each must report "cache":"miss"
///          and pay a full DP search;
///   warm — the remaining queries cycle over the same problems through
///          rotating alpha-renamed spellings (different index/tensor
///          names, shuffled declaration order), so every one must land
///          on the canonicalized key and report "cache":"hit".
///
/// The emitted row gates the serving claim end to end: hit_rate is
/// exact (any canonicalization regression drops it below 1), and
/// speedup_p50 = cold_p50_ms / warm_p50_ms must clear min_speedup (10)
/// — a warm hit is a rename, not a search.  CI runs this driver and
/// checks both against the pinned BENCH_serve.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tce/serve/server.hpp"

namespace {

using namespace tce;
using namespace tce::bench;

/// One synthetic two-contraction problem.  \p i picks the extents (every
/// i is a distinct optimization problem); \p variant picks the spelling
/// — index/tensor names carry the variant as a suffix and odd variants
/// declare the index lines in reverse order, so variants of the same i
/// are alpha-equivalent but textually disjoint.
std::string make_program(std::uint64_t i, unsigned variant) {
  const std::uint64_t na = 64 + 8 * i;
  const std::uint64_t nb = 48 + 8 * (i % 5);
  const std::uint64_t ne = 16 + 8 * (i % 7);
  const std::uint64_t nf = 24 + 8 * (i % 3);
  const auto n = [variant](const char* base) {
    return std::string(base) + std::to_string(variant);
  };
  const std::string d1 =
      "index " + n("a") + ", " + n("c") + " = " + std::to_string(na) + "\n";
  const std::string d2 =
      "index " + n("b") + " = " + std::to_string(nb) + "\n";
  const std::string d3 =
      "index " + n("e") + " = " + std::to_string(ne) + "\n";
  const std::string d4 =
      "index " + n("f") + " = " + std::to_string(nf) + "\n";
  std::string p =
      variant % 2 == 0 ? d1 + d2 + d3 + d4 : d4 + d3 + d2 + d1;
  p += n("T") + "[" + n("a") + "," + n("b") + "] = sum[" + n("e") + "] " +
       n("X") + "[" + n("a") + "," + n("e") + "] * " + n("Y") + "[" +
       n("e") + "," + n("b") + "]\n";
  p += n("U") + "[" + n("a") + "," + n("c") + "] = sum[" + n("b") + "] " +
       n("T") + "[" + n("a") + "," + n("b") + "] * " + n("Z") + "[" +
       n("b") + "," + n("c") + "]\n";
  p += n("S") + "[" + n("a") + "," + n("f") + "] = sum[" + n("c") + "] " +
       n("U") + "[" + n("a") + "," + n("c") + "] * " + n("W") + "[" +
       n("c") + "," + n("f") + "]\n";
  return p;
}

std::string make_request(std::uint64_t i, unsigned variant,
                         std::uint64_t procs, std::uint64_t seq) {
  std::string id = "q";
  id += std::to_string(seq);
  return json::ObjectWriter()
      .field("schema", "tce-serve/1")
      .field("op", "plan")
      .field("id", id)
      .field("program", make_program(i, variant))
      .field("procs", procs)
      .str();
}

/// Exact quantile over a sorted latency sample (rank-⌈q·n⌉ element).
double quantile_ms(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[std::min(sorted_ms.size() - 1,
                            rank > 0 ? rank - 1 : 0)];
}

}  // namespace

int main(int argc, char** argv) {
  BenchOutput out("serve", argc, argv);
  const std::uint64_t unique =
      take_uint_arg(argc, argv, "--unique", 24, 4096);
  const std::uint64_t queries =
      take_uint_arg(argc, argv, "--queries", 2000, 100000000);
  const std::uint64_t procs = take_uint_arg(argc, argv, "--procs", 16,
                                            1u << 20);
  const std::uint64_t capacity =
      take_uint_arg(argc, argv, "--cache-capacity", 256, 100000000);
  const unsigned threads = take_threads_arg(argc, argv);
  reject_unknown_args(argc, argv);
  if (unique == 0 || queries < unique) {
    std::fprintf(stderr,
                 "error: need --unique >= 1 and --queries >= --unique "
                 "(got %llu unique, %llu queries)\n",
                 static_cast<unsigned long long>(unique),
                 static_cast<unsigned long long>(queries));
    return 2;
  }

  heading("planner-as-a-service load (tcemin serve)");
  std::printf("%llu queries over %llu unique problems, cache capacity "
              "%llu, procs %llu\n\n",
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(unique),
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(procs));

  serve::ServeOptions options;
  options.cache_capacity = static_cast<std::size_t>(capacity);
  options.threads = threads;
  serve::Server server(options);

  std::uint64_t hits = 0, misses = 0, seq = 0;
  std::vector<double> cold_ms, warm_ms;
  const auto drive = [&](std::uint64_t i, unsigned variant,
                         std::vector<double>& sink) {
    const std::string request = make_request(i, variant, procs, seq++);
    const Stopwatch sw;
    const std::string reply = server.handle(request);
    sink.push_back(sw.elapsed_s() * 1e3);
    const json::Value doc = json::parse(reply);
    if (doc.at("ok").boolean != true) {
      std::fprintf(stderr, "error: request failed: %s\n", reply.c_str());
      std::exit(1);
    }
    if (doc.at("cache").string == "hit") {
      ++hits;
    } else {
      ++misses;
    }
  };

  // Cold phase: every unique problem once, canonical spelling.
  for (std::uint64_t i = 0; i < unique; ++i) drive(i, 0, cold_ms);
  // Warm phase: cycle the same problems through renamed spellings.
  for (std::uint64_t q = unique; q < queries; ++q) {
    drive(q % unique, 1 + static_cast<unsigned>(q % 3), warm_ms);
  }

  std::vector<double> cold_sorted = cold_ms, warm_sorted = warm_ms;
  std::sort(cold_sorted.begin(), cold_sorted.end());
  std::sort(warm_sorted.begin(), warm_sorted.end());
  const double cold_p50 = quantile_ms(cold_sorted, 0.5);
  const double cold_p99 = quantile_ms(cold_sorted, 0.99);
  const double warm_p50 = quantile_ms(warm_sorted, 0.5);
  const double warm_p99 = quantile_ms(warm_sorted, 0.99);
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  const double speedup_p50 = warm_p50 > 0 ? cold_p50 / warm_p50 : 0;
  constexpr double kMinSpeedup = 10.0;

  std::printf("phase   queries   p50 ms    p99 ms\n");
  std::printf("cold  %9zu %8.3f  %8.3f\n", cold_ms.size(), cold_p50,
              cold_p99);
  std::printf("warm  %9zu %8.3f  %8.3f\n", warm_ms.size(), warm_p50,
              warm_p99);
  std::printf("\nhits %llu  misses %llu  hit rate %.4f\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hit_rate);
  std::printf("warm hit speedup (cold p50 / warm p50): %.1fx "
              "(floor %.0fx)\n",
              speedup_p50, kMinSpeedup);

  // Functional gates fail the run outright; the perf gate (speedup,
  // checked against min_speedup) is enforced by CI over the JSON so a
  // loaded machine shows up as a red check, not a silently bad pin.
  if (misses != unique || hits != queries - unique) {
    std::fprintf(stderr,
                 "error: expected exactly %llu misses (cold) and %llu "
                 "hits (warm)\n",
                 static_cast<unsigned long long>(unique),
                 static_cast<unsigned long long>(queries - unique));
    return 1;
  }

  json::ObjectWriter row;
  row.field("scenario", "serve mixed hot/cold")
      .field("queries", queries)
      .field("unique", unique)
      .field("procs", procs)
      .field("cache_capacity", capacity)
      .field("hits", hits)
      .field("misses", misses)
      .field("hit_rate", hit_rate)
      .field("cold_p50_ms", cold_p50)
      .field("cold_p99_ms", cold_p99)
      .field("warm_p50_ms", warm_p50)
      .field("warm_p99_ms", warm_p99)
      .field("speedup_p50", speedup_p50)
      .field("min_speedup", kMinSpeedup)
      .field("threads", threads);
  out.row(row);
  out.finish();
  return 0;
}
