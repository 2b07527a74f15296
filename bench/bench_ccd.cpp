// Beyond-paper workload: a CCD doubles-residual-like computation — four
// independent output terms (particle-particle ladder, hole-hole ladder,
// ring, and a quadratic term that needs operation minimization first) —
// planned jointly as a forest under a shared memory limit, with and
// without the replicate-compute-reduce extension.  This is the shape of
// computation the paper's program-synthesis system targets (NWChem /
// coupled cluster); repeated amplitude uses are named apart (Ta..Te) per
// the DSL's single-binding rule.

#include "tce/common/table.hpp"
#include "tce/core/forest.hpp"
#include "tce/opmin/opmin.hpp"

#include "bench_common.hpp"

namespace {

constexpr const char* kCcd = R"(
  index i, j, k, l = 64      # occupied orbitals
  index a, b, c, d = 256     # virtual orbitals
  Rpp[a,b,i,j] = sum[c,d] Vabcd[a,b,c,d] * Ta[c,d,i,j]
  Rhh[a,b,i,j] = sum[k,l] Vklij[k,l,i,j] * Tb[a,b,k,l]
  Rring[a,b,i,j] = sum[k,c] Vakic[a,k,i,c] * Tc[c,b,k,j]
  Rquad[a,b,i,j] = sum[k,l,c,d] Wklcd[k,l,c,d] * Td[a,c,i,k] * Te[d,b,l,j]
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace tce;
  using namespace tce::bench;
  const unsigned threads = take_threads_arg(argc, argv);
  BenchOutput out("ccd", argc, argv);
  reject_unknown_args(argc, argv);

  heading("CCD doubles residual (4 terms) — forest optimization");

  ParsedProgram program = parse_program(kCcd);
  FormulaSequence seq =
      binarize_program(program, "tmp", /*allow_forest=*/true);
  ContractionForest forest = ContractionForest::from_sequence(seq);
  std::printf("%zu output terms, %.3e total flops, %s of arrays unfused\n\n",
              forest.trees.size(),
              static_cast<double>(forest.total_flops()),
              format_bytes_si([&] {
                std::uint64_t b = 0;
                for (const auto& t : forest.trees) {
                  b += t.total_bytes_unfused();
                }
                return b;
              }()).c_str());

  TextTable table({"procs", "limit/node", "replication", "comm (s)",
                   "runtime (s)", "comm %", "mem/node"});
  for (std::size_t c = 3; c < 7; ++c) table.set_right_aligned(c);

  for (std::uint32_t procs : {16u, 64u}) {
    CharacterizedModel model(characterize_itanium(procs));
    for (double gb : {1.0, 2.0, 4.0, 16.0}) {
      for (bool repl : {false, true}) {
        OptimizerConfig cfg;
        cfg.mem_limit_node_bytes =
            static_cast<std::uint64_t>(gb * 1'000'000'000.0);
        cfg.enable_replication_template = repl;
        cfg.threads = threads;
        std::vector<std::string> row{std::to_string(procs),
                                     fixed(gb, 0) + " GB",
                                     repl ? "yes" : "no"};
        json::ObjectWriter fields;
        fields.field("procs", procs)
            .field("mem_limit_bytes", cfg.mem_limit_node_bytes)
            .field("replication", repl)
            .field("threads", threads);
        const Stopwatch sw;
        try {
          ForestPlan plan = optimize_forest(forest, model, cfg);
          fields.field("opt_wall_ms", sw.elapsed_s() * 1000);
          row.push_back(fixed(plan.total_comm_s, 1));
          row.push_back(fixed(plan.total_runtime_s(), 1));
          row.push_back(fixed(100 * plan.comm_fraction(), 1));
          row.push_back(format_bytes_paper(plan.bytes_per_node));
          fields.field("feasible", true)
              .field("comm_s", plan.total_comm_s)
              .field("runtime_s", plan.total_runtime_s())
              .field("comm_fraction", plan.comm_fraction())
              .field("mem_per_node_bytes", plan.bytes_per_node);
        } catch (const InfeasibleError&) {
          row.insert(row.end(), {"INFEASIBLE", "-", "-", "-"});
          fields.field("opt_wall_ms", sw.elapsed_s() * 1000)
              .field("feasible", false);
        }
        out.planner_row(fields);
        table.add_row(std::move(row));
      }
    }
  }
  std::printf("%s\n", table.str().c_str());

  // Show the dominant term's plan at a feasible 16-processor setting
  // (the 34 GB Vabcd integral tensor alone needs >4.3 GB/node on 8
  // nodes, so the 16-proc rows above are infeasible at small limits).
  CharacterizedModel model(characterize_itanium(16));
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = 16'000'000'000;
  cfg.threads = threads;
  ForestPlan plan = optimize_forest(forest, model, cfg);
  std::size_t biggest = 0;
  for (std::size_t t = 1; t < plan.plans.size(); ++t) {
    if (plan.plans[t].total_comm_s >
        plan.plans[biggest].total_comm_s) {
      biggest = t;
    }
  }
  const auto& tree = forest.trees[biggest];
  std::printf("dominant term (%s) at 16 procs / 16 GB:\n%s\n",
              tree.node(tree.root()).tensor.name.c_str(),
              plan.plans[biggest].table(tree.space()).c_str());
  out.finish();
  return 0;
}
