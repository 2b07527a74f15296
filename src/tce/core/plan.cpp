#include "tce/core/plan.hpp"

#include "tce/common/strings.hpp"
#include "tce/common/table.hpp"
#include "tce/common/units.hpp"

namespace tce {

namespace {

std::string dist_or_na(const std::optional<Distribution>& d,
                       const IndexSpace& space) {
  return d.has_value() ? d->str(space) : "N/A";
}

std::string comm_or_na(const std::optional<double>& s) {
  if (!s.has_value()) return "N/A";
  if (*s == 0.0) return "0";
  return format_seconds_paper(*s);
}

}  // namespace

std::string OptimizerStats::str() const {
  std::string out;
  out += "search statistics:\n";
  out += "  candidates:          " + std::to_string(candidates) + "\n";
  out += "  memory-infeasible:   " + std::to_string(infeasible) + "\n";
  out += "  Pareto-dominated:    " + std::to_string(dominated) + "\n";
  out += "  bounded at the root: " + std::to_string(bounded) + "\n";
  out += "  kept (all nodes):    " + std::to_string(kept) + "\n";
  out += "  max frontier/node:   " + std::to_string(max_per_node) + "\n";
  out += "  redistributions:     " + std::to_string(redistributions) + "\n";
  out += "  curve lookups:       " + std::to_string(table_lookups) + " (" +
         std::to_string(extrapolations) + " extrapolated)\n";
  if (prover_lb_node_bytes != 0) {
    out += "  certified LB/node:   " + std::to_string(prover_lb_node_bytes) +
           " bytes\n";
  }
  out += "  comm LB (certified): " + std::to_string(comm_lb_words) +
         " words/proc\n";
  out += "  comm achieved:       " + std::to_string(achieved_comm_words) +
         " words/proc\n";
  out += "  comm gap ratio:      " +
         (comm_gap_ratio == 0.0 ? std::string("N/A (no optimality claim)")
                                : fixed(comm_gap_ratio, 3)) +
         "\n";
  out += "  search wall time:    " + fixed(search_wall_s * 1e3, 2) + " ms\n";
  if (!nodes.empty()) {
    TextTable t({"Node", "Result", "Candidates", "Infeasible", "Dominated",
                 "Bounded", "Kept", "Wall (ms)"});
    for (int c = 2; c <= 7; ++c) t.set_right_aligned(c);
    for (const NodeSearchStats& n : nodes) {
      t.add_row({std::to_string(n.node), n.result_name,
                 std::to_string(n.candidates), std::to_string(n.infeasible),
                 std::to_string(n.dominated), std::to_string(n.bounded),
                 std::to_string(n.kept), fixed(n.wall_s * 1e3, 2)});
    }
    out += t.str();
  }
  return out;
}

std::string OptimizedPlan::table(const IndexSpace& space) const {
  TextTable t({"Full array", "Reduced array", "Initial dist.",
               "Final dist.", "Mem./node", "Comm. (init.)",
               "Comm. (final)"});
  t.set_right_aligned(4);
  t.set_right_aligned(5);
  t.set_right_aligned(6);
  for (const auto& row : arrays) {
    t.add_row({row.full.str(space), row.reduced.str(space),
               dist_or_na(row.initial_dist, space),
               dist_or_na(row.final_dist, space),
               format_bytes_paper(row.mem_per_node_bytes),
               comm_or_na(row.comm_initial_s),
               comm_or_na(row.comm_final_s)});
  }
  return t.str();
}

std::string OptimizedPlan::summary(const IndexSpace& space) const {
  (void)space;
  std::string out;
  out += "total communication: " + fixed(total_comm_s, 1) + " s\n";
  out += "total runtime:       " + fixed(total_runtime_s(), 1) + " s (" +
         fixed(100.0 * comm_fraction(), 1) + "% communication)\n";
  out += "memory per node:     " + format_bytes_paper(bytes_per_node()) +
         " + " + format_bytes_paper(buffer_bytes_per_node()) +
         " send/recv buffer\n";
  if (liveness_aware) {
    out += "peak live per node:  " +
           format_bytes_paper(checked_mul(peak_live_bytes_per_proc,
                                          procs_per_node)) +
           " (liveness-aware accounting)\n";
  }
  return out;
}

}  // namespace tce
