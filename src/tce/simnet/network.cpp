#include "tce/simnet/network.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "tce/common/json.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/simnet/maxmin.hpp"

namespace tce {

namespace {

/// Trace lanes on the simulated-time track (pid 2): phases on one row,
/// compute on another, individual flows fanned out below.
constexpr int kPhaseTid = 1;
constexpr int kComputeTid = 2;
constexpr int kFlowTidBase = 10;

/// Name of a resource id in run_flows' layout ([0,n) NIC out, [n,2n)
/// NIC in, [2n,3n) memory engines, then the optional bisection cap).
std::string resource_name(std::size_t r, std::uint32_t n) {
  if (r < n) return "nic_out:" + std::to_string(r);
  if (r < 2ull * n) return "nic_in:" + std::to_string(r - n);
  if (r < 3ull * n) return "mem:" + std::to_string(r - 2ull * n);
  return "bisection";
}

}  // namespace

Network::Network(ClusterSpec spec) : spec_(spec) { spec_.validate(); }

Network::RunResult Network::run_flows(const std::vector<Flow>& flows) const {
  const std::uint32_t procs = spec_.procs();
  RunResult result;
  result.finish_s.assign(flows.size(), 0.0);

  // Resource layout: [0, nodes) node NIC out, [nodes, 2*nodes) node NIC in,
  // [2*nodes, 3*nodes) node memory engines, then (optionally) bisection.
  const std::uint32_t n = spec_.nodes;
  std::vector<double> capacities(3 * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    capacities[i] = spec_.nic_bw;
    capacities[n + i] = spec_.nic_bw;
    capacities[2 * n + i] = spec_.mem_bw;
  }
  std::uint32_t bisection_id = 0;
  if (spec_.bisection_bw > 0) {
    bisection_id = static_cast<std::uint32_t>(capacities.size());
    capacities.push_back(spec_.bisection_bw);
  }

  // Active flow bookkeeping.  Zero-byte flows finish at latency; others,
  // self-flows included, enter the fluid simulation.
  struct Active {
    std::size_t id;  // index into `flows`
    double remaining;
    ResourcePath path;
  };
  std::vector<Active> active;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    TCE_EXPECTS(flows[f].src < procs && flows[f].dst < procs);
    if (flows[f].bytes == 0) {
      result.finish_s[f] = spec_.latency_s;
      continue;
    }
    Active a;
    a.id = f;
    a.remaining = static_cast<double>(flows[f].bytes);
    const std::uint32_t sn = spec_.node_of(flows[f].src);
    const std::uint32_t dn = spec_.node_of(flows[f].dst);
    if (sn == dn) {
      a.path = {2 * n + sn};
    } else {
      a.path = {sn, n + dn};
      if (spec_.bisection_bw > 0) a.path.push_back(bisection_id);
    }
    active.push_back(std::move(a));
  }

  // Tracing: per-flow first-round fair rate (the allocated bandwidth
  // while all flows contend) and bottleneck link — the most loaded
  // resource on the flow's path in that round.
  const bool tracing = obs::trace_enabled();
  std::vector<double> first_rate;
  std::vector<std::string> bottleneck;
  if (tracing && !active.empty()) {
    first_rate.assign(flows.size(), 0.0);
    bottleneck.assign(flows.size(), std::string());
    std::vector<double> load(capacities.size(), 0.0);
    for (const auto& a : active) {
      for (std::uint32_t r : a.path) load[r] += 1.0;
    }
    for (const auto& a : active) {
      std::size_t worst = a.path[0];
      for (std::uint32_t r : a.path) {
        if (load[r] / capacities[r] > load[worst] / capacities[worst]) {
          worst = r;
        }
      }
      bottleneck[a.id] = resource_name(worst, n);
    }
  }

  // Per-link busy time: a resource is busy for a round's dt when at
  // least one active flow crosses it that round (stamps keep a shared
  // link from being counted once per flow).  Summed over rounds this is
  // the fluid-model utilization each link sees; observed as one
  // histogram sample per busy link below.
  const bool metrics = obs::metrics_enabled();
  std::vector<double> busy;
  std::vector<std::size_t> busy_stamp;
  std::size_t round = 0;
  if (metrics) {
    busy.assign(capacities.size(), 0.0);
    busy_stamp.assign(capacities.size(), 0);
  }

  double now = 0.0;
  bool first_round = true;
  while (!active.empty()) {
    std::vector<ResourcePath> paths;
    paths.reserve(active.size());
    for (const auto& a : active) paths.push_back(a.path);
    const std::vector<double> rates = maxmin_fair_rates(paths, capacities);
    if (tracing && first_round) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        first_rate[active[i].id] = rates[i];
      }
      first_round = false;
    }

    // Time until the earliest active flow drains.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i) {
      dt = std::min(dt, active[i].remaining / rates[i]);
    }
    TCE_ENSURES(dt > 0 && dt < std::numeric_limits<double>::infinity());
    now += dt;
    if (metrics) {
      ++round;
      for (const auto& a : active) {
        for (std::uint32_t r : a.path) {
          if (busy_stamp[r] != round) {
            busy_stamp[r] = round;
            busy[r] += dt;
          }
        }
      }
    }

    std::vector<Active> still;
    still.reserve(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      const double left = active[i].remaining - rates[i] * dt;
      if (left <= 1e-6) {  // bytes; sub-byte residue counts as done
        result.finish_s[active[i].id] = spec_.latency_s + now;
      } else {
        active[i].remaining = left;
        still.push_back(std::move(active[i]));
      }
    }
    active = std::move(still);
  }

  for (double f : result.finish_s) {
    result.makespan_s = std::max(result.makespan_s, f);
  }

  if (metrics) {
    std::uint64_t bytes = 0;
    for (const Flow& f : flows) bytes += f.bytes;
    obs::count("simnet.flows", flows.size());
    obs::count("simnet.bytes", bytes);
    for (const double b : busy) {
      if (b > 0) obs::observe("simnet.link_busy_s", b);
    }
  }
  if (tracing && !flows.empty()) {
    const double base = obs::sim_now_s();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      json::ObjectWriter args;
      args.field("src", flows[f].src)
          .field("dst", flows[f].dst)
          .field("bytes", flows[f].bytes)
          .field("allocated_bw", flows[f].bytes != 0
                                     ? first_rate[f]
                                     : 0.0);
      if (flows[f].bytes != 0 && !bottleneck[f].empty()) {
        args.field("bottleneck", bottleneck[f]);
      }
      obs::trace_sim_complete(
          "flow " + std::to_string(flows[f].src) + "->" +
              std::to_string(flows[f].dst),
          "simnet", kFlowTidBase + static_cast<int>(f), base,
          result.finish_s[f], args.str());
    }
  }
  return result;
}

PhaseResult Network::run_phase(const Phase& phase,
                               std::uint32_t repeat) const {
  TCE_EXPECTS(repeat >= 1);
  PhaseResult once;
  for (const auto& c : phase.compute) {
    TCE_EXPECTS(c.rank < spec_.procs());
    once.compute_s = std::max(
        once.compute_s, static_cast<double>(c.flops) / spec_.flops_per_proc);
  }
  // Trace layout: ranks compute, then the flows are exchanged, so
  // compute occupies [base, base+compute) on the simulated clock and
  // the flows (emitted by run_flows at the advanced cursor) follow.
  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;
  if (tracing) {
    if (once.compute_s > 0) {
      obs::trace_sim_complete("compute", "simnet", kComputeTid, base,
                              once.compute_s);
    }
    obs::sim_advance(once.compute_s);
  }
  once.comm_s = run_flows(phase.flows).makespan_s;
  if (tracing) {
    obs::sim_advance(once.comm_s);
    obs::trace_sim_complete(
        phase.label.empty() ? "phase" : phase.label, "simnet", kPhaseTid,
        base, once.total_s(),
        json::ObjectWriter()
            .field("flows", phase.flows.size())
            .field("comm_s", once.comm_s)
            .field("compute_s", once.compute_s)
            .field("repeat", repeat)
            .str());
  }
  obs::count("simnet.phases");

  PhaseResult r;
  for (std::uint32_t i = 0; i < repeat; ++i) {
    r.comm_s += once.comm_s;
    r.compute_s += once.compute_s;
  }
  if (tracing) obs::sim_advance(r.total_s() - once.total_s());
  return r;
}

PhaseResult Network::run_phases(const std::vector<Phase>& phases) const {
  PhaseResult total;
  for (const auto& p : phases) {
    const PhaseResult r = run_phase(p);
    total.comm_s += r.comm_s;
    total.compute_s += r.compute_s;
  }
  return total;
}

}  // namespace tce
