#include "tce/core/plan_json.hpp"

#include <utility>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/common/strings.hpp"

namespace tce {

namespace {

/// The shared JSON helpers (tce/common/json.hpp) under the names this
/// writer has always used.
std::string jstr(const std::string& s) { return json::quote(s); }
std::string jnum(double v) { return json::number(v); }

std::string jdist(const Distribution& d, const IndexSpace& space) {
  auto pos = [&](int i) {
    const IndexId id = d.at(i);
    return id == kNoIndex ? std::string("null") : jstr(space.name(id));
  };
  return "[" + pos(1) + "," + pos(2) + "]";
}

std::string jindexset(IndexSet s, const IndexSpace& space) {
  std::vector<std::string> parts;
  for (IndexId id : s) parts.push_back(jstr(space.name(id)));
  return "[" + join(parts, ",") + "]";
}

std::string jdims(const std::vector<IndexId>& dims,
                  const IndexSpace& space) {
  std::vector<std::string> parts;
  for (IndexId id : dims) parts.push_back(jstr(space.name(id)));
  return "[" + join(parts, ",") + "]";
}

std::string jindex(IndexId id, const IndexSpace& space) {
  return id == kNoIndex ? std::string("null") : jstr(space.name(id));
}

// --------------------------------------------------------------- parsing

/// The parser lives in tce/common/json.hpp; `Json` is its Value type.
using Json = json::Value;

double as_number(const Json& v, const char* what) {
  if (v.kind == Json::Kind::kNull) return 0.0;  // writer's non-finite
  if (v.kind != Json::Kind::kNumber) {
    throw Error(std::string("plan JSON: '") + what + "' is not a number");
  }
  return v.number;
}

std::uint64_t as_u64(const Json& v, const char* what) {
  if (v.kind != Json::Kind::kNumber || !v.is_integer) {
    throw Error(std::string("plan JSON: '") + what +
                "' is not an unsigned integer");
  }
  return v.integer;
}

IndexId as_index(const Json& v, const IndexSpace& space,
                 const char* what) {
  if (v.kind == Json::Kind::kNull) return kNoIndex;
  if (v.kind != Json::Kind::kString) {
    throw Error(std::string("plan JSON: '") + what +
                "' is not an index name");
  }
  return space.id(v.string);
}

Distribution as_dist(const Json& v, const IndexSpace& space,
                     const char* what) {
  if (v.kind != Json::Kind::kArray || v.array.size() != 2) {
    throw Error(std::string("plan JSON: '") + what +
                "' is not a two-position distribution");
  }
  return Distribution(as_index(v.array[0], space, what),
                      as_index(v.array[1], space, what));
}

IndexSet as_indexset(const Json& v, const IndexSpace& space,
                     const char* what) {
  if (v.kind != Json::Kind::kArray) {
    throw Error(std::string("plan JSON: '") + what + "' is not an array");
  }
  IndexSet s;
  for (const Json& e : v.array) s.insert(as_index(e, space, what));
  return s;
}

std::vector<IndexId> as_dims(const Json& v, const IndexSpace& space,
                             const char* what) {
  if (v.kind != Json::Kind::kArray) {
    throw Error(std::string("plan JSON: '") + what + "' is not an array");
  }
  std::vector<IndexId> dims;
  for (const Json& e : v.array) dims.push_back(as_index(e, space, what));
  return dims;
}

}  // namespace

std::string plan_to_json(const OptimizedPlan& plan,
                         const IndexSpace& space) {
  std::string out = "{";
  out += "\"total_comm_s\":" + jnum(plan.total_comm_s);
  out += ",\"total_compute_s\":" + jnum(plan.total_compute_s);
  out += ",\"comm_fraction\":" + jnum(plan.comm_fraction());
  out += ",\"memory\":{";
  out += "\"array_bytes_per_node\":" + std::to_string(plan.bytes_per_node());
  out += ",\"buffer_bytes_per_node\":" +
         std::to_string(plan.buffer_bytes_per_node());
  out += ",\"peak_live_bytes_per_node\":" +
         std::to_string(checked_mul(plan.peak_live_bytes_per_proc,
                                    plan.procs_per_node));
  out += std::string(",\"liveness_aware\":") +
         (plan.liveness_aware ? "true" : "false");
  out += ",\"array_bytes_per_proc\":" +
         std::to_string(plan.array_bytes_per_proc);
  out += ",\"max_msg_bytes_per_proc\":" +
         std::to_string(plan.max_msg_bytes_per_proc);
  out += ",\"peak_live_bytes_per_proc\":" +
         std::to_string(plan.peak_live_bytes_per_proc);
  out += ",\"procs_per_node\":" + std::to_string(plan.procs_per_node);
  out += "}";

  out += ",\"steps\":[";
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    if (i != 0) out += ",";
    out += "{";
    out += "\"node\":" + std::to_string(s.node);
    out += ",\"result\":" + jstr(s.result_name);
    out += std::string(",\"template\":") +
           (s.tmpl == StepTemplate::kReplicated ? "\"replicated\""
                                                : "\"cannon\"");
    out += ",\"fusion\":" + jindexset(s.fusion, space);
    out += ",\"effective_fused\":" + jindexset(s.effective_fused, space);
    out += ",\"left_dist\":" + jdist(s.left_dist, space);
    out += ",\"right_dist\":" + jdist(s.right_dist, space);
    out += ",\"result_dist\":" + jdist(s.result_dist, space);
    out += ",\"triplet\":[" + jindex(s.choice.i, space) + "," +
           jindex(s.choice.j, space) + "," + jindex(s.choice.k, space) +
           "]";
    out += std::string(",\"transposed\":") +
           (s.choice.transposed ? "true" : "false");
    out += ",\"rotation_index\":" +
           (s.tmpl == StepTemplate::kCannon && s.choice.rot != kNoIndex
                ? jstr(space.name(s.choice.rot))
                : std::string("null"));
    out += std::string(",\"replicate_right\":") +
           (s.replicate_right ? "true" : "false");
    out += ",\"reduce_dim\":" + std::to_string(s.reduce_dim);
    out += ",\"comm_s\":{";
    out += "\"left\":" + jnum(s.rot_left_s);
    out += ",\"right\":" + jnum(s.rot_right_s);
    out += ",\"result\":" + jnum(s.rot_result_s);
    out += ",\"redist_left\":" + jnum(s.redist_left_s);
    out += ",\"redist_right\":" + jnum(s.redist_right_s);
    out += "}}";
  }
  out += "]";

  out += ",\"arrays\":[";
  for (std::size_t i = 0; i < plan.arrays.size(); ++i) {
    const ArrayReport& a = plan.arrays[i];
    if (i != 0) out += ",";
    out += "{";
    out += "\"name\":" + jstr(a.full.name);
    out += ",\"dims\":" + jdims(a.full.dims, space);
    out += ",\"reduced_dims\":" + jdims(a.reduced.dims, space);
    out += std::string(",\"kind\":") +
           (a.is_input ? "\"input\""
                       : (a.is_output ? "\"output\"" : "\"intermediate\""));
    out += ",\"initial_dist\":" +
           (a.initial_dist ? jdist(*a.initial_dist, space)
                           : std::string("null"));
    out += ",\"final_dist\":" +
           (a.final_dist ? jdist(*a.final_dist, space)
                         : std::string("null"));
    out += ",\"mem_per_node_bytes\":" +
           std::to_string(a.mem_per_node_bytes);
    out += ",\"comm_initial_s\":" +
           (a.comm_initial_s ? jnum(*a.comm_initial_s)
                             : std::string("null"));
    out += ",\"comm_final_s\":" +
           (a.comm_final_s ? jnum(*a.comm_final_s) : std::string("null"));
    out += "}";
  }
  out += "]";

  out += ",\"stats\":{";
  out += "\"candidates\":" + std::to_string(plan.stats.candidates);
  out += ",\"infeasible\":" + std::to_string(plan.stats.infeasible);
  out += ",\"dominated\":" + std::to_string(plan.stats.dominated);
  out += ",\"bounded\":" + std::to_string(plan.stats.bounded);
  out += ",\"kept\":" + std::to_string(plan.stats.kept);
  out += ",\"max_per_node\":" + std::to_string(plan.stats.max_per_node);
  out += ",\"redistributions\":" +
         std::to_string(plan.stats.redistributions);
  out += ",\"table_lookups\":" + std::to_string(plan.stats.table_lookups);
  out += ",\"extrapolations\":" +
         std::to_string(plan.stats.extrapolations);
  out += ",\"prover_lb_node_bytes\":" +
         std::to_string(plan.stats.prover_lb_node_bytes);
  out += ",\"comm_lb_words\":" + std::to_string(plan.stats.comm_lb_words);
  out += ",\"achieved_comm_words\":" +
         std::to_string(plan.stats.achieved_comm_words);
  out += ",\"comm_gap_ratio\":" + jnum(plan.stats.comm_gap_ratio);
  out += ",\"search_wall_s\":" + jnum(plan.stats.search_wall_s);
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < plan.stats.nodes.size(); ++i) {
    const NodeSearchStats& n = plan.stats.nodes[i];
    if (i != 0) out += ",";
    out += "{";
    out += "\"node\":" + std::to_string(n.node);
    out += ",\"result\":" + jstr(n.result_name);
    out += ",\"candidates\":" + std::to_string(n.candidates);
    out += ",\"infeasible\":" + std::to_string(n.infeasible);
    out += ",\"dominated\":" + std::to_string(n.dominated);
    out += ",\"bounded\":" + std::to_string(n.bounded);
    out += ",\"kept\":" + std::to_string(n.kept);
    out += ",\"wall_s\":" + jnum(n.wall_s);
    out += "}";
  }
  out += "]";
  out += "}}";
  return out;
}

OptimizedPlan plan_from_json(const std::string& json,
                             const ContractionTree& tree) {
  const IndexSpace& space = tree.space();
  const Json root = json::parse(json);
  if (root.kind != Json::Kind::kObject) {
    throw Error("plan JSON: top-level value is not an object");
  }

  OptimizedPlan plan;
  plan.total_comm_s = as_number(root.at("total_comm_s"), "total_comm_s");
  plan.total_compute_s =
      as_number(root.at("total_compute_s"), "total_compute_s");

  const Json& mem = root.at("memory");
  plan.liveness_aware = mem.at("liveness_aware").boolean;
  plan.array_bytes_per_proc =
      as_u64(mem.at("array_bytes_per_proc"), "array_bytes_per_proc");
  plan.max_msg_bytes_per_proc =
      as_u64(mem.at("max_msg_bytes_per_proc"), "max_msg_bytes_per_proc");
  plan.peak_live_bytes_per_proc = as_u64(mem.at("peak_live_bytes_per_proc"),
                                         "peak_live_bytes_per_proc");
  plan.procs_per_node = static_cast<std::uint32_t>(
      as_u64(mem.at("procs_per_node"), "procs_per_node"));

  for (const Json& js : root.at("steps").array) {
    PlanStep s;
    s.node = static_cast<NodeId>(as_u64(js.at("node"), "node"));
    if (s.node < 0 || s.node >= static_cast<NodeId>(tree.size())) {
      throw Error("plan JSON: step node " + std::to_string(s.node) +
                  " is outside the tree");
    }
    s.result_name = js.at("result").string;
    const std::string& tmpl = js.at("template").string;
    if (tmpl == "cannon") {
      s.tmpl = StepTemplate::kCannon;
    } else if (tmpl == "replicated") {
      s.tmpl = StepTemplate::kReplicated;
    } else {
      throw Error("plan JSON: unknown step template '" + tmpl + "'");
    }
    s.fusion = as_indexset(js.at("fusion"), space, "fusion");
    s.effective_fused =
        as_indexset(js.at("effective_fused"), space, "effective_fused");
    s.left_dist = as_dist(js.at("left_dist"), space, "left_dist");
    s.right_dist = as_dist(js.at("right_dist"), space, "right_dist");
    s.result_dist = as_dist(js.at("result_dist"), space, "result_dist");
    const Json& trip = js.at("triplet");
    if (trip.kind != Json::Kind::kArray || trip.array.size() != 3) {
      throw Error("plan JSON: 'triplet' is not a three-element array");
    }
    s.choice.i = as_index(trip.array[0], space, "triplet");
    s.choice.j = as_index(trip.array[1], space, "triplet");
    s.choice.k = as_index(trip.array[2], space, "triplet");
    s.choice.transposed = js.at("transposed").boolean;
    s.choice.rot = as_index(js.at("rotation_index"), space,
                            "rotation_index");
    s.replicate_right = js.at("replicate_right").boolean;
    s.reduce_dim =
        static_cast<int>(as_u64(js.at("reduce_dim"), "reduce_dim"));
    const Json& comm = js.at("comm_s");
    s.rot_left_s = as_number(comm.at("left"), "comm_s.left");
    s.rot_right_s = as_number(comm.at("right"), "comm_s.right");
    s.rot_result_s = as_number(comm.at("result"), "comm_s.result");
    s.redist_left_s =
        as_number(comm.at("redist_left"), "comm_s.redist_left");
    s.redist_right_s =
        as_number(comm.at("redist_right"), "comm_s.redist_right");
    plan.steps.push_back(std::move(s));
  }

  for (const Json& ja : root.at("arrays").array) {
    ArrayReport a;
    a.full.name = ja.at("name").string;
    a.full.dims = as_dims(ja.at("dims"), space, "dims");
    a.reduced.name = a.full.name;
    a.reduced.dims = as_dims(ja.at("reduced_dims"), space, "reduced_dims");
    const std::string& kind = ja.at("kind").string;
    a.is_input = kind == "input";
    a.is_output = kind == "output";
    if (const Json* d = ja.find("initial_dist");
        d != nullptr && d->kind != Json::Kind::kNull) {
      a.initial_dist = as_dist(*d, space, "initial_dist");
    }
    if (const Json* d = ja.find("final_dist");
        d != nullptr && d->kind != Json::Kind::kNull) {
      a.final_dist = as_dist(*d, space, "final_dist");
    }
    a.mem_per_node_bytes =
        as_u64(ja.at("mem_per_node_bytes"), "mem_per_node_bytes");
    if (const Json* c = ja.find("comm_initial_s");
        c != nullptr && c->kind != Json::Kind::kNull) {
      a.comm_initial_s = as_number(*c, "comm_initial_s");
    }
    if (const Json* c = ja.find("comm_final_s");
        c != nullptr && c->kind != Json::Kind::kNull) {
      a.comm_final_s = as_number(*c, "comm_final_s");
    }
    plan.arrays.push_back(std::move(a));
  }

  if (const Json* stats = root.find("stats"); stats != nullptr) {
    plan.stats.candidates = as_u64(stats->at("candidates"), "candidates");
    plan.stats.infeasible = as_u64(stats->at("infeasible"), "infeasible");
    plan.stats.dominated = as_u64(stats->at("dominated"), "dominated");
    plan.stats.kept = as_u64(stats->at("kept"), "kept");
    plan.stats.max_per_node =
        as_u64(stats->at("max_per_node"), "max_per_node");
    // Observability fields (absent in pre-obs plan files).
    if (const Json* v = stats->find("redistributions"); v != nullptr) {
      plan.stats.redistributions = as_u64(*v, "redistributions");
    }
    if (const Json* v = stats->find("table_lookups"); v != nullptr) {
      plan.stats.table_lookups = as_u64(*v, "table_lookups");
    }
    if (const Json* v = stats->find("bounded"); v != nullptr) {
      plan.stats.bounded = as_u64(*v, "bounded");
    }
    if (const Json* v = stats->find("extrapolations"); v != nullptr) {
      plan.stats.extrapolations = as_u64(*v, "extrapolations");
    }
    if (const Json* v = stats->find("prover_lb_node_bytes"); v != nullptr) {
      plan.stats.prover_lb_node_bytes = as_u64(*v, "prover_lb_node_bytes");
    }
    if (const Json* v = stats->find("comm_lb_words"); v != nullptr) {
      plan.stats.comm_lb_words = as_u64(*v, "comm_lb_words");
    }
    if (const Json* v = stats->find("achieved_comm_words"); v != nullptr) {
      plan.stats.achieved_comm_words = as_u64(*v, "achieved_comm_words");
    }
    if (const Json* v = stats->find("comm_gap_ratio"); v != nullptr) {
      plan.stats.comm_gap_ratio = as_number(*v, "comm_gap_ratio");
    }
    if (const Json* v = stats->find("search_wall_s"); v != nullptr) {
      plan.stats.search_wall_s = as_number(*v, "search_wall_s");
    }
    if (const Json* nodes = stats->find("nodes"); nodes != nullptr) {
      for (const Json& jn : nodes->array) {
        NodeSearchStats n;
        n.node = static_cast<NodeId>(as_u64(jn.at("node"), "node"));
        n.result_name = jn.at("result").string;
        n.candidates = as_u64(jn.at("candidates"), "candidates");
        n.infeasible = as_u64(jn.at("infeasible"), "infeasible");
        n.dominated = as_u64(jn.at("dominated"), "dominated");
        if (const Json* v = jn.find("bounded"); v != nullptr) {
          n.bounded = as_u64(*v, "bounded");
        }
        n.kept = as_u64(jn.at("kept"), "kept");
        n.wall_s = as_number(jn.at("wall_s"), "wall_s");
        plan.stats.nodes.push_back(std::move(n));
      }
    }
  }
  return plan;
}

}  // namespace tce
