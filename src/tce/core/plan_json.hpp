#pragma once
/// \file plan_json.hpp
/// Machine-readable plan export and import.
///
/// Emits an OptimizedPlan as a single JSON object so external tooling
/// (build systems, notebooks, code generators) can consume the
/// optimizer's decisions without parsing the human-oriented tables, and
/// reads the same JSON back into an OptimizedPlan so exported plans can
/// be re-checked by the verifier (`tcemin plan --verify` round-trips
/// every plan through this codec before checking it).  The round trip is
/// lossless for every field the verifier inspects.
/// Schema (stable; additive changes only):
///
/// {
///   "total_comm_s": 2243.3, "total_compute_s": ..., "comm_fraction": ...,
///   "memory": {"array_bytes_per_node": ..., "buffer_bytes_per_node": ...,
///              "peak_live_bytes_per_node": ..., "liveness_aware": false,
///              "array_bytes_per_proc": ..., "max_msg_bytes_per_proc": ...,
///              "peak_live_bytes_per_proc": ..., "procs_per_node": 2},
///   "steps": [{"node": 2, "result": "T1",
///              "template": "cannon"|"replicated",
///              "fusion": ["f"], "effective_fused": ["f"],
///              "left_dist": ["b","d"], "right_dist": [null, "e"],
///              "result_dist": [...],
///              "triplet": ["b", "d", "e"|null], "transposed": false,
///              "rotation_index": "b"|null,
///              "replicate_right": false, "reduce_dim": 0,
///              "comm_s": {"left": ..., "right": ..., "result": ...,
///                         "redist_left": ..., "redist_right": ...}}],
///   "arrays": [{"name": "D", "dims": [...], "reduced_dims": [...],
///               "kind": "input"|"intermediate"|"output",
///               "initial_dist": [...]|null, "final_dist": [...]|null,
///               "mem_per_node_bytes": ..., "comm_initial_s": ...|null,
///               "comm_final_s": ...|null}],
///   "stats": {"candidates": ..., "infeasible": ..., "dominated": ...,
///             "bounded": ..., "kept": ..., "max_per_node": ...}
/// }

#include <string>

#include "tce/core/plan.hpp"
#include "tce/expr/contraction.hpp"

namespace tce {

/// Serializes \p plan; index ids are rendered as names via \p space.
std::string plan_to_json(const OptimizedPlan& plan,
                         const IndexSpace& space);

/// Parses a plan previously produced by plan_to_json back into an
/// OptimizedPlan.  Index and node references are resolved against
/// \p tree (the same contraction tree the plan was computed for).
/// Throws tce::Error on malformed JSON, unknown index names, or missing
/// required fields; unknown extra fields are ignored (additive schema).
OptimizedPlan plan_from_json(const std::string& json,
                             const ContractionTree& tree);

}  // namespace tce
