#pragma once
/// \file accounting.hpp
/// The costing kernel (§3.3): one communication and memory model that
/// prices a DP candidate — a template choice at one node, its fused set
/// and its two operands — into one Footprint.
///
/// Enumeration is kept apart from costing.  The optimizer's Search walks
/// the candidate space with Pareto pruning and per-node feasibility;
/// fuzz::brute_force walks the same space exhaustively; both take every
/// number from here.  The brute-force oracle therefore checks
/// enumeration, pruning and feasibility, while the verifier (tce/verify)
/// and the hand-enumerated chains in tests/test_optimality.cpp re-derive
/// the pricing independently.  A new template or grid shape is priced
/// here once, plus a verifier rule.
///
/// Cost model (DESIGN.md §5 and §7 give the paper's formulas):
///  * RotateCost(v, α, i, f) = repeat(f_eff) · RCost(DistSize(v,α,f_eff),
///    rot dim), where f_eff is the union of the node's fusion with its
///    parent and its fused children's fusions — every collective at the
///    node sits inside all of those loops.  For a rotated array that does
///    not itself carry a fused index this charges the physically
///    unavoidable re-rotation per iteration (the paper's printed formula
///    would charge it only once; with that literal reading the published
///    Table 2 solution would not be optimal under the paper's own
///    numbers, so we price the repeat).
///  * Fused loop indices are never grid-distributed here (distributions
///    name only Cannon triplet indices), so LoopRange(j ∈ f) = N_j.
///  * Redistribution is allowed only for fully materialized (unfused)
///    intermediates and is hoisted outside fused loops.
///  * Memory = Σ over all arrays of their per-processor block bytes (the
///    paper's accounting in §4) plus the largest message as a
///    send/receive buffer; the limit is checked per node
///    (procs-per-node × per-processor bytes).  The liveness roll-up is
///    the extension documented at OptimizerConfig::liveness_aware.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tce/common/checked.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/machine_model.hpp"
#include "tce/dist/cannon_space.hpp"
#include "tce/dist/distribution.hpp"
#include "tce/expr/contraction.hpp"
#include "tce/fusion/fused.hpp"

namespace tce {

/// What one candidate costs, for its whole subtree.
struct Footprint {
  double cost = 0;            ///< Communication seconds, plus duplicated-
                              ///< compute penalties.
  std::uint64_t mem = 0;      ///< Σ per-processor array bytes (the
                              ///< paper's summed model).
  std::uint64_t max_msg = 0;  ///< Largest per-processor message or
                              ///< collective transient.
  // Liveness accounting (OptimizerConfig::liveness_aware):
  std::uint64_t peak = 0;     ///< Peak live intermediate bytes while the
                              ///< subtree executes (inputs excluded).
  std::uint64_t working = 0;  ///< Bytes that must stay live while the
                              ///< parent executes (own array plus fused
                              ///< children's working sets).
  std::uint64_t input_bytes = 0;  ///< Σ input blocks (always resident).
  /// Canonical communication volume in words per processor, with
  /// lint::plan_comm_words' accounting.  Saturates instead of throwing:
  /// a candidate the search discards must not abort it.
  std::uint64_t comm_words = 0;
};

/// The memory metric the accounting mode compares and limits: Σ array
/// bytes, or (liveness) the resident inputs plus the peak.
inline std::uint64_t memory_metric(const Footprint& fp, bool liveness) {
  return liveness ? checked_add(fp.input_bytes, fp.peak) : fp.mem;
}

/// Per-node feasibility: (metric + largest message) · procs_per_node
/// must fit cfg.mem_limit_node_bytes (0 = unlimited).
inline bool fits(const Footprint& fp, const OptimizerConfig& cfg,
                 const ProcGrid& grid) {
  if (cfg.mem_limit_node_bytes == 0) return true;
  const std::uint64_t per_node = checked_mul(
      checked_add(memory_metric(fp, cfg.liveness_aware), fp.max_msg),
      grid.procs_per_node);
  return per_node <= cfg.mem_limit_node_bytes;
}

/// Memoized geometry for the hot inner loops: per-processor block bytes
/// keyed by (array, distribution, fusion), total fused-slice bytes, and
/// fused-loop iteration counts keyed by the fused set.  One instance per
/// work chunk — never shared across threads — so lookups are lock-free;
/// the functions are pure, so caching cannot change any result.
class GeomCache {
 public:
  GeomCache(const IndexSpace& space, const ProcGrid& grid)
      : space_(space), grid_(grid) {}

  /// DistBytes(v, d, fused).
  std::uint64_t bytes(const TensorRef& v, const Distribution& d,
                      IndexSet fused) {
    const Key k{&v, fused.bits(), pack(d)};
    auto [it, fresh] = bytes_.try_emplace(k, 0);
    if (fresh) it->second = dist_bytes(v, d, fused, space_, grid_);
    return it->second;
  }

  /// Undistributed bytes of v with the fused dims removed.
  std::uint64_t fused_total(const TensorRef& v, IndexSet fused) {
    const Key k{&v, fused.bits(), kFusedTag};
    auto [it, fresh] = bytes_.try_emplace(k, 0);
    if (fresh) it->second = fused_bytes(v, fused, space_);
    return it->second;
  }

  /// Iterations of the fused loops over a set (fused indices are never
  /// distributed, so each contributes its full extent N_j): `repeat`
  /// scales a collective's seconds, `trips` its words.
  struct Loops {
    double repeat = 1.0;
    std::uint64_t trips = 1;
  };
  Loops loops(IndexSet fused) {
    auto [it, fresh] = loops_.try_emplace(fused.bits());
    if (fresh) {
      for (IndexId j : fused) {
        it->second.repeat *= static_cast<double>(space_.extent(j));
        it->second.trips = saturating_mul(it->second.trips, space_.extent(j));
      }
    }
    return it->second;
  }

  const ProcGrid& grid() const { return grid_; }

 private:
  static constexpr std::uint32_t kFusedTag = 0xFFFF0000;

  static std::uint32_t pack(const Distribution& d) {
    return (static_cast<std::uint32_t>(d.at(1)) << 8) |
           static_cast<std::uint32_t>(d.at(2));
  }

  struct Key {
    const void* v;
    std::uint64_t fused;
    std::uint32_t dist;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.v);
      h = (h ^ k.fused) * 0x9E3779B97F4A7C15ull;
      h = (h ^ k.dist) * 0xC2B2AE3D27D4EB4Full;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  const IndexSpace& space_;
  const ProcGrid& grid_;
  std::unordered_map<Key, std::uint64_t, KeyHash> bytes_;
  std::unordered_map<std::uint64_t, Loops> loops_;
};

// ------------------------------------------------------ candidate space

/// Candidate fused sets between node \p id and its parent: every subset
/// of the fusable indices, only ∅ with fusion disabled, or the frozen
/// set of cfg.fixed_fusions.
std::vector<IndexSet> fusion_candidates(const ContractionTree& tree,
                                        const OptimizerConfig& cfg,
                                        NodeId id);

/// The members of \p set followed by kNoIndex ("leave the slot empty").
std::vector<IndexId> with_none(IndexSet set);

/// The Cannon triplet {i, j, k} minus empty slots.
IndexSet triplet_of(const CannonChoice& c);

/// One outer choice of the replicate-compute-reduce template (see
/// OptimizerConfig::enable_replication_template): which operand is
/// gathered whole, and the ⟨s_r, s_k⟩ split of the stationary one
/// (transposed when `tr`).  The result's scatter index j_pick is the
/// inner choice; see repl_step.
struct ReplUnit {
  bool repl_right = false;
  IndexId s_r = kNoIndex;
  IndexId s_k = kNoIndex;
  bool tr = false;

  /// Grid dims splitting the work (the rest duplicate it).
  int split_dims() const {
    return (s_r != kNoIndex ? 1 : 0) + (s_k != kNoIndex ? 1 : 0);
  }
};

/// Every outer replication choice at \p n, in canonical order.
std::vector<ReplUnit> repl_units(const ContractionNode& n);

/// The layouts of one replicated step: unit \p u with scatter index
/// \p j_pick (kNoIndex = none).
struct ReplStep {
  bool repl_right = false;  ///< The right operand is the gathered one.
  Distribution stationary;  ///< ⟨s_r, s_k⟩: the stationary operand.
  Distribution result;      ///< ⟨s_r, j_pick⟩.
  Distribution partial;     ///< ⟨s_r, ·⟩: result partials before the
                            ///< reduce-scatter.
  int reduce_dim = 0;       ///< Grid dim holding s_k; 0 = nothing to
                            ///< reduce.
  bool scatter = false;     ///< j_pick is set; without it the reduced
                            ///< result stays replicated along the line.
  IndexSet triplet;         ///< {s_r, s_k, j_pick} without empty slots.
};
ReplStep repl_step(const ReplUnit& u, IndexId j_pick);

/// A compact storage layout for a leaf whose consumer takes any layout
/// (the gathered operand of a replicated step): split the first (up to)
/// two dimensions.
Distribution compact_dist(const TensorRef& ref);

/// A reduce node's result layout: the child's pair with every summed
/// index dropped.
Distribution reduce_dist(const Distribution& child, IndexSet summed);

// ------------------------------------------------------------- pricing

/// One way of getting an operand in the layout its consumer needs.
struct Delivered {
  Footprint fp;         ///< The producing subtree, plus any reshuffle's
                        ///< source block (message) and words.
  double redist_s = 0;  ///< Reshuffle seconds, paid by the consumer.
  IndexSet fusion;      ///< The producer's fusion with the consumer
                        ///< (∅ for a leaf).
  int sol = -1;         ///< The caller's index of the producing
                        ///< solution; -1 for a leaf.
};

/// Getting an input leaf in layout \p d: inputs start in any layout for
/// free and stay resident throughout.
Delivered leaf_operand(GeomCache& geom, const TensorRef& v,
                       const Distribution& d);

/// Getting an intermediate its producer made in layout \p from (subtree
/// footprint \p made, fusion \p fusion) when the consumer needs \p to:
///  * as is when the layouts match, or when \p any_layout (the gathered
///    operand of a replicated step: the allgather collects it from
///    whatever layout it is in);
///  * otherwise a materialized (unfused) intermediate is reshuffled
///    once, outside any fused loops, if cfg.enable_redistribution — the
///    consumer pays the seconds, and the source block joins the largest
///    message and the words;
///  * otherwise there is no way (nullopt).
std::optional<Delivered> produced_operand(
    const MachineModel& model, GeomCache& geom, const OptimizerConfig& cfg,
    const TensorRef& v, const Footprint& made, const Distribution& from,
    IndexSet fusion, const Distribution& to, bool any_layout);

/// The collectives of one step: per-array seconds (kept as plan
/// provenance), the largest message or transient, and canonical words.
struct StepComm {
  double left_s = 0;    ///< Left operand: rotation or allgather.
  double right_s = 0;   ///< Right operand: rotation or allgather.
  double result_s = 0;  ///< Result: rotation, reduce-scatter or a
                        ///< reduce node's allreduce.
  std::uint64_t max_msg = 0;
  std::uint64_t words = 0;
};

/// A generalized-Cannon step (§3.2): every rotated array moves its f_eff
/// block √P − 1 hops, once per fused iteration.
StepComm cannon_comm(const MachineModel& model, GeomCache& geom,
                     const CannonChoice& c, const TensorRef& left,
                     const TensorRef& right, const TensorRef& result,
                     IndexSet f_eff);

/// A replicated step: the gathered operand's f_eff slice is allgathered
/// once per iteration of the fused loops that slice it; the result
/// partials are reduce-scattered along the grid dimension holding s_k
/// once per iteration of the fused loops that slice the result
/// (partials for other loops accumulate locally and the reduction
/// hoists out) — an allreduce, twice the traffic, without a scatter
/// index.  The gathered slice plus the partial's excess over the result
/// block is the step's transient.
StepComm replicated_comm(const MachineModel& model, GeomCache& geom,
                         const ReplStep& step, const TensorRef& gathered,
                         const TensorRef& result, IndexSet f_eff);

/// A reduce node whose child layout \p from splits a summed index: the
/// partial sums are combined across that grid dimension, once per fused
/// iteration (modeled with the redistribution curve).  Nothing moves
/// when the result keeps the child's layout.
StepComm reduce_comm(const MachineModel& model, GeomCache& geom,
                     const TensorRef& result, const Distribution& from,
                     const Distribution& rdist, IndexSet f_u);

/// Cost of the computation duplicated across grid dimensions the node's
/// block decomposition leaves unused: executing with only \p split_dims
/// of the two grid dimensions splitting work leaves a factor √P per
/// unused dimension of redundant flops on every processor.  Fully
/// assigned configurations (all of the paper's solutions) pay nothing.
double duplication_s(const MachineModel& model, std::uint64_t node_flops,
                     int split_dims);

/// The summed and liveness roll-up of one step: \p first runs, then
/// \p second with first's working set retained, then the step's own
/// loops with both operands and its array (\p own_mem bytes) live.  A
/// step fused with its parent re-executes inside the parent's loops, so
/// its operands' working sets stay live with it; an unfused step is
/// materialized once and its operands are freed.  The cost adds the
/// subtree costs, the reshuffles, the collectives in (left, right,
/// result) order and \p dup_s, in that order — the plan's total is
/// bit-exact.  A reduce step passes an empty \p second.
inline Footprint roll_up(const Delivered& first, const Delivered& second,
                         const StepComm& comm, double dup_s,
                         std::uint64_t own_mem, bool fused_with_parent) {
  const Footprint& a = first.fp;
  const Footprint& b = second.fp;
  Footprint fp;
  fp.cost = a.cost + b.cost + first.redist_s + second.redist_s +
            comm.left_s + comm.right_s + comm.result_s + dup_s;
  fp.mem = checked_add(checked_add(a.mem, b.mem), own_mem);
  fp.max_msg = std::max({a.max_msg, b.max_msg, comm.max_msg});
  fp.input_bytes = checked_add(a.input_bytes, b.input_bytes);
  fp.peak = std::max({a.peak, checked_add(a.working, b.peak),
                      checked_add(checked_add(a.working, b.working),
                                  own_mem)});
  fp.working = own_mem;
  if (fused_with_parent) {
    fp.working = checked_add(fp.working, checked_add(a.working, b.working));
  }
  fp.comm_words = saturating_add(saturating_add(a.comm_words, b.comm_words),
                                 comm.words);
  return fp;
}

}  // namespace tce
