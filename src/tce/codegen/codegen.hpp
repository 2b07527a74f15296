#pragma once
/// \file codegen.hpp
/// Pseudocode generation for optimized plans.
///
/// The program synthesis system the paper belongs to ultimately emits
/// parallel Fortran/C; this module renders the same structure as
/// readable pseudocode so a user can inspect exactly what the optimizer
/// decided: array allocations with their reduced (fused) shapes and
/// block distributions, the fused loop nests (Fig. 2(c)), and one
/// generalized-Cannon contraction line per tree node annotated with the
/// rotation index and the arrays being rotated.
///
/// Structure: nodes joined by fused edges form a *cluster*.  Each fused
/// child runs inside its parent's open loops plus its own fusion, with
/// its accumulator zeroed there, and the parent's line follows once the
/// loops the child's own fused children opened have closed.
/// Intermediates on unfused edges are fully materialized and hoisted
/// before the loops.

#include "tce/core/plan.hpp"
#include "tce/expr/contraction.hpp"

namespace tce {

/// Renders the plan for \p tree as pseudocode.  The plan must have been
/// produced by optimize() on the same tree.
std::string generate_pseudocode(const ContractionTree& tree,
                                const OptimizedPlan& plan);

/// Same, annotating every contraction line with the local GEMM kernel
/// (`kern=tiled` / `kern=ref`) that auto-dispatch selects for its
/// per-rank blocks on a √P×√P grid of edge \p grid_edge.  The decision
/// is *structural* — recomputed from block shapes and the fixed size
/// cutoff, never from TCE_KERNEL or tile overrides — so the rendered
/// text is identical across kernel environment settings.
std::string generate_pseudocode(const ContractionTree& tree,
                                const OptimizedPlan& plan,
                                std::uint32_t grid_edge);

}  // namespace tce
