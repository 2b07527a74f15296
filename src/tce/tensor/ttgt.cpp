#include "tce/tensor/ttgt.hpp"

#include <algorithm>
#include <utility>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/kernel.hpp"

namespace tce {

namespace {

bool in_group(const std::vector<IndexId>& group, IndexId d) {
  return std::find(group.begin(), group.end(), d) != group.end();
}

/// \p t's block of per-dimension sizes \p block walked in the group
/// order batch ++ rows ++ cols.  The groups must cover every dimension
/// of \p t exactly once.
PackedWalk make_walk(const DenseTensor& t,
                     std::span<const std::uint64_t> block,
                     const std::vector<IndexId>& batch_dims,
                     const std::vector<IndexId>& row_dims,
                     const std::vector<IndexId>& col_dims) {
  if (batch_dims.size() + row_dims.size() + col_dims.size() != t.rank()) {
    throw Error("ttgt: dimension groups must cover the tensor");
  }
  TCE_EXPECTS(block.size() == t.rank());
  // Every position of the group's block, first dimension slowest.
  auto offsets = [&](const std::vector<IndexId>& dims) {
    std::vector<std::uint64_t> out{0};
    for (IndexId id : dims) {
      const std::size_t pos = t.pos_of(id);
      TCE_EXPECTS(block[pos] > 0 && block[pos] <= t.extents()[pos]);
      std::vector<std::uint64_t> next;
      next.reserve(checked_mul(out.size(), block[pos]));
      for (const std::uint64_t base : out) {
        for (std::uint64_t x = 0; x < block[pos]; ++x) {
          next.push_back(base + x * t.stride(pos));
        }
      }
      out = std::move(next);
    }
    return out;
  };
  PackedWalk w;
  w.batch = offsets(batch_dims);
  w.rows = offsets(row_dims);
  w.cols = offsets(col_dims);
  // The positions so far span [0, col_run) without a gap; a dimension
  // whose stride is that span extends the run.
  for (auto it = col_dims.rbegin(); it != col_dims.rend(); ++it) {
    const std::size_t pos = t.pos_of(*it);
    if (t.stride(pos) != w.col_run) break;
    w.col_run *= block[pos];
  }
  return w;
}

/// Offset of the walk's last element from the block origin, its largest.
std::uint64_t last_offset(const PackedWalk& w) {
  return checked_add(checked_add(w.batch.back(), w.rows.back()),
                     w.cols.back());
}

}  // namespace

TtgtGroups classify_ttgt(const DenseTensor& a, const DenseTensor& b,
                         const std::vector<IndexId>& result_dims,
                         IndexSet sum_indices) {
  TtgtGroups g;
  for (IndexId d : result_dims) {
    if (sum_indices.contains(d)) {
      throw Error("einsum: summed label appears in result");
    }
    const bool in_a = a.has_dim(d);
    const bool in_b = b.has_dim(d);
    if (in_a && in_b) {
      g.batch.push_back(d);
    } else if (in_a) {
      g.m.push_back(d);
    } else if (in_b) {
      g.n.push_back(d);
    } else {
      throw Error("einsum: loop label missing from all operands");
    }
  }
  for (IndexId s : sum_indices) {
    const bool in_a = a.has_dim(s);
    const bool in_b = b.has_dim(s);
    if (in_a && in_b) {
      g.k.push_back(s);
    } else if (in_a) {
      g.a_only_sum.push_back(s);
    } else if (in_b) {
      g.b_only_sum.push_back(s);
    } else {
      throw Error("einsum: loop label missing from all operands");
    }
  }
  for (const std::vector<IndexId>* shared : {&g.batch, &g.k}) {
    for (IndexId d : *shared) {
      if (a.extent_of(d) != b.extent_of(d)) {
        throw Error("einsum: operands disagree on an extent");
      }
    }
  }
  for (IndexId d : a.dims()) {
    if (!in_group(g.batch, d) && !in_group(g.m, d) && !in_group(g.k, d) &&
        !in_group(g.a_only_sum, d)) {
      g.covered = false;
    }
  }
  for (IndexId d : b.dims()) {
    if (!in_group(g.batch, d) && !in_group(g.n, d) && !in_group(g.k, d) &&
        !in_group(g.b_only_sum, d)) {
      g.covered = false;
    }
  }
  return g;
}

TtgtLowering lower_ttgt(const TtgtGroups& g, const DenseTensor& a,
                        std::span<const std::uint64_t> a_block,
                        const DenseTensor& b,
                        std::span<const std::uint64_t> b_block,
                        const DenseTensor& c,
                        std::span<const std::uint64_t> c_block) {
  // K order: A's layout order, shared by both operand walks.
  std::vector<IndexId> kdims;
  for (IndexId d : a.dims()) {
    if (in_group(g.k, d)) kdims.push_back(d);
  }
  TtgtLowering low;
  low.a = make_walk(a, a_block, g.batch, g.m, kdims);
  low.b = make_walk(b, b_block, g.batch, kdims, g.n);
  low.c = make_walk(c, c_block, g.batch, g.m, g.n);
  TCE_EXPECTS_MSG(low.b.batch.size() == low.batch() &&
                      low.c.batch.size() == low.batch() &&
                      low.b.rows.size() == low.k() &&
                      low.c.rows.size() == low.m() &&
                      low.c.cols.size() == low.n(),
                  "ttgt: block shapes disagree on a shared group");
  return low;
}

// Row by row: strided columns take one offset per element, and columns
// that come in runs move a run per offset.
void scatter_packed_acc(std::span<const double> buf, const PackedWalk& walk,
                        std::span<double> dst) {
  TCE_EXPECTS(buf.size() == walk.size());
  TCE_EXPECTS(last_offset(walk) < dst.size());
  const std::uint64_t* cols = walk.cols.data();
  const std::size_t n = walk.cols.size();
  const std::uint64_t run = walk.col_run;
  const double* s = buf.data();
  for (const std::uint64_t b : walk.batch) {
    for (const std::uint64_t r : walk.rows) {
      double* row = dst.data() + b + r;
      if (run == 1) {
        for (std::size_t x = 0; x < n; ++x) row[cols[x]] += s[x];
        s += n;
        continue;
      }
      for (std::size_t x = 0; x < n; x += run) {
        double* d = row + cols[x];
        for (std::uint64_t j = 0; j < run; ++j) d[j] += s[j];
        s += run;
      }
    }
  }
}

void ttgt_contract_acc(const DenseTensor& a, const DenseTensor& b,
                       IndexSet sum_indices, DenseTensor& c) {
  const TtgtGroups g = classify_ttgt(a, b, c.dims(), sum_indices);
  TCE_EXPECTS_MSG(g.covered,
                  "ttgt: operand dimension outside result and sum labels");

  // A summed label found in only one operand contributes a plain
  // reduction of that operand before the matrix product.
  const DenseTensor* pa = &a;
  const DenseTensor* pb = &b;
  DenseTensor a_red;
  DenseTensor b_red;
  if (!g.a_only_sum.empty()) {
    std::vector<IndexId> keep;
    for (IndexId d : a.dims()) {
      if (!in_group(g.a_only_sum, d)) keep.push_back(d);
    }
    a_red = einsum_reduce(a, keep);
    pa = &a_red;
  }
  if (!g.b_only_sum.empty()) {
    std::vector<IndexId> keep;
    for (IndexId d : b.dims()) {
      if (!in_group(g.b_only_sum, d)) keep.push_back(d);
    }
    b_red = einsum_reduce(b, keep);
    pb = &b_red;
  }

  const TtgtLowering low = lower_ttgt(g, *pa, pa->extents(), *pb,
                                      pb->extents(), c, c.extents());
  // Each batch slice is packed straight from the operands and
  // multiplied as a fresh product into its zeroed slice of cm.
  PackedGemm gemm(low.m(), low.k(), low.n());
  std::vector<double> ap(gemm.a_size());
  std::vector<double> bp(gemm.b_size());
  std::vector<double> cm(low.c.size(), 0.0);
  const std::size_t c_slice = low.m() * low.n();
  for (std::uint64_t bi = 0; bi < low.batch(); ++bi) {
    gemm.pack_a(pa->data().subspan(low.a.batch[bi]), low.a.rows, low.a.cols,
                ap);
    gemm.pack_b(pb->data().subspan(low.b.batch[bi]), low.b.rows, low.b.cols,
                bp);
    gemm.multiply_acc(ap, bp,
                      std::span<double>(cm).subspan(bi * c_slice, c_slice));
  }
  scatter_packed_acc(cm, low.c, c.data());

  if (obs::metrics_enabled()) {
    // The operand packs count themselves; add the zero-init and scatter
    // of the result buffer.
    obs::count("kernel.pack_bytes", 2 * cm.size() * sizeof(double));
  }
}

}  // namespace tce
