#include "tce/tensor/ttgt.hpp"

#include <algorithm>
#include <utility>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/matmul.hpp"

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
  PackedWalk w;
  auto add = [&](const std::vector<IndexId>& dims, std::uint64_t& product) {
    for (IndexId id : dims) {
      const std::size_t pos = t.pos_of(id);
      TCE_EXPECTS(block[pos] > 0 && block[pos] <= t.extents()[pos]);
      w.extents.push_back(block[pos]);
      w.strides.push_back(t.stride(pos));
      product = checked_mul(product, block[pos]);
    }
  };
  add(batch_dims, w.batch);
  add(row_dims, w.rows);
  add(col_dims, w.cols);
  return w;
}

/// Offset of the walk's last element from the block origin.
std::uint64_t last_offset(const PackedWalk& w) {
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < w.strides.size(); ++i) {
    off = checked_add(off, checked_mul(w.extents[i] - 1, w.strides[i]));
  }
  return off;
}

/// for_each_run's walk over dimensions \p dim onward: \p from is the
/// block offset of the position fixed in the dimensions before \p dim,
/// and \p to the packed offset of the next run.
template <typename Fn>
void walk_runs(const PackedWalk& w, std::size_t dim, std::uint64_t from,
               std::uint64_t& to, Fn& run) {
  const std::size_t inner = w.extents.size() - 1;
  if (dim == inner) {
    run(from, to);
    to += w.extents[inner];
    return;
  }
  for (std::uint64_t x = 0; x < w.extents[dim]; ++x) {
    walk_runs(w, dim + 1, from, to, run);
    from += w.strides[dim];
  }
}

/// Calls run(from, to) for every innermost run of \p w: the run starts
/// at offset `from` of the block and at offset `to` of the packed
/// buffer, and is w.extents.back() elements long (1 at rank 0).  The
/// block offset is carried forward as the outer dimensions advance.
template <typename Fn>
void for_each_run(const PackedWalk& w, Fn&& run) {
  if (w.extents.empty()) {
    run(std::uint64_t{0}, std::uint64_t{0});
    return;
  }
  std::uint64_t to = 0;
  walk_runs(w, 0, 0, to, run);
}

/// Length and stride of the walk's innermost runs.
std::pair<std::uint64_t, std::uint64_t> inner_run(const PackedWalk& w) {
  if (w.extents.empty()) return {1, 1};
  return {w.extents.back(), w.strides.back()};
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
  for (IndexId d : g.batch) {
    g.batch_elems = checked_mul(g.batch_elems, a.extent_of(d));
  }
  for (IndexId d : g.m) g.m_elems = checked_mul(g.m_elems, a.extent_of(d));
  for (IndexId d : g.n) g.n_elems = checked_mul(g.n_elems, b.extent_of(d));
  for (IndexId d : g.k) g.k_elems = checked_mul(g.k_elems, a.extent_of(d));
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
  TCE_EXPECTS_MSG(low.b.batch == low.a.batch && low.c.batch == low.a.batch &&
                      low.b.rows == low.a.cols && low.c.rows == low.a.rows &&
                      low.c.cols == low.b.cols,
                  "ttgt: block shapes disagree on a shared group");
  return low;
}

void gather_packed(std::span<const double> src, const PackedWalk& walk,
                   std::span<double> out) {
  TCE_EXPECTS(out.size() == walk.size());
  TCE_EXPECTS(last_offset(walk) < src.size());
  const auto [len, stride] = inner_run(walk);
  for_each_run(walk, [&](std::uint64_t from, std::uint64_t to) {
    const double* s = src.data() + from;
    double* d = out.data() + to;
    if (stride == 1) {
      std::copy_n(s, len, d);
    } else {
      for (std::uint64_t j = 0; j < len; ++j) d[j] = s[j * stride];
    }
  });
}

void scatter_packed_acc(std::span<const double> buf, const PackedWalk& walk,
                        std::span<double> dst) {
  TCE_EXPECTS(buf.size() == walk.size());
  TCE_EXPECTS(last_offset(walk) < dst.size());
  const auto [len, stride] = inner_run(walk);
  for_each_run(walk, [&](std::uint64_t from, std::uint64_t to) {
    double* d = dst.data() + from;
    const double* s = buf.data() + to;
    if (stride == 1) {
      for (std::uint64_t j = 0; j < len; ++j) d[j] += s[j];
    } else {
      for (std::uint64_t j = 0; j < len; ++j) d[j * stride] += s[j];
    }
  });
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
  std::vector<double> am(low.a.size());
  std::vector<double> bm(low.b.size());
  std::vector<double> cm(low.c.size(), 0.0);
  gather_packed(pa->data(), low.a, am);
  gather_packed(pb->data(), low.b, bm);

  const std::size_t a_slice = low.a.rows * low.a.cols;
  const std::size_t b_slice = low.b.rows * low.b.cols;
  const std::size_t c_slice = low.c.rows * low.c.cols;
  for (std::uint64_t bi = 0; bi < low.batch(); ++bi) {
    matmul_acc(std::span<const double>(am).subspan(bi * a_slice, a_slice),
               std::span<const double>(bm).subspan(bi * b_slice, b_slice),
               std::span<double>(cm).subspan(bi * c_slice, c_slice),
               low.m(), low.k(), low.n());
  }
  scatter_packed_acc(cm, low.c, c.data());

  if (obs::metrics_enabled()) {
    // Pack traffic of the lowering itself: both operand gathers plus
    // the zero-init and scatter of the result buffer.
    obs::count("kernel.pack_bytes",
               (am.size() + bm.size() + 2 * cm.size()) * sizeof(double));
  }
}

}  // namespace tce
