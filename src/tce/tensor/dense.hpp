#pragma once
/// \file dense.hpp
/// Dense in-memory tensors with symbolic dimension labels.
///
/// DenseTensor is the numeric counterpart of the symbolic TensorRef: a
/// row-major array whose dimensions are labeled with IndexIds.  Labels
/// let the einsum evaluator and the distributed-block machinery match
/// dimensions structurally instead of positionally.  Extents are carried
/// per tensor (not taken from the IndexSpace) because distributed *blocks*
/// are themselves DenseTensors with reduced extents.

#include <cstdint>
#include <span>
#include <vector>

#include "tce/common/rng.hpp"
#include "tce/expr/index.hpp"

namespace tce {

/// A labeled dense row-major tensor of doubles.
class DenseTensor {
 public:
  /// Rank-0 scalar (one element, value 0).
  DenseTensor() : data_(1, 0.0) {}

  /// Zero-initialized tensor; \p dims and \p extents run parallel.
  DenseTensor(std::vector<IndexId> dims, std::vector<std::uint64_t> extents);

  std::size_t rank() const noexcept { return dims_.size(); }
  const std::vector<IndexId>& dims() const noexcept { return dims_; }
  const std::vector<std::uint64_t>& extents() const noexcept {
    return extents_;
  }

  /// Extent of the dimension labeled \p id; throws if absent.
  std::uint64_t extent_of(IndexId id) const;
  /// Position of the dimension labeled \p id; throws if absent.
  std::size_t pos_of(IndexId id) const;
  /// True when a dimension labeled \p id exists.
  bool has_dim(IndexId id) const;

  /// Total element count.
  std::uint64_t size() const noexcept { return data_.size(); }

  /// Flat storage offset of multi-index \p idx (one entry per
  /// dimension, in dims() order).
  std::uint64_t offset(std::span<const std::uint64_t> idx) const;

  /// Element access by multi-index (one entry per dimension, in dims()
  /// order).
  double& at(std::span<const std::uint64_t> idx);
  double at(std::span<const std::uint64_t> idx) const;

  /// Flat storage.
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  /// Row-major stride of dimension \p pos.
  std::uint64_t stride(std::size_t pos) const {
    TCE_EXPECTS(pos < strides_.size());
    return strides_[pos];
  }

  /// Fills with uniform [-1, 1) values.
  void fill_random(Rng& rng);
  /// Sets every element to \p v.
  void fill(double v);

  /// Max |a-b| over elements; requires identical dims and extents.
  double max_abs_diff(const DenseTensor& other) const;

 private:
  std::vector<IndexId> dims_;
  std::vector<std::uint64_t> extents_;
  std::vector<std::uint64_t> strides_;
  std::vector<double> data_;
};

/// Odometer over a multi-dimensional index space.  advance() steps the
/// last dimension fastest and returns false after the final position.
class MultiIndex {
 public:
  explicit MultiIndex(std::span<const std::uint64_t> extents)
      : extents_(extents.begin(), extents.end()),
        idx_(extents.size(), 0) {}

  std::span<const std::uint64_t> values() const noexcept { return idx_; }
  std::uint64_t operator[](std::size_t i) const { return idx_[i]; }

  /// Total positions (product of extents; 1 for rank 0).
  std::uint64_t count() const {
    std::uint64_t c = 1;
    for (std::uint64_t e : extents_) c = checked_mul(c, e);
    return c;
  }

  bool advance() {
    for (std::size_t i = idx_.size(); i-- > 0;) {
      if (++idx_[i] < extents_[i]) return true;
      idx_[i] = 0;
    }
    return false;
  }

 private:
  std::vector<std::uint64_t> extents_;
  std::vector<std::uint64_t> idx_;
};

}  // namespace tce
