#include "tce/tensor/dense.hpp"

#include "tce/common/error.hpp"

namespace tce {

DenseTensor::DenseTensor(std::vector<IndexId> dims,
                         std::vector<std::uint64_t> extents)
    : dims_(std::move(dims)), extents_(std::move(extents)) {
  TCE_EXPECTS(dims_.size() == extents_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    TCE_EXPECTS(extents_[i] > 0);
    for (std::size_t j = i + 1; j < dims_.size(); ++j) {
      TCE_EXPECTS_MSG(dims_[i] != dims_[j],
                      "tensor repeats a dimension label");
    }
  }
  strides_.assign(dims_.size(), 1);
  std::uint64_t total = 1;
  for (std::size_t i = dims_.size(); i-- > 0;) {
    strides_[i] = total;
    total = checked_mul(total, extents_[i]);
  }
  data_.assign(total, 0.0);
}

std::uint64_t DenseTensor::extent_of(IndexId id) const {
  return extents_[pos_of(id)];
}

std::size_t DenseTensor::pos_of(IndexId id) const {
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i] == id) return i;
  }
  throw Error("tensor has no dimension with the requested label");
}

bool DenseTensor::has_dim(IndexId id) const {
  for (IndexId d : dims_) {
    if (d == id) return true;
  }
  return false;
}

std::uint64_t DenseTensor::offset(std::span<const std::uint64_t> idx) const {
  TCE_EXPECTS(idx.size() == dims_.size());
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    TCE_EXPECTS(idx[i] < extents_[i]);
    off += idx[i] * strides_[i];
  }
  return off;
}

double& DenseTensor::at(std::span<const std::uint64_t> idx) {
  return data_[offset(idx)];
}

double DenseTensor::at(std::span<const std::uint64_t> idx) const {
  return const_cast<DenseTensor*>(this)->at(idx);
}

void DenseTensor::fill_random(Rng& rng) {
  for (double& v : data_) v = rng.uniform_real(-1.0, 1.0);
}

void DenseTensor::fill(double v) {
  for (double& x : data_) x = v;
}

double DenseTensor::max_abs_diff(const DenseTensor& other) const {
  TCE_EXPECTS_MSG(dims_ == other.dims_ && extents_ == other.extents_,
                  "max_abs_diff requires identical shapes");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

}  // namespace tce
