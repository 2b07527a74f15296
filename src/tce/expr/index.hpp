#pragma once
/// \file index.hpp
/// Index variables and index sets.
///
/// A tensor contraction expression is written over a small universe of
/// *index variables* (the paper's a..l), each with an integer extent
/// (N_a = 480, ...).  IndexSpace is the registry mapping names to compact
/// ids and extents; IndexSet is a bitmask set over those ids, giving O(1)
/// unions/intersections during the search, which enumerates very many
/// fusion/distribution combinations.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tce/common/assert.hpp"
#include "tce/common/checked.hpp"

namespace tce {

/// Compact id of an index variable within an IndexSpace.  At most 64
/// variables are supported (far beyond the handful practical inputs use —
/// the paper notes "the number of index variables in practical applications
/// is usually small").
using IndexId = std::uint8_t;

inline constexpr std::size_t kMaxIndices = 64;

/// Registry of index variables: name <-> id <-> extent.
class IndexSpace {
 public:
  /// Registers a new index variable; names must be unique identifiers.
  IndexId add(std::string name, std::uint64_t extent);

  /// Number of registered variables.
  std::size_t size() const noexcept { return names_.size(); }

  /// True if \p name is registered.
  bool contains(std::string_view name) const;

  /// Id of a registered name; throws if absent.
  IndexId id(std::string_view name) const;

  /// Name of a registered id.
  const std::string& name(IndexId id) const {
    TCE_EXPECTS(id < names_.size());
    return names_[id];
  }

  /// Extent N_i of a registered id.
  std::uint64_t extent(IndexId id) const {
    TCE_EXPECTS(id < extents_.size());
    return extents_[id];
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::uint64_t> extents_;
};

/// Set of index variables as a 64-bit mask.  Value type; cheap to copy.
class IndexSet {
 public:
  constexpr IndexSet() = default;
  constexpr explicit IndexSet(std::uint64_t bits) : bits_(bits) {}

  /// Singleton set {id}.
  static constexpr IndexSet single(IndexId id) {
    return IndexSet(std::uint64_t{1} << id);
  }

  /// Builds a set from a list of ids.
  static IndexSet of(std::initializer_list<IndexId> ids) {
    IndexSet s;
    for (IndexId id : ids) s.insert(id);
    return s;
  }

  constexpr bool empty() const noexcept { return bits_ == 0; }
  constexpr std::size_t count() const noexcept {
    return static_cast<std::size_t>(__builtin_popcountll(bits_));
  }
  /// False for out-of-range ids — in particular kNoIndex, which callers
  /// routinely pass for unassigned distribution positions.
  constexpr bool contains(IndexId id) const noexcept {
    return id < kMaxIndices && ((bits_ >> id) & 1u) != 0;
  }

  void insert(IndexId id) {
    TCE_EXPECTS(id < kMaxIndices);
    bits_ |= std::uint64_t{1} << id;
  }
  void erase(IndexId id) noexcept {
    if (id < kMaxIndices) bits_ &= ~(std::uint64_t{1} << id);
  }

  constexpr std::uint64_t bits() const noexcept { return bits_; }

  constexpr bool subset_of(IndexSet other) const noexcept {
    return (bits_ & ~other.bits_) == 0;
  }

  friend constexpr IndexSet operator|(IndexSet a, IndexSet b) {
    return IndexSet(a.bits_ | b.bits_);
  }
  friend constexpr IndexSet operator&(IndexSet a, IndexSet b) {
    return IndexSet(a.bits_ & b.bits_);
  }
  /// Set difference a − b.
  friend constexpr IndexSet operator-(IndexSet a, IndexSet b) {
    return IndexSet(a.bits_ & ~b.bits_);
  }
  friend constexpr bool operator==(IndexSet a, IndexSet b) {
    return a.bits_ == b.bits_;
  }
  friend constexpr bool operator!=(IndexSet a, IndexSet b) {
    return a.bits_ != b.bits_;
  }
  /// Arbitrary strict ordering, for use as map keys.
  friend constexpr bool operator<(IndexSet a, IndexSet b) {
    return a.bits_ < b.bits_;
  }

  /// Iterates over members in increasing id order.
  class iterator {
   public:
    explicit constexpr iterator(std::uint64_t bits) : bits_(bits) {}
    IndexId operator*() const {
      return static_cast<IndexId>(__builtin_ctzll(bits_));
    }
    iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    constexpr bool operator!=(const iterator& o) const {
      return bits_ != o.bits_;
    }

   private:
    std::uint64_t bits_;
  };
  iterator begin() const { return iterator(bits_); }
  iterator end() const { return iterator(0); }

  /// Product of extents of all members (1 for the empty set).
  std::uint64_t extent_product(const IndexSpace& space) const {
    std::uint64_t p = 1;
    for (IndexId id : *this) p = checked_mul(p, space.extent(id));
    return p;
  }

  /// Renders as "{a,c,k}" using names from \p space.
  std::string str(const IndexSpace& space) const;

 private:
  std::uint64_t bits_ = 0;
};

/// Enumerates all subsets of \p s (including empty and s itself), invoking
/// \p fn on each.  Used by the fusion search, which considers every subset
/// of fusable indices.
template <typename Fn>
void for_each_subset(IndexSet s, Fn&& fn) {
  const std::uint64_t m = s.bits();
  std::uint64_t sub = m;
  while (true) {
    fn(IndexSet(sub));
    if (sub == 0) break;
    sub = (sub - 1) & m;
  }
}

}  // namespace tce
