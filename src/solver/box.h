// An axis-aligned box: one interval per solver variable — plus the pooled
// flat storage the branch-and-prune frontier lives in.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "interval/interval.h"
#include "support/json.h"

namespace xcv::solver {

// ---- Span-based box operations ----------------------------------------------
// The frontier stores boxes as flat interval runs inside an arena (BoxStore
// below); these free functions are the box vocabulary over any contiguous
// interval run, and the Box value type delegates to them.

/// True if any dimension is the empty interval (box denotes ∅).
bool AnyEmpty(std::span<const Interval> dims);

/// Width of the widest dimension (0 for a point box).
double MaxWidth(std::span<const Interval> dims);

/// Index of the widest dimension. Requires a non-empty span.
std::size_t WidestDim(std::span<const Interval> dims);

/// Geometric midpoint, one coordinate per dimension.
std::vector<double> Midpoint(std::span<const Interval> dims);

/// True if the point (sized like the span) lies inside every dimension.
bool ContainsPoint(std::span<const Interval> dims,
                   std::span<const double> point);

std::string BoxToString(std::span<const Interval> dims);

// Bit-pattern box identity (-0.0 ≠ 0.0) and its order (BoxBitsLess, after
// Box below), the shared vocabulary of every exact-replay key in the repo:
// verdict-cache lookups, the shard cache union, shard-merge leaf/frontier
// dedup. Deterministic splitting regenerates boxes bit-for-bit, which is
// what makes these exact comparisons sound.

/// True if `a` and `b` have identical bit patterns.
inline bool SameDoubleBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// True if every endpoint of `a` matches `b` bit-for-bit.
inline bool SameBoxBits(std::span<const Interval> a,
                        std::span<const Interval> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!SameDoubleBits(a[i].lo(), b[i].lo()) ||
        !SameDoubleBits(a[i].hi(), b[i].hi()))
      return false;
  return true;
}

// ---- JSON codec -------------------------------------------------------------
// The box form [[lo,hi],...] and the point form [x,...] that checkpoints and
// verdict caches share (json::AppendDouble: %.17g, quoted non-finite).

void AppendPointJson(std::string& out, std::span<const double> point);
void AppendBoxJson(std::string& out, std::span<const Interval> dims);
/// Throws xcv::InternalError unless `v` is an array of numbers.
std::vector<double> PointFromJson(const json::JsonValue& v);
/// Throws xcv::InternalError unless `v` is an array of [lo, hi] pairs.
std::vector<Interval> BoxFromJson(const json::JsonValue& v);
/// The same two forms, read off the cursor's next value.
std::vector<double> PointFromJson(json::Cursor& cursor);
std::vector<Interval> BoxFromJson(json::Cursor& cursor);

/// Interval vector indexed by variable index. Value type; cheap to copy for
/// the dimensionalities used here (2–3 variables).
class Box {
 public:
  Box() = default;
  explicit Box(std::vector<Interval> dims) : dims_(std::move(dims)) {}
  explicit Box(std::span<const Interval> dims)
      : dims_(dims.begin(), dims.end()) {}

  std::size_t size() const { return dims_.size(); }
  const Interval& operator[](std::size_t i) const { return dims_[i]; }
  Interval& operator[](std::size_t i) { return dims_[i]; }
  std::span<const Interval> dims() const { return dims_; }
  std::span<Interval> MutableDims() { return dims_; }

  /// True if any dimension is the empty interval (box denotes ∅).
  bool AnyEmpty() const { return solver::AnyEmpty(dims_); }

  /// Width of the widest dimension (0 for a point box).
  double MaxWidth() const { return solver::MaxWidth(dims_); }

  /// Index of the widest dimension. Requires size() > 0.
  std::size_t WidestDim() const { return solver::WidestDim(dims_); }

  /// Geometric midpoint, one coordinate per dimension.
  std::vector<double> Midpoint() const { return solver::Midpoint(dims_); }

  /// Splits dimension `dim` at its midpoint. Requires that dimension to be
  /// non-empty and wider than a point.
  std::pair<Box, Box> Bisect(std::size_t dim) const;

  /// True if the point (sized like the box) lies inside every dimension.
  bool Contains(std::span<const double> point) const {
    return ContainsPoint(dims_, point);
  }

  std::string ToString() const { return BoxToString(dims_); }

 private:
  std::vector<Interval> dims_;
};

/// The one exact box key: a strict total order on endpoint bit patterns, so
/// two boxes are equivalent exactly when SameBoxBits holds. Every container
/// keyed by boxes orders by it: the verdict cache's entries (which makes it
/// the cache file's order) and the shard merge's leaf and frontier dedup.
/// Transparent: a stored interval vector compares with a span, no copy.
struct BoxBitsLess {
  using is_transparent = void;

  bool operator()(std::span<const Interval> a,
                  std::span<const Interval> b) const {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto alo = std::bit_cast<std::uint64_t>(a[i].lo());
      const auto blo = std::bit_cast<std::uint64_t>(b[i].lo());
      if (alo != blo) return alo < blo;
      const auto ahi = std::bit_cast<std::uint64_t>(a[i].hi());
      const auto bhi = std::bit_cast<std::uint64_t>(b[i].hi());
      if (ahi != bhi) return ahi < bhi;
    }
    return a.size() < b.size();
  }
  bool operator()(const Box& a, const Box& b) const {
    return (*this)(a.dims(), b.dims());
  }
};

// ---- Pooled frontier storage ------------------------------------------------

/// Flat arena of fixed-dimension boxes with free-list recycling: the open
/// frontier of branch-and-prune (and of the verifier engine) allocates one
/// slot per node instead of one heap vector per box. A slot is `dims`
/// contiguous Intervals (dims × 2 doubles), so a wave of sibling boxes can
/// be gathered into SoA lanes with simple strided reads.
///
/// Slots are addressed by index (Ref); Allocate may grow the arena, which
/// invalidates outstanding spans (like vector iterators) but never Refs.
/// Not thread-safe; owners lock around it (the verifier engine) or confine
/// it to one worker (the solver).
class BoxStore {
 public:
  using Ref = std::int32_t;

  BoxStore() = default;
  explicit BoxStore(std::size_t dims) : dims_(dims) {}

  std::size_t dims() const { return dims_; }

  /// Number of live (allocated, unreleased) slots.
  std::size_t live() const { return slots_ - free_.size(); }

  /// Total slots ever allocated (high-water mark).
  std::size_t capacity() const { return slots_; }

  /// Drops every slot and switches to `dims`-dimensional boxes, keeping the
  /// arena memory for reuse.
  void Reset(std::size_t dims);

  /// Allocates a slot with uninitialized contents. Invalidates spans
  /// obtained from View (the arena may grow).
  Ref Allocate();

  /// Allocates a slot holding a copy of `src` (sized dims()). `src` may
  /// alias this store's own arena — the copy is staged.
  Ref AllocateCopy(std::span<const Interval> src);

  /// Returns `ref`'s slot to the free list for recycling.
  void Release(Ref ref);

  std::span<Interval> View(Ref ref) {
    return {arena_.data() + static_cast<std::size_t>(ref) * dims_, dims_};
  }
  std::span<const Interval> View(Ref ref) const {
    return {arena_.data() + static_cast<std::size_t>(ref) * dims_, dims_};
  }

 private:
  std::size_t dims_ = 0;
  std::size_t slots_ = 0;             // arena size in slots
  std::vector<Interval> arena_;       // slots_ × dims_ intervals
  std::vector<Ref> free_;             // recycled slot indices (LIFO)
  std::vector<Interval> staging_;     // AllocateCopy bounce buffer
};

}  // namespace xcv::solver
