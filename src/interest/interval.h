#ifndef DSPS_INTEREST_INTERVAL_H_
#define DSPS_INTEREST_INTERVAL_H_

#include <algorithm>
#include <vector>

namespace dsps::interest {

/// A closed numeric interval [lo, hi]. Empty when lo > hi.
struct Interval {
  double lo = 0.0;
  double hi = -1.0;

  static Interval All() { return Interval{-1e300, 1e300}; }

  bool empty() const { return lo > hi; }
  double length() const { return empty() ? 0.0 : hi - lo; }
  bool Contains(double x) const { return x >= lo && x <= hi; }
  bool Overlaps(const Interval& o) const {
    return !empty() && !o.empty() && lo <= o.hi && o.lo <= hi;
  }
  Interval Intersect(const Interval& o) const {
    return Interval{std::max(lo, o.lo), std::min(hi, o.hi)};
  }
  /// True if `o` lies entirely inside this interval.
  bool Covers(const Interval& o) const {
    return o.empty() || (!empty() && lo <= o.lo && o.hi <= hi);
  }

  /// Exact representation equality (bitwise-equal bounds) — the basis of
  /// the change-detection cutoffs that skip republishing unchanged
  /// interest. Distinct empty representations compare unequal on purpose:
  /// "no change" must mean the stored bytes are the same.
  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }
};

/// An axis-aligned box: one interval per attribute dimension. All boxes of
/// one stream have the same dimensionality (the stream's numeric-attribute
/// count).
using Box = std::vector<Interval>;

/// True if every dimension of `box` contains the matching coordinate.
/// `point` must have at least box.size() coordinates.
inline bool BoxContains(const Box& box, const double* point) {
  for (size_t d = 0; d < box.size(); ++d) {
    if (!box[d].Contains(point[d])) return false;
  }
  return true;
}

/// The flat layout every index stab reads: a box's bounds stored as lo, hi
/// per dimension, box after box in one contiguous array.
inline void AppendBounds(const Box& box, std::vector<double>* bounds) {
  for (const Interval& iv : box) {
    bounds->push_back(iv.lo);
    bounds->push_back(iv.hi);
  }
}

/// True if the `dims`-dimensional box whose flat bounds start at `bounds`
/// contains `point` (same answer as BoxContains). Every dimension is
/// evaluated, so a scan takes one data-dependent branch per box and none
/// per dimension.
inline bool BoundsContain(const double* bounds, const double* point,
                          size_t dims) {
  bool in = true;
  for (size_t d = 0; d < dims; ++d) {
    in &= (point[d] >= bounds[2 * d]) & (point[d] <= bounds[2 * d + 1]);
  }
  return in;
}

/// True if the non-empty box whose flat bounds start at `bounds` overlaps
/// the non-empty `query` in every dimension (same answer as
/// Interval::Overlaps per dimension), without a branch per dimension.
inline bool BoundsOverlap(const double* bounds, const Box& query) {
  bool overlaps = true;
  for (size_t d = 0; d < query.size(); ++d) {
    overlaps &= (bounds[2 * d] <= query[d].hi) &
                (query[d].lo <= bounds[2 * d + 1]);
  }
  return overlaps;
}

/// Per-dimension intersection; the result is empty if any dim is empty.
inline Box BoxIntersect(const Box& a, const Box& b) {
  Box out(a.size());
  for (size_t d = 0; d < a.size(); ++d) out[d] = a[d].Intersect(b[d]);
  return out;
}

inline bool BoxEmpty(const Box& box) {
  for (const Interval& iv : box) {
    if (iv.empty()) return true;
  }
  return false;
}

inline double BoxVolume(const Box& box) {
  double v = 1.0;
  for (const Interval& iv : box) v *= iv.length();
  return BoxEmpty(box) ? 0.0 : v;
}

/// True if box `a` covers box `b` in every dimension. A box constrains
/// only its own dimensions: `b` is unbounded in any dimension it lacks,
/// so a box with more dimensions than a non-empty `b` is taken not to
/// cover it.
inline bool BoxCovers(const Box& a, const Box& b) {
  if (BoxEmpty(b)) return true;
  if (a.size() > b.size()) return false;
  for (size_t d = 0; d < a.size(); ++d) {
    if (!a[d].Covers(b[d])) return false;
  }
  return true;
}

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_INTERVAL_H_
