#ifndef DSPS_INTEREST_INTEREST_H_
#define DSPS_INTEREST_INTEREST_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/ids.h"
#include "interest/interval.h"

namespace dsps::interest {

/// The simplification kernel behind InterestSet::Simplify and every
/// dissemination-subtree aggregate. Sets (*keep)[i] to 1 if boxes[i]
/// survives and 0 if it is dropped, and returns the number kept. A box is
/// dropped when another box covers it (BoxCovers), except that of several
/// identical boxes the first stays. The survivors, read in input order,
/// are the simplified list.
///
/// Non-empty boxes are swept in (lo ascending, hi descending) order per
/// dimension, so every box that could cover a box is visited before it,
/// while the surviving visited boxes stay sorted by their leading upper
/// bound: each box is tested only against survivors whose leading
/// interval covers its own, not against all m boxes. Covering is
/// transitive, so testing against survivors alone decides exactly what
/// the pairwise rule decides. Bounds must not be NaN.
size_t SimplifyKeep(const std::vector<const Box*>& boxes,
                    std::vector<uint8_t>* keep);

/// A query's interest in one stream: a conjunctive box predicate over the
/// stream's numeric attributes ("price in [10, 20] AND volume >= 1000").
struct InterestSpec {
  common::StreamId stream = common::kInvalidStream;
  Box box;
};

/// The data interest of a query, an entity, or a dissemination subtree: for
/// each stream, a union (disjunction) of boxes. This is the representation
/// used both for early filtering in the dissemination trees (Section 3.1)
/// and for the overlap edge weights of the query graph (Section 3.2.2).
class InterestSet {
 public:
  InterestSet() = default;

  /// Adds one box of interest on `stream`. Empty boxes are ignored.
  void Add(common::StreamId stream, Box box);
  void Add(const InterestSpec& spec) { Add(spec.stream, spec.box); }

  /// Merges all of `other`'s boxes into this set (set union).
  void MergeFrom(const InterestSet& other);

  /// Merges `other` and re-simplifies exactly the streams it touches,
  /// appending to `changed` the ids of streams whose stored boxes are not
  /// bitwise-identical afterwards. Because Simplify() treats streams
  /// independently and is idempotent, this is bit-identical to
  /// MergeFrom(other) followed by Simplify() whenever this set is already
  /// simplified. Streams `other` lacks are not visited; each touched
  /// stream costs one SimplifyKeep over its merged boxes, and a stream
  /// whose keep flags keep exactly its old boxes is reported unchanged
  /// without being rewritten. The changed list is what lets install paths
  /// skip republishing unchanged streams (itself a no-op by the
  /// subscribers' change-detection cutoffs).
  void MergeSimplifyFrom(const InterestSet& other,
                         std::vector<common::StreamId>* changed);

  /// True if this set has any interest in `stream`.
  bool InterestedIn(common::StreamId stream) const;

  /// True if a tuple of `stream` with the given attribute values matches
  /// any box. `point` must have at least as many coordinates as the boxes'
  /// dimensionality. Unknown streams never match.
  bool Matches(common::StreamId stream, const double* point) const;

  /// The boxes registered for `stream` (nullptr if none).
  const std::vector<Box>* boxes_for(common::StreamId stream) const;

  /// Streams this set is interested in, ascending.
  std::vector<common::StreamId> streams() const;

  /// The smallest stream id with interest (streams()[0] without the
  /// allocation); kInvalidStream when the set is empty. Hot on the
  /// query-install path, where routing anchors on the primary stream.
  common::StreamId leading_stream() const;

  /// Read-only per-stream view (ascending stream order). May contain
  /// streams whose box list is empty; streams() filters those.
  const std::map<common::StreamId, std::vector<Box>>& boxes_by_stream() const {
    return boxes_;
  }

  /// Drops boxes fully covered by another box of the same stream (see
  /// SimplifyKeep). Keeps Matches() semantics; shrinks the representation
  /// shipped to ancestors.
  void Simplify();

  /// Total number of boxes across all streams (the size of the
  /// representation an entity ships to its dissemination parent).
  int64_t TotalBoxes() const;

  bool empty() const { return boxes_.empty(); }
  void Clear() { boxes_.clear(); }

  /// Exact representation equality: same streams, same boxes in the same
  /// order, bitwise-equal bounds. Callers that republish interest sets
  /// use this as a change-detection cutoff.
  friend bool operator==(const InterestSet& a, const InterestSet& b) {
    return a.boxes_ == b.boxes_;
  }
  friend bool operator!=(const InterestSet& a, const InterestSet& b) {
    return !(a == b);
  }

 private:
  std::map<common::StreamId, std::vector<Box>> boxes_;
};

}  // namespace dsps::interest

#endif  // DSPS_INTEREST_INTEREST_H_
