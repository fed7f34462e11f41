// Arithmetic Attribute Constraint Summary (paper §3.1, fig 4).
//
// One Aacs summarizes every arithmetic constraint that any subscription
// places on ONE attribute. It maintains a canonical partition of the real
// line into disjoint pieces; each piece carries the sorted list of
// subscription ids whose constraint is satisfied by *every* value in the
// piece. Point pieces correspond to the paper's AACS_E array (equality
// values outside the sub-ranges); non-point pieces are the AACS_SR rows.
//
// Because conjunctive constraints on the same attribute are intersected
// into an IntervalSet before insertion (see BrokerSummary), lookup by event
// value is EXACT for arithmetic attributes: an id is returned iff the value
// satisfies the subscription's full constraint set on this attribute.
// A value can hit at most one piece, so an id is never double-counted.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/interval.h"
#include "model/sub_id.h"

namespace subsum::core {

/// How incoming constraint regions combine with existing rows.
///
///  kExact  -- split pieces at the boundaries so lookups are exact for
///             arithmetic attributes (the refinement this library defaults
///             to).
///  kCoarse -- the paper's rule: a constraint whose region is INCLUDED in
///             an existing sub-range row only appends its id to that row
///             ("if it is not included in the existing sub-ranges or
///             equality values, a new row is added"). Rows then stay at
///             ~nsr per attribute and only the id lists grow, at the cost
///             of arithmetic false positives (cleaned up by the owner's
///             exact re-filter, like SACS).
enum class AacsMode : uint8_t {
  kExact = 0,
  kCoarse = 1,
};

class Aacs {
 public:
  Aacs() = default;
  explicit Aacs(AacsMode mode) : mode_(mode) {}

  [[nodiscard]] AacsMode mode() const noexcept { return mode_; }
  /// One row: a disjoint piece of the value space plus its id list.
  struct Piece {
    Interval iv;
    std::vector<model::SubId> ids;  // sorted, unique

    bool operator==(const Piece&) const = default;
  };

  /// Adds ids to the region covered by `iv`, splitting existing pieces at
  /// the boundaries so the partition stays disjoint and canonical.
  /// `ids` must be sorted and unique.
  void insert(const Interval& iv, std::span<const model::SubId> ids);

  /// Adds one subscription's (already conjunctively-intersected) constraint
  /// region. An empty set inserts nothing (unsatisfiable constraint).
  void insert(const IntervalSet& region, model::SubId id);

  /// Removes a sorted batch of subscription ids (duplicates and absent ids
  /// allowed) from every piece; empty pieces disappear and neighbouring
  /// pieces with identical lists coalesce. The result equals removing the
  /// ids one at a time.
  void remove(std::span<const model::SubId> ids);
  void remove(model::SubId id) { remove(std::span(&id, 1)); }

  /// Removes every id owned by `broker` (all ids with c1 == broker): the
  /// epoch-based discard of a restarted broker's pre-crash rows.
  void remove_broker(model::BrokerId broker);

  /// Ids whose summarized constraint is satisfied by `x`, or nullptr if the
  /// value falls outside every piece. O(log n).
  [[nodiscard]] const std::vector<model::SubId>* find(double x) const noexcept;

  /// Folds another attribute's summary for the SAME attribute into this one
  /// (multi-broker merge, paper §4.1).
  void merge(const Aacs& other);

  [[nodiscard]] const std::vector<Piece>& pieces() const noexcept { return pieces_; }
  [[nodiscard]] bool empty() const noexcept { return pieces_.empty(); }

  /// Row counts in the paper's terminology: nsr = sub-range rows,
  /// ne = equality rows.
  [[nodiscard]] size_t nsr() const noexcept;
  [[nodiscard]] size_t ne() const noexcept;

  /// Total number of subscription-id entries across all rows (Σ La).
  [[nodiscard]] size_t id_entries() const noexcept;

  [[nodiscard]] std::string to_string() const;

  /// Equality compares the rows only, not the insertion mode.
  bool operator==(const Aacs& o) const { return pieces_ == o.pieces_; }

 private:
  void coalesce(size_t begin_hint, size_t end_hint);
  /// The shared tail of the removals: drops emptied pieces and coalesces.
  void drop_empty_pieces();

  AacsMode mode_ = AacsMode::kExact;
  std::vector<Piece> pieces_;  // sorted by iv.lo, pairwise disjoint
};

}  // namespace subsum::core
