// String Attribute Constraint Summary (paper §3.1, fig 5).
//
// One Sacs summarizes every string constraint that any subscription places
// on ONE attribute. Each row holds a pattern and the sorted list of ids of
// subscriptions whose constraint the row covers. Following the paper:
//
//  * a new constraint covered by an existing row only appends its id there;
//  * a new constraint that covers existing rows SUBSTITUTES them, absorbing
//    their id lists ("if a more general constraint appears then the current
//    is substituted by the new one");
//  * otherwise a new row is added.
//
// Substitution makes SACS lossy in the safe direction: remote matching can
// return false positives (an id attached to a more general pattern) but
// never false negatives. The GeneralizePolicy bounds how lossy.
//
// Representation: equality rows are hash-indexed by operand (the common
// case — fresh subscriptions use = — becomes O(1) on insert and lookup);
// pattern rows (≠, prefix, suffix, contains) live in a scan list.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/string_constraint.h"
#include "model/sub_id.h"

namespace subsum::core {

class Sacs {
 public:
  struct Row {
    StringPattern pattern;
    std::vector<model::SubId> ids;  // sorted, unique

    bool operator==(const Row&) const = default;
  };

  explicit Sacs(GeneralizePolicy policy = GeneralizePolicy::kSafe) : policy_(policy) {}

  /// Adds one constraint of one subscription.
  void insert(const StringPattern& pattern, model::SubId id);

  /// Bulk variant used by merge; `ids` sorted and unique.
  void insert(const StringPattern& pattern, std::span<const model::SubId> ids);

  /// Removes a sorted batch of subscription ids (duplicates and absent ids
  /// allowed) from every row. Generalized rows persist until their id list
  /// empties (the covered original patterns are gone; see
  /// BrokerSummary::rebuild for the exact-restoration path). The result
  /// equals removing the ids one at a time.
  void remove(std::span<const model::SubId> ids);
  void remove(model::SubId id) { remove(std::span(&id, 1)); }

  /// Removes every id owned by `broker` (epoch-based discard of a
  /// restarted broker's pre-crash rows).
  void remove_broker(model::BrokerId broker);

  /// Sorted unique ids of subscriptions whose (summarized) constraint is
  /// satisfied by `value`. A subscription with several conjunctive
  /// constraints on this attribute is reported if ANY of them matches —
  /// the per-attribute counting of Algorithm 1 cannot distinguish more, and
  /// over-approximation is the documented, safe direction.
  [[nodiscard]] std::vector<model::SubId> find(const std::string& value) const;

  /// find() into a caller-owned buffer (cleared first, capacity reused):
  /// the allocation-free path the matching engine's MatchScratch drives.
  void find_into(const std::string& value, std::vector<model::SubId>& out) const;

  /// Folds another broker's Sacs for the same attribute into this one.
  void merge(const Sacs& other);

  /// All rows: equality rows first (insertion order), then pattern rows.
  [[nodiscard]] std::vector<Row> rows() const;

  /// Zero-copy row access for the freeze pass (core/frozen_index.cpp):
  /// equality rows in insertion order, pattern rows in scan order. The
  /// frozen lookup must visit pattern rows in exactly this order to
  /// reproduce find_into() bit for bit.
  [[nodiscard]] const std::vector<Row>& eq_rows() const noexcept { return eq_rows_; }
  [[nodiscard]] const std::vector<Row>& pat_rows() const noexcept { return pat_rows_; }

  [[nodiscard]] bool empty() const noexcept { return eq_rows_.empty() && pat_rows_.empty(); }
  [[nodiscard]] size_t nr() const noexcept { return eq_rows_.size() + pat_rows_.size(); }

  /// Total number of subscription-id entries across all rows (Σ Ls).
  [[nodiscard]] size_t id_entries() const noexcept;

  /// Total bytes of string operands stored (Σ ssv contribution).
  [[nodiscard]] size_t value_bytes() const noexcept;

  [[nodiscard]] GeneralizePolicy policy() const noexcept { return policy_; }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const Sacs& o) const {
    return eq_rows_ == o.eq_rows_ && pat_rows_ == o.pat_rows_;
  }

 private:
  void reindex_eq();
  /// The shared tail of the removals: drops emptied rows, re-indexing the
  /// equality rows when one of them went.
  void drop_empty_rows();

  GeneralizePolicy policy_;
  std::vector<Row> eq_rows_;   // pattern.op == kEq, indexed below
  std::vector<Row> pat_rows_;  // every other operator, scanned linearly
  std::unordered_map<std::string, size_t> eq_index_;  // operand -> eq_rows_ slot
};

}  // namespace subsum::core
