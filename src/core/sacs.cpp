#include "core/sacs.h"

#include <algorithm>

namespace subsum::core {

namespace {

using model::SubId;

void merge_into(std::vector<SubId>& dst, std::span<const SubId> src) {
  if (src.empty()) return;
  if (dst.empty() || dst.back() < src.front()) {
    // Ids are minted in increasing order per home broker, so live insertion
    // almost always appends past the end — O(1) amortized instead of the
    // full set_union reallocation (quadratic over a large build).
    dst.insert(dst.end(), src.begin(), src.end());
    return;
  }
  std::vector<SubId> out;
  out.reserve(dst.size() + src.size());
  std::set_union(dst.begin(), dst.end(), src.begin(), src.end(), std::back_inserter(out));
  dst = std::move(out);
}

}  // namespace

void Sacs::insert(const StringPattern& pattern, model::SubId id) {
  const SubId one[] = {id};
  insert(pattern, one);
}

void Sacs::insert(const StringPattern& pattern, std::span<const model::SubId> ids) {
  if (ids.empty()) return;

  if (pattern.op == model::Op::kEq) {
    // Fast path: an identical equality row always covers the constraint.
    if (auto it = eq_index_.find(pattern.operand); it != eq_index_.end()) {
      merge_into(eq_rows_[it->second].ids, ids);
      return;
    }
    // A pattern row may cover the equality (e.g. a prefix over its value).
    for (auto& row : pat_rows_) {
      if (covers(row.pattern, pattern, policy_)) {
        merge_into(row.ids, ids);
        return;
      }
    }
    eq_index_.emplace(pattern.operand, eq_rows_.size());
    eq_rows_.push_back({pattern, {ids.begin(), ids.end()}});
    return;
  }

  // Pattern constraint: covered by an existing pattern row?
  for (auto& row : pat_rows_) {
    if (covers(row.pattern, pattern, policy_)) {
      merge_into(row.ids, ids);
      return;
    }
  }
  // It may cover (substitute) existing pattern and equality rows.
  Row fresh{pattern, {ids.begin(), ids.end()}};
  std::erase_if(pat_rows_, [&](const Row& row) {
    if (covers(pattern, row.pattern, policy_)) {
      merge_into(fresh.ids, row.ids);
      return true;
    }
    return false;
  });
  const size_t eq_before = eq_rows_.size();
  std::erase_if(eq_rows_, [&](const Row& row) {
    if (covers(pattern, row.pattern, policy_)) {
      merge_into(fresh.ids, row.ids);
      return true;
    }
    return false;
  });
  if (eq_rows_.size() != eq_before) reindex_eq();
  pat_rows_.push_back(std::move(fresh));
}

void Sacs::remove(std::span<const model::SubId> ids) {
  for (auto& row : pat_rows_) model::erase_ids(row.ids, ids);
  for (auto& row : eq_rows_) model::erase_ids(row.ids, ids);
  drop_empty_rows();
}

void Sacs::remove_broker(model::BrokerId broker) {
  const auto owned = [broker](const SubId& id) { return id.broker == broker; };
  for (auto& row : pat_rows_) std::erase_if(row.ids, owned);
  for (auto& row : eq_rows_) std::erase_if(row.ids, owned);
  drop_empty_rows();
}

void Sacs::drop_empty_rows() {
  const auto empty = [](const Row& row) { return row.ids.empty(); };
  std::erase_if(pat_rows_, empty);
  if (std::erase_if(eq_rows_, empty) > 0) reindex_eq();
}

std::vector<model::SubId> Sacs::find(const std::string& value) const {
  std::vector<SubId> out;
  find_into(value, out);
  return out;
}

void Sacs::find_into(const std::string& value, std::vector<model::SubId>& out) const {
  out.clear();
  size_t rows_hit = 0;
  if (auto it = eq_index_.find(value); it != eq_index_.end()) {
    const auto& ids = eq_rows_[it->second].ids;
    out.insert(out.end(), ids.begin(), ids.end());
    ++rows_hit;
  }
  for (const auto& row : pat_rows_) {
    if (row.pattern.matches(value)) {
      out.insert(out.end(), row.ids.begin(), row.ids.end());
      ++rows_hit;
    }
  }
  // Each row's list is sorted and unique; a single hit needs no post-pass.
  if (rows_hit > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

void Sacs::merge(const Sacs& other) {
  for (const auto& row : other.eq_rows_) insert(row.pattern, row.ids);
  for (const auto& row : other.pat_rows_) insert(row.pattern, row.ids);
}

std::vector<Sacs::Row> Sacs::rows() const {
  std::vector<Row> out;
  out.reserve(nr());
  out.insert(out.end(), eq_rows_.begin(), eq_rows_.end());
  out.insert(out.end(), pat_rows_.begin(), pat_rows_.end());
  return out;
}

size_t Sacs::id_entries() const noexcept {
  size_t n = 0;
  for (const auto& row : eq_rows_) n += row.ids.size();
  for (const auto& row : pat_rows_) n += row.ids.size();
  return n;
}

size_t Sacs::value_bytes() const noexcept {
  size_t n = 0;
  for (const auto& row : eq_rows_) n += row.pattern.operand.size();
  for (const auto& row : pat_rows_) n += row.pattern.operand.size();
  return n;
}

std::string Sacs::to_string() const {
  std::string out;
  for (const auto& row : rows()) {
    out += row.pattern.to_string() + " ->";
    for (const auto& id : row.ids) out += " " + id.to_string();
    out += "\n";
  }
  return out;
}

void Sacs::reindex_eq() {
  eq_index_.clear();
  for (size_t i = 0; i < eq_rows_.size(); ++i) {
    eq_index_.emplace(eq_rows_[i].pattern.operand, i);
  }
}

}  // namespace subsum::core
