#include "core/aacs.h"

#include <algorithm>
#include <cassert>

namespace subsum::core {

namespace {

using model::SubId;

std::vector<SubId> union_ids(const std::vector<SubId>& a, std::span<const SubId> b) {
  std::vector<SubId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// In-place union for the coarse included-row fast path. Ids are minted in
/// increasing order per home broker, so live insertion almost always appends
/// past the end — O(1) amortized instead of a full reallocation (quadratic
/// over a large build).
void merge_ids(std::vector<SubId>& dst, std::span<const SubId> src) {
  if (src.empty()) return;
  if (dst.empty() || dst.back() < src.front()) {
    dst.insert(dst.end(), src.begin(), src.end());
    return;
  }
  dst = union_ids(dst, src);
}

}  // namespace

void Aacs::insert(const Interval& iv, std::span<const model::SubId> ids) {
  if (ids.empty()) return;
  assert(std::is_sorted(ids.begin(), ids.end()));

  // Locate the run of existing pieces overlapping iv.
  auto first = std::lower_bound(
      pieces_.begin(), pieces_.end(), iv.lo,
      [](const Piece& p, const Pos& lo) { return p.iv.hi < lo; });

  if (mode_ == AacsMode::kCoarse && first != pieces_.end() && first->iv.lo <= iv.lo &&
      iv.hi <= first->iv.hi) {
    // Included in an existing row: just extend its id list (paper §3.1).
    merge_ids(first->ids, ids);
    coalesce(static_cast<size_t>(first - pieces_.begin()),
             static_cast<size_t>(first - pieces_.begin()) + 1);
    return;
  }
  auto last = first;
  while (last != pieces_.end() && last->iv.lo <= iv.hi) ++last;

  std::vector<Piece> repl;
  const std::vector<SubId> fresh(ids.begin(), ids.end());
  Pos cursor = iv.lo;

  for (auto it = first; it != last; ++it) {
    const Piece& p = *it;
    if (p.iv.lo < cursor) {
      // p starts before the inserted region: keep its left part untouched.
      repl.push_back({{p.iv.lo, cursor.pred()}, p.ids});
    } else if (cursor < p.iv.lo) {
      // Gap before p inside iv: new piece carrying only the fresh ids.
      repl.push_back({{cursor, p.iv.lo.pred()}, fresh});
      cursor = p.iv.lo;
    }
    const Pos seg_hi = std::min(p.iv.hi, iv.hi);
    repl.push_back({{cursor, seg_hi}, union_ids(p.ids, ids)});
    if (iv.hi < p.iv.hi) {
      // p extends past the inserted region: keep its right part untouched.
      repl.push_back({{iv.hi.succ(), p.iv.hi}, p.ids});
    }
    cursor = seg_hi.succ();
  }
  if (cursor <= iv.hi) repl.push_back({{cursor, iv.hi}, fresh});

  const size_t at = static_cast<size_t>(first - pieces_.begin());
  pieces_.erase(first, last);
  pieces_.insert(pieces_.begin() + static_cast<ptrdiff_t>(at), repl.begin(), repl.end());
  coalesce(at, at + repl.size());
}

void Aacs::insert(const IntervalSet& region, model::SubId id) {
  const SubId one[] = {id};
  for (const auto& iv : region.intervals()) insert(iv, one);
}

void Aacs::remove(std::span<const model::SubId> ids) {
  assert(std::is_sorted(ids.begin(), ids.end()));
  bool changed = false;
  for (auto& p : pieces_) changed |= model::erase_ids(p.ids, ids);
  if (changed) drop_empty_pieces();
}

void Aacs::remove_broker(model::BrokerId broker) {
  bool changed = false;
  for (auto& p : pieces_) {
    changed |= std::erase_if(p.ids, [broker](const SubId& id) { return id.broker == broker; }) > 0;
  }
  if (changed) drop_empty_pieces();
}

void Aacs::drop_empty_pieces() {
  std::erase_if(pieces_, [](const Piece& p) { return p.ids.empty(); });
  coalesce(0, pieces_.size());
}

const std::vector<model::SubId>* Aacs::find(double x) const noexcept {
  const Pos p = Pos::at(x);
  auto it = std::lower_bound(pieces_.begin(), pieces_.end(), p,
                             [](const Piece& q, const Pos& pos) { return q.iv.hi < pos; });
  if (it == pieces_.end() || !(it->iv.lo <= p)) return nullptr;
  return &it->ids;
}

void Aacs::merge(const Aacs& other) {
  for (const auto& p : other.pieces_) insert(p.iv, p.ids);
}

size_t Aacs::nsr() const noexcept {
  size_t n = 0;
  for (const auto& p : pieces_) n += p.iv.is_point() ? 0 : 1;
  return n;
}

size_t Aacs::ne() const noexcept { return pieces_.size() - nsr(); }

size_t Aacs::id_entries() const noexcept {
  size_t n = 0;
  for (const auto& p : pieces_) n += p.ids.size();
  return n;
}

std::string Aacs::to_string() const {
  std::string out;
  for (const auto& p : pieces_) {
    out += p.iv.to_string() + " ->";
    for (const auto& id : p.ids) out += " " + id.to_string();
    out += "\n";
  }
  return out;
}

void Aacs::coalesce(size_t begin_hint, size_t end_hint) {
  if (pieces_.empty()) return;
  // Include one neighbour on each side of the touched region.
  size_t begin = begin_hint > 0 ? begin_hint - 1 : 0;
  size_t end = std::min(end_hint + 1, pieces_.size());
  size_t write = begin;
  for (size_t read = begin; read < end; ++read) {
    if (write > begin && pieces_[write - 1].ids == pieces_[read].ids &&
        pieces_[write - 1].iv.touches(pieces_[read].iv)) {
      pieces_[write - 1].iv.hi = pieces_[read].iv.hi;
    } else {
      if (write != read) pieces_[write] = std::move(pieces_[read]);
      ++write;
    }
  }
  pieces_.erase(pieces_.begin() + static_cast<ptrdiff_t>(write),
                pieces_.begin() + static_cast<ptrdiff_t>(end));
}

}  // namespace subsum::core
