// FrozenIndex: an immutable, sharded, structure-of-arrays snapshot of one
// BrokerSummary, built for the million-subscription matching path.
//
// The live AACS/SACS structures are optimized for mutation: per-piece
// std::vector<SubId> id lists (16 bytes per entry) scattered across the
// heap. At N >= ~10^6 ids, Algorithm 1's two passes over those lists are
// dominated by cache misses and by resetting the dense counter range. The
// frozen index rebuilds the same rows into flat arrays:
//
//  * Slots. The distinct SubIds across all rows are sorted; a
//    subscription's SLOT is its rank, so slot order == SubId order and a
//    sorted slot list translates back to a sorted id list for free.
//    Slots fit 26 bits (kMaxSlots), leaving 6 bits to pack each entry as
//        entry = (slot << 6) | (popcount(c3) - 1)
//    — one u32 carries both the id and its required match count, 4x
//    denser than the SubId it replaces.
//  * Rows. Per arithmetic attribute, the disjoint pieces freeze into
//    contiguous (lo, hi) Pos arrays searched by a branchless binary
//    search on hi (exactly Aacs::find's lower_bound), with each row's id
//    list an (offset, length) slice of one shared entry arena. SACS rows
//    freeze into an equality hash map plus a scanned pattern list,
//    mirroring Sacs::find_into — including its merge-and-dedup semantics
//    when several rows hit.
//  * Shards. The slot space is tiled into shards of 2^shard_shift slots.
//    Step 2 sweeps each collected list once, shard by shard: all entries
//    of the current shard are counted into a counter window of
//    2^shard_shift epoch-tagged cells that stays L1/L2-resident
//    regardless of N, then re-scanned to emit slots whose count equals
//    their requirement (SIMD gather+compare, core/simd.h). Empty shards
//    are skipped via a min over the cursors' next slots. Per-shard visit
//    counters feed subsum_match_shard_visits_total.
//
// On top, MatchScratch carries a row-combination result cache: two events
// satisfying exactly the same set of frozen rows have identical match
// sets (Gryphon's amortize-across-co-located-subscriptions idea), so a
// warm combination is answered by one hash lookup + copy. That is what
// keeps p99 match latency flat from N=100k to N=1M.
//
// Lifecycle: BrokerSummary lazily builds an index once it holds at least
// IndexOptions::min_id_entries id entries, stores it in an
// atomic<shared_ptr>, and hands it to match_into(). Any mutation bumps
// the summary's version; a stale index is dropped from the match path
// immediately (the classic engine takes over, always correct) and
// rebuilt after a dirty-match threshold amortizes the build cost.
// Results are bit-identical to match_reference() in every configuration;
// tests/test_frozen_index.cpp pins that differentially.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/interval.h"
#include "core/matcher.h"
#include "core/string_constraint.h"
#include "core/summary.h"
#include "model/event.h"
#include "model/sub_id.h"

namespace subsum::core {

/// Global knobs for index construction (process-wide; tests and benches
/// override them before building summaries).
struct IndexOptions {
  /// Summaries below this many id entries keep the classic engine — the
  /// index's freeze cost and slot indirection only pay off at scale.
  size_t min_id_entries = 4096;
  /// 0 = auto: shards of 2^kDefaultShardShift slots (a 64 KiB counter
  /// window). Nonzero asks for at most this many shards; the actual
  /// count is the smallest power-of-two tiling that fits.
  uint32_t shard_count = 0;
};

[[nodiscard]] IndexOptions index_options() noexcept;
void set_index_options(const IndexOptions& opts) noexcept;

/// Slots are ranks into a 26-bit space: 6 low bits of every packed entry
/// hold the required count. Summaries with more distinct ids than this
/// fall back to the classic engine (usable() == false).
inline constexpr size_t kMaxSlots = size_t{1} << 26;
inline constexpr uint32_t kDefaultShardShift = 14;  // 16384 slots -> 64 KiB window
inline constexpr uint32_t kMinShardShift = 6;

class FrozenIndex {
 public:
  /// Freezes `summary` at its current version. Never fails: a summary the
  /// layout cannot hold (> kMaxSlots distinct ids) yields an index with
  /// usable() == false, which the summary caches to avoid re-freezing on
  /// every match.
  static std::shared_ptr<const FrozenIndex> build(const BrokerSummary& summary);

  [[nodiscard]] bool usable() const noexcept { return usable_; }
  [[nodiscard]] uint64_t build_id() const noexcept { return build_id_; }
  [[nodiscard]] uint64_t summary_version() const noexcept { return summary_version_; }

  /// Algorithm 1 over the frozen layout. Results (scratch.out, diag) are
  /// bit-identical to match_reference() on the source summary.
  void match_into(const model::Event& event, MatchScratch& scratch, MatchDiag* diag) const;

  // -- introspection / observability ------------------------------------
  /// Estimated resident bytes of the frozen arrays (slot table, entry
  /// arena, row refs, string maps, visit counters). Feeds the
  /// kIndexArenas line of the memory-attribution registry
  /// (obs/memacct.h); an estimate, not an allocator audit.
  [[nodiscard]] size_t memory_bytes() const noexcept;
  [[nodiscard]] size_t slot_count() const noexcept { return slot_ids_.size(); }
  [[nodiscard]] size_t entry_count() const noexcept { return arena_.size(); }
  [[nodiscard]] uint32_t shard_shift() const noexcept { return shard_shift_; }
  [[nodiscard]] uint32_t shard_count() const noexcept { return shard_count_; }
  /// Id entries whose slot falls in `shard` (static layout balance).
  [[nodiscard]] uint64_t shard_entries(uint32_t shard) const {
    return shard_entries_.at(shard);
  }
  /// Drains the shard's visit counter (counter sweeps since last drain),
  /// so an exporter can fold deltas into a monotone registry counter.
  [[nodiscard]] uint64_t drain_shard_visits(uint32_t shard) const noexcept {
    return visits_[shard].exchange(0, std::memory_order_relaxed);
  }
  /// Calls fn(shard, ids_in_shard) for every (frozen row, shard) pair
  /// with a nonzero intersection: the per-shard ids-per-row occupancy
  /// behind subsum_summary_shard_row_ids. O(entries); scrape path only.
  template <typename Fn>
  void for_each_shard_row(Fn&& fn) const {
    for (const auto& [off, len] : rows_) {
      uint32_t shard = UINT32_MAX;
      uint64_t run = 0;
      for (uint32_t i = off; i < off + len; ++i) {
        const uint32_t s = (arena_[i] >> 6) >> shard_shift_;
        if (s != shard) {
          if (run) fn(shard, run);
          shard = s;
          run = 0;
        }
        ++run;
      }
      if (run) fn(shard, run);
    }
  }

 private:
  FrozenIndex() = default;

  struct RowRef {
    uint32_t off = 0;  // into arena_
    uint32_t len = 0;
  };
  struct ArithAttr {
    std::vector<Pos> hi;            // row upper bounds, ascending (pieces disjoint)
    std::vector<Pos> lo;            // matching lower bounds
    std::vector<RowRef> rows;       // id-list slices, same order
    uint32_t row_id_base = 0;       // global id of row 0 (combo-cache signatures)
  };
  struct StringRow {
    RowRef ref;
    uint32_t row_id = 0;
  };
  struct StringAttr {
    std::unordered_map<std::string, StringRow> eq;          // kEq rows by operand
    std::vector<std::pair<StringPattern, StringRow>> pats;  // scanned rows
  };

  /// Collects the event's per-attribute entry lists into scratch.flists
  /// (+ scratch.merged for multi-row SACS hits) and the row signature
  /// into scratch.sig. Returns Σ list lengths (the paper's P).
  size_t collect(const model::Event& event, MatchScratch& s) const;

  /// Step 2 for k >= 2 lists: the sharded, epoch-tagged counter sweep.
  /// Emits matching slots into scratch.out_slots; returns unique ids.
  size_t count_tiled(MatchScratch& s) const;

  bool usable_ = true;
  uint64_t build_id_ = 0;
  uint64_t summary_version_ = 0;
  const model::Schema* schema_ = nullptr;

  std::vector<model::SubId> slot_ids_;  // sorted; slot -> SubId
  std::vector<uint32_t> arena_;         // packed (slot << 6) | (req - 1) entries
  std::vector<ArithAttr> arith_;        // indexed by AttrId (empty for strings)
  std::vector<StringAttr> strings_;     // indexed by AttrId (empty for arithmetic)
  std::vector<RowRef> rows_;            // every frozen row, global row-id order

  uint32_t shard_shift_ = kDefaultShardShift;
  uint32_t shard_count_ = 0;
  std::vector<uint64_t> shard_entries_;
  /// Visit counters are the only mutable state: relaxed increments from
  /// const match calls, drained by the metrics exporter.
  mutable std::unique_ptr<std::atomic<uint64_t>[]> visits_;
};

}  // namespace subsum::core
