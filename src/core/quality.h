// Summary-quality probes: live measurement of the paper's precision-vs-cost
// trade (§5.1) on a running system.
//
// Summaries over-approximate (SACS generalization, coarse AACS), so the
// interesting runtime question is not "does matching work" but "how much
// precision are we paying away right now". Three probes answer it:
//
//  * Shadow sampling (QualityProbe): for a deterministic fraction of events
//    — chosen by a content hash, so the sampled set is identical across
//    runs and brokers — the caller re-runs the exact per-
//    subscription oracle next to the summary match and records candidate
//    vs exact counts. Exported: `subsum_quality_sampled_events_total`,
//    `subsum_summary_false_positive_ids_total`, `subsum_summary_precision`
//    (cumulative exact/candidate ratio), and an engine-vs-reference
//    divergence counter (always expected 0; a nonzero value means
//    match_into() and match_reference() disagree — a matcher bug, not a
//    summary-precision artifact).
//
//  * Row occupancy (export_row_occupancy): per-attribute histograms of ids
//    per AACS piece / SACS row. A coarse or aggressively-generalized
//    summary concentrates many ids on few rows; the occupancy distribution
//    makes that visible per attribute before the FP rate shows it.
//
//  * Model drift (export_model_drift): actual wire bytes vs the paper's
//    analytic size prediction (equations (1)-(2)), recomputed on every
//    rebuild/merge. `subsum_summary_model_drift_ratio` = actual / predicted;
//    1.0 means the analytic model tracks reality.
//
// Everything here is exact bookkeeping on top of the PR-4 MetricsRegistry;
// under -DSUBSUM_NO_TELEMETRY should_sample() is a constant false, so the
// oracle shadow work is dead code and compiles out of the hot path.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/serialize.h"
#include "core/summary.h"
#include "model/event.h"
#include "obs/metrics.h"

namespace subsum::core {

/// Deterministic content hash of an event: depends only on the (attr,
/// value) pairs, not on identity, arrival order, or process. Used to pick
/// the shadow-sampled subset so every broker — and every rerun — samples
/// exactly the same events.
uint64_t event_hash(const model::Event& event) noexcept;

/// Shadow-sampling configuration. An event is sampled iff the low `shift`
/// bits of event_hash() are zero, i.e. a deterministic 1-in-2^shift
/// fraction (default 1/64). shift 0 samples everything.
struct SampleConfig {
  uint32_t shift = 6;

  [[nodiscard]] bool selects(uint64_t hash) const noexcept {
    return (hash & ((uint64_t{1} << shift) - 1)) == 0;
  }
};

/// Live false-positive probe. Construct once next to a MetricsRegistry
/// (handles are pre-registered and stable); call should_sample() per event
/// and, when it returns true, run the exact oracle and call record().
/// All mutation is relaxed-atomic via the registry handles, so the probe
/// may be shared by threads; totals are commutative.
class QualityProbe {
 public:
  QualityProbe(obs::MetricsRegistry& reg, SampleConfig cfg = {});

  /// True when this event belongs to the deterministic shadow sample.
  /// Constant false under SUBSUM_NO_TELEMETRY, making the caller's oracle
  /// branch dead code.
  [[nodiscard]] bool should_sample(const model::Event& event) const noexcept {
#ifdef SUBSUM_NO_TELEMETRY
    (void)event;
    return false;
#else
    return cfg_.selects(event_hash(event));
#endif
  }

  /// Records one sampled event: `candidate_ids` = summary-level matches
  /// (superset, may contain false positives), `exact_ids` = oracle matches.
  /// `engine_diverged` flags a match_into() vs match_reference() mismatch.
  /// Requires candidate_ids >= exact_ids (summaries never lose matches);
  /// violations are clamped and counted as divergence.
  /// (const: mutation happens through the stable registry handles, so a
  /// probe may be shared by const publish paths.)
  void record(size_t candidate_ids, size_t exact_ids, bool engine_diverged = false) const noexcept;

  [[nodiscard]] const SampleConfig& config() const noexcept { return cfg_; }

  /// Cumulative exact/candidate ratio over all sampled events so far
  /// (1.0 before any candidate id has been seen).
  [[nodiscard]] double precision() const noexcept;

 private:
  SampleConfig cfg_;
  obs::Counter* sampled_;      // subsum_quality_sampled_events_total
  obs::Counter* candidates_;   // subsum_quality_candidate_ids_total
  obs::Counter* exact_;        // subsum_quality_exact_ids_total
  obs::Counter* false_pos_;    // subsum_summary_false_positive_ids_total
  obs::Counter* divergence_;   // subsum_quality_engine_divergence_total
  obs::FGauge* precision_g_;   // subsum_summary_precision
};

/// Re-exports the per-attribute row-occupancy histograms
/// `subsum_summary_row_ids{attr="<name>"}` (one observation per row, value
/// = the row's id-list length). The distribution is a snapshot of the
/// summary, not an accumulation: each histogram is reset and repopulated,
/// so call this from the admin path (rebuild/merge/scrape), never per event.
/// A non-empty `broker` adds a `broker="..."` label (SimSystem runs all
/// brokers against one registry; BrokerNode leaves it empty).
void export_row_occupancy(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          std::string_view broker = {});

/// Recomputes the wire-vs-model gauges for `summary`:
///   subsum_summary_wire_bytes        actual encode_summary() size
///   subsum_summary_model_bytes       equations (1)-(2) prediction
///   subsum_summary_model_drift_ratio wire / model (0 when model is 0)
/// Returns the drift ratio. Call on every rebuild/merge (admin path; this
/// encodes the summary to measure it). A non-empty `broker` labels the
/// gauges `{broker="..."}`.
double export_model_drift(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          const WireConfig& wire, const PaperSizeParams& params = {},
                          std::string_view broker = {});

/// Shard-balance exports for the summary's frozen match index (PR-6):
///   subsum_match_shards                    gauge, shard count (0: no index)
///   subsum_match_shard_visits_total        counter {shard=}, counter sweeps,
///                                          folded from the index's drained
///                                          visit deltas (monotone across
///                                          rebuilds)
///   subsum_match_shard_entries             gauge {shard=}, id entries laid
///                                          out in the shard
///   subsum_summary_shard_row_ids           histogram {shard=}, ids-per-row
///                                          occupancy within the shard
///                                          (snapshot: reset + repopulated)
/// Uses frozen_if_built() — a scrape never triggers a freeze. Call next to
/// export_row_occupancy on the admin/scrape path; a non-empty `broker`
/// adds a broker="..." label.
void export_shard_metrics(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          std::string_view broker = {});

}  // namespace subsum::core
