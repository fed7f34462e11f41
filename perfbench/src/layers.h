// What each workload measures, and the per-layer probes they share.
//
// E2eSamples collects the raw end-to-end samples of a set of rounds;
// emit_e2e turns them into the benchmark's end-to-end metrics. Layers holds
// every per-layer metric; a workload fills the ones its traffic exercises
// and leaves the rest 0 (README: "0 = not exercised by this workload").
//
// The probes time the benchmark's own calls into the library's public
// functions on the workload's data: a sim::SimSystem (the sim-scale
// workload's own, or a replica of a TCP cluster's final subscription set),
// its held summaries and the events the workload published.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/delta.h"
#include "core/summary.h"
#include "overlay/graph.h"
#include "sim/system.h"

namespace perfbench {

/// Raw end-to-end samples of one round.
struct E2eSamples {
  std::vector<double> setup_s;
  std::vector<double> publish_us;
  std::vector<double> notify_us;
  std::vector<double> subscribe_us;  // subscribes and unsubscribes
  std::vector<double> period_ms;
  std::vector<double> period_cpu_ms;  // process CPU time of each timed period
  double publish_cpu_ns = 0;  // process CPU time of the publish windows
  uint64_t window_publishes = 0;  // publishes in those windows
  int publishers = 1;           // closed-loop publishers behind publish_us
  double announce_bytes = 0;    // summary bytes over `announce_periods`
  uint64_t announce_periods = 0;
  double measured_s = 0;        // time this round counts against --seconds
};


struct Layers {
  double net_connect_us = 0, net_rpc_us = 0, net_peer_rpcs_per_publish = 0,
         net_peer_rpc_p50_us = 0, net_notify_lag_us = 0, net_event_encode_us = 0,
         net_event_decode_us = 0, net_full_sends_per_period = 0,
         net_delta_sends_per_period = 0, net_digest_mismatches = 0;
  double routing_visits_per_publish = 0, routing_forward_hops_per_publish = 0,
         routing_delivery_hops_per_publish = 0, routing_route_event_us = 0,
         routing_propagate_ms = 0;
  double sim_publish_us = 0, sim_maintenance_ms = 0;
  double core_match_us = 0, core_match_ids_per_event = 0, core_candidate_precision = 0,
         core_candidates = 0, core_delivered = 0, core_match_after_churn_us = 0,
         core_encode_summary_us = 0, core_decode_summary_us = 0, core_delta_diff_us = 0;
  double store_wal_commit_us = 0, store_snapshot_ms = 0;
  double proc_maps_per_publish = 0, proc_rss_kb_per_publish = 0;
};

/// One round of a workload: a fresh system set up, a fixed amount of work
/// measured, outputs checked. `traced` turns the span recorder on; `probe`
/// additionally runs the per-layer probes, filling `layers`.
using RoundFn = std::function<void(int round, bool traced, bool probe, E2eSamples& s,
                                   Layers& layers)>;

/// Runs whole rounds until their measured time reaches --seconds (and at
/// least `min_rounds`), then reports. Every round does the same work, so
/// faster code runs more rounds, not longer ones.
///
/// --trace 0: each end-to-end metric is computed per round and the median
/// over the rounds is reported (peak_rss_mb is the process's VmHWM).
/// --trace 1: rounds alternate untraced / traced; the first traced round
/// runs the per-layer probes. Prints the traced-minus-untraced difference
/// of every end-to-end metric, then reports the per-layer metrics.
void run_rounds(const Options& opt, Report& rep, int min_rounds, const RoundFn& round);

/// One publish of a verification or probe batch.
struct Publish {
  subsum::overlay::BrokerId origin = 0;
  subsum::model::Event event;
};

/// The workload's subscriptions, in subscribe order, by home broker.
using SubList = std::vector<std::pair<subsum::overlay::BrokerId, subsum::model::Subscription>>;

/// Times SimSystem::publish, routing::route_event and core::match_into at
/// every visited broker for each event; fills the routing.*, sim.publish_us
/// and core.match_* / candidate fields of `out`.
void probe_publish_layers(subsum::sim::SimSystem& sys, const std::vector<Publish>& batch,
                          Tracer& tr, Layers& out);

/// Times encode_summary / decode_summary of each broker's held summary.
void probe_summary_codec(const subsum::sim::SimSystem& sys,
                         const std::vector<subsum::overlay::BrokerId>& brokers, Tracer& tr,
                         Layers& out);

/// Wall and process CPU time of one propagation period.
struct PeriodTime {
  double ms = 0;
  double cpu_ms = 0;
};

/// One churn period on `sys`: unsubscribes `removes`, subscribes `adds`
/// (each call's latency appended to `op_us`, the new ids to `added`) and
/// runs the propagation period, whose duration it returns. With the tracer on, it also
/// times, around the untouched period: routing::propagate replayed over the
/// period's new subscriptions (sim.maintenance_ms is the rest of the
/// period), diff_images + encode_delta of each `sample` broker's held image
/// across the period, and the first `probe_events` matches on the mutated
/// summaries (core.match_after_churn_us).
PeriodTime churn_period(subsum::sim::SimSystem& sys,
                        const std::vector<subsum::model::SubId>& removes, const SubList& adds, std::vector<double>& op_us,
                    std::vector<subsum::model::SubId>& added,
                    const std::vector<subsum::overlay::BrokerId>& sample,
                    const std::vector<Publish>& probe_events, Tracer& tr, Layers& out);

/// Per-layer probes of the in-process layers on a replica of a TCP
/// cluster: a SimSystem holding `subs` after one propagation period (the
/// routing state the cluster converges to). Runs probe_publish_layers on
/// `events`, probe_summary_codec on every broker, routing::propagate over
/// every broker's own summary, and one churn_period (`churn_removes` of the
/// oldest subscriptions out, `churn_adds` in).
void probe_replica(const subsum::model::Schema& schema, const subsum::overlay::Graph& g,
                   const SubList& subs, const std::vector<Publish>& events,
                   const SubList& churn_adds, size_t churn_removes, Tracer& tr, Layers& out);

/// Times one store::WalWriter append + sync of an encoded subscribe record,
/// `n` times, in a scratch directory.
void probe_wal_commit(const Options& opt, const subsum::model::Subscription& sub, int n,
                      Tracer& tr, Layers& out);

/// Times net::connect_local + close to a loopback listener of the
/// benchmark's own, `n` times.
void probe_connect(int n, Tracer& tr, Layers& out);

/// Times net::encode(EventMsg) and net::decode_event_msg for each event.
void probe_event_codec(const subsum::model::Schema& schema, size_t brokers,
                       const std::vector<Publish>& events, Tracer& tr, Layers& out);

}  // namespace perfbench
