// cw24-churn: 24 durable TCP brokers on the Cable & Wireless backbone.
//
// Every broker has a data directory, so each subscribe and unsubscribe is
// WAL-logged and fsync'd before its ack. Each round starts a fresh cluster,
// loads the background subscriptions through one churn connection per
// broker plus the live subscriber's broad subscriptions at an edge
// broker, and runs one propagation period (set-up ends here). In the
// measured window one thread drives a seeded workload::ChurnStream of
// subscribes and unsubscribes across brokers and clocks
// Cluster::run_propagation_period every kOpsPerPeriod operations, for a
// fixed number of periods, while one closed-loop publisher works through
// its fixed list and the live subscriber collects. After the window: a few
// more churn periods with nothing beside them (the timed periods), quiet
// periods until every shadow digest equals its sender's held digest, a
// sequential verification batch delivered exactly to every live
// subscription, and a restart of one broker from its data directory.
//
// Why this workload: writes run beside reads. It exercises the store,
// held-summary mutation (the frozen index goes stale and is rebuilt), delta
// announcements with anti-entropy, and Algorithm-2 rounds. on_subscribe /
// on_unsubscribe fsync while holding the broker mutex that walk_step needs
// for matching, so a write-path change shows up as publish latency here.
#include <atomic>
#include <limits>
#include <thread>
#include <unordered_map>

#include "layers.h"
#include "tcp.h"
#include "core/delta.h"
#include "core/serialize.h"
#include "overlay/topologies.h"
#include "store/broker_store.h"
#include "workload/churn.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"

namespace perfbench {
namespace {

using namespace subsum;
using overlay::BrokerId;

constexpr int kMinRounds = 3;
constexpr size_t kBackgroundPerBroker = 20;
constexpr size_t kLiveSubs = 4;
constexpr size_t kOpsPerPeriod = 40;
constexpr size_t kEventsPerRound = 1000;  // the publisher's fixed work per round
/// Churn periods beside the publisher: fixed work, so the window's CPU time
/// per publish compares across runs. About as long as the publisher's list.
constexpr size_t kWindowPeriods = 12;
/// Churn periods after the window with nothing beside them: the periods
/// propagation_ms and propagation_cpu_ms are taken over.
constexpr size_t kTimedPeriods = 4;
constexpr size_t kMaxOps = (kWindowPeriods + kTimedPeriods) * kOpsPerPeriod;
constexpr size_t kVerifyPerBroker = 5;
constexpr BrokerId kPublisher = 15;       // Chicago, highest degree (6)
constexpr BrokerId kSubscriberLeaf = 23;  // Boston, on the edge (degree 2)
constexpr BrokerId kRestarted = 9;        // Salt Lake City

struct ChurnOp {
  bool subscribe = true;
  BrokerId broker = 0;           // home broker of a subscribe
  model::Subscription sub;       // subscribe only
  size_t victim = 0;             // unsubscribe: index into the live list
};

struct Inputs {
  model::Schema schema = workload::stock_schema();
  overlay::Graph graph = overlay::cable_wireless_24();
  std::vector<std::vector<model::Subscription>> background;
  std::vector<model::Subscription> live;
  std::vector<ChurnOp> ops;
  std::vector<model::Event> events;
  std::vector<std::string> keys;
  std::vector<Publish> verify;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  workload::SubGenParams sp;
  sp.subsumption = 0.5;
  workload::ChurnParams cp;
  cp.subscribe_rate = 20;
  cp.unsubscribe_rate = 20;
  workload::ChurnStream stream(in.schema, sp, cp, seed);
  auto& gen = stream.generator();
  in.background.resize(in.graph.size());
  size_t live_count = 0;
  for (auto& subs : in.background) {
    for (size_t i = 0; i < kBackgroundPerBroker; ++i) subs.push_back(gen.next());
    live_count += kBackgroundPerBroker;
  }
  in.live = broad_subscriptions(in.schema, gen.pools(), kLiveSubs, seed);
  // Flatten the stream's periods into one operation sequence. Victims are
  // drawn against the live count the sequence itself implies, so replaying
  // the list reproduces the stream victim by victim.
  util::Rng placement(seed ^ 0xb40cce55ULL);
  while (in.ops.size() < kMaxOps) {
    workload::ChurnPeriod p = stream.next_period();
    size_t u = 0, s = 0;
    while ((u < p.unsubscribes || s < p.subscribes.size()) && in.ops.size() < kMaxOps) {
      if (u < p.unsubscribes && live_count > 0 && (s >= p.subscribes.size() || u <= s)) {
        ChurnOp op;
        op.subscribe = false;
        op.victim = stream.pick_victim_index(live_count--);
        in.ops.push_back(std::move(op));
        ++u;
      } else if (s < p.subscribes.size()) {
        ChurnOp op;
        op.broker = static_cast<BrokerId>(placement.below(in.graph.size()));
        op.sub = std::move(p.subscribes[s++]);
        in.ops.push_back(std::move(op));
        ++live_count;
      } else {
        break;  // nothing left to unsubscribe
      }
    }
  }
  workload::EventGenerator ep(in.schema, gen.pools(), {}, seed + 1);
  workload::EventGenerator ev(in.schema, gen.pools(), {}, seed + 3);
  for (size_t i = 0; i < kEventsPerRound; ++i) {
    in.events.push_back(ep.next());
    in.keys.push_back(event_key(in.events.back()));
  }
  for (size_t i = 0; i < kVerifyPerBroker * in.graph.size(); ++i) {
    in.verify.push_back({static_cast<BrokerId>(i % in.graph.size()), ev.next()});
  }
  InputDigest d;
  for (const auto& subs : in.background) {
    for (const auto& sub : subs) d.add(sub);
  }
  for (const auto& sub : in.live) d.add(sub);
  for (const ChurnOp& op : in.ops) {
    if (op.subscribe) {
      d.add(op.broker);
      d.add(op.sub);
    } else {
      d.add(op.victim);
    }
  }
  for (const auto& e : in.events) d.add(e);
  for (const Publish& p : in.verify) d.add(p.event);
  d.print();
  return in;
}

/// One subscription the benchmark believes it placed.
struct Placed {
  model::SubId id;
  const model::Subscription* sub = nullptr;
  size_t client = 0;  // index of the owning connection
  uint64_t live_from_ns = 0;
  uint64_t live_until_ns = std::numeric_limits<uint64_t>::max();
};

void run_round(const Options& opt, const Inputs& in, int round, bool traced, bool probe,
               Report& rep, E2eSamples& s, Layers& layers) {
  Tracer tr(traced);
  const size_t n = in.graph.size();
  const std::string data_dir = fresh_dir(opt, "cw24-data");

  // --- set-up -------------------------------------------------------------
  const uint64_t t_setup = now_ns();
  net::Cluster cluster(in.schema, in.graph, core::GeneralizePolicy::kSafe, {}, data_dir);
  std::vector<std::unique_ptr<net::Client>> clients;  // churn connection per broker
  std::vector<Placed> placed;                          // every subscription ever placed
  std::vector<size_t> live;                            // indices into placed, in order
  bool in_window = false;  // only the window's churn is subscribe_* samples
  const auto subscribe = [&](BrokerId b, const model::Subscription& sub) {
    rep.attempt(OpKind::kSubscribe);
    Placed p;
    p.sub = &sub;
    p.client = b;
    p.live_from_ns = now_ns();
    try {
      p.id = clients[b]->subscribe(sub);
    } catch (const std::exception& e) {
      rep.fail_op(OpKind::kSubscribe);
      rep.error(std::string("subscribe failed: ") + e.what());
      return false;
    }
    if (in_window) s.subscribe_us.push_back(static_cast<double>(now_ns() - p.live_from_ns) / 1e3);
    live.push_back(placed.size());
    placed.push_back(p);
    return true;
  };
  for (BrokerId b = 0; b < n; ++b) {
    clients.push_back(cluster.connect(b));
    for (const auto& sub : in.background[b]) {
      if (!subscribe(b, sub)) return;
    }
  }
  const auto subscriber = cluster.connect(kSubscriberLeaf);
  std::vector<model::SubId> live_ids;
  for (const auto& sub : in.live) live_ids.push_back(subscriber->subscribe(sub));
  const auto run_period = [&](PeriodTime* into) {
    rep.attempt(OpKind::kPeriod);
    const uint64_t c0 = cpu_ns();
    const uint64_t t0 = now_ns();
    const auto report = cluster.run_propagation_period();
    if (into) *into = {static_cast<double>(now_ns() - t0) / 1e6,
                       static_cast<double>(cpu_ns() - c0) / 1e6};
    if (!report.complete()) {
      rep.fail_op(OpKind::kPeriod);
      rep.error("cw24 propagation period incomplete");
    }
  };
  run_period(nullptr);
  s.setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);

  // The next kOpsPerPeriod operations of the churn stream.
  size_t op_i = 0;
  const auto churn_ops = [&] {
    for (size_t k = 0; k < kOpsPerPeriod; ++k) {
      const ChurnOp& op = in.ops[op_i++];
      if (op.subscribe) {
        if (!subscribe(op.broker, op.sub)) return false;
        continue;
      }
      Placed& victim = placed[live[op.victim]];
      rep.attempt(OpKind::kUnsubscribe);
      const uint64_t t0 = now_ns();
      try {
        clients[victim.client]->unsubscribe(victim.id);
      } catch (const std::exception& e) {
        rep.fail_op(OpKind::kUnsubscribe);
        rep.error(std::string("unsubscribe failed: ") + e.what());
        return false;
      }
      victim.live_until_ns = now_ns();
      if (in_window) s.subscribe_us.push_back(static_cast<double>(victim.live_until_ns - t0) / 1e3);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(op.victim));
    }
    return true;
  };

  // --- measured window: fixed churn beside a fixed publish list ------------
  const auto publisher = cluster.connect(kPublisher);
  const auto rpc_before = probe ? peer_rpc_buckets(cluster) : std::map<double, double>{};
  const uint64_t maps0 = proc_map_count();
  const uint64_t rss0 = proc_status_kb("VmRSS");
  std::atomic<bool> pubs_done{false};
  std::vector<PubRec> recs;
  std::vector<NoteRec> notes;
  std::vector<std::vector<NoteRec>> churn_notes(n);
  double count_bytes = 0, count_full = 0, count_delta = 0;
  const uint64_t c_window = cpu_ns();
  const uint64_t t_window = now_ns();
  std::thread collector([&] { collect_loop(*subscriber, pubs_done, notes); });
  std::thread pub([&] { publish_loop(*publisher, kPublisher, in.events, in.keys, recs, tr, rep); });
  in_window = true;
  for (size_t periods = 0; periods < kWindowPeriods && churn_ops(); ++periods) {
    const double b0 = announce_bytes(cluster);
    const double f0 = sum_counter(cluster, "subsum_summary_full_sends_total");
    const double d0 = sum_counter(cluster, "subsum_summary_delta_sends_total");
    run_period(nullptr);
    count_bytes += announce_bytes(cluster) - b0;
    count_full += sum_counter(cluster, "subsum_summary_full_sends_total") - f0;
    count_delta += sum_counter(cluster, "subsum_summary_delta_sends_total") - d0;
    for (BrokerId b = 0; b < n; ++b) drain_now(*clients[b], churn_notes[b]);
  }
  in_window = false;
  pub.join();
  pubs_done = true;
  collector.join();
  s.publish_cpu_ns += static_cast<double>(cpu_ns() - c_window);
  s.window_publishes += recs.size();
  const uint64_t maps1 = proc_map_count();
  const uint64_t rss1 = proc_status_kb("VmRSS");
  const auto rpc_after = probe ? peer_rpc_buckets(cluster) : std::map<double, double>{};
  for (BrokerId b = 0; b < n; ++b) drain_now(*clients[b], churn_notes[b]);
  s.measured_s = static_cast<double>(now_ns() - t_window) / 1e9;
  s.announce_bytes += count_bytes;
  s.announce_periods += kWindowPeriods;

  // The live subscriber's subscriptions never churn: exact delivery.
  PairSet expected;
  std::vector<const PubRec*> all;
  for (size_t i = 0; i < recs.size(); ++i) {
    s.publish_us.push_back(static_cast<double>(recs[i].end_ns - recs[i].start_ns) / 1e3);
    all.push_back(&recs[i]);
    for (size_t j = 0; j < in.live.size(); ++j) {
      if (oracle_matches(in.live[j], in.events[i])) ++expected[{in.keys[i], live_ids[j]}];
    }
  }
  PairSet received = received_pairs(notes);
  if (round == 0) inject_fault(opt.inject, received, placed.front().id);
  check_pairs(rep, "cw24 round " + std::to_string(round) + " live subscriber", expected,
              received);
  std::vector<double> lag_us;
  notify_latencies(all, notes, s.notify_us, lag_us);

  // Churned subscriptions: every notification must satisfy a subscription
  // that was live while a publish of that event content was in flight.
  {
    std::unordered_map<model::SubId, const Placed*> by_id;
    for (const Placed& p : placed) by_id[p.id] = &p;
    std::unordered_map<std::string_view, std::vector<const PubRec*>> by_key;
    for (const PubRec& r : recs) by_key[*r.key].push_back(&r);
    std::map<std::pair<std::string, model::SubId>, int> seen;
    uint64_t churn_pairs = 0, bad = 0;
    for (BrokerId b = 0; b < n; ++b) {
      for (const NoteRec& note : churn_notes[b]) {
        const std::string key = event_key(note.msg.event);
        const auto pit = by_key.find(key);
        for (const model::SubId& id : note.msg.ids) {
          ++churn_pairs;
          const auto it = by_id.find(id);
          int allowed = 0;
          if (it != by_id.end() && it->second->client == b && pit != by_key.end() &&
              oracle_matches(*it->second->sub, note.msg.event)) {
            for (const PubRec* r : pit->second) {
              if (it->second->live_from_ns <= r->end_ns && it->second->live_until_ns >= r->start_ns) {
                ++allowed;
              }
            }
          }
          if (++seen[{key, id}] > allowed) ++bad;
        }
      }
    }
    rep.attempt(OpKind::kNotification, churn_pairs);
    if (bad > 0) {
      rep.error("cw24 round " + std::to_string(round) + ": " + std::to_string(bad) + " of " +
                std::to_string(churn_pairs) +
                " churn notifications match no subscription live at publish time");
    }
  }

  // --- timed periods: the same churn, with no publish traffic beside it ------
  for (size_t p = 0; p < kTimedPeriods && churn_ops(); ++p) {
    PeriodTime t;
    run_period(&t);
    s.period_ms.push_back(t.ms);
    s.period_cpu_ms.push_back(t.cpu_ms);
    s.measured_s += t.ms / 1e3;
  }

  // --- quiet periods: anti-entropy convergence within two -------------------
  bool converged = false;
  for (int q = 0; q < 2 && !converged; ++q) {
    run_period(nullptr);
    converged = true;
    for (BrokerId r = 0; r < n && converged; ++r) {
      for (const auto& [sender, digest] : cluster.node(r).shadow_digests()) {
        if (digest != cluster.node(sender).held_digest()) converged = false;
      }
    }
  }
  if (!converged) rep.error("cw24 shadow digests did not converge within two quiet periods");

  // --- verification batch: exact delivery to every live subscription -----
  for (BrokerId b = 0; b < n; ++b) drain_now(*clients[b], churn_notes[b]);
  (void)subscriber->drain_notifications();
  PairSet vexpected;
  std::vector<std::unique_ptr<net::Client>> origins;
  for (BrokerId b = 0; b < n; ++b) origins.push_back(cluster.connect(b));
  std::vector<uint64_t> verify_traces;
  const double fwd0 = sum_counter(cluster, "subsum_walk_forward_hops_total");
  const double dlv0 = sum_counter(cluster, "subsum_walk_delivery_hops_total");
  const double vis0 = sum_counter(cluster, "subsum_walk_visits_total");
  for (const Publish& p : in.verify) {
    rep.attempt(OpKind::kPublish);
    try {
      verify_traces.push_back(origins[p.origin]->publish(p.event));
    } catch (const std::exception& e) {
      rep.fail_op(OpKind::kPublish);
      rep.error(std::string("verification publish failed: ") + e.what());
      continue;
    }
    const std::string key = event_key(p.event);
    for (const size_t i : live) {
      if (oracle_matches(*placed[i].sub, p.event)) ++vexpected[{key, placed[i].id}];
    }
    for (size_t j = 0; j < in.live.size(); ++j) {
      if (oracle_matches(in.live[j], p.event)) ++vexpected[{key, live_ids[j]}];
    }
  }
  std::vector<NoteRec> vnotes;
  {
    std::atomic<bool> done{true};
    collect_loop(*subscriber, done, vnotes);
  }
  for (BrokerId b = 0; b < n; ++b) drain_now(*clients[b], vnotes);
  check_pairs(rep, "cw24 round " + std::to_string(round) + " verification", vexpected,
              received_pairs(vnotes));
  // Read before the restart below resets one broker's counters.
  const double vn = static_cast<double>(in.verify.size());
  const double verify_visits = (sum_counter(cluster, "subsum_walk_visits_total") - vis0) / vn;
  const double verify_fwd = (sum_counter(cluster, "subsum_walk_forward_hops_total") - fwd0) / vn;
  const double verify_dlv = (sum_counter(cluster, "subsum_walk_delivery_hops_total") - dlv0) / vn;
  const double digest_mismatches = sum_counter(cluster, "subsum_summary_digest_mismatch_total");

  // --- restart one broker from its data directory -------------------------
  std::vector<model::OwnedSubscription> believed;
  for (const size_t i : live) {
    if (placed[i].client == kRestarted) believed.push_back({placed[i].id, *placed[i].sub});
  }
  cluster.kill(kRestarted);
  cluster.restart(kRestarted);
  const auto recovered = core::decode_summary(cluster.node(kRestarted).own_summary_wire(),
                                              in.schema);
  core::BrokerSummary expected_own(in.schema);
  for (const auto& os : believed) expected_own.add(os.sub, os.id);
  if (cluster.node(kRestarted).snapshot().local_subs != believed.size() ||
      core::summary_digest(recovered) != core::summary_digest(expected_own)) {
    rep.error("cw24 broker " + std::to_string(kRestarted) + " restarted with " +
              std::to_string(cluster.node(kRestarted).snapshot().local_subs) +
              " subscriptions that differ from the " + std::to_string(believed.size()) +
              " placed there");
  }

  if (!probe) return;
  // --- per-layer probes (traced rounds only) --------------------------------
  // The replica holds the live set at the end of the round, the same on
  // every run of one seed (the churn is fixed work).
  SubList subs;
  for (const size_t i : live) subs.emplace_back(placed[i].client, *placed[i].sub);
  for (const auto& sub : in.live) subs.emplace_back(kSubscriberLeaf, sub);
  SubList churn_adds;
  for (BrokerId b = 0; b < n; ++b) churn_adds.emplace_back(b, in.background[b].front());
  probe_replica(in.schema, in.graph, subs, in.verify, churn_adds, n, tr, layers);
  // The walk counts are the cluster's own, over the verification batch.
  layers.routing_visits_per_publish = verify_visits;
  layers.routing_forward_hops_per_publish = verify_fwd;
  layers.routing_delivery_hops_per_publish = verify_dlv;
  layers.net_peer_rpcs_per_publish =
      layers.routing_forward_hops_per_publish + layers.routing_delivery_hops_per_publish;
  layers.net_peer_rpc_p50_us = peer_rpc_p50(rpc_before, rpc_after);
  layers.net_notify_lag_us = median(lag_us);
  layers.net_full_sends_per_period = count_full / kWindowPeriods;
  layers.net_delta_sends_per_period = count_delta / kWindowPeriods;
  layers.net_digest_mismatches = digest_mismatches;
  const double window_publishes = recs.empty() ? 1 : static_cast<double>(recs.size());
  layers.proc_maps_per_publish =
      (static_cast<double>(maps1) - static_cast<double>(maps0)) / window_publishes;
  layers.proc_rss_kb_per_publish =
      (static_cast<double>(rss1) - static_cast<double>(rss0)) / window_publishes;
  probe_event_codec(in.schema, n, in.verify, tr, layers);
  probe_rpc(*subscriber, 500, tr, layers.net_rpc_us);
  probe_connect(200, tr, layers);
  probe_wal_commit(opt, in.background.front().front(), 200, tr, layers);
  {
    // One snapshot of the restarted broker's believed state, written by
    // the store module into a scratch directory.
    const std::string dir = fresh_dir(opt, "snapshot-probe");
    const core::WireConfig wire{model::SubIdCodec(static_cast<uint32_t>(n), uint64_t{1} << 20,
                                                  in.schema.attr_count()),
                                8};
    store::BrokerStore st(dir, in.schema, core::GeneralizePolicy::kSafe, wire);
    (void)st.open();
    store::BrokerStore::SnapshotInput si;
    si.next_local = static_cast<uint32_t>(placed.size());
    si.subs = &believed;
    si.held = &expected_own;
    for (int i = 0; i < 20; ++i) {
      Tracer::Scope sp(tr, "store.write_snapshot", 0, kRestarted);
      st.write_snapshot(si);
    }
    layers.store_snapshot_ms = tr.mean_us("store.write_snapshot") / 1e3;
  }
  tr.write_jsonl(opt.work_dir + "/spans-cw24-churn-seed" + std::to_string(opt.seed) + ".jsonl");
  write_broker_spans(cluster, verify_traces,
                     opt.work_dir + "/broker-spans-cw24-churn-seed" +
                         std::to_string(opt.seed) + ".jsonl");
}

}  // namespace

void run_cw24_churn(const Options& opt, Report& rep) {
  const Inputs in = make_inputs(opt.seed);
  run_rounds(opt, rep, kMinRounds, [&](int r, bool traced, bool probe, E2eSamples& s, Layers& l) {
    run_round(opt, in, r, traced, probe, rep, s, l);
  });
}

}  // namespace perfbench
