// fig7-publish: 13 ephemeral TCP brokers on the paper's figure-7 tree.
//
// Each round starts a fresh in-process cluster, loads the background
// subscriptions one connection at a time plus the live subscriber's broad
// subscriptions at a leaf, runs one propagation period (set-up ends here),
// then measures two closed-loop publishers at different brokers while the
// live subscriber collects notifications. After the window come quiet
// propagation periods and a fixed sequential verification batch from
// every broker, whose broker counters give the deterministic per-publish
// counts.
//
// Why this workload: the synchronous BROCLI walk is almost all peer hops,
// each a fresh loopback connection plus a handler and a writer thread at
// the peer. The population keeps every held summary below the frozen-index
// threshold, so this is also the small-N side of the matching stack.
#include <atomic>
#include <thread>

#include "layers.h"
#include "tcp.h"
#include "core/frozen_index.h"
#include "core/summary.h"
#include "overlay/topologies.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace perfbench {
namespace {

using namespace subsum;
using overlay::BrokerId;

constexpr int kMinRounds = 3;
constexpr size_t kBackgroundPerBroker = 24;
constexpr size_t kLiveSubs = 4;
// Publishes per publisher and round. Every peer hop of a publish leaves an
// exited but unjoined handler thread whose stack stays mapped until the
// cluster stops, so a cluster's lifetime must stay well below the
// process's map limit (vm.max_map_count = 65530 at ~6 new mappings per
// publish): 2 x 1500 publishes per round. See README "Known faults".
constexpr size_t kEventsPerPublisher = 1500;
constexpr size_t kVerifyPerBroker = 10;
constexpr int kQuietPeriods = 5;
constexpr BrokerId kPublisherA = 0;       // a leaf: the walk starts at the edge
constexpr BrokerId kPublisherB = 7;       // an inner broker
constexpr BrokerId kSubscriberLeaf = 12;  // the live subscriber's leaf

struct Inputs {
  model::Schema schema = workload::stock_schema();
  overlay::Graph graph = overlay::fig7_tree();
  std::vector<std::vector<model::Subscription>> background;  // per broker
  std::vector<model::Subscription> live;
  std::vector<model::Event> events_a, events_b;
  std::vector<std::string> keys_a, keys_b;
  std::vector<Publish> verify;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  workload::SubGenParams sp;
  sp.subsumption = 0.5;
  workload::SubscriptionGenerator gen(in.schema, sp, seed);
  in.background.resize(in.graph.size());
  for (auto& subs : in.background) {
    for (size_t i = 0; i < kBackgroundPerBroker; ++i) subs.push_back(gen.next());
  }
  in.live = broad_subscriptions(in.schema, gen.pools(), kLiveSubs, seed);
  workload::EventGenerator ea(in.schema, gen.pools(), {}, seed + 1);
  workload::EventGenerator eb(in.schema, gen.pools(), {}, seed + 2);
  workload::EventGenerator ev(in.schema, gen.pools(), {}, seed + 3);
  for (size_t i = 0; i < kEventsPerPublisher; ++i) {
    in.events_a.push_back(ea.next());
    in.keys_a.push_back(event_key(in.events_a.back()));
    in.events_b.push_back(eb.next());
    in.keys_b.push_back(event_key(in.events_b.back()));
  }
  for (size_t i = 0; i < kVerifyPerBroker * in.graph.size(); ++i) {
    in.verify.push_back({static_cast<BrokerId>(i % in.graph.size()), ev.next()});
  }
  InputDigest d;
  for (const auto& subs : in.background) {
    for (const auto& sub : subs) d.add(sub);
  }
  for (const auto& sub : in.live) d.add(sub);
  for (const auto* evs : {&in.events_a, &in.events_b}) {
    for (const auto& e : *evs) d.add(e);
  }
  for (const Publish& p : in.verify) d.add(p.event);
  d.print();
  return in;
}

SubList all_subscriptions(const Inputs& in) {
  SubList subs;
  for (BrokerId b = 0; b < in.graph.size(); ++b) {
    for (const auto& sub : in.background[b]) subs.emplace_back(b, sub);
  }
  for (const auto& sub : in.live) subs.emplace_back(kSubscriberLeaf, sub);
  return subs;
}

/// Expected (event, id) pairs of the live subscriber for a set of publishes.
void expect_pairs(const Inputs& in, const std::vector<model::SubId>& live_ids,
                  const std::string& key, const model::Event& e, PairSet& out) {
  for (size_t i = 0; i < in.live.size(); ++i) {
    if (oracle_matches(in.live[i], e)) ++out[{key, live_ids[i]}];
  }
}

void run_round(const Options& opt, const Inputs& in, int round, bool traced, bool probe,
               Report& rep, E2eSamples& s, Layers& layers) {
  Tracer tr(traced);
  const size_t n = in.graph.size();

  // --- set-up: start, load, first propagation -------------------------
  const uint64_t t_setup = now_ns();
  net::Cluster cluster(in.schema, in.graph);
  std::vector<model::SubId> background_ids;
  for (BrokerId b = 0; b < n; ++b) {
    const auto c = cluster.connect(b);
    for (const auto& sub : in.background[b]) {
      rep.attempt(OpKind::kSubscribe);
      const uint64_t t0 = now_ns();
      try {
        background_ids.push_back(c->subscribe(sub));
      } catch (const std::exception& e) {
        rep.fail_op(OpKind::kSubscribe);
        rep.error(std::string("background subscribe failed: ") + e.what());
        return;
      }
      s.subscribe_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  const auto subscriber = cluster.connect(kSubscriberLeaf);
  std::vector<model::SubId> live_ids;
  for (const auto& sub : in.live) {
    rep.attempt(OpKind::kSubscribe);
    const uint64_t t0 = now_ns();
    live_ids.push_back(subscriber->subscribe(sub));
    s.subscribe_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  const auto run_period = [&] {
    rep.attempt(OpKind::kPeriod);
    const uint64_t c0 = cpu_ns();
    const uint64_t t0 = now_ns();
    const auto report = cluster.run_propagation_period();
    s.period_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    s.period_cpu_ms.push_back(static_cast<double>(cpu_ns() - c0) / 1e6);
    if (!report.complete()) {
      rep.fail_op(OpKind::kPeriod);
      rep.error("fig7 propagation period incomplete");
    }
  };
  run_period();
  s.setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);

  // --- measured window: two closed-loop publishers + live subscriber ----
  const auto pub_a = cluster.connect(kPublisherA);
  const auto pub_b = cluster.connect(kPublisherB);
  const double visits0 = sum_counter(cluster, "subsum_walk_visits_total");
  const auto rpc_before = probe ? peer_rpc_buckets(cluster) : std::map<double, double>{};
  const uint64_t maps0 = proc_map_count();
  const uint64_t rss0 = proc_status_kb("VmRSS");
  std::atomic<bool> pubs_done{false};
  std::vector<PubRec> recs_a, recs_b;
  std::vector<NoteRec> notes;
  const uint64_t c_window = cpu_ns();
  const uint64_t t_window = now_ns();
  std::thread collector([&] { collect_loop(*subscriber, pubs_done, notes); });
  std::thread ta([&] {
    publish_loop(*pub_a, kPublisherA, in.events_a, in.keys_a, recs_a, tr, rep);
  });
  std::thread tb([&] {
    publish_loop(*pub_b, kPublisherB, in.events_b, in.keys_b, recs_b, tr, rep);
  });
  ta.join();
  tb.join();
  uint64_t t_end = t_window;
  for (const auto* v : {&recs_a, &recs_b}) {
    for (const PubRec& r : *v) t_end = std::max(t_end, r.end_ns);
  }
  pubs_done = true;
  collector.join();
  s.publish_cpu_ns += static_cast<double>(cpu_ns() - c_window);
  const uint64_t maps1 = proc_map_count();
  const uint64_t rss1 = proc_status_kb("VmRSS");
  const auto rpc_after = probe ? peer_rpc_buckets(cluster) : std::map<double, double>{};
  const double window_publishes = static_cast<double>(recs_a.size() + recs_b.size());
  s.publishers = 2;
  s.window_publishes += recs_a.size() + recs_b.size();
  s.measured_s = static_cast<double>(t_end - t_window) / 1e9;

  PairSet expected;
  std::vector<const PubRec*> all;
  for (const auto* v : {&recs_a, &recs_b}) {
    for (const PubRec& r : *v) {
      s.publish_us.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
      all.push_back(&r);
    }
  }
  for (size_t i = 0; i < recs_a.size(); ++i) {
    expect_pairs(in, live_ids, in.keys_a[i], in.events_a[i], expected);
  }
  for (size_t i = 0; i < recs_b.size(); ++i) {
    expect_pairs(in, live_ids, in.keys_b[i], in.events_b[i], expected);
  }
  PairSet received = received_pairs(notes);
  if (round == 0) inject_fault(opt.inject, received, background_ids.front());
  check_pairs(rep, "fig7 round " + std::to_string(round) + " window", expected, received);
  std::vector<double> lag_us;
  notify_latencies(all, notes, s.notify_us, lag_us);
  const double window_visits = sum_counter(cluster, "subsum_walk_visits_total") - visits0;
  if (window_visits > window_publishes * static_cast<double>(n)) {
    rep.error("fig7 walks visited more brokers than exist (" + std::to_string(window_visits) +
              " visits for " + std::to_string(window_publishes) + " publishes)");
  }

  // --- quiet periods, then the sequential verification batch -----------
  for (int i = 0; i < kQuietPeriods; ++i) run_period();
  s.announce_bytes += announce_bytes(cluster);
  s.announce_periods += 1 + kQuietPeriods;

  const double fwd0 = sum_counter(cluster, "subsum_walk_forward_hops_total");
  const double dlv0 = sum_counter(cluster, "subsum_walk_delivery_hops_total");
  const double vis0 = sum_counter(cluster, "subsum_walk_visits_total");
  std::vector<std::unique_ptr<net::Client>> origins;
  for (BrokerId b = 0; b < n; ++b) origins.push_back(cluster.connect(b));
  PairSet vexpected;
  std::vector<uint64_t> verify_traces;
  for (const Publish& p : in.verify) {
    rep.attempt(OpKind::kPublish);
    const double before = sum_counter(cluster, "subsum_walk_visits_total");
    try {
      verify_traces.push_back(origins[p.origin]->publish(p.event));
    } catch (const std::exception& e) {
      rep.fail_op(OpKind::kPublish);
      rep.error(std::string("verification publish failed: ") + e.what());
      continue;
    }
    const double visits = sum_counter(cluster, "subsum_walk_visits_total") - before;
    if (visits > static_cast<double>(n)) {
      rep.error("fig7 walk visited " + std::to_string(visits) + " brokers (of " +
                std::to_string(n) + ")");
    }
    expect_pairs(in, live_ids, event_key(p.event), p.event, vexpected);
  }
  std::vector<NoteRec> vnotes;
  {
    std::atomic<bool> done{true};
    collect_loop(*subscriber, done, vnotes);
  }
  check_pairs(rep, "fig7 round " + std::to_string(round) + " verification", vexpected,
              received_pairs(vnotes));

  if (!probe) return;
  // --- per-layer probes (traced rounds only) ---------------------------
  const double vn = static_cast<double>(in.verify.size());
  const SubList subs = all_subscriptions(in);
  SubList churn_adds;
  for (BrokerId b = 0; b < n; ++b) churn_adds.emplace_back(b, in.background[b].front());
  probe_replica(in.schema, in.graph, subs, in.verify, churn_adds, n, tr, layers);
  layers.routing_visits_per_publish = (sum_counter(cluster, "subsum_walk_visits_total") - vis0) / vn;
  layers.routing_forward_hops_per_publish =
      (sum_counter(cluster, "subsum_walk_forward_hops_total") - fwd0) / vn;
  layers.routing_delivery_hops_per_publish =
      (sum_counter(cluster, "subsum_walk_delivery_hops_total") - dlv0) / vn;
  layers.net_peer_rpcs_per_publish =
      layers.routing_forward_hops_per_publish + layers.routing_delivery_hops_per_publish;
  layers.net_peer_rpc_p50_us = peer_rpc_p50(rpc_before, rpc_after);
  layers.net_notify_lag_us = median(lag_us);
  layers.net_full_sends_per_period =
      sum_counter(cluster, "subsum_summary_full_sends_total") / (1 + kQuietPeriods);
  layers.net_delta_sends_per_period =
      sum_counter(cluster, "subsum_summary_delta_sends_total") / (1 + kQuietPeriods);
  layers.net_digest_mismatches = sum_counter(cluster, "subsum_summary_digest_mismatch_total");
  layers.proc_maps_per_publish =
      (static_cast<double>(maps1) - static_cast<double>(maps0)) / window_publishes;
  layers.proc_rss_kb_per_publish =
      (static_cast<double>(rss1) - static_cast<double>(rss0)) / window_publishes;
  probe_event_codec(in.schema, n, in.verify, tr, layers);
  probe_rpc(*subscriber, 500, tr, layers.net_rpc_us);
  probe_connect(200, tr, layers);
  tr.write_jsonl(opt.work_dir + "/spans-fig7-publish-seed" + std::to_string(opt.seed) + ".jsonl");
  write_broker_spans(cluster, verify_traces,
                     opt.work_dir + "/broker-spans-fig7-publish-seed" +
                         std::to_string(opt.seed) + ".jsonl");
}

}  // namespace

void run_fig7_publish(const Options& opt, Report& rep) {
  const Inputs in = make_inputs(opt.seed);
  // The workload's premise: even a broker holding every subscription stays
  // below the frozen-index threshold, so matching runs the classic engine.
  core::BrokerSummary everything(in.schema);
  const SubList subs = all_subscriptions(in);
  for (size_t i = 0; i < subs.size(); ++i) {
    everything.add(subs[i].second,
                   model::SubId{0, static_cast<uint32_t>(i), subs[i].second.mask()});
  }
  if (everything.approx_id_entries() >= core::index_options().min_id_entries) {
    rep.error("fig7 population reaches the frozen-index threshold");
  }
  run_rounds(opt, rep, kMinRounds, [&](int r, bool traced, bool probe, E2eSamples& s, Layers& l) {
    run_round(opt, in, r, traced, probe, rep, s, l);
  });
}

}  // namespace perfbench
