// sim-scale: sim::SimSystem on the cw-24 backbone at ~10^5 subscriptions,
// in the library's default exact AACS mode. No sockets.
//
// Each round builds a fresh system (set-up: every subscription, then one
// propagation period), then runs a phase of sequential SimSystem::publish
// calls from rotating origins, a few churn periods (unsubscribes,
// subscribes, one run_propagation_period each) and a second publish phase
// against the mutated summaries, whose frozen indexes are stale.
//
// Why this workload: the network is bypassed, so net-layer work should not
// move it. Matching (frozen index, combo cache, classic fallback),
// routing::route_event, the exact home-table re-filter and the per-period
// removal maintenance do all the work. It uses publish, not publish_batch.
#include <algorithm>

#include "layers.h"
#include "overlay/topologies.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace perfbench {
namespace {

using namespace subsum;
using overlay::BrokerId;

constexpr int kMinRounds = 3;
constexpr size_t kPopulation = 120000;
constexpr int kChurnPeriods = 2;
// Per churn period. Unsubscribes (a linear home-table removal, ~0.4 ms)
// and subscribes (~15 us) differ by 25x; an even mix would put the median
// of subscribe_p50_us in the gap between the two, where it jumps between
// them from run to run. More subscribes than unsubscribes keep it inside
// the subscribe mode; subscribe_rate still carries the unsubscribe cost.
constexpr size_t kUnsubscribesPerPeriod = 150;
constexpr size_t kSubscribesPerPeriod = 250;
constexpr size_t kEventsPerPhase = 2000;
constexpr size_t kCheckedPerPhase = 32;  // brute-force checked publishes
constexpr size_t kProbeEvents = 200;

struct Inputs {
  model::Schema schema = workload::stock_schema();
  overlay::Graph graph = overlay::cable_wireless_24();
  SubList initial;
  std::vector<SubList> churn_adds;              // per churn period
  std::vector<std::vector<size_t>> victims;     // per period: indices into the live list
  std::vector<model::Event> phase1, phase2;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  // Narrower subscriptions than the generator's default (3 constraints,
  // mostly on pooled values) so each event matches a few of the 10^5
  // subscriptions: deliveries, and with them the home-table re-filter and
  // the brute-force check, then have work to do on every publish.
  workload::SubGenParams sp;
  sp.subsumption = 0.7;
  sp.arith_attrs = 1;
  sp.string_attrs = 2;
  workload::SubscriptionGenerator gen(in.schema, sp, seed);
  util::Rng rng(seed ^ 0x5ca1ab1eULL);
  for (size_t i = 0; i < kPopulation; ++i) {
    in.initial.emplace_back(static_cast<BrokerId>(rng.below(in.graph.size())), gen.next());
  }
  size_t live = kPopulation;
  for (int c = 0; c < kChurnPeriods; ++c) {
    std::vector<size_t> v;
    for (size_t i = 0; i < kUnsubscribesPerPeriod; ++i) v.push_back(rng.below(live--));
    in.victims.push_back(std::move(v));
    SubList adds;
    for (size_t i = 0; i < kSubscribesPerPeriod; ++i) {
      adds.emplace_back(static_cast<BrokerId>(rng.below(in.graph.size())), gen.next());
    }
    live += kSubscribesPerPeriod;
    in.churn_adds.push_back(std::move(adds));
  }
  workload::EventGenerator e1(in.schema, gen.pools(), {}, seed + 1);
  workload::EventGenerator e2(in.schema, gen.pools(), {}, seed + 2);
  for (size_t i = 0; i < kEventsPerPhase; ++i) {
    in.phase1.push_back(e1.next());
    in.phase2.push_back(e2.next());
  }
  InputDigest d;
  for (const auto& [b, sub] : in.initial) {
    d.add(b);
    d.add(sub);
  }
  for (int c = 0; c < kChurnPeriods; ++c) {
    for (const size_t v : in.victims[c]) d.add(v);
    for (const auto& [b, sub] : in.churn_adds[c]) {
      d.add(b);
      d.add(sub);
    }
  }
  for (const auto* evs : {&in.phase1, &in.phase2}) {
    for (const auto& e : *evs) d.add(e);
  }
  d.print();
  return in;
}

struct LiveSub {
  model::SubId id;
  const model::Subscription* sub;
};

/// One timed publish phase over every event; checks delivered ⊆
/// candidates on every publish and, on the first kCheckedPerPhase,
/// delivered == the brute-force set.
void publish_phase(const Options& opt, sim::SimSystem& sys, const std::vector<model::Event>& events,
                   const std::vector<LiveSub>& live, bool inject, Tracer& tr, Report& rep,
                   E2eSamples& s) {
  const size_t n = sys.broker_count();
  std::vector<std::vector<model::SubId>> checked;
  uint64_t not_subset = 0;
  const uint64_t t0 = now_ns();
  for (size_t i = 0; i < events.size(); ++i) {
    const BrokerId origin = static_cast<BrokerId>(i % n);
    rep.attempt(OpKind::kPublish);
    const uint64_t c = cpu_ns();
    const uint64_t a = now_ns();
    sim::SimSystem::PublishOutcome o = sys.publish(origin, events[i]);
    const uint64_t b = now_ns();
    s.publish_cpu_ns += static_cast<double>(cpu_ns() - c);
    if (tr.on()) tr.record("sim.client_publish", i + 1, origin, a, b);
    const double us = static_cast<double>(b - a) / 1e3;
    s.publish_us.push_back(us);
    if (!o.delivered.empty()) s.notify_us.push_back(us);
    if (!std::includes(o.candidates.begin(), o.candidates.end(), o.delivered.begin(),
                       o.delivered.end())) {
      ++not_subset;
    }
    if (i < kCheckedPerPhase) checked.push_back(std::move(o.delivered));
  }
  s.measured_s += static_cast<double>(now_ns() - t0) / 1e9;
  s.window_publishes += events.size();
  if (not_subset) {
    rep.error("sim-scale: " + std::to_string(not_subset) +
              " publishes delivered a subscription the summaries did not match");
  }
  PairSet expected, received;
  for (size_t k = 0; k < checked.size(); ++k) {
    const std::string key = std::to_string(k) + ":" + event_key(events[k]);
    for (const LiveSub& l : live) {
      if (oracle_matches(*l.sub, events[k])) ++expected[{key, l.id}];
    }
    for (const model::SubId& id : checked[k]) ++received[{key, id}];
  }
  if (inject && !live.empty()) {
    // A subscription that matches none of the checked events.
    model::SubId false_id = live.front().id;
    for (const LiveSub& l : live) {
      bool any = false;
      for (size_t k = 0; k < checked.size() && !any; ++k) any = oracle_matches(*l.sub, events[k]);
      if (!any) {
        false_id = l.id;
        break;
      }
    }
    inject_fault(opt.inject, received, false_id);
  }
  check_pairs(rep, "sim-scale brute-force sample", expected, received);
}

void run_round(const Options& opt, const Inputs& in, int round, bool traced, bool probe,
               Report& rep, E2eSamples& s, Layers& layers) {
  Tracer tr(traced);
  const uint64_t t_setup = now_ns();
  sim::SystemConfig cfg;
  cfg.schema = in.schema;
  cfg.graph = in.graph;
  sim::SimSystem sys(std::move(cfg));
  std::vector<LiveSub> live;
  live.reserve(kPopulation + kChurnPeriods * kSubscribesPerPeriod);
  for (const auto& [b, sub] : in.initial) live.push_back({sys.subscribe(b, sub), &sub});
  sys.run_propagation_period();
  s.setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);

  const uint64_t maps0 = proc_map_count();
  const uint64_t rss0 = proc_status_kb("VmRSS");
  publish_phase(opt, sys, in.phase1, live, round == 0 && opt.inject != Inject::kNone, tr, rep,
                s);

  const size_t summary_bytes0 = sys.accounting().bytes(sim::MsgType::kSummary);
  std::vector<Publish> probe_events;
  for (size_t i = 0; i < kCheckedPerPhase; ++i) {
    probe_events.push_back({static_cast<BrokerId>(i % in.graph.size()), in.phase2[i]});
  }
  const std::vector<BrokerId> sample = {0, 5, 11, 15};
  for (int c = 0; c < kChurnPeriods; ++c) {
    std::vector<model::SubId> removes;
    for (const size_t v : in.victims[c]) {
      removes.push_back(live[v].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
    }
    rep.attempt(OpKind::kUnsubscribe, removes.size());
    rep.attempt(OpKind::kSubscribe, in.churn_adds[c].size());
    rep.attempt(OpKind::kPeriod);
    std::vector<model::SubId> added;
    const PeriodTime t = churn_period(sys, removes, in.churn_adds[c], s.subscribe_us, added,
                                      sample, probe_events, tr, layers);
    s.period_ms.push_back(t.ms);
    s.period_cpu_ms.push_back(t.cpu_ms);
    s.measured_s += t.ms / 1e3;
    for (size_t k = 0; k < added.size(); ++k) live.push_back({added[k], &in.churn_adds[c][k].second});
  }
  s.announce_bytes +=
      static_cast<double>(sys.accounting().bytes(sim::MsgType::kSummary) - summary_bytes0);
  s.announce_periods += kChurnPeriods;

  publish_phase(opt, sys, in.phase2, live, false, tr, rep, s);
  const uint64_t maps1 = proc_map_count();
  const uint64_t rss1 = proc_status_kb("VmRSS");

  if (!probe) return;
  const double pubs = static_cast<double>(s.publish_us.size());
  layers.proc_maps_per_publish =
      (static_cast<double>(maps1) - static_cast<double>(maps0)) / pubs;
  layers.proc_rss_kb_per_publish =
      (static_cast<double>(rss1) - static_cast<double>(rss0)) / pubs;
  std::vector<Publish> batch;
  for (size_t i = 0; i < kProbeEvents; ++i) {
    batch.push_back({static_cast<BrokerId>(i % in.graph.size()),
                     in.phase2[in.phase2.size() - 1 - i]});
  }
  probe_publish_layers(sys, batch, tr, layers);
  probe_summary_codec(sys, sample, tr, layers);
  tr.write_jsonl(opt.work_dir + "/spans-sim-scale-seed" + std::to_string(opt.seed) + ".jsonl");
}

}  // namespace

void run_sim_scale(const Options& opt, Report& rep) {
  const Inputs in = make_inputs(opt.seed);
  run_rounds(opt, rep, kMinRounds, [&](int r, bool traced, bool probe, E2eSamples& s, Layers& l) {
    run_round(opt, in, r, traced, probe, rep, s, l);
  });
}

}  // namespace perfbench
