#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <thread>

#include "core/matcher.h"
#include "core/serialize.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "routing/event_router.h"
#include "routing/propagation.h"
#include "store/wal.h"
#include "util/bytes.h"

namespace perfbench {

using subsum::overlay::BrokerId;
namespace core = subsum::core;

namespace {

double rate_per_s(uint64_t n, double s) { return s > 0 ? static_cast<double>(n) / s : 0; }

/// Operations per second of time inside the calls, leaving out the slowest
/// 1% (the p99 tail, whose noise is reported separately).
double untailed_rate(std::vector<double> latencies_us) {
  std::sort(latencies_us.begin(), latencies_us.end());
  latencies_us.resize(latencies_us.size() - latencies_us.size() / 100);
  double busy_s = 0;
  for (double us : latencies_us) busy_s += us / 1e6;
  return rate_per_s(latencies_us.size(), busy_s);
}

std::vector<Metric> e2e_metrics(const E2eSamples& s) {
  return {
      {"setup_s", median(s.setup_s), "s"},
      {"publish_cpu_us",
       s.window_publishes ? s.publish_cpu_ns / 1e3 / static_cast<double>(s.window_publishes) : 0,
       "us"},
      {"publish_rate", s.publishers * untailed_rate(s.publish_us), "publishes/s", false},
      {"publish_p50_us", quantile(s.publish_us, 0.5), "us"},
      {"publish_p99_us", quantile(s.publish_us, 0.99), "us", false},
      {"notify_p50_us", quantile(s.notify_us, 0.5), "us"},
      {"notify_p99_us", quantile(s.notify_us, 0.99), "us", false},
      {"subscribe_rate", untailed_rate(s.subscribe_us), "ops/s", false},
      {"subscribe_p50_us", quantile(s.subscribe_us, 0.5), "us"},
      {"subscribe_p99_us", quantile(s.subscribe_us, 0.99), "us", false},
      {"propagation_ms", median(s.period_ms), "ms", false},
      {"propagation_cpu_ms", median(s.period_cpu_ms), "ms"},
      {"announce_bytes_per_period",
       s.announce_periods ? s.announce_bytes / static_cast<double>(s.announce_periods) : 0,
       "bytes"},
      {"peak_rss_mb", static_cast<double>(proc_status_kb("VmHWM")) / 1024.0, "MB"},
  };
}

void emit_layers(Report& rep, const Layers& l) {
  rep.layer("net.connect_us", l.net_connect_us, "us");
  rep.layer("net.rpc_us", l.net_rpc_us, "us");
  rep.layer("net.peer_rpcs_per_publish", l.net_peer_rpcs_per_publish, "count");
  rep.layer("net.peer_rpc_p50_us", l.net_peer_rpc_p50_us, "us");
  rep.layer("net.notify_lag_us", l.net_notify_lag_us, "us");
  rep.layer("net.event_encode_us", l.net_event_encode_us, "us");
  rep.layer("net.event_decode_us", l.net_event_decode_us, "us");
  rep.layer("net.full_sends_per_period", l.net_full_sends_per_period, "count");
  rep.layer("net.delta_sends_per_period", l.net_delta_sends_per_period, "count");
  rep.layer("net.digest_mismatches", l.net_digest_mismatches, "count");
  rep.layer("routing.visits_per_publish", l.routing_visits_per_publish, "count");
  rep.layer("routing.forward_hops_per_publish", l.routing_forward_hops_per_publish, "count");
  rep.layer("routing.delivery_hops_per_publish", l.routing_delivery_hops_per_publish, "count");
  rep.layer("routing.route_event_us", l.routing_route_event_us, "us");
  rep.layer("routing.propagate_ms", l.routing_propagate_ms, "ms");
  rep.layer("sim.publish_us", l.sim_publish_us, "us");
  rep.layer("sim.maintenance_ms", l.sim_maintenance_ms, "ms");
  rep.layer("core.match_us", l.core_match_us, "us");
  rep.layer("core.match_ids_per_event", l.core_match_ids_per_event, "count");
  rep.layer("core.candidate_precision", l.core_candidate_precision, "ratio");
  rep.layer("core.candidates_per_event", l.core_candidates, "count");
  rep.layer("core.delivered_per_event", l.core_delivered, "count");
  rep.layer("core.match_after_churn_us", l.core_match_after_churn_us, "us");
  rep.layer("core.encode_summary_us", l.core_encode_summary_us, "us");
  rep.layer("core.decode_summary_us", l.core_decode_summary_us, "us");
  rep.layer("core.delta_diff_us", l.core_delta_diff_us, "us");
  rep.layer("store.wal_commit_us", l.store_wal_commit_us, "us");
  rep.layer("store.snapshot_ms", l.store_snapshot_ms, "ms");
  rep.layer("proc.maps_per_publish", l.proc_maps_per_publish, "count");
  rep.layer("proc.rss_kb_per_publish", l.proc_rss_kb_per_publish, "kB");
}

std::unique_ptr<subsum::sim::SimSystem> build_replica(const subsum::model::Schema& schema,
                                                      const subsum::overlay::Graph& g,
                                                      const SubList& subs) {
  subsum::sim::SystemConfig cfg;
  cfg.schema = schema;
  cfg.graph = g;
  auto sys = std::make_unique<subsum::sim::SimSystem>(std::move(cfg));
  for (const auto& [b, sub] : subs) sys->subscribe(b, sub);
  sys->run_propagation_period();
  return sys;
}

double probe_propagate_ms(const subsum::overlay::Graph& g,
                          const std::vector<core::BrokerSummary>& own,
                          const core::WireConfig& wire, Tracer& tr) {
  const uint64_t t0 = now_ns();
  {
    Tracer::Scope sp(tr, "routing.propagate");
    (void)subsum::routing::propagate(g, own, wire);
  }
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void probe_match_after_churn(const std::vector<const core::BrokerSummary*>& mutated,
                             const std::vector<Publish>& events, Tracer& tr) {
  core::MatchScratch scratch;
  for (size_t i = 0; i < mutated.size(); ++i) {
    const core::BrokerSummary copy = *mutated[i];
    for (const Publish& p : events) {
      Tracer::Scope sp(tr, "core.match_after_churn", 0, static_cast<uint32_t>(i));
      (void)core::match_into(copy, p.event, scratch);
    }
  }
}

void probe_delta(const core::SummaryImage& before, const core::SummaryImage& after,
                 const subsum::model::Schema& schema, const core::WireConfig& wire,
                 Tracer& tr) {
  Tracer::Scope sp(tr, "core.delta_diff");
  const core::SummaryDelta d = core::diff_images(before, after);
  (void)core::encode_delta(d, schema, wire, core::DeltaHeader{});
}

/// Per-metric median over the rounds of their per-round values.
std::vector<Metric> round_medians(const std::vector<E2eSamples>& rounds) {
  std::vector<std::vector<Metric>> per_round;
  for (const E2eSamples& r : rounds) per_round.push_back(e2e_metrics(r));
  std::vector<Metric> out = e2e_metrics(E2eSamples{});  // names and units
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> v;
    for (const auto& r : per_round) v.push_back(r[m].value);
    out[m].value = median(v);
    out[m].rounds = std::move(v);
  }
  return out;
}

void emit_e2e(Report& rep, const std::vector<E2eSamples>& rounds) {
  for (Metric& m : round_medians(rounds)) rep.e2e(std::move(m));
}

void print_tracing_overhead(const std::vector<E2eSamples>& untraced,
                            const std::vector<E2eSamples>& traced) {
  const auto u = round_medians(untraced), t = round_medians(traced);
  std::cout << "tracing overhead (median of traced rounds minus median of untraced rounds;"
               " peak_rss_mb is process-wide):\n";
  for (size_t i = 0; i < u.size(); ++i) {
    const double diff = t[i].value - u[i].value;
    const double rel = u[i].value != 0 ? diff / u[i].value * 100.0 : 0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  %-26s untraced %12.3f  traced %12.3f  diff %+11.3f %s (%+.1f%%)\n",
                  u[i].name.c_str(), u[i].value, t[i].value, diff, u[i].unit.c_str(), rel);
    std::cout << buf;
  }
}

}  // namespace

void run_rounds(const Options& opt, Report& rep, int min_rounds, const RoundFn& round) {
  std::vector<E2eSamples> plain, traced;
  Layers layers;
  double measured_s = 0;
  bool probed = false;
  for (int r = 0; r < (opt.trace ? 2 * min_rounds : min_rounds) || measured_s < opt.seconds;
       ++r) {
    const bool trace = opt.trace && r % 2 == 1;
    E2eSamples s;
    round(r, trace, trace && !probed, s, layers);
    probed = probed || trace;
    measured_s += s.measured_s;
    (trace ? traced : plain).push_back(std::move(s));
    if (!rep.correct()) break;  // a broken round's numbers mean nothing
  }
  if (!opt.trace) {
    emit_e2e(rep, plain);
    return;
  }
  print_tracing_overhead(plain, traced);
  emit_layers(rep, layers);
}

void probe_publish_layers(subsum::sim::SimSystem& sys, const std::vector<Publish>& batch,
                          Tracer& tr, Layers& out) {
  // Separate scratches: sharing one would let the match probe hit the
  // combo cache that route_event just filled for the same event.
  core::MatchScratch route_scratch, match_scratch;
  double visits = 0, fwd = 0, dlv = 0, ids = 0, cand = 0, delivered = 0;
  uint64_t trace = 0;
  for (const Publish& p : batch) {
    ++trace;
    subsum::sim::SimSystem::PublishOutcome o;
    {
      Tracer::Scope sp(tr, "sim.publish", trace, p.origin);
      o = sys.publish(p.origin, p.event);
    }
    {
      Tracer::Scope sp(tr, "routing.route_event", trace, p.origin);
      (void)subsum::routing::route_event(sys.graph(), sys.state(), p.origin, p.event, {},
                                         &route_scratch);
    }
    for (const BrokerId b : o.route.visited) {
      core::MatchDiag diag;
      {
        Tracer::Scope sp(tr, "core.match_into", trace, b);
        (void)core::match_into(sys.state().held[b], p.event, match_scratch, &diag);
      }
      ids += static_cast<double>(diag.ids_collected);
    }
    visits += static_cast<double>(o.route.visited.size());
    fwd += static_cast<double>(o.route.forward_hops);
    dlv += static_cast<double>(o.route.delivery_hops);
    cand += static_cast<double>(o.candidates.size());
    delivered += static_cast<double>(o.delivered.size());
  }
  const double n = batch.empty() ? 1 : static_cast<double>(batch.size());
  out.routing_visits_per_publish = visits / n;
  out.routing_forward_hops_per_publish = fwd / n;
  out.routing_delivery_hops_per_publish = dlv / n;
  out.core_match_ids_per_event = ids / n;
  out.core_candidates = cand / n;
  out.core_delivered = delivered / n;
  out.core_candidate_precision = cand > 0 ? delivered / cand : 0;
  out.sim_publish_us = tr.mean_us("sim.publish");
  out.routing_route_event_us = tr.mean_us("routing.route_event");
  out.core_match_us = tr.mean_us("core.match_into");
}

void probe_summary_codec(const subsum::sim::SimSystem& sys, const std::vector<BrokerId>& brokers,
                         Tracer& tr, Layers& out) {
  for (const BrokerId b : brokers) {
    std::vector<std::byte> wire;
    {
      Tracer::Scope sp(tr, "core.encode_summary", 0, b);
      wire = core::encode_summary(sys.state().held[b], sys.wire());
    }
    {
      Tracer::Scope sp(tr, "core.decode_summary", 0, b);
      (void)core::decode_summary(wire, sys.schema());
    }
  }
  out.core_encode_summary_us = tr.mean_us("core.encode_summary");
  out.core_decode_summary_us = tr.mean_us("core.decode_summary");
}

void probe_wal_commit(const Options& opt, const subsum::model::Subscription& sub, int n,
                      Tracer& tr, Layers& out) {
  const std::string dir = fresh_dir(opt, "wal-probe");
  subsum::store::WalWriter wal(dir + "/probe.wal");
  subsum::util::BufWriter w;
  subsum::net::put_subscription(w, sub);
  const std::vector<std::byte> record = w.bytes();
  for (int i = 0; i < n; ++i) {
    Tracer::Scope sp(tr, "store.wal_commit");
    wal.append(record);
    wal.sync();
  }
  out.store_wal_commit_us = tr.mean_us("store.wal_commit");
}

void probe_connect(int n, Tracer& tr, Layers& out) {
  // A listener of the benchmark's own whose acceptor closes each
  // connection at once: the probe times the transport, not a broker.
  subsum::net::Listener listener(0);
  std::atomic<int> accepted{0};
  std::thread acceptor([&] {
    while (auto s = listener.accept()) {
      s->close();
      ++accepted;
    }
  });
  try {
    for (int i = 0; i < n; ++i) {
      {
        Tracer::Scope sp(tr, "net.connect_local");
        subsum::net::Socket s =
            subsum::net::connect_local(listener.port(), std::chrono::milliseconds(1000));
        s.close();
      }
      // Untimed: let the acceptor take the connection. On one CPU it runs
      // only when this thread yields, and a full accept queue (64) would
      // turn the next connects into 1 s SYN retransmits.
      while (accepted.load() <= i) std::this_thread::yield();
    }
  } catch (...) {
    listener.close();
    acceptor.join();
    throw;
  }
  listener.close();
  acceptor.join();
  out.net_connect_us = tr.mean_us("net.connect_local");
}

void probe_event_codec(const subsum::model::Schema& schema, size_t brokers,
                       const std::vector<Publish>& events, Tracer& tr, Layers& out) {
  for (const Publish& p : events) {
    subsum::net::EventMsg m;
    m.origin = p.origin;
    m.brocli = subsum::net::make_bitmap(brokers);
    m.event = p.event;
    std::vector<std::byte> bytes;
    {
      Tracer::Scope sp(tr, "net.encode_event", 0, p.origin);
      bytes = subsum::net::encode(m, schema);
    }
    {
      Tracer::Scope sp(tr, "net.decode_event", 0, p.origin);
      (void)subsum::net::decode_event_msg(bytes, schema);
    }
  }
  out.net_event_encode_us = tr.mean_us("net.encode_event");
  out.net_event_decode_us = tr.mean_us("net.decode_event");
}


PeriodTime churn_period(subsum::sim::SimSystem& sys,
                        const std::vector<subsum::model::SubId>& removes, const SubList& adds, std::vector<double>& op_us,
                    std::vector<subsum::model::SubId>& added,
                    const std::vector<BrokerId>& sample, const std::vector<Publish>& probe_events,
                    Tracer& tr, Layers& out) {
  std::vector<core::SummaryImage> before;
  if (tr.on()) {
    for (const BrokerId b : sample) before.push_back(core::extract_image(sys.state().held[b]));
  }
  for (const subsum::model::SubId& id : removes) {
    const uint64_t t0 = now_ns();
    sys.unsubscribe(id);
    op_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  for (const auto& [b, sub] : adds) {
    const uint64_t t0 = now_ns();
    added.push_back(sys.subscribe(b, sub));
    op_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  const uint64_t c0 = cpu_ns();
  const uint64_t t0 = now_ns();
  sys.run_propagation_period();
  const double period_ms = static_cast<double>(now_ns() - t0) / 1e6;
  const PeriodTime time{period_ms, static_cast<double>(cpu_ns() - c0) / 1e6};
  if (!tr.on()) return time;

  // The period's own input: one summary per broker of the subscriptions
  // it added (SimSystem keeps its delta summaries private).
  std::vector<core::BrokerSummary> own;
  for (size_t b = 0; b < sys.broker_count(); ++b) own.emplace_back(sys.schema());
  for (size_t i = 0; i < adds.size(); ++i) {
    own[adds[i].first].add(adds[i].second, added[added.size() - adds.size() + i]);
  }
  const double propagate_ms = probe_propagate_ms(sys.graph(), own, sys.wire(), tr);
  tr.record("sim.period", 0, 0, t0, t0 + static_cast<uint64_t>(period_ms * 1e6));
  const double maintenance_ms = period_ms - propagate_ms;
  out.sim_maintenance_ms = maintenance_ms > 0 ? maintenance_ms : 0;
  out.routing_propagate_ms = propagate_ms;

  std::vector<const core::BrokerSummary*> mutated;
  for (size_t i = 0; i < sample.size(); ++i) {
    const core::SummaryImage after = core::extract_image(sys.state().held[sample[i]]);
    probe_delta(before[i], after, sys.schema(), sys.wire(), tr);
    mutated.push_back(&sys.state().held[sample[i]]);
  }
  out.core_delta_diff_us = tr.mean_us("core.delta_diff");
  probe_match_after_churn(mutated, probe_events, tr);
  out.core_match_after_churn_us = tr.mean_us("core.match_after_churn");
  return time;
}

void probe_replica(const subsum::model::Schema& schema, const subsum::overlay::Graph& g,
                   const SubList& subs, const std::vector<Publish>& events,
                   const SubList& churn_adds, size_t churn_removes, Tracer& tr, Layers& out) {
  auto sys = build_replica(schema, g, subs);
  probe_publish_layers(*sys, events, tr, out);
  std::vector<BrokerId> all(g.size());
  for (BrokerId b = 0; b < g.size(); ++b) all[b] = b;
  probe_summary_codec(*sys, all, tr, out);

  std::vector<subsum::model::SubId> removes;
  for (BrokerId b = 0; b < g.size() && removes.size() < churn_removes; ++b) {
    for (const auto& os : sys->home_subs(b).subs()) {
      if (removes.size() == churn_removes) break;
      removes.push_back(os.id);
    }
  }
  std::vector<double> op_us;
  std::vector<subsum::model::SubId> added;
  churn_period(*sys, removes, churn_adds, op_us, added, all, events, tr, out);
}

}  // namespace perfbench
