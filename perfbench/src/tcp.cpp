#include "tcp.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <set>
#include <unordered_map>

#include "obs/promtext.h"
#include "obs/trace.h"

namespace perfbench {

using subsum::overlay::BrokerId;

std::vector<subsum::model::Subscription> broad_subscriptions(
    const subsum::model::Schema& schema, const subsum::workload::ValuePools& pools, size_t n,
    uint64_t seed) {
  using subsum::model::AttrType;
  using subsum::model::Op;
  subsum::util::Rng rng(seed ^ 0x51ab5c0ffeeULL);
  std::vector<std::pair<subsum::model::AttrId, size_t>> choices;
  for (subsum::model::AttrId a = 0; a < schema.attr_count(); ++a) {
    if (!subsum::model::is_arithmetic(schema.type_of(a))) continue;
    for (size_t r = 0; r < pools.arith[a].ranges.size(); ++r) choices.emplace_back(a, r);
  }
  std::vector<subsum::model::Subscription> out;
  for (size_t i = 0; i < n && i < choices.size(); ++i) {
    std::swap(choices[i], choices[i + rng.below(choices.size() - i)]);
    const auto [a, r] = choices[i];
    const auto [lo, hi] = pools.arith[a].ranges[r];
    std::vector<subsum::model::Constraint> cs;
    if (schema.type_of(a) == AttrType::kInt) {
      cs = {{a, Op::kGe, static_cast<int64_t>(lo)}, {a, Op::kLe, static_cast<int64_t>(hi)}};
    } else {
      cs = {{a, Op::kGe, lo}, {a, Op::kLe, hi}};
    }
    out.emplace_back(schema, std::move(cs));
  }
  return out;
}

void publish_loop(subsum::net::Client& client, BrokerId origin,
                  const std::vector<subsum::model::Event>& events,
                  const std::vector<std::string>& keys, std::vector<PubRec>& out, Tracer& tr,
                  Report& rep) {
  for (size_t i = 0; i < events.size(); ++i) {
    rep.attempt(OpKind::kPublish);
    PubRec r;
    r.key = &keys[i];
    r.start_ns = now_ns();
    try {
      r.trace = client.publish(events[i]);
    } catch (const std::exception& e) {
      rep.fail_op(OpKind::kPublish);
      rep.error(std::string("publish at broker ") + std::to_string(origin) + " failed: " +
                e.what());
      break;
    }
    r.end_ns = now_ns();
    if (tr.on()) tr.record("net.client_publish", r.trace, origin, r.start_ns, r.end_ns);
    out.push_back(r);
  }
}

void collect_loop(subsum::net::Client& client, const std::atomic<bool>& stop,
                  std::vector<NoteRec>& out, int quiet_ms) {
  try {
    while (!stop.load(std::memory_order_relaxed)) {
      if (auto n = client.next_notification(std::chrono::milliseconds(20))) {
        out.push_back({now_ns(), std::move(*n)});
      }
    }
    while (auto n = client.next_notification(std::chrono::milliseconds(quiet_ms))) {
      out.push_back({now_ns(), std::move(*n)});
    }
  } catch (const std::exception&) {
    // A dead subscriber connection shows up as missing notifications.
  }
}

void drain_now(subsum::net::Client& client, std::vector<NoteRec>& out) {
  const uint64_t t = now_ns();
  for (auto& n : client.drain_notifications()) out.push_back({t, std::move(n)});
}

PairSet received_pairs(const std::vector<NoteRec>& notes) {
  PairSet r;
  for (const NoteRec& n : notes) {
    const std::string key = event_key(n.msg.event);
    for (const auto& id : n.msg.ids) ++r[{key, id}];
  }
  return r;
}

void notify_latencies(const std::vector<const PubRec*>& pubs, const std::vector<NoteRec>& notes,
                      std::vector<double>& notify_us, std::vector<double>& lag_us) {
  // Per event content, the publishes in start order; each notification
  // claims the oldest publish of its content that it could belong to.
  std::unordered_map<std::string_view, std::deque<const PubRec*>> by_key;
  std::vector<const PubRec*> sorted = pubs;
  std::sort(sorted.begin(), sorted.end(),
            [](const PubRec* a, const PubRec* b) { return a->start_ns < b->start_ns; });
  for (const PubRec* p : sorted) by_key[*p->key].push_back(p);
  for (const NoteRec& n : notes) {
    auto it = by_key.find(event_key(n.msg.event));
    if (it == by_key.end() || it->second.empty()) continue;  // a false notification
    const PubRec* p = it->second.front();
    it->second.pop_front();
    notify_us.push_back(static_cast<double>(n.recv_ns - p->start_ns) / 1e3);
    lag_us.push_back((static_cast<double>(n.recv_ns) - static_cast<double>(p->end_ns)) / 1e3);
  }
}

std::map<double, double> peer_rpc_buckets(subsum::net::Cluster& cluster) {
  std::map<double, double> cumulative;
  for (BrokerId b = 0; b < cluster.size(); ++b) {
    const auto c = cluster.connect(b);
    for (const auto& s : subsum::obs::parse_prometheus_text(c->stats_text())) {
      if (s.name != "subsum_peer_rpc_latency_us_bucket") continue;
      const std::string* le = s.label("le");
      if (!le || *le == "+Inf") continue;
      cumulative[std::stod(*le)] += s.value;
    }
  }
  return cumulative;
}

double peer_rpc_p50(const std::map<double, double>& before,
                    const std::map<double, double>& after) {
  std::vector<std::pair<double, double>> window;
  for (const auto& [bound, n] : after) {
    auto it = before.find(bound);
    window.emplace_back(bound, n - (it == before.end() ? 0 : it->second));
  }
  return bucket_quantile(window, 0.5);
}

double sum_counter(subsum::net::Cluster& cluster, const char* name) {
  double s = 0;
  for (BrokerId b = 0; b < cluster.size(); ++b) {
    s += static_cast<double>(cluster.node(b).metrics().counter_value(name));
  }
  return s;
}

double announce_bytes(subsum::net::Cluster& cluster) {
  return sum_counter(cluster, "subsum_summary_full_bytes_total") +
         sum_counter(cluster, "subsum_summary_delta_bytes_total");
}

void probe_rpc(subsum::net::Client& client, int n, Tracer& tr, double& out_us) {
  const std::vector<subsum::model::SubId> none;
  for (int i = 0; i < n; ++i) {
    Tracer::Scope sp(tr, "net.client_rpc");
    (void)client.renew_leases(none);
  }
  out_us = tr.mean_us("net.client_rpc");
}

void write_broker_spans(subsum::net::Cluster& cluster, const std::vector<uint64_t>& traces,
                        const std::string& path) {
  const std::set<uint64_t> wanted(traces.begin(), traces.end());
  std::vector<subsum::obs::Span> spans;
  for (BrokerId b = 0; b < cluster.size(); ++b) {
    const auto c = cluster.connect(b);
    for (const auto& s : c->fetch_trace()) {
      if (wanted.count(s.trace)) spans.push_back(s);
    }
  }
  std::ofstream(path) << subsum::obs::to_jsonl(spans);
}

}  // namespace perfbench
