#include "sim/system.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/delta.h"
#include "siena/covering.h"

namespace subsum::sim {

using model::SubId;
using overlay::BrokerId;

size_t event_wire_bytes(const model::Event& e) {
  size_t n = 1;  // attribute count
  for (const auto& a : e.attrs()) {
    n += 1;  // attribute id
    if (a.value.type() == model::AttrType::kString) {
      n += 1 + a.value.as_string().size();
    } else {
      n += 8;
    }
  }
  return n;
}

SimSystem::SimSystem(SystemConfig cfg)
    : cfg_(std::move(cfg)),
      wire_{model::SubIdCodec(static_cast<uint32_t>(cfg_.graph.size()),
                              cfg_.max_subs_per_broker, cfg_.schema.attr_count()),
            cfg_.numeric_width},
      trace_ring_(cfg_.trace_capacity),
      walk_metrics_(metrics_),
      probe_(metrics_, core::SampleConfig{cfg_.quality_sample_shift}) {
  const size_t n = cfg_.graph.size();
  if (n == 0) throw std::invalid_argument("system needs at least one broker");
  home_.resize(n);
  next_local_.assign(n, 0);
  delta_.assign(n, core::BrokerSummary(cfg_.schema, cfg_.policy, cfg_.arith_mode));
  state_.held.assign(n, core::BrokerSummary(cfg_.schema, cfg_.policy, cfg_.arith_mode));
  state_.merged_brokers.resize(n);
  for (BrokerId b = 0; b < n; ++b) state_.merged_brokers[b] = {b};
}

void SimSystem::dissolve(BrokerId broker, const model::Subscription& sub, SubId id) {
  delta_[broker].add(sub, id);
  state_.held[broker].add(sub, id);  // local knowledge is immediate
}

SubId SimSystem::subscribe(BrokerId broker, model::Subscription sub) {
  if (broker >= broker_count()) throw std::invalid_argument("broker id out of range");
  if (next_local_[broker] >= cfg_.max_subs_per_broker) {
    throw std::runtime_error("broker exceeded max outstanding subscriptions (c2 width)");
  }
  const SubId id{broker, next_local_[broker]++, sub.mask()};

  bool covered = false;
  if (cfg_.combine_subsumption) {
    // Covered by an already-propagated root of this broker? Then skip the
    // summaries entirely; the root's deliveries carry the event here.
    for (const auto& os : home_[broker].subs()) {
      if (!covered_by_.contains(os.id)) continue;  // only roots cover
      if (siena::covers(os.sub, sub, cfg_.schema)) {
        covered_by_[os.id].push_back(id);
        covered = true;
        break;
      }
    }
    if (!covered) covered_by_.emplace(id, std::vector<SubId>{});
  }
  if (!covered) dissolve(broker, sub, id);
  home_[broker].add({id, std::move(sub)});
  return id;
}

void SimSystem::unsubscribe(SubId id) {
  // Promote subscriptions this root was covering before it disappears.
  if (const auto it = covered_by_.find(id); it != covered_by_.end()) {
    const std::vector<SubId> orphans = std::move(it->second);
    covered_by_.erase(it);
    for (const SubId& orphan : orphans) {
      if (const auto* os = home_[orphan.broker].find(orphan)) {
        covered_by_.emplace(orphan, std::vector<SubId>{});
        dissolve(orphan.broker, os->sub, orphan);
      }
    }
  } else if (cfg_.combine_subsumption) {
    // A covered subscription: detach it from its root's list.
    for (auto& [root, ids] : covered_by_) {
      std::erase(ids, id);
    }
  }
  home_.at(id.broker).remove(id);
  state_.held[id.broker].remove(id);
  delta_[id.broker].remove(id);
  pending_removals_.push_back(id);
}

routing::PropagationResult SimSystem::run_propagation_period() {
  // Virtual-time black box: one second of virtual time per period keeps
  // flight-recorder dumps byte-identical across identical runs.
  const uint64_t vt_us = ++period_seq_ * 1'000'000;
  flight_.record_at(vt_us, obs::FrKind::kPeriodBegin, 0, 0, period_seq_);
  // Maintenance: apply pending removals to every broker's held state (they
  // ride along the period's summary messages; bytes charged below).
  // One sorted batch per held summary: a single pass over its rows.
  std::sort(pending_removals_.begin(), pending_removals_.end());
  for (auto& held : state_.held) held.remove(pending_removals_);
  const size_t removal_bytes = pending_removals_.size() * wire_.codec.encoded_size();
  pending_removals_.clear();

  auto period = routing::propagate(cfg_.graph, delta_, wire_, cfg_.propagation);
  for (const auto& send : period.sends) {
    acct_.record(MsgType::kSummary, send.bytes + removal_bytes);
  }
  // Fold the period's results into the steady state. Merging is idempotent,
  // so re-merging a broker's own delta (already in held) is harmless.
  for (BrokerId b = 0; b < broker_count(); ++b) {
    state_.held[b].merge(period.held[b]);
    std::vector<BrokerId> merged;
    std::set_union(state_.merged_brokers[b].begin(), state_.merged_brokers[b].end(),
                   period.merged_brokers[b].begin(), period.merged_brokers[b].end(),
                   std::back_inserter(merged));
    state_.merged_brokers[b] = std::move(merged);
  }
  delta_.assign(broker_count(), core::BrokerSummary(cfg_.schema, cfg_.policy, cfg_.arith_mode));
  // Summary-quality exports, refreshed while the merged images are fresh:
  // wire-vs-model drift and per-attribute row occupancy, per broker.
  for (BrokerId b = 0; b < broker_count(); ++b) {
    const std::string label = std::to_string(b);
    core::export_model_drift(metrics_, state_.held[b], wire_, {}, label);
    core::export_row_occupancy(metrics_, state_.held[b], label);
    core::export_shard_metrics(metrics_, state_.held[b], label);
  }
  return period;
}

SimSystem::PublishOutcome SimSystem::publish(BrokerId origin, const model::Event& event) {
  if (origin >= broker_count()) throw std::invalid_argument("origin broker out of range");
  PublishOutcome out;
  if (cfg_.trace) {
    routing::RouterOptions ropts = cfg_.router;
    ropts.trace_id = obs::mint_trace_id(origin, publish_seq_++, /*salt=*/0);
    out.route = routing::route_event(cfg_.graph, state_, origin, event, ropts);
  } else {
    out.route = routing::route_event(cfg_.graph, state_, origin, event, cfg_.router);
  }

  const size_t ebytes = event_wire_bytes(event);
  for (size_t i = 0; i + 1 < out.route.visited.size(); ++i) {
    // Forwarded event carries BROCLI (one byte per broker as a bitmap).
    acct_.record(MsgType::kEventForward, ebytes + (broker_count() + 7) / 8);
  }

  for (const auto& d : out.route.deliveries) {
    out.candidates.insert(out.candidates.end(), d.ids.begin(), d.ids.end());
    if (d.owner != d.examined_at) {
      acct_.record(MsgType::kEventDelivery,
                   ebytes + d.ids.size() * wire_.codec.encoded_size());
    }
    // Exact re-filtering at the owner: SACS summarization may have produced
    // false positives; the home table is authoritative.
    if (cfg_.combine_subsumption) {
      // The event reached this broker because a propagated root matched;
      // fan out to every local subscription it satisfies, including the
      // covered ones that never entered the summaries.
      for (const auto& os : home_[d.owner].subs()) {
        if (os.sub.matches(event)) out.delivered.push_back(os.id);
      }
    } else {
      for (const SubId& id : d.ids) {
        const auto* os = home_[d.owner].find(id);
        if (os && os->sub.matches(event)) out.delivered.push_back(id);
      }
    }
  }
  std::sort(out.candidates.begin(), out.candidates.end());
  std::sort(out.delivered.begin(), out.delivered.end());

  // Observatory probes: walk-efficiency counters on every publish, plus the
  // shadow-sampled quality probe. `delivered` IS the exact oracle result
  // (home-table re-filter), so the sampled FP count is candidates−delivered;
  // the sampled events additionally get a match_into-vs-match_reference
  // differential run per visited broker (expected always equal).
  walk_metrics_.fold(out.route);
  if (!cfg_.combine_subsumption && probe_.should_sample(event)) {
    bool diverged = false;
    for (const BrokerId b : out.route.visited) {
      if (core::match(state_.held[b], event) !=
          core::match_reference(state_.held[b], event)) {
        diverged = true;
        break;
      }
    }
    probe_.record(out.candidates.size(), out.delivered.size(), diverged);
  }
  for (const obs::Span& s : out.route.spans) trace_ring_.append(s);
  return out;
}

size_t SimSystem::summary_storage_bytes() const {
  size_t n = 0;
  for (const auto& held : state_.held) n += core::wire_size(held, wire_);
  return n;
}

uint64_t SimSystem::held_digest(BrokerId b) const {
  return core::summary_digest(state_.held.at(b));
}

}  // namespace subsum::sim
