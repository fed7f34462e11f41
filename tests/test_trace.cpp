// End-to-end tracing: deterministic span logs in the simulator (virtual
// time, salt-0 trace ids) and causal traces across a real TCP cluster,
// including retry spans on a blackholed link and the kStats/kTrace RPCs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "net/cluster.h"
#include "net/fault_injector.h"
#include "overlay/topologies.h"
#include "sim/system.h"
#include "workload/stock_schema.h"

namespace subsum {
namespace {

#ifdef SUBSUM_NO_TELEMETRY
#define SKIP_WITHOUT_TELEMETRY() \
  GTEST_SKIP() << "telemetry compiled out (SUBSUM_NO_TELEMETRY)"
#else
#define SKIP_WITHOUT_TELEMETRY() (void)0
#endif

using namespace std::chrono_literals;
using model::EventBuilder;
using model::Op;
using model::Schema;
using model::SubscriptionBuilder;

// --- simulator: deterministic span logs -------------------------------------

sim::SystemConfig traced_config() {
  sim::SystemConfig cfg;
  cfg.schema = workload::stock_schema();
  cfg.graph = overlay::fig7_tree();
  cfg.trace = true;
  return cfg;
}

/// One fixed fig-7 scenario: subscribe at 3 and 7, propagate, publish a
/// matching and a non-matching event at 0. Returns the ring's JSONL.
std::string run_scenario() {
  sim::SimSystem sys(traced_config());
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "OTE").build();
  sys.subscribe(3, sub);
  sys.subscribe(7, sub);
  sys.run_propagation_period();
  sys.publish(0, EventBuilder(sys.schema()).set("symbol", "OTE").build());
  sys.publish(0, EventBuilder(sys.schema()).set("symbol", "MISS").build());
  const auto spans = sys.trace_ring().snapshot();
  return obs::to_jsonl(spans);
}

TEST(SimTrace, TwoRunsProduceByteIdenticalSpanLogs) {
  SKIP_WITHOUT_TELEMETRY();
  const std::string a = run_scenario();
  const std::string b = run_scenario();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SimTrace, WalkPhasesAppearInCausalOrder) {
  SKIP_WITHOUT_TELEMETRY();
  sim::SimSystem sys(traced_config());
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "OTE").build();
  sys.subscribe(3, sub);
  sys.run_propagation_period();
  const auto out =
      sys.publish(0, EventBuilder(sys.schema()).set("symbol", "OTE").build());
  ASSERT_EQ(out.delivered.size(), 1u);

  const auto spans = sys.trace_ring().snapshot();
  ASSERT_FALSE(spans.empty());
  // One trace id across the whole walk; virtual time is the span index.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace, spans[0].trace);
    EXPECT_EQ(spans[i].t_us, i);
  }
  // The walk starts with a recv at the origin and ends having delivered
  // to the subscriber's home broker.
  EXPECT_EQ(spans[0].phase, obs::Phase::kRecv);
  EXPECT_EQ(spans[0].broker, 0u);
  const auto deliver = std::find_if(spans.begin(), spans.end(), [](const obs::Span& s) {
    return s.phase == obs::Phase::kDeliver;
  });
  ASSERT_NE(deliver, spans.end());
  EXPECT_EQ(deliver->peer, 3u);
}

TEST(SimTrace, UntracedSystemRecordsNothing) {
  sim::SystemConfig cfg = traced_config();
  cfg.trace = false;
  sim::SimSystem sys(cfg);
  sys.publish(0, EventBuilder(sys.schema()).set("symbol", "OTE").build());
  EXPECT_TRUE(sys.trace_ring().snapshot().empty());
}

// --- TCP cluster: causal traces, retries, RPCs ------------------------------

net::RpcPolicy tight_policy() {
  net::RpcPolicy p;
  p.connect_timeout = 250ms;
  p.io_timeout = 1000ms;
  p.backoff = {5ms, 40ms, 2};
  return p;
}

TEST(ClusterTrace, PublishReturnsTraceAndSpansSpanBrokers) {
  SKIP_WITHOUT_TELEMETRY();
  const Schema s = workload::stock_schema();
  net::Cluster cluster(s, overlay::line(3));
  auto c2 = cluster.connect(2);
  const auto id = c2->subscribe(
      SubscriptionBuilder(s).where("symbol", Op::kEq, "OTE").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());

  auto publisher = cluster.connect(0);
  const uint64_t trace =
      publisher->publish(EventBuilder(s).set("symbol", "OTE").build());
  ASSERT_NE(trace, 0u);
  ASSERT_TRUE(c2->next_notification(2000ms).has_value());

  // Pull the trace from every broker and merge.
  std::vector<obs::Span> all;
  for (overlay::BrokerId b = 0; b < cluster.size(); ++b) {
    auto spans = cluster.connect(b)->fetch_trace(trace);
    all.insert(all.end(), spans.begin(), spans.end());
  }
  ASSERT_FALSE(all.empty());
  for (const auto& sp : all) EXPECT_EQ(sp.trace, trace);

  std::set<uint32_t> brokers;
  bool saw_recv = false, saw_match = false, saw_deliver = false;
  for (const auto& sp : all) {
    brokers.insert(sp.broker);
    saw_recv |= sp.phase == obs::Phase::kRecv;
    saw_match |= sp.phase == obs::Phase::kMatch;
    saw_deliver |= sp.phase == obs::Phase::kDeliver;
  }
  EXPECT_GE(brokers.size(), 2u);  // a complete publish->deliver trace
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_match);
  EXPECT_TRUE(saw_deliver);
  // The subscriber's home broker logged the delivery.
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [&](const obs::Span& sp) {
    return sp.broker == id.broker && sp.phase == obs::Phase::kDeliver;
  }));
}

TEST(ClusterTrace, FetchAllAndMaxSpansCap) {
  SKIP_WITHOUT_TELEMETRY();
  const Schema s = workload::stock_schema();
  net::Cluster cluster(s, overlay::Graph(1));
  auto client = cluster.connect(0);
  client->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build());
  for (int i = 0; i < 3; ++i) {
    client->publish(EventBuilder(s).set("symbol", "A").build());
  }
  const auto all = client->fetch_trace();  // trace 0 = everything retained
  EXPECT_GE(all.size(), 9u);              // 3 x (recv + match + deliver)
  const auto capped = client->fetch_trace(0, 2);
  ASSERT_EQ(capped.size(), 2u);
  // The cap keeps the newest spans.
  EXPECT_EQ(capped.back(), all.back());
  // An unknown trace id has no spans.
  EXPECT_TRUE(client->fetch_trace(0xdeadbeefu).empty());
}

TEST(ClusterTrace, BlackholedPeerGetsRetrySpansAndCounters) {
  SKIP_WITHOUT_TELEMETRY();
  const Schema s = workload::stock_schema();
  net::Cluster cluster(s, overlay::line(2), core::GeneralizePolicy::kSafe,
                       tight_policy());
  {
    auto doomed = cluster.connect(1);
    doomed->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "hole").build());
    ASSERT_TRUE(cluster.run_propagation_period().complete());
  }

  // Interpose on broker 0 -> broker 1 only and swallow every byte.
  net::FaultInjector inj(cluster.port_of(1));
  inj.set_mode(net::FaultInjector::Mode::kBlackhole);
  cluster.node(0).set_peer_ports({cluster.port_of(0), inj.port()});

  auto publisher = cluster.connect(0);
  const uint64_t trace =
      publisher->publish(EventBuilder(s).set("symbol", "hole").build());
  ASSERT_NE(trace, 0u);

  // Every failed attempt bumped the per-peer retry counter — and only the
  // injected peer's.
  EXPECT_GE(cluster.node(0).metrics().counter_value(
                "subsum_peer_rpc_retries_total{peer=\"1\"}"),
            1u);
  EXPECT_EQ(cluster.node(0).metrics().counter_value(
                "subsum_peer_rpc_retries_total{peer=\"0\"}"),
            0u);

  const auto spans = cluster.node(0).trace_ring().for_trace(trace);
  const auto retries = std::count_if(spans.begin(), spans.end(), [](const obs::Span& sp) {
    return sp.phase == obs::Phase::kRetry;
  });
  EXPECT_GE(retries, 1);
  for (const auto& sp : spans) {
    if (sp.phase == obs::Phase::kRetry) {
      EXPECT_EQ(sp.peer, 1u);
    }
  }
  // The failed delivery was queued for redelivery.
  EXPECT_EQ(cluster.node(0).snapshot().pending_redeliveries, 1u);
}

TEST(ClusterTrace, StatsRpcReturnsPrometheusText) {
  SKIP_WITHOUT_TELEMETRY();
  const Schema s = workload::stock_schema();
  net::Cluster cluster(s, overlay::Graph(1));
  auto client = cluster.connect(0);
  client->publish(EventBuilder(s).set("symbol", "X").build());

  const std::string text = client->stats_text();
  EXPECT_NE(text.find("# TYPE subsum_publishes_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_publishes_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE subsum_match_latency_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_match_latency_us_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_local_subs"), std::string::npos);
}

}  // namespace
}  // namespace subsum
