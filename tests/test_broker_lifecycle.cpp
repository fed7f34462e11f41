// Connection-thread lifecycle of a live broker: stop() must return even
// when a connection is accepted while it runs, and a finished connection
// handler must release its thread (and stack) long before stop().
//
// These run in their own binary under a ctest TIMEOUT: the failure mode of
// the first test is a hang, not an assertion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/socket.h"
#include "obs/memacct.h"
#include "overlay/topologies.h"
#include "workload/stock_schema.h"

namespace subsum::net {
namespace {

using namespace std::chrono_literals;
using model::EventBuilder;
using model::Op;
using model::SubscriptionBuilder;

/// Lines of /proc/self/maps: one per mapping, each exited-but-unjoined
/// thread keeps its stack and guard page here.
uint64_t map_count() {
  std::ifstream in("/proc/self/maps");
  uint64_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

TEST(BrokerLifecycle, StopReturnsWhileConnectionsArriveAcrossKillRestartCycles) {
  const model::Schema s = workload::stock_schema();
  RpcPolicy rpc;
  rpc.connect_timeout = 250ms;
  rpc.io_timeout = 1000ms;
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, rpc);
  // A connector keeps opening connections (and holding them open) while
  // the main thread kills and restarts the broker, so stop() regularly
  // runs while a just-accepted handler is starting: that handler registers
  // its connection after stop()'s shutdown sweep, and its recv would block
  // stop()'s join for as long as the peer stays connected.
  std::mutex mu;
  std::vector<Socket> held;
  std::atomic<bool> done{false};
  std::thread connector([&] {
    while (!done) {
      try {
        Socket c = connect_local(cluster.port_of(0), 500ms);
        std::lock_guard lk(mu);
        held.push_back(std::move(c));
      } catch (const NetError&) {
        // The broker is between kill and restart.
      }
    }
  });
  for (int cycle = 0; cycle < 500; ++cycle) {
    std::this_thread::sleep_for(1ms);  // let connections arrive
    cluster.kill(0);
    cluster.restart(0);
    std::lock_guard lk(mu);
    held.clear();
  }
  done = true;
  connector.join();
  auto client = cluster.connect(0);
  const auto id = client->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "up").build());
  client->publish(EventBuilder(s).set("symbol", "up").build());
  const auto note = client->next_notification(2000ms);
  ASSERT_TRUE(note.has_value());
  EXPECT_EQ(note->ids, std::vector<model::SubId>{id});
}

TEST(BrokerLifecycle, HandlerThreadsAreReapedAcrossPeerHopPublishes) {
  if (!obs::read_process_stats().ok) GTEST_SKIP() << "no /proc/self";
  const model::Schema s = workload::stock_schema();
  Cluster cluster(s, overlay::line(3));
  auto subscriber = cluster.connect(2);
  auto publisher = cluster.connect(0);
  const auto id =
      subscriber->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "hop").build());
  cluster.run_propagation_period();
  const auto event = EventBuilder(s).set("symbol", "hop").build();
  // Every publish at broker 0 reaches the owner at broker 2 over a fresh
  // peer connection, i.e. one accepted connection and handler per hop.
  const auto publish_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      publisher->publish(event);
      const auto note = subscriber->next_notification(2000ms);
      ASSERT_TRUE(note.has_value());
      ASSERT_EQ(note->ids, std::vector<model::SubId>{id});
    }
  };
  publish_n(50);  // warm up thread stacks and malloc arenas
  const uint64_t maps0 = map_count();
  const uint64_t threads0 = obs::read_process_stats().threads;
  publish_n(300);
  const uint64_t maps1 = map_count();
  const uint64_t threads1 = obs::read_process_stats().threads;
  // Unreaped, each hop would leave two mappings (stack + guard): +600.
  EXPECT_LT(maps1, maps0 + 64) << "maps " << maps0 << " -> " << maps1;
  EXPECT_LE(threads1, threads0 + 4) << "threads " << threads0 << " -> " << threads1;
}

}  // namespace
}  // namespace subsum::net
