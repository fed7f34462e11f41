// Pieces shared by the two TCP workloads (fig7-publish, cw24-churn): the
// closed-loop publisher, the live subscriber's collector, notification
// latency attribution, and scrapes of the brokers' exported histograms.
//
// All traffic is loopback TCP between brokers of one in-process
// net::Cluster; no byte crosses a real network link.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/cluster.h"
#include "overlay/graph.h"
#include "workload/sub_gen.h"

namespace perfbench {

struct PubRec {
  const std::string* key = nullptr;  // event_key of the published event
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t trace = 0;  // broker-minted trace id from the ack
};

struct NoteRec {
  uint64_t recv_ns = 0;
  subsum::net::NotifyMsg msg;
};

/// The live subscriber's subscriptions: `n` single-attribute ranges, each
/// one canonical sub-range of an arithmetic attribute (chosen by `seed`),
/// so each matches ~12% of generated events.
std::vector<subsum::model::Subscription> broad_subscriptions(
    const subsum::model::Schema& schema, const subsum::workload::ValuePools& pools, size_t n,
    uint64_t seed);

/// Closed-loop publisher: publishes every event of the list one at a time,
/// stopping early only on a failed publish (a failed operation, and a
/// correctness error).
void publish_loop(subsum::net::Client& client, subsum::overlay::BrokerId origin,
                  const std::vector<subsum::model::Event>& events,
                  const std::vector<std::string>& keys, std::vector<PubRec>& out, Tracer& tr,
                  Report& rep);

/// Collects notifications (with receipt time) until `stop` is set, then
/// keeps draining until the connection stays quiet for `quiet_ms`.
void collect_loop(subsum::net::Client& client, const std::atomic<bool>& stop,
                  std::vector<NoteRec>& out, int quiet_ms = 300);

/// Drains whatever is queued on `client` right now.
void drain_now(subsum::net::Client& client, std::vector<NoteRec>& out);

/// (event, id) pairs of a set of notifications.
PairSet received_pairs(const std::vector<NoteRec>& notes);

/// Attributes each notification to a publish of the same event content
/// (first unclaimed publish first) and appends receipt − publish start to
/// `notify_us` and receipt − publish return to `lag_us`.
void notify_latencies(const std::vector<const PubRec*>& pubs, const std::vector<NoteRec>& notes,
                      std::vector<double>& notify_us, std::vector<double>& lag_us);

/// Cumulative bucket counts (by upper bound, µs) of the per-peer RPC latency
/// histograms, summed over every broker and peer (scraped via stats_text).
std::map<double, double> peer_rpc_buckets(subsum::net::Cluster& cluster);

/// Median of the RPCs observed between two bucket scrapes, interpolated
/// inside the log2 bucket.
double peer_rpc_p50(const std::map<double, double>& before,
                    const std::map<double, double>& after);

/// A counter summed over every broker of the cluster.
double sum_counter(subsum::net::Cluster& cluster, const char* name);

/// Summary bytes announced so far: subsum_summary_{full,delta}_bytes_total
/// summed over every broker.
double announce_bytes(subsum::net::Cluster& cluster);

/// Times one empty request/ack round trip (kLeaseRenew with no ids: no
/// broker-side work) on an open client connection, `n` times.
void probe_rpc(subsum::net::Client& client, int n, Tracer& tr, double& out_us);

/// Fetches every broker's retained broker-side spans of the given trace
/// ids and writes them with obs::to_jsonl.
void write_broker_spans(subsum::net::Cluster& cluster, const std::vector<uint64_t>& traces,
                        const std::string& path);

}  // namespace perfbench
