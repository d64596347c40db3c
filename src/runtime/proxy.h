// Request paths: the original two-tier client->cloud call and the
// EdgStr-generated three-tier client->edge->cloud Remote Proxy (§II-C).
//
// The edge proxy serves replicated routes in place; requests for
// non-replicated routes — and any local execution that *fails* — are
// transparently forwarded to the cloud master (the paper's failure policy:
// replicas detect failures but delegate handling to the cloud).
//
// With a Telemetry attached, each request mints a TraceContext and opens a
// root span; serve/forward legs become child spans, ops harvested after a
// local write are tagged with the trace (so sync spans can link back to
// it), and end-to-end latency lands in `runtime.request.latency.*`
// histograms split by how the request was served.
#pragma once

#include <functional>
#include <set>

#include "netsim/network.h"
#include "obs/telemetry.h"
#include "runtime/node.h"
#include "runtime/replica_state.h"

namespace edgstr::runtime {

/// Completion callback: response + end-to-end latency in seconds.
using RequestCallback = std::function<void(http::HttpResponse, double latency_s)>;

/// Outcome counters shared by both paths.
struct PathStats {
  std::uint64_t requests = 0;
  std::uint64_t served_at_edge = 0;
  std::uint64_t forwarded_to_cloud = 0;
  std::uint64_t failures_forwarded = 0;
};

/// Baseline: the unmodified client-cloud deployment. The client talks to
/// the cloud node over the WAN.
class TwoTierPath {
 public:
  TwoTierPath(netsim::Network& network, std::string client_host, Node& cloud,
              obs::Telemetry* telemetry = nullptr);

  /// Issues one request at the current simulation time.
  void request(const http::HttpRequest& req, RequestCallback done);

  const PathStats& stats() const { return stats_; }

 private:
  netsim::Network& network_;
  std::string client_host_;
  Node& cloud_;
  obs::Telemetry* telemetry_;
  PathStats stats_;
};

/// EdgStr's three-tier deployment: client -> edge proxy -> cloud.
class EdgeProxy {
 public:
  /// `sync_state`, when provided, harvests the replica's state changes into
  /// CRDT ops immediately after each local execution (the ops still travel
  /// only on the next background sync round).
  EdgeProxy(netsim::Network& network, std::string client_host, Node& edge, Node& cloud,
            std::set<http::Route> served_routes, ReplicaState* sync_state = nullptr,
            ReplicaState* cloud_sync_state = nullptr, obs::Telemetry* telemetry = nullptr);

  void request(const http::HttpRequest& req, RequestCallback done);

  const PathStats& stats() const { return stats_; }
  Node& edge() { return edge_; }

 private:
  netsim::Network& network_;
  std::string client_host_;
  Node& edge_;
  Node& cloud_;
  std::set<http::Route> served_routes_;
  ReplicaState* sync_state_;
  ReplicaState* cloud_sync_state_;
  obs::Telemetry* telemetry_;
  PathStats stats_;

  void forward_to_cloud(const http::HttpRequest& req, double start_time, RequestCallback done,
                        bool was_failure, obs::SpanId root);
  // Responses travel by value and are moved at every hop. A network
  // callback owns its copy of the response: a duplicated delivery runs a
  // separate copy of the callback, so moving out of it is safe. A response
  // is sized once, where it is produced; `bytes` is its wire_size().
  void respond_to_client(http::HttpResponse resp, std::uint64_t bytes, double start_time,
                         RequestCallback done, obs::SpanId root, bool served_locally);
};

}  // namespace edgstr::runtime
