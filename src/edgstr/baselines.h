// Comparator proxying strategies for RQ3 (§IV-E).
//
//   CachingProxy   — proxy caching at the edge: responses keyed by request
//                    digest; hits answer from LAN, misses pay the WAN trip.
//                    Cached stateful data goes stale, so entries revalidate
//                    periodically (the stale-fast effect of [30]).
//   BatchingProxy  — DTO / Remote Façade aggregation: k client requests
//                    ship as one WAN message and return in bulk; helps when
//                    per-message overhead dominates, hurts when the batch
//                    saturates the bandwidth.
//   CrossIsaSync   — cross-ISA offloading baseline: synchronizes the whole
//                    working-memory state (S_app) every round instead of
//                    EdgStr's CRDT deltas.
#pragma once

#include <deque>
#include <map>

#include "runtime/proxy.h"
#include "trace/state_capture.h"

namespace edgstr::core {

struct CachingConfig {
  std::size_t revalidate_every = 5;   ///< hits allowed before a forced miss
  double cache_lookup_s = 0.0005;     ///< edge-side lookup/maintenance cost
};

class CachingProxy {
 public:
  CachingProxy(netsim::Network& network, std::string client_host, std::string edge_host,
               runtime::Node& cloud, CachingConfig config = CachingConfig());

  void request(const http::HttpRequest& req, runtime::RequestCallback done);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  netsim::Network& network_;
  std::string client_host_;
  std::string edge_host_;
  runtime::Node& cloud_;
  CachingConfig config_;

  struct Entry {
    http::HttpResponse response;
    std::uint64_t bytes = 0;  ///< response.wire_size(), taken once at fill
    std::size_t hits_since_fill = 0;
  };
  std::map<std::uint64_t, Entry> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  static std::uint64_t key_of(const http::HttpRequest& req);
  void miss_path(const http::HttpRequest& req, double start, runtime::RequestCallback done);
};

struct BatchingConfig {
  std::size_t batch_size = 4;      ///< requests aggregated per WAN message
  double aggregation_overhead_s = 0.001;
  std::uint64_t framing_bytes = 96;   ///< DTO envelope per batch
  double flush_timeout_s = 2.0;       ///< ship a partial batch after this wait
};

class BatchingProxy {
 public:
  BatchingProxy(netsim::Network& network, std::string client_host, std::string edge_host,
                runtime::Node& cloud, BatchingConfig config = BatchingConfig());

  void request(const http::HttpRequest& req, runtime::RequestCallback done);

  /// Ships a partial batch immediately (end-of-workload drain).
  void flush();

  std::uint64_t batches_sent() const { return batches_sent_; }

 private:
  netsim::Network& network_;
  std::string client_host_;
  std::string edge_host_;
  runtime::Node& cloud_;
  BatchingConfig config_;

  struct Pending {
    http::HttpRequest request;
    runtime::RequestCallback done;
    double start;
  };
  std::deque<Pending> queue_;
  std::uint64_t batches_sent_ = 0;
};

/// Cross-ISA whole-state synchronization baseline: every round transfers
/// the complete serialized application state.
class CrossIsaSync {
 public:
  explicit CrossIsaSync(std::uint64_t app_state_bytes) : state_bytes_(app_state_bytes) {}

  /// WAN bytes for `rounds` synchronization rounds (both directions — the
  /// offloading frameworks exchange memory mappings bidirectionally).
  std::uint64_t bytes_for_rounds(std::uint64_t rounds) const { return 2 * state_bytes_ * rounds; }

  /// WAN bytes per offloaded invocation (one state push + one state pull).
  std::uint64_t bytes_per_invocation() const { return 2 * state_bytes_; }

  std::uint64_t state_bytes() const { return state_bytes_; }

  /// `runtime_image_bytes` models the rest of the process working memory —
  /// language runtime heap, loaded libraries — that cross-ISA offloading
  /// frameworks ship along with application data but EdgStr never touches.
  static CrossIsaSync from_snapshot(const trace::Snapshot& snapshot,
                                    std::uint64_t runtime_image_bytes = 0) {
    return CrossIsaSync(snapshot.size_bytes() + runtime_image_bytes);
  }

 private:
  std::uint64_t state_bytes_;
};

}  // namespace edgstr::core
