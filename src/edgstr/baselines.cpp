#include "edgstr/baselines.h"

#include "util/strings.h"

namespace edgstr::core {

// ---------------------------------------------------------- CachingProxy --

CachingProxy::CachingProxy(netsim::Network& network, std::string client_host,
                           std::string edge_host, runtime::Node& cloud, CachingConfig config)
    : network_(network),
      client_host_(std::move(client_host)),
      edge_host_(std::move(edge_host)),
      cloud_(cloud),
      config_(config) {}

std::uint64_t CachingProxy::key_of(const http::HttpRequest& req) {
  return util::fnv1a(http::to_string(req.verb) + req.path + req.params.dump() +
                     std::to_string(req.payload_bytes));
}

void CachingProxy::miss_path(const http::HttpRequest& req, double start,
                             runtime::RequestCallback done) {
  ++misses_;
  // Edge -> cloud (WAN), execute, cloud -> edge (WAN), edge -> client (LAN).
  network_.send(edge_host_, cloud_.name(), req.wire_size(),
                [this, req, start, done = std::move(done)]() mutable {
                  cloud_.execute(req, [this, req, start, done = std::move(done)](
                                          runtime::ExecutionResult result) mutable {
                    // The cache keeps its own copy (and size); the response
                    // itself moves on.
                    const std::uint64_t bytes = result.response.wire_size();
                    if (result.response.ok()) {
                      cache_[key_of(req)] = Entry{result.response, bytes, 0};
                    }
                    network_.send(cloud_.name(), edge_host_, bytes,
                                  [this, resp = std::move(result.response), bytes, start,
                                   done = std::move(done)]() mutable {
                                    network_.send(edge_host_, client_host_, bytes,
                                                  [this, resp = std::move(resp), start,
                                                   done = std::move(done)]() mutable {
                                                    done(std::move(resp),
                                                         network_.clock().now() - start);
                                                  });
                                  });
                  });
                });
}

void CachingProxy::request(const http::HttpRequest& req, runtime::RequestCallback done) {
  const double start = network_.clock().now();
  // Client -> edge (LAN).
  network_.send(client_host_, edge_host_, req.wire_size(),
                [this, req, start, done = std::move(done)]() mutable {
                  auto it = cache_.find(key_of(req));
                  const bool fresh =
                      it != cache_.end() && it->second.hits_since_fill < config_.revalidate_every;
                  if (fresh) {
                    ++hits_;
                    ++it->second.hits_since_fill;
                    // The one copy a hit makes: the cached entry stays.
                    network_.clock().schedule(config_.cache_lookup_s,
                                              [this, resp = it->second.response,
                                               bytes = it->second.bytes, start,
                                               done = std::move(done)]() mutable {
                      network_.send(edge_host_, client_host_, bytes,
                                    [this, resp = std::move(resp), start,
                                     done = std::move(done)]() mutable {
                                      done(std::move(resp), network_.clock().now() - start);
                                    });
                    });
                    return;
                  }
                  // Stale or absent: revalidate against the cloud.
                  if (it != cache_.end()) cache_.erase(it);
                  miss_path(req, start, std::move(done));
                });
}

// --------------------------------------------------------- BatchingProxy --

BatchingProxy::BatchingProxy(netsim::Network& network, std::string client_host,
                             std::string edge_host, runtime::Node& cloud, BatchingConfig config)
    : network_(network),
      client_host_(std::move(client_host)),
      edge_host_(std::move(edge_host)),
      cloud_(cloud),
      config_(config) {}

void BatchingProxy::request(const http::HttpRequest& req, runtime::RequestCallback done) {
  const double start = network_.clock().now();
  // Client -> edge (LAN) then enqueue.
  network_.send(client_host_, edge_host_, req.wire_size(),
                [this, req, start, done = std::move(done)]() mutable {
                  queue_.push_back(Pending{req, std::move(done), start});
                  if (queue_.size() >= config_.batch_size) {
                    flush();
                  } else if (queue_.size() == 1 && config_.flush_timeout_s > 0) {
                    // A partial batch must not wait forever for more
                    // requests that may never come.
                    network_.clock().schedule(config_.flush_timeout_s, [this] { flush(); });
                  }
                });
}

void BatchingProxy::flush() {
  if (queue_.empty()) return;
  ++batches_sent_;

  auto batch = std::make_shared<std::vector<Pending>>();
  while (!queue_.empty()) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  std::uint64_t request_bytes = config_.framing_bytes;
  for (const Pending& p : *batch) request_bytes += p.request.wire_size();

  // Aggregation cost, then one WAN message carrying the whole DTO.
  network_.clock().schedule(config_.aggregation_overhead_s, [this, batch, request_bytes]() {
    network_.send(edge_host_, cloud_.name(), request_bytes, [this, batch]() {
      // The Remote Façade executes every aggregated call, then returns the
      // results in bulk.
      auto responses = std::make_shared<std::vector<http::HttpResponse>>();
      auto remaining = std::make_shared<std::size_t>(batch->size());
      for (std::size_t i = 0; i < batch->size(); ++i) {
        cloud_.execute((*batch)[i].request, [this, batch, responses, remaining,
                                             i](runtime::ExecutionResult result) {
          responses->resize(batch->size());
          (*responses)[i] = std::move(result.response);
          if (--*remaining > 0) return;
          // Bulk response: cloud -> edge (WAN), then fan out over LAN.
          std::uint64_t response_bytes = config_.framing_bytes;
          for (const http::HttpResponse& r : *responses) response_bytes += r.wire_size();
          network_.send(cloud_.name(), edge_host_, response_bytes, [this, batch, responses]() {
            // A duplicated bulk delivery runs this loop again over the
            // same shared responses, so each fan-out takes a copy.
            for (std::size_t j = 0; j < batch->size(); ++j) {
              const double start = (*batch)[j].start;
              network_.send(edge_host_, client_host_, (*responses)[j].wire_size(),
                            [this, resp = (*responses)[j], start,
                             done = (*batch)[j].done]() mutable {
                              done(std::move(resp), network_.clock().now() - start);
                            });
            }
          });
        });
      }
    });
  });
}

}  // namespace edgstr::core
