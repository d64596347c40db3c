#include "runtime/proxy.h"

namespace edgstr::runtime {

TwoTierPath::TwoTierPath(netsim::Network& network, std::string client_host, Node& cloud,
                         obs::Telemetry* telemetry)
    : network_(network),
      client_host_(std::move(client_host)),
      cloud_(cloud),
      telemetry_(telemetry) {}

void TwoTierPath::request(const http::HttpRequest& req, RequestCallback done) {
  ++stats_.requests;
  const double start = network_.clock().now();
  obs::SpanId root = obs::kNoSpan;
  if (telemetry_) {
    root = telemetry_->tracer().begin_span("request", "request", client_host_);
    telemetry_->tracer().add_arg(root, "route", http::to_string(req.verb) + " " + req.path);
  }
  // Client -> cloud (WAN).
  network_.send(client_host_, cloud_.name(), req.wire_size(),
                [this, req, start, root, done = std::move(done)]() mutable {
                  obs::SpanId exec = obs::kNoSpan;
                  if (telemetry_) {
                    exec = telemetry_->tracer().begin_span("cloud.execute", "request",
                                                           cloud_.name(),
                                                           telemetry_->tracer().context(root));
                  }
                  cloud_.execute(req, [this, start, root, exec, done = std::move(done)](
                                          ExecutionResult result) mutable {
                    if (telemetry_) telemetry_->tracer().end_span(exec);
                    // Cloud -> client (WAN).
                    const std::uint64_t bytes = result.response.wire_size();
                    network_.send(cloud_.name(), client_host_, bytes,
                                  [this, resp = std::move(result.response), start, root,
                                   done = std::move(done)]() mutable {
                                    const double latency = network_.clock().now() - start;
                                    if (telemetry_) {
                                      telemetry_->tracer().end_span(root);
                                      telemetry_->metrics().observe(
                                          "runtime.request.latency.cloud", latency);
                                      telemetry_->metrics().add("runtime.request.count.cloud");
                                      if (obs::TimeSeries* ts = telemetry_->timeseries()) {
                                        ts->add(network_.clock().now(), "req.cloud");
                                      }
                                    }
                                    done(std::move(resp), latency);
                                  });
                });
                });
}

EdgeProxy::EdgeProxy(netsim::Network& network, std::string client_host, Node& edge, Node& cloud,
                     std::set<http::Route> served_routes, ReplicaState* sync_state,
                     ReplicaState* cloud_sync_state, obs::Telemetry* telemetry)
    : network_(network),
      client_host_(std::move(client_host)),
      edge_(edge),
      cloud_(cloud),
      served_routes_(std::move(served_routes)),
      sync_state_(sync_state),
      cloud_sync_state_(cloud_sync_state),
      telemetry_(telemetry) {}

void EdgeProxy::respond_to_client(http::HttpResponse resp, std::uint64_t bytes,
                                  double start_time, RequestCallback done, obs::SpanId root,
                                  bool served_locally) {
  // Edge -> client (LAN).
  network_.send(edge_.name(), client_host_, bytes,
                [this, resp = std::move(resp), start_time, root, served_locally,
                 done = std::move(done)]() mutable {
                  const double latency = network_.clock().now() - start_time;
                  if (telemetry_) {
                    telemetry_->tracer().end_span(root);
                    const char* kind = served_locally ? "local" : "forward";
                    telemetry_->metrics().observe(
                        std::string("runtime.request.latency.") + kind, latency);
                    telemetry_->metrics().add(std::string("runtime.request.count.") + kind);
                    if (obs::TimeSeries* ts = telemetry_->timeseries()) {
                      ts->add(network_.clock().now(), std::string("req.") + kind);
                    }
                  }
                  done(std::move(resp), latency);
                });
}

void EdgeProxy::forward_to_cloud(const http::HttpRequest& req, double start_time,
                                 RequestCallback done, bool was_failure, obs::SpanId root) {
  ++stats_.forwarded_to_cloud;
  if (was_failure) ++stats_.failures_forwarded;
  obs::SpanId forward = obs::kNoSpan;
  if (telemetry_) {
    forward = telemetry_->tracer().begin_span("proxy.forward", "request", edge_.name(),
                                              telemetry_->tracer().context(root));
    if (was_failure) telemetry_->tracer().add_arg(forward, "after_local_failure", "true");
  }
  // Edge -> cloud (WAN).
  network_.send(edge_.name(), cloud_.name(), req.wire_size(),
                [this, req, start_time, root, forward, done = std::move(done)]() mutable {
                  cloud_.execute(req, [this, start_time, root, forward,
                                       done = std::move(done)](ExecutionResult result) mutable {
                    if (cloud_sync_state_) {
                      // Tag the cloud-side ops with the request's trace so
                      // sync rounds shipping them to edges link back to it.
                      if (telemetry_) {
                        telemetry_->set_active_context(telemetry_->tracer().context(root));
                      }
                      cloud_sync_state_->record_local();
                      if (telemetry_) telemetry_->clear_active_context();
                    }
                    // Cloud -> edge (WAN).
                    const std::uint64_t bytes = result.response.wire_size();
                    network_.send(cloud_.name(), edge_.name(), bytes,
                                  [this, resp = std::move(result.response), bytes, start_time,
                                   root, forward, done = std::move(done)]() mutable {
                                    if (telemetry_) telemetry_->tracer().end_span(forward);
                                    respond_to_client(std::move(resp), bytes, start_time,
                                                      std::move(done), root,
                                                      /*served_locally=*/false);
                                  });
                  });
                });
}

void EdgeProxy::request(const http::HttpRequest& req, RequestCallback done) {
  ++stats_.requests;
  const double start = network_.clock().now();
  obs::SpanId root = obs::kNoSpan;
  if (telemetry_) {
    root = telemetry_->tracer().begin_span("request", "request", client_host_);
    obs::Tracer& tracer = telemetry_->tracer();
    tracer.add_arg(root, "route", http::to_string(req.verb) + " " + req.path);
    tracer.add_arg(root, "edge", edge_.name());
  }
  // Client -> edge (LAN).
  network_.send(
      client_host_, edge_.name(), req.wire_size(),
      [this, req, start, root, done = std::move(done)]() mutable {
        const http::Route route{req.verb, req.path};
        const bool serve_here = served_routes_.count(route) > 0 && edge_.hosting() &&
                                edge_.power_state() == PowerState::kActive;
        if (!serve_here) {
          forward_to_cloud(req, start, std::move(done), /*was_failure=*/false, root);
          return;
        }
        obs::SpanId serve = obs::kNoSpan;
        if (telemetry_) {
          serve = telemetry_->tracer().begin_span("proxy.serve", "request", edge_.name(),
                                                  telemetry_->tracer().context(root));
        }
        edge_.execute(req, [this, req, start, root, serve, done = std::move(done)](
                               ExecutionResult result) mutable {
          if (result.failed) {
            if (telemetry_) {
              telemetry_->tracer().add_arg(serve, "failed", "true");
              telemetry_->tracer().end_span(serve);
            }
            // Failure policy: the replica only detects; the cloud handles.
            forward_to_cloud(req, start, std::move(done), /*was_failure=*/true, root);
            return;
          }
          ++stats_.served_at_edge;
          if (sync_state_) {
            // Any ops this execution produced are harvested right now, so
            // activating the request's context attributes them to it.
            if (telemetry_) {
              telemetry_->set_active_context(telemetry_->tracer().context(serve));
            }
            sync_state_->record_local();
            if (telemetry_) telemetry_->clear_active_context();
          }
          if (telemetry_) telemetry_->tracer().end_span(serve);
          const std::uint64_t bytes = result.response.wire_size();
          respond_to_client(std::move(result.response), bytes, start, std::move(done), root,
                            /*served_locally=*/true);
        });
      });
}

}  // namespace edgstr::runtime
