#include "sim/schedule.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "apps/app.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "util/rng.h"
#include "util/strings.h"

namespace edgstr::sim {
namespace {

/// The subject app every schedule drives: sensor_hub has a clean write
/// route (POST /ingest) and a read route (GET /summary), which is what the
/// read-your-writes and acked-op-loss invariants need to reason about
/// individual keys. The transform is deterministic and expensive, so one
/// cached result serves every run and seed.
const core::TransformResult& subject_transform() {
  static const core::TransformResult result = [] {
    const apps::SubjectApp& app = apps::sensor_hub();
    const http::TrafficRecorder traffic =
        core::record_traffic(app.server_source, app.workload);
    return core::Pipeline().transform(app.name, app.server_source, traffic);
  }();
  return result;
}

http::HttpRequest ingest_request(const std::string& sensor, double value) {
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/ingest";
  req.params =
      json::Value::object({{"sensor", sensor}, {"values", json::Value::array({value})}});
  return req;
}

http::HttpRequest summary_request(const std::string& sensor) {
  http::HttpRequest req;
  req.verb = http::Verb::kGet;
  req.path = "/summary";
  req.params = json::Value::object({{"sensor", sensor}});
  return req;
}

/// One client write we may later hold the system accountable for.
struct TrackedWrite {
  std::string key;
  std::string endpoint;        ///< who served it ("edgeN" or "cloud")
  std::size_t edge_index = 0;  ///< valid when served at an edge
  bool at_edge = false;
  std::uint64_t crash_epoch = 0;  ///< serving edge's crash count at write time
  bool must_survive = false;
};

bool key_visible(const runtime::ReplicaState& state, const std::string& key) {
  // Keys are generated alphanumeric, so inlining them into SQL is safe.
  auto& db = const_cast<runtime::ReplicaState&>(state).service().database();
  return !db.execute("SELECT * FROM readings WHERE sensor = '" + key + "'").rows.empty();
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string ScheduleResult::summary() const {
  std::string out = "seed=" + std::to_string(seed) + " topology=" + topology +
                    " workload=" + workload + " edges=" + std::to_string(edges) +
                    " requests=" + std::to_string(requests) +
                    " acked=" + std::to_string(writes_acked) +
                    " crashes=" + std::to_string(crashes) +
                    " partitions=" + std::to_string(partitions) +
                    " quiesce=" + std::to_string(quiesce_rounds);
  if (migrations || handoffs_failed) {
    out += " migrations=" + std::to_string(migrations) +
           " handoff_fail=" + std::to_string(handoffs_failed);
  }
  if (variant_checks) {
    out += " vchecks=" + std::to_string(variant_checks) +
           " vdiv=" + std::to_string(variant_divergences);
  }
  if (durable_recoveries) {
    out += " recoveries=" + std::to_string(durable_recoveries) +
           " recovered_ops=" + std::to_string(recovered_ops) +
           " truncated=" + std::to_string(truncated_records);
  }
  if (!slo_alerts.empty()) out += " slo_alerts=" + std::to_string(slo_alerts.size());
  out += " trace=" + hex64(trace_digest) + " state=" + state_digest +
         (passed ? " PASS" : " FAIL");
  for (const Violation& v : violations) out += "\n  [" + v.invariant + "] " + v.detail;
  return out;
}

ScheduleResult run_schedule(const ScheduleConfig& config) {
  ScheduleResult result;
  result.seed = config.seed;
  result.workload = workload::workload_shape_name(config.workload);
  util::Rng rng(config.seed);
  // All workload-shape draws (hot keys, crowd rounds, churn values) come
  // from this separate stream, derived arithmetically from the seed: the
  // main `rng` stream — and with it a seed's topology, fault schedule, and
  // base traffic — is identical under every shape.
  util::Rng wl_rng(config.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  // Durability draws (power-loss cut offsets) ride their own stream for
  // the same reason: a seed's base schedule is identical with the durable
  // plane on or off.
  util::Rng dur_rng(config.seed * 0xD6E8FEB86659FD93ULL + 0xA0761D6478BD642FULL);

  // ---- randomized deployment ----------------------------------------------
  core::DeploymentConfig dep;
  dep.start_sync = false;  // the schedule drives sync rounds explicitly
  dep.seed = rng.next_u64();
  dep.variant_check = config.variant_check;
  // The watchdog consumes the windowed series, so it forces capture on;
  // whether the series is *serialized* still follows capture_timeseries.
  dep.capture_timeseries = config.capture_timeseries || config.slo_watchdog;
  dep.timeseries_window_s = config.timeseries_window_s;
  dep.flight_recorder_ring = config.flight_ring;
  dep.durable_edges = config.durable;
  dep.durability_fault = config.durable && config.durability_fault;
  dep.bootstrap_snapshot_ops = config.durable ? config.snapshot_bootstrap_ops : 0;
  if (config.slo_watchdog) {
    dep.slo_rules = config.slo_rules.empty() ? obs::default_slo_rules() : config.slo_rules;
  }
  if (config.variant_fault) {
    // The planted semantic fault: the legacy shadow's replayed state gets
    // every reading skewed, so any summary/alert read over non-empty data
    // must diverge from the primary in both response and RW-log. A
    // correct harness turns this into variant-agreement violations on
    // (virtually) every seed.
    dep.variant_test_fault = [](runtime::ServiceRuntime& rt) {
      rt.database().execute("UPDATE readings SET value = 999999");
    };
  }
  const std::size_t n_edges =
      static_cast<std::size_t>(rng.uniform_int(2, std::int64_t(std::max<std::size_t>(2, config.max_edges))));
  dep.edge_devices.clear();
  for (std::size_t e = 0; e < n_edges; ++e) {
    dep.edge_devices.push_back(rng.chance(0.5) ? cluster::DeviceProfile::rpi4()
                                               : cluster::DeviceProfile::rpi3());
  }
  switch (rng.uniform_int(0, 2)) {
    case 0:
      dep.topology = core::SyncTopology::kStar;
      result.topology = "star";
      break;
    case 1:
      dep.topology = core::SyncTopology::kStarEdgeMesh;
      result.topology = "star+mesh";
      break;
    default:
      dep.topology = core::SyncTopology::kHierarchy;
      dep.hierarchy_fanout = 2;
      result.topology = "hierarchy";
      break;
  }
  result.edges = n_edges;

  core::ThreeTierDeployment three(subject_transform(), dep);
  netsim::Network& net = three.network();
  runtime::ReplicationGraph& graph = three.replication();
  if (config.handoff_fault) graph.set_handoff_fault(true);

  EventTrace& trace = result.trace;
  InvariantChecker checker;
  const auto now = [&] { return net.clock().now(); };

  std::vector<std::pair<std::string, const runtime::ReplicaState*>> endpoints;
  endpoints.emplace_back("cloud", &three.cloud_state());
  for (std::size_t e = 0; e < n_edges; ++e) {
    endpoints.emplace_back(core::edge_host(e), &three.edge_state(e));
  }
  for (std::size_t r = 0; r < three.regional_count(); ++r) {
    endpoints.emplace_back(core::regional_host(r), &three.regional_state(r));
  }
  trace.record(now(), "setup",
               "topology=" + result.topology + " edges=" + std::to_string(n_edges));

  // ---- per-link loss + fault models ---------------------------------------
  const std::vector<std::pair<std::string, std::string>> sync_links = graph.link_ids();
  std::vector<std::pair<std::string, std::string>> lossy;
  if (config.enable_link_faults) {
    for (const auto& [a, b] : sync_links) {
      if (rng.chance(0.6)) {
        netsim::LinkConfig cfg = (a == core::kCloudHost || b == core::kCloudHost)
                                     ? dep.wan
                                     : dep.lan;
        cfg.loss_probability = rng.uniform(0.05, 0.35);
        net.connect(a, b, cfg);
        lossy.emplace_back(a, b);
        trace.record(now(), "loss", a + "<->" + b + " p=" + fmt(cfg.loss_probability));
      }
      if (rng.chance(0.5)) {
        netsim::FaultConfig faults;
        if (rng.chance(0.5)) faults.duplicate_probability = rng.uniform(0.05, 0.3);
        if (rng.chance(0.5)) faults.reorder_probability = rng.uniform(0.05, 0.3);
        if (rng.chance(0.3)) {
          faults.delay_spike_probability = rng.uniform(0.05, 0.2);
          faults.delay_spike_s = rng.uniform(0.2, 1.0);
        }
        if (faults.any()) {
          net.set_faults(a, b, faults);
          trace.record(now(), "faults",
                       a + "<->" + b + " dup=" + fmt(faults.duplicate_probability) +
                           " reorder=" + fmt(faults.reorder_probability) +
                           " spike=" + fmt(faults.delay_spike_probability));
        }
      }
    }
  }

  // ---- workload shapes -----------------------------------------------------
  // Zipf hot keys: a small universe with seed-drawn skew, so the same few
  // sensors absorb most writes and CRDT merge sees genuine contention.
  workload::KeyDistribution hot_keys = workload::KeyDistribution::uniform(1);
  if (config.workload == workload::WorkloadShape::kZipf) {
    hot_keys = workload::KeyDistribution::zipf(16, wl_rng.uniform(0.9, 1.5));
  }
  // Flash crowds: two seed-chosen rounds get a pile of extra arrivals.
  std::set<std::size_t> crowd_rounds;
  if (config.workload == workload::WorkloadShape::kFlash && config.rounds > 0) {
    while (crowd_rounds.size() < std::min<std::size_t>(2, config.rounds)) {
      crowd_rounds.insert(wl_rng.index(config.rounds));
    }
  }
  // Churn: a seed-derived migration trace (one time unit per round) plus
  // per-session bookkeeping for the read-your-writes obligation.
  struct Session {
    std::size_t proxy = 0;
    std::string last_key;
    std::string last_holder;     ///< endpoint that served the last write
    std::size_t holder_edge = 0; ///< valid when last_holder is an edge
    bool holder_is_edge = false;
    std::uint64_t holder_epoch = 0;  ///< holder's crash count at write time
    bool has_write = false;
  };
  std::vector<Session> sessions;
  std::optional<workload::MigrationTrace> churn;
  if (config.workload == workload::WorkloadShape::kChurn && config.sessions > 0) {
    workload::ChurnSpec spec;
    spec.clients = config.sessions;
    spec.proxies = n_edges;
    spec.duration_s = double(config.rounds);
    spec.migration_rate = 0.15;
    spec.locality = 0.8;
    churn = workload::MigrationTrace::generate(spec, wl_rng.next_u64());
    sessions.resize(config.sessions);
    for (std::size_t c = 0; c < config.sessions; ++c) {
      sessions[c].proxy = churn->proxy_at(c, 0.0);
    }
  }

  // ---- fault/traffic rounds ------------------------------------------------
  std::vector<TrackedWrite> tracked;
  std::vector<std::uint64_t> crash_count(n_edges, 0);
  std::set<std::size_t> down_edges;
  std::vector<std::string> active_cuts;
  std::size_t cut_serial = 0;

  // Issues one tracked write through edge `e`'s proxy; returns the index
  // into `tracked`, or npos when the write was not acked. Shared by the
  // base burst traffic and every workload shape, so accounting (acked-op
  // loss, crash epochs) is uniform.
  constexpr std::size_t kNotTracked = std::size_t(-1);
  const auto issue_tracked_write = [&](const std::string& key, std::size_t e,
                                       double value) -> std::size_t {
    const runtime::PathStats before = three.proxy(e).stats();
    const http::HttpResponse resp = three.request_sync(ingest_request(key, value), e);
    ++result.requests;
    // A request lost in transit (partition / loss on the forward path)
    // leaves the default-constructed response behind: status 200 but a
    // null body. Only a real handler reply counts as an ack.
    if (!resp.ok() || resp.body.is_null()) {
      trace.record(now(), "write", key + " via=" + core::edge_host(e) + " FAILED");
      return kNotTracked;
    }
    ++result.writes_acked;
    const bool local = three.proxy(e).stats().served_at_edge > before.served_at_edge;
    TrackedWrite w;
    w.key = key;
    w.at_edge = local;
    w.edge_index = e;
    w.endpoint = local ? core::edge_host(e) : "cloud";
    w.crash_epoch = local ? crash_count[e] : 0;
    tracked.push_back(w);
    trace.record(now(), "write", key + " served=" + w.endpoint);
    return tracked.size() - 1;
  };

  // Everything from here on runs under the no-crash invariant: a
  // replication-plane bug that manifests as a thrown exception (e.g. a
  // sequence gap from an op that was dropped and never retransmitted) is
  // converted into a failing, replayable seed instead of aborting the
  // explorer.
  try {
  for (std::size_t round = 0; round < config.rounds; ++round) {
    // Restarts of previously crashed edges.
    for (auto it = down_edges.begin(); it != down_edges.end();) {
      if (rng.chance(0.5)) {
        three.restart_edge(*it);
        trace.record(now(), "restart", core::edge_host(*it));
        it = down_edges.erase(it);
      } else {
        ++it;
      }
    }

    // Crash a serving edge.
    if (config.enable_crashes && rng.chance(0.15)) {
      std::vector<std::size_t> candidates;
      for (std::size_t e = 0; e < n_edges; ++e) {
        const std::string host = core::edge_host(e);
        if (graph.endpoint_up(host) && !graph.recovering(host)) candidates.push_back(e);
      }
      if (!candidates.empty()) {
        const std::size_t victim = candidates[rng.index(candidates.size())];
        const std::string host = core::edge_host(victim);
        // Acked-op-loss accounting: anything the victim acked that at
        // least one other live endpoint already holds must survive.
        for (TrackedWrite& w : tracked) {
          if (w.must_survive || !w.at_edge || w.edge_index != victim) continue;
          if (w.crash_epoch != crash_count[victim]) continue;  // earlier life
          for (const auto& [id, state] : endpoints) {
            if (id == host) continue;
            if (!graph.endpoint_up(id)) continue;
            if (key_visible(*state, w.key)) {
              w.must_survive = true;
              break;
            }
          }
        }
        // Durable edges strengthen the obligation: acked means fsynced
        // (the proxy harvests + syncs at serve time), so every ack from
        // this life must survive the crash whatever the peers hold.
        if (config.durable) {
          for (TrackedWrite& w : tracked) {
            if (!w.at_edge || w.edge_index != victim) continue;
            if (w.crash_epoch != crash_count[victim]) continue;
            w.must_survive = true;
          }
        }
        // Power loss mid-write: a stream-drawn prefix of the unsynced tail
        // reaches the platter (torn records). With an honest disk every
        // acked append is already fsynced, so the unsynced tail is empty
        // between rounds — model the power failing DURING an append
        // instead: about half the crashes catch the victim mid-record,
        // leaving a torn frame (length header promising more bytes than
        // the platter holds) that recovery must truncate, not replay.
        // When the disk lied (--durability-fault), the genuinely unsynced
        // tail is cut at a drawn offset and the loss surfaces for real.
        std::uint64_t keep_unsynced = 0;
        if (config.durable && config.power_loss) {
          if (durability::MemBackend* backend = three.durable_backend(victim)) {
            const std::uint64_t unsynced = backend->unsynced_bytes();
            if (unsynced > 0) {
              keep_unsynced =
                  std::uint64_t(dur_rng.uniform_int(0, std::int64_t(unsynced)));
            } else if (dur_rng.uniform_int(0, 1) == 0) {
              // [u32 len | u32 crc | payload] with len far past what is
              // written: any kept prefix is an incomplete frame.
              std::string torn("\x40\x00\x00\x00\xde\xad\xbe\xef", 8);
              torn.append(std::size_t(dur_rng.uniform_int(0, 40)), '~');
              backend->append(torn);
              keep_unsynced = std::uint64_t(dur_rng.uniform_int(1, std::int64_t(torn.size())));
            }
          }
        }
        result.recovered_ops += three.crash_edge(victim, keep_unsynced);
        checker.reset_baseline(host);
        if (config.durable) {
          ++result.durable_recoveries;
          // The durable-op-loss invariant, checked against the freshly
          // recovered state: acked + fsynced => replayed by recovery.
          std::size_t lost = 0;
          for (const TrackedWrite& w : tracked) {
            if (!w.at_edge || w.edge_index != victim) continue;
            if (w.crash_epoch != crash_count[victim]) continue;
            if (key_visible(three.edge_state(victim), w.key)) continue;
            if (++lost <= 3) {
              checker.record("durable-op-loss",
                             "write " + w.key + " acked+fsynced at " + host +
                                 " missing from its recovered durable log");
            }
          }
          if (lost > 3) {
            checker.record("durable-op-loss",
                           std::to_string(lost - 3) + " further losses at " + host);
          }
        }
        ++crash_count[victim];
        down_edges.insert(victim);
        ++result.crashes;
        trace.record(now(), "crash", host);
        // The survival obligation lives with the surviving copies. If this
        // crash took down the *last* live holder of an earlier acked write
        // (e.g. a mesh neighbor that held the only replica and died before
        // the next sync round), no protocol over volatile replicas could
        // still preserve it — drop the obligation rather than blame the
        // replication plane for physics.
        for (TrackedWrite& w : tracked) {
          if (!w.must_survive) continue;
          bool held = false;
          for (const auto& [id, state] : endpoints) {
            // A down durable edge still counts as a holder: its recovered
            // state (rebuilt synchronously at crash time) comes back with
            // it on restart, so the obligation stands.
            const bool durable_holder =
                config.durable && id.rfind("edge", 0) == 0;
            if (!graph.endpoint_up(id) && !durable_holder) continue;
            if (key_visible(*state, w.key)) {
              held = true;
              break;
            }
          }
          if (!held) w.must_survive = false;
        }
      }
    }

    // Partition churn.
    if (config.enable_partitions) {
      if (rng.chance(0.2) && !sync_links.empty()) {
        const auto& [a, b] = sync_links[rng.index(sync_links.size())];
        const std::string name = "cut" + std::to_string(cut_serial++);
        net.partition(name, {a}, {b});
        active_cuts.push_back(name);
        ++result.partitions;
        trace.record(now(), "partition", name + " " + a + "|" + b);
      }
      for (auto it = active_cuts.begin(); it != active_cuts.end();) {
        if (rng.chance(0.3)) {
          net.heal(*it);
          trace.record(now(), "heal", *it);
          it = active_cuts.erase(it);
        } else {
          ++it;
        }
      }
    }

    // Client traffic through the proxies.
    const int burst = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < burst; ++i) {
      const std::size_t e = rng.index(n_edges);
      if (rng.chance(0.7) || tracked.empty()) {
        // Zipf runs write a hot key from the skewed universe (drawn off
        // the shape stream); every other shape keeps the legacy
        // round-unique key, so the base schedule bytes are unchanged.
        const std::string key =
            config.workload == workload::WorkloadShape::kZipf
                ? "z" + std::to_string(hot_keys.draw(wl_rng))
                : "s" + std::to_string(round) + "x" + std::to_string(i) + "e" +
                      std::to_string(e);
        const std::size_t idx = issue_tracked_write(key, e, rng.uniform(0, 100));
        if (idx == kNotTracked) continue;
        if (tracked[idx].at_edge) {
          // Read-your-writes at the serving proxy: an immediately
          // following local read must observe the write.
          const runtime::PathStats pre = three.proxy(e).stats();
          const http::HttpResponse read = three.request_sync(summary_request(key), e);
          ++result.requests;
          if (read.ok() && three.proxy(e).stats().served_at_edge > pre.served_at_edge) {
            const json::Value* count = read.body.find("count");
            if (!count || count->as_number() < 1.0) {
              checker.record("read-your-writes",
                             "edge" + std::to_string(e) + " lost its own write " + key);
            }
            trace.record(now(), "read", key + " ryw");
          }
        }
      } else {
        const TrackedWrite& w = tracked[rng.index(tracked.size())];
        (void)three.request_sync(summary_request(w.key), e);
        ++result.requests;
        trace.record(now(), "read", w.key + " via=" + core::edge_host(e));
      }
    }

    // Flash crowd: a seed-chosen round gets a pile of extra arrivals on
    // top of the base burst, all drawn from the shape stream.
    if (crowd_rounds.count(round)) {
      const int extra = 4 + static_cast<int>(wl_rng.uniform_int(0, 4));
      trace.record(now(), "flash", "round=" + std::to_string(round) +
                                       " extra=" + std::to_string(extra));
      for (int i = 0; i < extra; ++i) {
        const std::size_t e = wl_rng.index(n_edges);
        issue_tracked_write("f" + std::to_string(round) + "x" + std::to_string(i), e,
                            wl_rng.uniform(0, 100));
      }
    }

    // Churn sessions: each client writes at its current proxy every round;
    // when the trace migrates it, the deployment flushes the session to
    // the new proxy and the client immediately re-reads its last write
    // there — the migration-ryw invariant. The obligation lapses when the
    // handoff itself fails (no live path / starved retries) or the holder
    // crashed since the write — volatile-state physics, same as the
    // acked-op-loss crash rule.
    for (std::size_t c = 0; c < sessions.size(); ++c) {
      Session& s = sessions[c];
      const std::size_t proxy_now = churn->proxy_at(c, double(round));
      if (proxy_now != s.proxy) {
        ++result.migrations;
        const std::string to_host = core::edge_host(proxy_now);
        trace.record(now(), "migrate", "session" + std::to_string(c) + " " +
                                           core::edge_host(s.proxy) + "->" + to_host);
        bool flushed = false;
        if (s.has_write) {
          flushed = three.handoff_session(s.last_holder, to_host);
          if (!flushed) ++result.handoffs_failed;
          trace.record(now(), "handoff", s.last_holder + "->" + to_host +
                                             (flushed ? " ok" : " FAILED"));
        }
        s.proxy = proxy_now;
        const bool holder_alive =
            !s.holder_is_edge || crash_count[s.holder_edge] == s.holder_epoch;
        if (s.has_write && flushed && holder_alive) {
          const runtime::PathStats pre = three.proxy(proxy_now).stats();
          const http::HttpResponse read = three.request_sync(summary_request(s.last_key),
                                                             proxy_now);
          ++result.requests;
          if (read.ok() && three.proxy(proxy_now).stats().served_at_edge > pre.served_at_edge) {
            const json::Value* count = read.body.find("count");
            if (!count || count->as_number() < 1.0) {
              checker.record("migration-ryw",
                             "session" + std::to_string(c) + " write " + s.last_key +
                                 " invisible at " + to_host + " after handoff from " +
                                 s.last_holder);
            }
            trace.record(now(), "read", s.last_key + " migration-ryw@" + to_host);
          }
        }
      }
      const std::string key = "m" + std::to_string(round) + "c" + std::to_string(c);
      const std::size_t idx = issue_tracked_write(key, s.proxy, wl_rng.uniform(0, 100));
      if (idx != kNotTracked) {
        s.has_write = true;
        s.last_key = key;
        s.last_holder = tracked[idx].endpoint;
        s.holder_is_edge = tracked[idx].at_edge;
        s.holder_edge = tracked[idx].edge_index;
        s.holder_epoch = tracked[idx].crash_epoch;
      }
    }

    // Sync rounds (deltas + rejoins), then settle the clock.
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int s = 0; s < rounds; ++s) {
      three.sync().tick();
      net.clock().run();
    }
    trace.record(now(), "sync", "rounds=" + std::to_string(rounds));
    // Settled point: every window the clock has moved past is final, so
    // the watchdog can consume it (no-op without one).
    three.poll_watchdog();

    for (const auto& [id, state] : endpoints) checker.observe_versions(id, state->versions());

    if (config.enable_compaction && rng.chance(0.25)) {
      // Durable edges checkpoint first: the cut refreshes each store
      // (snapshot-gated log compaction) and raises the in-memory bound so
      // compact_logs below can actually advance past it.
      if (config.durable) {
        const std::size_t log_dropped = three.checkpoint_durable_edges();
        trace.record(now(), "checkpoint", "log_dropped=" + std::to_string(log_dropped));
      }
      const std::size_t dropped = three.sync().compact_logs();
      trace.record(now(), "compact", "dropped=" + std::to_string(dropped));
    }
  }

  // ---- forced quiescence ---------------------------------------------------
  net.heal_all();
  net.set_faults_all(netsim::FaultConfig{});
  for (const auto& [a, b] : lossy) {
    net.connect(a, b, (a == core::kCloudHost || b == core::kCloudHost) ? dep.wan : dep.lan);
  }
  trace.record(now(), "heal_all", std::to_string(result.partitions) + " cuts total");
  for (const std::size_t e : down_edges) {
    three.restart_edge(e);
    trace.record(now(), "restart", core::edge_host(e));
  }
  down_edges.clear();

  const std::size_t max_quiesce = 150;
  std::size_t quiesce = 0;
  for (; quiesce < max_quiesce; ++quiesce) {
    three.sync().tick();
    net.clock().run();
    three.poll_watchdog();
    if (graph.converged()) break;
  }
  result.quiesce_rounds = quiesce;
  trace.record(now(), "quiesce", "rounds=" + std::to_string(quiesce));
  if (quiesce == max_quiesce) {
    checker.record("convergence",
                   "no fixed point after " + std::to_string(max_quiesce) + " healed rounds");
  }

  // ---- invariants ----------------------------------------------------------
  for (const auto& [id, state] : endpoints) checker.observe_versions(id, state->versions());
  checker.check_convergence(endpoints);

  for (TrackedWrite& w : tracked) {
    if (!w.must_survive) {
      // Writes whose serving endpoint never crashed afterwards were always
      // durably held somewhere that survived to the end.
      if (!w.at_edge) {
        w.must_survive = true;  // the cloud never crashes
      } else if (crash_count[w.edge_index] == w.crash_epoch) {
        w.must_survive = true;
      }
    }
    if (w.must_survive && !key_visible(three.cloud_state(), w.key)) {
      checker.record("no-acked-op-loss",
                     "write " + w.key + " (acked at " + w.endpoint + ") missing after quiescence");
    }
  }
  } catch (const std::exception& e) {
    trace.record(now(), "exception", e.what());
    checker.record("no-crash",
                   std::string("exception escaped the replication plane: ") + e.what());
  }

  // ---- durability accounting -----------------------------------------------
  if (config.durable) {
    for (std::size_t e = 0; e < n_edges; ++e) {
      if (durability::OpLogStore* store = three.durable_store(e)) {
        result.truncated_records += std::size_t(store->truncated_records());
      }
    }
  }

  // ---- variant agreement ---------------------------------------------------
  // Shadow-engine disagreement is an invariant like any other: any request
  // whose legacy replay produced a different response or RW-log fails the
  // seed. Capped at a handful of violations so a systematically-divergent
  // run (e.g. variant_fault) stays readable.
  if (config.variant_check) {
    result.variant_checks = three.variant_checks();
    const std::vector<runtime::Divergence> divergences = three.variant_divergences();
    result.variant_divergences = divergences.size();
    constexpr std::size_t kMaxReported = 8;
    for (std::size_t i = 0; i < std::min(divergences.size(), kMaxReported); ++i) {
      checker.record("variant-agreement", divergences[i].variant + " " + divergences[i].kind +
                                              " divergence: " + divergences[i].detail);
    }
    if (divergences.size() > kMaxReported) {
      checker.record("variant-agreement",
                     std::to_string(divergences.size() - kMaxReported) + " further divergences");
    }
  }

  // ---- SLO watchdog accounting ---------------------------------------------
  // Close out the final (possibly partial) window, then apply the alert
  // assertion mode: forbid_alerts turns any alert into a violation (the
  // default rules must stay silent on healthy seeds at sweep scale);
  // require_alerts demands each named rule fired (planted faults MUST be
  // caught). An alert's detail() names the offending window — the evidence.
  three.finish_watchdog();
  if (obs::Watchdog* dog = three.watchdog()) {
    for (const obs::SloAlert& alert : dog->alerts()) {
      result.slo_alerts.push_back(alert.detail());
      trace.record(now(), "alert", alert.detail());
    }
    if (config.forbid_alerts) {
      constexpr std::size_t kMaxAlertsReported = 8;
      for (std::size_t i = 0; i < std::min(result.slo_alerts.size(), kMaxAlertsReported); ++i) {
        checker.record("slo-false-positive", result.slo_alerts[i]);
      }
      if (result.slo_alerts.size() > kMaxAlertsReported) {
        checker.record("slo-false-positive",
                       std::to_string(result.slo_alerts.size() - kMaxAlertsReported) +
                           " further alerts");
      }
    }
    for (const std::string& rule : config.require_alerts) {
      if (dog->alert_count(rule) == 0) {
        checker.record("slo-missed-alert",
                       "rule '" + rule + "' never fired despite the planted fault");
      }
    }
  }

  std::string joint;
  for (const runtime::DocUnit& unit : three.cloud_state().docs()) {
    joint += unit.doc->state_digest();
  }
  result.state_digest = hex64(util::fnv1a(joint));
  result.trace_digest = trace.digest();
  result.violations = checker.violations();
  result.passed = checker.passed();
  if (config.capture_telemetry) {
    result.chrome_trace = three.chrome_trace().dump_pretty();
    result.metrics_snapshot = three.metrics_snapshot().dump_pretty();
  }
  if (config.capture_timeseries) result.timeseries = three.timeseries_json().dump_pretty();
  if (!result.passed && three.flight_recorder()) {
    // The black box: the recent past of every host, materialized only on
    // failure and attached to the report the sweep uploads.
    result.flight_dump = three.flight_recorder()->dump_text();
  }
  return result;
}

}  // namespace edgstr::sim
