// bench_e2e: host-time benchmark of the EdgStr reproduction.
//
// Four workloads, each a closed loop with one simulated client and no
// think time, all on one thread, timed in that thread's CPU time (see
// CpuClock) and scaled to the baseline host's speed (see ReferenceTimer):
//
//   transform   record_traffic + Pipeline::transform over the 7 subjects
//               (the developer-side cost the paper calls one-time)
//   edge-read   read-mostly zipf traffic at one rpi4 edge (request path)
//   edge-write  write-only traffic round-robin over 4 rpi4 edges (sync path)
//   chaos       sim::run_schedule seeds with durability and power loss
//
// A run sets up several times (setup_s is the median), then repeats one
// fixed *episode* — the same seeded operations on the same set-up state —
// while the next one fits in --seconds (default 20). Every episode runs in
// a forked copy of the set-up process, so each starts from identical state
// (see in_child), and every time metric is a median over episodes, so a
// faster build measures the same work and a burst of host noise moves one
// episode, not the result. End-to-end metrics come from this untraced run
// only. --trace adds a layer replay: the episode's operations go once more
// through each layer's public entry points, every call timed by a span (see
// SpanRecorder), which gives each layer's share of the untraced time plus
// the residual nobody claimed. Several workloads (all, --smoke) run one
// after another, each in its own process.
//
//   bench_e2e --workload <transform|edge-read|edge-write|chaos|all>
//             [--seed N] [--seconds S] [--trace] [--json PATH]
//   bench_e2e --smoke [--json PATH]   every workload at 1/50 size, traced
//
// With --trace and --json out.json, each workload's spans are also written
// as Chrome-trace JSON to out.<workload>.trace.json.
//
// Exit status: 0 when every check passed, 1 when any failed, 2 on bad usage.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "apps/app.h"
#include "crdt/wire.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "json/parse.h"
#include "minijs/parser.h"
#include "minijs/printer.h"
#include "obs/export.h"
#include "refactor/dependence.h"
#include "refactor/extract.h"
#include "refactor/normalize.h"
#include "sim/schedule.h"
#include "trace/fuzzer.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/shapes.h"

using namespace edgstr;

namespace {

/// The calling thread's CPU time. Every timed op runs on this one thread
/// and never sleeps or waits for I/O, so on an idle host this reads what a
/// wall clock would. On a shared host it leaves out the time the host ran
/// something else: other processes, and, through the kernel's paravirt
/// steal accounting, other guests on this vCPU.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(rep(ts.tv_sec) * 1'000'000'000 + rep(ts.tv_nsec)));
  }
};

using Clock = CpuClock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (0 when empty).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- host speed -----------------------------------------------------------

/// A fixed piece of work that belongs to the benchmark, not the library:
/// 20,000 pseudo-random strings counted in a hash map, sorted and looked up
/// again — allocation, string hashing and branching, as in the library. No
/// change to the library changes it, so its CPU time shows how fast the
/// host runs at the moment: another guest on the same core, caches or
/// memory slows it together with the workload, which CPU time alone does
/// not remove.
std::uint64_t reference_work() {
  std::vector<std::string> keys;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    keys.push_back("key" + std::to_string(x >> 36));
  }
  std::unordered_map<std::string, std::uint64_t> counts;
  for (const std::string& k : keys) counts[k] += k.size();
  std::sort(keys.begin(), keys.end());
  std::uint64_t acc = 0;
  for (const std::string& k : keys) acc += counts[k];
  return acc;
}

/// reference_work()'s CPU time, in seconds, on the baseline host (see
/// README.md) in a quiet hour: the median of host.reference_ms over 40
/// runs of the benchmark there.
constexpr double kReferenceS = 0.00782;
/// How much of an episode's CPU time passes between two timings of
/// reference_work(); each costs ~16 ms of wall time and none of the
/// episode's CPU time.
constexpr std::chrono::milliseconds kReferenceEvery{100};

volatile std::uint64_t reference_sink = 0;

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= std::size_t(n);
  }
  return true;
}

/// Reads exactly `size` bytes; false on end of file or error.
bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= std::size_t(n);
  }
  return true;
}

/// Times reference_work() in a process forked at start-up, before any
/// workload runs. Its heap never holds the library's data, so the timing
/// depends on the host alone: run in a forked episode instead, it would pay
/// copy-on-write faults whose number the library's memory use decides.
/// The process ends when this object closes its pipes.
class ReferenceTimer {
 public:
  ReferenceTimer() {
    int request[2], reply[2];
    if (pipe(request) != 0 || pipe(reply) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      serve(request[0], reply[1]);
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    request_ = request[1];
    reply_ = reply[0];
  }
  ~ReferenceTimer() {
    close(request_);
    close(reply_);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  ReferenceTimer(const ReferenceTimer&) = delete;
  ReferenceTimer& operator=(const ReferenceTimer&) = delete;

  /// One reference_work() run's CPU time, in seconds. The caller's thread
  /// waits meanwhile and accrues no CPU time of its own.
  double time() {
    const char go = 1;
    double s = 0;
    if (!write_all(request_, &go, 1) || !read_all(reply_, &s, sizeof s)) {
      throw std::runtime_error("the reference timer process ended");
    }
    return s;
  }

  /// Runs `work` between three reference_work() runs before it and three
  /// after, and returns their CPU times in seconds.
  std::vector<double> around(const std::function<void()>& work) {
    std::vector<double> out;
    for (int i = 0; i < 6; ++i) {
      if (i == 3) work();
      out.push_back(time());
    }
    return out;
  }

 private:
  /// Each timing follows an untimed run, which brings the work's memory
  /// back into the caches: whatever ran since the last timing, and so how
  /// much of the cache the workload took, must not change the timing.
  static void serve(int requests, int replies) {
    char go = 0;
    while (read_all(requests, &go, 1)) {
      reference_sink = reference_work();
      const Clock::time_point t0 = Clock::now();
      reference_sink = reference_work();
      const double s = seconds_since(t0);
      if (!write_all(replies, &s, sizeof s)) return;
    }
  }

  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

/// Scales a CPU time measured beside the `reference_s` timings to the
/// baseline host's speed, so a run in a slow spell of a shared host reads
/// about what a quiet one does.
double host_scale(const std::vector<double>& reference_s) {
  return ratio(kReferenceS, median(reference_s));
}

// ---- spec -----------------------------------------------------------------

/// A transform's pinned replicable-service count and replica-source hash.
struct Pin {
  double replicable = -1;
  std::string replica_fnv1a;
};

struct MetricInfo {
  std::string unit;
  bool layer = false;  ///< reported by --trace only
};

/// spec.json next to this source: the correctness pins and every metric
/// the binary may print, with its unit.
struct Spec {
  std::map<std::string, Pin> pins;
  std::map<std::string, MetricInfo> metrics;
};

const Spec& spec() {
  static const Spec loaded = [] {
    std::ifstream in(EDGSTR_E2E_SPEC);
    if (!in) throw std::runtime_error(std::string("cannot read ") + EDGSTR_E2E_SPEC);
    std::stringstream text;
    text << in.rdbuf();
    const json::Value doc = json::parse(text.str());
    Spec s;
    for (const auto& [app, pin] : doc["pins"].as_object()) {
      s.pins[app] = Pin{pin["replicable"].as_number(), pin["replica_fnv1a"].as_string()};
    }
    for (const json::Value& m : doc["metrics"].as_array()) {
      s.metrics[m["name"].as_string()] =
          MetricInfo{m["unit"].as_string(), m["kind"].as_string() == "layer"};
    }
    return s;
  }();
  return loaded;
}

// ---- results --------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// One workload's outcome. `attempted`/`failed` count ops (requests, app
/// transforms, seeds); a failed end-of-phase check counts as one more
/// failed op, so error_rate never hides a divergence.
struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;

  /// Sets a metric in the unit spec.json gives it.
  void set(const std::string& name, double value) {
    auto it = spec().metrics.find(name);
    if (it == spec().metrics.end()) throw std::logic_error(name + " is not in spec.json");
    metrics[name] = Metric{value, it->second.unit};
  }
  void fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
};

// ---- forked episodes ------------------------------------------------------

/// Runs `fn` in a forked copy of this process and returns the JSON it
/// produced; rethrows its exception, and throws when it dies. A fork
/// starts from the parent's heap as it is now. That matters because the
/// library keeps some memory it allocates (about 0.6 MB per app transform
/// and 1.3 MB per chaos seed), and a process that has already run 400
/// chaos seeds runs the next ones about 10% slower. Forking every episode
/// from the set-up process makes each one start from the same state.
json::Value in_child(const std::function<json::Value()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    std::string text;
    try {
      text = json::Value::object({{"value", fn()}}).dump();
    } catch (const std::exception& e) {
      text = json::Value::object({{"error", e.what()}}).dump();
    }
    const bool sent = write_all(fds[1], text.data(), text.size());
    std::fflush(stdout);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 14];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, std::size_t(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    throw std::runtime_error("child process ended without a result");
  }
  json::Value out = json::parse(text);
  if (const json::Value* err = out.find("error")) throw std::runtime_error(err->as_string());
  return out["value"];
}

json::Value numbers(const std::vector<double>& values) {
  return json::Value(json::Array(values.begin(), values.end()));
}

std::vector<double> numbers(const json::Value& array) {
  std::vector<double> out;
  for (const json::Value& v : array.as_array()) out.push_back(v.as_number());
  return out;
}

/// What one episode measured. Every episode runs the same operations from
/// the same state, so `op_us[i]` is the same op in each and `sim` (the
/// simulation's deterministic outputs) must be equal in all of them.
struct Episode {
  double busy_s = 0;             ///< the ops' CPU time (serving: plus sync rounds)
  std::vector<double> op_us;     ///< CPU time of each op, in op order
  std::vector<double> round_ms;  ///< serving: each sync round, in order
  double converge_ms = 0;        ///< serving: sync_until_converged, summed over phases
  std::vector<double> reference_s;  ///< reference_work() timings during the episode
  Clock::time_point reference_at{};  ///< when the last of them was taken
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> sim;  ///< metric name -> value

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }

  /// Called between ops: times the host's speed at the first call and then
  /// once per kReferenceEvery of this thread's CPU time, so the timings
  /// cover the episode the way its ops do.
  void time_host(ReferenceTimer& reference) {
    if (!reference_s.empty() && Clock::now() - reference_at < kReferenceEvery) return;
    reference_s.push_back(reference.time());
    reference_at = Clock::now();
  }

  json::Value to_json() const {
    json::Array fails(failures.begin(), failures.end());
    json::Object outputs;
    for (const auto& [name, value] : sim) outputs.set(name, value);
    return json::Value::object({{"busy_s", busy_s},
                                {"op_us", numbers(op_us)},
                                {"round_ms", numbers(round_ms)},
                                {"converge_ms", converge_ms},
                                {"reference_s", numbers(reference_s)},
                                {"peak_rss_mb", peak_rss_mb},
                                {"attempted", double(attempted)},
                                {"failed", double(failed)},
                                {"failures", json::Value(std::move(fails))},
                                {"sim", json::Value(std::move(outputs))}});
  }

  static Episode from_json(const json::Value& v) {
    Episode e;
    e.busy_s = v["busy_s"].as_number();
    e.op_us = numbers(v["op_us"]);
    e.round_ms = numbers(v["round_ms"]);
    e.converge_ms = v["converge_ms"].as_number();
    e.reference_s = numbers(v["reference_s"]);
    e.peak_rss_mb = v["peak_rss_mb"].as_number();
    e.attempted = static_cast<std::uint64_t>(v["attempted"].as_number());
    e.failed = static_cast<std::uint64_t>(v["failed"].as_number());
    for (const json::Value& f : v["failures"].as_array()) e.failures.push_back(f.as_string());
    for (const auto& [name, value] : v["sim"].as_object()) e.sim[name] = value.as_number();
    return e;
  }
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20;    ///< measurement budget per workload, in wall time
  double scale = 1.0;     ///< episode size factor (--smoke: 1/50)
  int setup_reps = 9;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace path; empty = none
  ReferenceTimer* reference = nullptr;
};

/// Runs `episode` in a forked child while the next one is expected to end
/// within the budget; always at least once.
std::vector<Episode> run_episodes(const Options& opts, const std::function<Episode()>& episode) {
  using Wall = std::chrono::steady_clock;
  const auto wall_s = [](Wall::time_point since) {
    return std::chrono::duration<double>(Wall::now() - since).count();
  };
  std::vector<Episode> out;
  const Wall::time_point start = Wall::now();
  double longest = 0;
  do {
    const Wall::time_point t0 = Wall::now();
    out.push_back(Episode::from_json(in_child([&] {
      Episode e = episode();
      e.peak_rss_mb = peak_rss_mb();
      return e.to_json();
    })));
    longest = std::max(longest, wall_s(t0));
  } while (wall_s(start) + longest <= opts.seconds);
  return out;
}

/// Element-wise median over episodes: the i-th value is the median of the
/// i-th op's (or round's) times.
std::vector<double> median_per_position(const std::vector<Episode>& eps,
                                        std::vector<double> Episode::*series) {
  std::vector<double> out((eps.front().*series).size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> at;
    for (const Episode& e : eps) at.push_back((e.*series).at(i));
    out[i] = median(at);
  }
  return out;
}

std::vector<double> each(const std::vector<Episode>& eps, double Episode::*field) {
  std::vector<double> out;
  for (const Episode& e : eps) out.push_back(e.*field);
  return out;
}

/// The episodes with their end-to-end times scaled to the baseline host's
/// speed, each by the host speed timed during it.
std::vector<Episode> at_baseline_speed(std::vector<Episode> eps) {
  for (Episode& e : eps) {
    const double scale = host_scale(e.reference_s);
    e.busy_s *= scale;
    for (double& t : e.op_us) t *= scale;
    e.converge_ms *= scale;
  }
  return eps;
}

/// The metrics every workload reports from its episodes. Time metrics are
/// medians over episodes at the baseline host's speed: ops_per_s from the
/// median episode time, the host_us quantiles over each op's median time.
void report_episodes(Result& r, const std::vector<Episode>& eps, bool trace) {
  for (std::size_t k = 0; k < eps.size(); ++k) {
    const Episode& e = eps[k];
    r.attempted += e.attempted;
    r.failed += e.failed;
    for (const std::string& f : e.failures) {
      if (r.failures.size() < 20) r.failures.push_back(f);
    }
    if (k > 0 && e.sim != eps.front().sim) {
      r.fail("episode " + std::to_string(k) + ": simulation outputs differ from episode 0");
    }
  }
  const std::vector<Episode> scaled = at_baseline_speed(eps);
  const std::vector<double> op_us = median_per_position(scaled, &Episode::op_us);
  r.set("ops_per_s", ratio(double(op_us.size()), median(each(scaled, &Episode::busy_s))));
  r.set("host_us.p50", quantile(op_us, 0.50));
  r.set("host_us.p90", quantile(op_us, 0.90));
  r.set("host_us.p99", quantile(op_us, 0.99));
  std::vector<double> reference_s;
  for (const Episode& e : eps) {
    reference_s.insert(reference_s.end(), e.reference_s.begin(), e.reference_s.end());
  }
  r.set("host.reference_ms", median(reference_s) * 1e3);
  r.set("peak_rss_mb", median(each(eps, &Episode::peak_rss_mb)));
  r.set("error_rate", ratio(double(r.failed), double(r.attempted)));
  for (const auto& [name, value] : eps.front().sim) {
    if (trace || !spec().metrics.at(name).layer) r.set(name, value);
  }
}

// ---- layer-replay spans ---------------------------------------------------

/// In-memory spans for the layer replay, in CPU time. Each span has a name
/// (a layer, or a "request"/"round"/"app"/"seed" parent), start and end,
/// its parent, and the op it belongs to. Layer spans are leaves, so a
/// layer's self time is its duration; a parent's self time is the glue
/// between its children.
class SpanRecorder {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t begin(const char* name, std::uint64_t op, std::size_t parent = kNone) {
    spans_.push_back(Span{name, op, parent, Clock::now(), {}});
    return spans_.size() - 1;
  }
  void end(std::size_t id) { spans_[id].end = Clock::now(); }

  /// Times `fn` as a span and returns its result.
  template <typename Fn>
  auto timed(const char* name, std::uint64_t op, std::size_t parent, Fn&& fn) {
    const std::size_t id = begin(name, op, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(id);
    } else {
      auto out = fn();
      end(id);
      return out;
    }
  }

  /// Per-name self times in microseconds, one entry per span.
  std::map<std::string, std::vector<double>> self_us() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child_us[s.parent] += duration_us(s);
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(duration_us(spans_[i]) - child_us[i]);
    }
    return out;
  }

  /// Chrome-trace ("X" complete events) JSON, Perfetto-loadable.
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%lld}}",
                    i ? ",\n" : "\n", s.name,
                    std::chrono::duration<double, std::micro>(s.start - origin).count(),
                    duration_us(s), static_cast<unsigned long long>(s.op), i,
                    s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
      out << buf;
    }
    out << "\n]}\n";
    return bool(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  static double duration_us(const Span& s) {
    return std::chrono::duration<double, std::micro>(s.end - s.start).count();
  }
  std::vector<Span> spans_;
};

/// Layer spans of the replay, named after the modules they time.
const std::vector<const char*> kServingLayers = {
    "runtime.handle", "runtime.harvest", "runtime.collect", "crdt.encode",
    "crdt.decode",    "runtime.apply",   "runtime.digest"};
const std::vector<const char*> kPipelineLayers = {
    "http.capture", "minijs.init", "trace.fuzz", "datalog.analyze", "refactor.extract"};
const char* const kChaosLayer = "sim.schedule";

/// Every layer's share of the untraced total (0 for layers the workload
/// never reaches, so each workload reports the same set), the residual
/// 1 - sum/untraced, and the replay's own cost relative to the untraced run.
void report_shares(Result& r, const std::map<std::string, std::vector<double>>& self_us,
                   double untraced_s, double traced_s) {
  double layer_sum_us = 0;
  std::vector<const char*> all = kServingLayers;
  all.insert(all.end(), kPipelineLayers.begin(), kPipelineLayers.end());
  all.push_back(kChaosLayer);
  for (const char* layer : all) {
    auto it = self_us.find(layer);
    const double total = it == self_us.end() ? 0 : sum(it->second);
    layer_sum_us += total;
    r.set(std::string(layer) + ".share", ratio(total, untraced_s * 1e6));
  }
  r.set("residual.share", 1.0 - ratio(layer_sum_us, untraced_s * 1e6));
  r.set("trace.overhead", ratio(traced_s, untraced_s));
}

// ---- set-up ---------------------------------------------------------------

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(double(n) * scale + 0.5));
}

/// Times `setup` opts.setup_reps times, each in a forked child so each
/// starts cold from the same state and each scaled to the baseline host's
/// speed by the host speed timed around it, and sets setup_s to the
/// median. Then runs it once more here and returns that product, which the
/// episodes fork from.
template <typename Fn>
auto timed_setup(Result& r, const Options& opts, Fn&& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < opts.setup_reps; ++rep) {
    double setup_s = 0;
    const std::vector<double> around = opts.reference->around([&] {
      setup_s = in_child([&] {
                  const Clock::time_point t0 = Clock::now();
                  [[maybe_unused]] const auto product = setup();
                  return json::Value(seconds_since(t0));
                }).as_number();
    });
    times.push_back(setup_s * host_scale(around));
  }
  r.set("setup_s", median(times));
  return setup();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Checks a transform against its pinned replicable-service count and
/// replica-source hash; empty string when it matches.
std::string check_transform(const core::TransformResult& t) {
  if (!t.ok) return t.app_name + ": transform failed: " + t.error;
  const std::string hash = hex64(util::fnv1a(t.replica.source));
  auto it = spec().pins.find(t.app_name);
  if (it != spec().pins.end() && double(t.replicable_count()) == it->second.replicable &&
      hash == it->second.replica_fnv1a) {
    return {};
  }
  return t.app_name + ": replicable=" + std::to_string(t.replicable_count()) +
         " replica_fnv1a=" + hash + " do not match the spec's pins";
}

core::TransformResult transform_app(const apps::SubjectApp& app) {
  const http::TrafficRecorder traffic = core::record_traffic(app.server_source, app.workload);
  return core::Pipeline().transform(app.name, app.server_source, traffic);
}

// ---- transform ------------------------------------------------------------

Result run_transform(const Options& opts) {
  Result r;
  r.workload = "transform";
  // The inputs are the subjects themselves, so the seed changes nothing
  // here. The order is fixed: the peak resident set depends on it.
  const std::vector<const apps::SubjectApp*>& order = apps::all_subject_apps();
  // Set-up is a warm-up sweep: first-use initialization (interning,
  // builtin tables) lands here, not in the first timed op.
  timed_setup(r, opts, [&] {
    for (const apps::SubjectApp* app : order) transform_app(*app);
    return 0;
  });

  const std::vector<Episode> eps = run_episodes(opts, [&] {
    Episode e;
    for (const apps::SubjectApp* app : order) {
      e.time_host(*opts.reference);
      const Clock::time_point t0 = Clock::now();
      const core::TransformResult t = transform_app(*app);
      e.op_us.push_back(us_since(t0));
      ++e.attempted;
      if (const std::string err = check_transform(t); !err.empty()) e.fail(err);
    }
    e.busy_s = sum(e.op_us) / 1e6;
    return e;
  });
  report_episodes(r, eps, opts.trace);
  if (!opts.trace) return r;

  // Layer replay: the five stages bench_pipeline_cost times, per app.
  SpanRecorder rec;
  const Clock::time_point t0 = Clock::now();
  std::size_t facts = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const apps::SubjectApp& app = *order[i];
    const std::size_t parent = rec.begin("app", i);
    const http::TrafficRecorder traffic = rec.timed("http.capture", i, parent, [&] {
      return core::record_traffic(app.server_source, app.workload);
    });
    std::unique_ptr<trace::ProfilingHarness> harness = rec.timed("minijs.init", i, parent, [&] {
      const minijs::Program normalized =
          refactor::normalize(minijs::parse_program(app.server_source));
      return std::make_unique<trace::ProfilingHarness>(minijs::print_program(normalized));
    });
    refactor::DependenceAnalyzer analyzer(harness->interpreter().program());
    trace::Fuzzer fuzzer(*harness, util::Rng(17));
    for (const http::ServiceProfile& profile : traffic.infer_services()) {
      const trace::FuzzReport report =
          rec.timed("trace.fuzz", i, parent, [&] { return fuzzer.fuzz(profile, 4); });
      const refactor::ExtractionPlan plan =
          rec.timed("datalog.analyze", i, parent, [&] { return analyzer.analyze(report); });
      if (!plan.ok) continue;
      facts += plan.fact_count;
      rec.timed("refactor.extract", i, parent, [&] {
        return refactor::extract_function(harness->interpreter().program(), plan);
      });
    }
    rec.end(parent);
  }
  const double traced_s = seconds_since(t0);
  const auto self = rec.self_us();
  report_shares(r, self, median(each(eps, &Episode::busy_s)), traced_s);
  for (const char* layer : kPipelineLayers) {
    auto it = self.find(layer);
    const double total_ms = it == self.end() ? 0 : sum(it->second) / 1e3;
    r.set(std::string(layer) + "_ms", total_ms / double(order.size()));
  }
  r.set("datalog.facts_per_app", double(facts) / double(order.size()));
  if (!opts.trace_out.empty() && !rec.write_chrome_trace(opts.trace_out)) {
    r.fail("cannot write " + opts.trace_out);
  }
  return r;
}

// ---- serving workloads ----------------------------------------------------

struct RouteShare {
  http::Verb verb;
  const char* path;
  double weight;
  bool write;
};

struct Phase {
  const apps::SubjectApp* app;
  std::size_t requests;
  std::vector<RouteShare> mix;
  std::size_t preload_batches = 0;  ///< /ingest batches at edge 0, then converge
};

struct ServingShape {
  std::size_t edges = 1;
  bool zipf_salts = false;  ///< repeated inputs (edge-read) vs unique ones
  std::vector<Phase> phases;
};

/// One generated request and the edge proxy it enters through.
struct Op {
  http::HttpRequest request;
  std::size_t edge = 0;
  bool write = false;
};

constexpr std::size_t kRequestsPerRound = 32;  ///< ~0.5 s of modeled traffic
constexpr int kMaxConvergeRounds = 64;

const http::HttpRequest& exemplar(const apps::SubjectApp& app, http::Verb verb,
                                  const std::string& path) {
  for (const http::HttpRequest& req : app.workload) {
    if (req.verb == verb && req.path == path) return req;
  }
  throw std::logic_error(app.name + " has no exemplar for " + path);
}

/// The program sees only these: perturbations of the app's own exemplars,
/// salted from zipf-repeating keys or from a unique counter. Each route
/// gets exactly its share of a phase's requests, in a seed-shuffled order,
/// so seeds differ in order and salts but not in how much of each route
/// they run.
class OpGenerator {
 public:
  OpGenerator(std::uint64_t seed, bool zipf)
      : rng_(seed),
        zipf_(zipf),
        keys_(workload::KeyDistribution::zipf(1000, 1.1)),
        next_unique_(1 + rng_.uniform_int(0, 1 << 20)) {}

  int salt() { return zipf_ ? int(keys_.draw(rng_)) : int(next_unique_++); }

  std::vector<Op> generate(const Phase& phase, std::size_t count, std::size_t edges) {
    double total = 0;
    for (const RouteShare& share : phase.mix) total += share.weight;
    const auto cut = [&](double weight) { return std::size_t(weight / total * double(count) + 0.5); };
    std::vector<const RouteShare*> routes;
    double before = 0;
    for (const RouteShare& share : phase.mix) {
      routes.insert(routes.end(), cut(before + share.weight) - cut(before), &share);
      before += share.weight;
    }
    rng_.shuffle(routes);
    std::vector<Op> ops(count);
    for (std::size_t i = 0; i < count; ++i) {
      const RouteShare* chosen = routes[i];
      ops[i].request =
          trace::Fuzzer::perturb(exemplar(*phase.app, chosen->verb, chosen->path), salt());
      ops[i].edge = i % edges;
      ops[i].write = chosen->write;
    }
    return ops;
  }

 private:
  util::Rng rng_;
  bool zipf_;
  workload::KeyDistribution keys_;
  std::int64_t next_unique_;
};

struct PhaseInputs {
  std::vector<Op> preload;
  std::vector<Op> ops;
};

std::vector<PhaseInputs> generate_inputs(const ServingShape& shape, std::uint64_t seed) {
  OpGenerator gen(seed, shape.zipf_salts);
  std::vector<PhaseInputs> inputs;
  for (const Phase& phase : shape.phases) {
    PhaseInputs in;
    if (phase.preload_batches > 0) {
      Phase ingest{phase.app, 0, {{http::Verb::kPost, "/ingest", 1, true}}};
      in.preload = gen.generate(ingest, phase.preload_batches, 1);
    }
    in.ops = gen.generate(phase, phase.requests, shape.edges);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

core::DeploymentConfig deployment_config(const ServingShape& shape, std::uint64_t seed) {
  core::DeploymentConfig config;  // star, digest sync, lanes = 1, no variant check
  config.start_sync = false;      // the benchmark drives sync rounds itself
  config.seed = seed;
  config.edge_devices.assign(shape.edges, cluster::DeviceProfile::rpi4());
  return config;
}

void sync_round(core::ThreeTierDeployment& dep) {
  dep.sync().tick();
  dep.network().clock().run();
}

/// A fresh deployment of one phase's app, preloaded and converged.
std::unique_ptr<core::ThreeTierDeployment> build_phase(const core::TransformResult& transform,
                                                       const core::DeploymentConfig& config,
                                                       const PhaseInputs& in) {
  auto dep = std::make_unique<core::ThreeTierDeployment>(transform, config);
  for (std::size_t i = 0; i < in.preload.size(); ++i) {
    dep->request_sync(in.preload[i].request, 0);
    if ((i + 1) % kRequestsPerRound == 0) sync_round(*dep);
  }
  if (!in.preload.empty() && dep->sync().sync_until_converged(kMaxConvergeRounds) < 0) {
    throw std::runtime_error(transform.app_name + ": preload did not converge");
  }
  return dep;
}

bool is_server_error(const http::HttpResponse& resp) { return resp.status >= 500; }

/// Sums over every edge proxy's local serves.
std::uint64_t served_at_edges(core::ThreeTierDeployment& dep) {
  std::uint64_t served = 0;
  for (std::size_t e = 0; e < dep.edges().size(); ++e) served += dep.proxy(e).stats().served_at_edge;
  return served;
}

std::size_t table_rows(runtime::ServiceRuntime& service) {
  std::size_t rows = 0;
  for (const std::string& name : service.database().table_names()) {
    rows += service.database().table(name).row_count();
  }
  return rows;
}

/// The simulation's outputs over an episode's phases, all deterministic.
struct SimCounts {
  std::vector<double> modeled_ms;
  double wire_bytes = 0, ops_replicated = 0;
  double digest_hit = 0, digest_miss = 0, idle_rounds = 0, rounds = 0;
  double served_local = 0, requests = 0, spans = 0, rows_end = 0, log_ops_end = 0;

  std::map<std::string, double> metrics() const {
    return {{"modeled.client_ms.p50", quantile(modeled_ms, 0.50)},
            {"modeled.client_ms.p99", quantile(modeled_ms, 0.99)},
            {"wire_bytes_per_op", ratio(wire_bytes, ops_replicated)},
            {"runtime.digest_hit_rate", ratio(digest_hit, digest_hit + digest_miss)},
            {"runtime.idle_round_share", ratio(idle_rounds, rounds)},
            {"runtime.local_share", ratio(served_local, requests)},
            {"obs.spans_per_op", ratio(spans, requests)},
            {"sqldb.rows_end", rows_end},
            {"crdt.log_ops_end", log_ops_end}};
  }
};

/// One serving phase on its set-up deployment: the timed request loop with
/// a sync round after every kRequestsPerRound requests, then convergence
/// and the digest check.
void run_phase(Episode& e, SimCounts& sim, const std::string& app, core::ThreeTierDeployment& dep,
               const PhaseInputs& in, ReferenceTimer& reference) {
  util::MetricsRegistry& sync_metrics = dep.replication().metrics();
  dep.sync().reset_traffic_stats();
  const double ops_before = double(dep.cloud_state().total_op_count());
  const double hit_before = sync_metrics.value("sync.digest.hit");
  const double miss_before = sync_metrics.value("sync.digest.miss");
  const double served_before = double(served_at_edges(dep));
  const double spans_before = double(dep.telemetry().tracer().size());

  const Clock::time_point loop = Clock::now();
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    double latency_s = -1;  // stays negative when the request never completes
    const Clock::time_point t0 = Clock::now();
    const http::HttpResponse resp = dep.request_sync(op.request, op.edge, &latency_s);
    e.op_us.push_back(us_since(t0));
    ++e.attempted;
    if (latency_s < 0 || is_server_error(resp)) {
      e.fail(app + " " + op.request.path + " failed: status " + std::to_string(resp.status));
    } else {
      sim.modeled_ms.push_back(latency_s * 1e3);
    }
    if ((i + 1) % kRequestsPerRound == 0) {
      const double miss = sync_metrics.value("sync.digest.miss");
      const Clock::time_point t1 = Clock::now();
      sync_round(dep);
      e.round_ms.push_back(us_since(t1) / 1e3);
      sim.rounds += 1;
      if (sync_metrics.value("sync.digest.miss") == miss) sim.idle_rounds += 1;
      e.time_host(reference);
    }
  }
  e.busy_s += seconds_since(loop);

  const Clock::time_point t2 = Clock::now();
  const int rounds = dep.sync().sync_until_converged(kMaxConvergeRounds);
  e.converge_ms += us_since(t2) / 1e3;
  if (rounds < 0) e.fail(app + ": did not converge");
  const std::string cloud_digest = dep.cloud_state().state_digest();
  for (std::size_t k = 0; k < dep.edges().size(); ++k) {
    if (dep.edge_state(k).state_digest() != cloud_digest) {
      e.fail(app + ": edge" + std::to_string(k) + " digest differs from cloud");
    }
  }
  sim.wire_bytes += double(dep.sync().total_sync_bytes());
  sim.ops_replicated += double(dep.cloud_state().total_op_count()) - ops_before;
  sim.digest_hit += sync_metrics.value("sync.digest.hit") - hit_before;
  sim.digest_miss += sync_metrics.value("sync.digest.miss") - miss_before;
  sim.served_local += double(served_at_edges(dep)) - served_before;
  sim.requests += double(in.ops.size());
  sim.spans += double(dep.telemetry().tracer().size()) - spans_before;
  sim.rows_end += double(table_rows(dep.cloud_state().service()));
  sim.log_ops_end += double(dep.cloud_state().total_op_count());
}

/// The replay's replicas: the same services and replica states a
/// ThreeTierDeployment wires, minus network, proxies and sync protocol.
struct ReplayEndpoint {
  std::unique_ptr<runtime::ServiceRuntime> service;
  std::shared_ptr<runtime::ReplicaState> state;
};

/// Counters the replay collects alongside its spans.
struct ReplayCounts {
  double requests = 0, steps = 0, writes = 0, write_ops = 0;
  double messages = 0, message_ops = 0, message_bytes = 0;
};

/// Runs `fn` inside a span when a recorder is attached (the replay's
/// preload and convergence rounds run untimed).
template <typename Fn>
auto layer(SpanRecorder* rec, const char* name, std::uint64_t id, std::size_t parent, Fn&& fn) {
  return rec ? rec->timed(name, id, parent, fn) : fn();
}

class LayerReplay {
 public:
  LayerReplay(const core::TransformResult& transform, std::size_t edges) {
    for (const http::Route& route : transform.replica.served_routes()) served_.insert(route);
    cloud_.service = std::make_unique<runtime::ServiceRuntime>(transform.cloud_source);
    cloud_.state = std::make_shared<runtime::ReplicaState>(
        "cloud", cloud_.service.get(), transform.replicated_files, transform.replicated_globals);
    cloud_.state->attach_existing();
    for (std::size_t e = 0; e < edges; ++e) {
      ReplayEndpoint edge;
      edge.service = std::make_unique<runtime::ServiceRuntime>(transform.replica.source);
      edge.state = std::make_shared<runtime::ReplicaState>(
          core::edge_host(e), edge.service.get(), transform.replicated_files,
          transform.replicated_globals);
      edge.state->initialize_from_snapshot(transform.init_snapshot);
      edges_.push_back(std::move(edge));
    }
  }

  /// The proxy's path, minus the network: serve at the edge when the route
  /// is replicated (falling back to the cloud on a handler failure), else
  /// at the cloud; then harvest the serving endpoint's ops. Returns false
  /// on a server error.
  bool request(const Op& op, std::uint64_t id, SpanRecorder* rec, ReplayCounts& counts) {
    const std::size_t parent = rec ? rec->begin("request", id) : SpanRecorder::kNone;
    const bool local = served_.count(http::Route{op.request.verb, op.request.path}) > 0;
    ReplayEndpoint* ep = local ? &edges_.at(op.edge) : &cloud_;
    runtime::ExecutionResult result = handle(*ep, op, id, parent, rec, counts);
    if (result.failed && ep != &cloud_) {
      ep = &cloud_;
      result = handle(*ep, op, id, parent, rec, counts);
    }
    const std::size_t ops = layer(rec, "runtime.harvest", id, parent,
                                  [&] { return ep->state->record_local(); });
    counts.requests += 1;
    if (op.write) {
      counts.writes += 1;
      counts.write_ops += double(ops);
    }
    if (rec) rec->end(parent);
    return !is_server_error(result.response);
  }

  /// Every star link in both directions: harvest, collect against the
  /// peer's versions, encode, decode, apply; then every endpoint's digest.
  /// Returns true when all digests agree.
  bool round(std::uint64_t id, SpanRecorder* rec, ReplayCounts& counts) {
    const std::size_t parent = rec ? rec->begin("round", id) : SpanRecorder::kNone;
    for (ReplayEndpoint& edge : edges_) {
      exchange(edge, cloud_, id, parent, rec, counts);
      exchange(cloud_, edge, id, parent, rec, counts);
    }
    const std::string cloud_digest =
        layer(rec, "runtime.digest", id, parent, [&] { return cloud_.state->state_digest(); });
    bool agree = true;
    for (ReplayEndpoint& edge : edges_) {
      agree &= layer(rec, "runtime.digest", id, parent,
                     [&] { return edge.state->state_digest(); }) == cloud_digest;
    }
    if (rec) rec->end(parent);
    return agree;
  }

 private:
  std::set<http::Route> served_;
  ReplayEndpoint cloud_;
  std::vector<ReplayEndpoint> edges_;

  runtime::ExecutionResult handle(ReplayEndpoint& ep, const Op& op, std::uint64_t id,
                                  std::size_t parent, SpanRecorder* rec, ReplayCounts& counts) {
    const std::uint64_t steps = ep.service->interpreter().steps();
    runtime::ExecutionResult result =
        layer(rec, "runtime.handle", id, parent, [&] { return ep.service->handle(op.request); });
    counts.steps += double(ep.service->interpreter().steps() - steps);
    return result;
  }

  void exchange(ReplayEndpoint& from, ReplayEndpoint& to, std::uint64_t id, std::size_t parent,
                SpanRecorder* rec, ReplayCounts& counts) {
    layer(rec, "runtime.harvest", id, parent, [&] { return from.state->record_local(); });
    const crdt::SyncMessage msg = layer(rec, "runtime.collect", id, parent, [&] {
      return from.state->collect_changes(to.state->versions());
    });
    const json::Value wire =
        layer(rec, "crdt.encode", id, parent, [&] { return crdt::encode_message(msg); });
    const crdt::SyncMessage decoded =
        layer(rec, "crdt.decode", id, parent, [&] { return crdt::decode_message(wire); });
    layer(rec, "runtime.apply", id, parent, [&] { return to.state->apply_message(decoded); });
    counts.messages += 1;
    counts.message_ops += double(msg.op_count());
    counts.message_bytes += double(wire.wire_size());
  }
};

/// Replays the episode's phases through LayerReplay; returns the summed
/// time of the traced request loops (the counterpart of busy_s).
double replay_episode(Result& r, const ServingShape& shape,
                      const std::vector<core::TransformResult>& transforms,
                      const std::vector<PhaseInputs>& inputs, SpanRecorder& rec,
                      ReplayCounts& counts) {
  double traced_s = 0;
  std::uint64_t op_id = 0;
  ReplayCounts untimed;  // preload and final convergence stay out of the counts
  for (std::size_t p = 0; p < shape.phases.size(); ++p) {
    LayerReplay replay(transforms[p], shape.edges);
    const PhaseInputs& in = inputs[p];
    for (std::size_t i = 0; i < in.preload.size(); ++i) {
      replay.request(in.preload[i], 0, nullptr, untimed);
      if ((i + 1) % kRequestsPerRound == 0) replay.round(0, nullptr, untimed);
    }
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      if (!replay.request(in.ops[i], ++op_id, &rec, counts)) {
        r.fail("replay: " + in.ops[i].request.path + " failed");
      }
      if ((i + 1) % kRequestsPerRound == 0) replay.round(++op_id, &rec, counts);
    }
    traced_s += seconds_since(t0);
    bool converged = false;
    for (int k = 0; k < kMaxConvergeRounds && !converged; ++k) {
      converged = replay.round(0, nullptr, untimed);
    }
    if (!converged) r.fail("replay: " + transforms[p].app_name + " did not converge");
  }
  return traced_s;
}

/// What set-up leaves for the episodes: each phase's transform and its
/// preloaded, converged deployment.
struct ServingSetup {
  std::vector<core::TransformResult> transforms;
  std::vector<std::unique_ptr<core::ThreeTierDeployment>> deployments;
};

Result run_serving(const std::string& name, const ServingShape& shape, const Options& opts) {
  Result r;
  r.workload = name;
  const std::vector<PhaseInputs> inputs = generate_inputs(shape, opts.seed);
  const core::DeploymentConfig config = deployment_config(shape, opts.seed);

  const ServingSetup setup = timed_setup(r, opts, [&] {
    ServingSetup out;
    for (std::size_t p = 0; p < shape.phases.size(); ++p) {
      out.transforms.push_back(transform_app(*shape.phases[p].app));
      if (!out.transforms.back().ok) break;
      out.deployments.push_back(build_phase(out.transforms.back(), config, inputs[p]));
    }
    return out;
  });
  for (const core::TransformResult& t : setup.transforms) {
    if (const std::string err = check_transform(t); !err.empty()) {
      r.fail(err);
      return r;
    }
  }

  const std::vector<Episode> eps = run_episodes(opts, [&] {
    Episode e;
    SimCounts sim;
    for (std::size_t p = 0; p < shape.phases.size(); ++p) {
      run_phase(e, sim, setup.transforms[p].app_name, *setup.deployments[p], inputs[p],
                *opts.reference);
    }
    e.sim = sim.metrics();
    return e;
  });
  report_episodes(r, eps, opts.trace);
  r.set("converge_ms", median(each(at_baseline_speed(eps), &Episode::converge_ms)));
  if (!opts.trace) return r;

  const std::vector<double> round_ms = median_per_position(eps, &Episode::round_ms);
  r.set("runtime.round_ms.p50", quantile(round_ms, 0.50));
  r.set("runtime.round_ms.p90", quantile(round_ms, 0.90));

  SpanRecorder rec;
  ReplayCounts counts;
  const double traced_s = replay_episode(r, shape, setup.transforms, inputs, rec, counts);
  const auto self = rec.self_us();
  report_shares(r, self, median(each(eps, &Episode::busy_s)), traced_s);
  for (const char* layer : kServingLayers) {
    auto it = self.find(layer);
    const std::vector<double> none;
    const std::vector<double>& calls = it == self.end() ? none : it->second;
    r.set(std::string(layer) + "_us.p50", quantile(calls, 0.50));
    r.set(std::string(layer) + "_us.p99", quantile(calls, 0.99));
  }
  r.set("minijs.steps_per_req", ratio(counts.steps, counts.requests));
  r.set("crdt.ops_per_write", ratio(counts.write_ops, counts.writes));
  r.set("crdt.ops_per_msg", ratio(counts.message_ops, counts.messages));
  r.set("crdt.bytes_per_msg", ratio(counts.message_bytes, counts.messages));
  if (!opts.trace_out.empty() && !rec.write_chrome_trace(opts.trace_out)) {
    r.fail("cannot write " + opts.trace_out);
  }
  return r;
}

ServingShape edge_read_shape(double scale) {
  ServingShape shape;
  shape.edges = 1;
  shape.zipf_salts = true;
  using http::Verb;
  shape.phases.push_back(Phase{&apps::sensor_hub(),
                               scaled(4000, scale),
                               {{Verb::kGet, "/summary", 50, false},
                                {Verb::kGet, "/alerts", 40, false},
                                {Verb::kPost, "/ingest", 8, true},
                                {Verb::kPost, "/threshold", 2, true}},
                               scaled(300, scale)});
  shape.phases.push_back(Phase{&apps::bookworm(),
                               scaled(10000, scale),
                               {{Verb::kGet, "/books", 18, false},
                                {Verb::kGet, "/book", 18, false},
                                {Verb::kGet, "/reviews", 18, false},
                                {Verb::kGet, "/recommend", 18, false},
                                {Verb::kGet, "/quotes", 18, false},
                                {Verb::kPost, "/review", 10, true}}});
  return shape;
}

ServingShape edge_write_shape(double scale) {
  ServingShape shape;
  shape.edges = 4;
  shape.zipf_salts = false;
  using http::Verb;
  shape.phases.push_back(Phase{&apps::sensor_hub(),
                               scaled(1000, scale),
                               {{Verb::kPost, "/ingest", 90, true},
                                {Verb::kPost, "/calibrate", 10, true}}});
  shape.phases.push_back(Phase{&apps::bookworm(),
                               scaled(1500, scale),
                               {{Verb::kPost, "/review", 50, true},
                                {Verb::kPost, "/shelf", 50, true}}});
  shape.phases.push_back(
      Phase{&apps::text_notes(), scaled(1000, scale), {{Verb::kPost, "/note", 100, true}}});
  return shape;
}

// ---- chaos ----------------------------------------------------------------

sim::ScheduleConfig chaos_config(std::uint64_t seed) {
  sim::ScheduleConfig config;  // variant checking on: three shadow engines
  config.seed = seed;
  config.durable = true;
  config.power_loss = true;
  return config;
}

/// Schedule seeds per episode: [--seed, --seed + kChaosSeeds).
constexpr std::size_t kChaosSeeds = 150;

Result run_chaos(const Options& opts) {
  Result r;
  r.workload = "chaos";
  // Set-up: the sensor-hub transform every schedule deploys, and a
  // one-round schedule that fills run_schedule's own transform cache.
  const core::TransformResult subject = timed_setup(r, opts, [&] {
    core::TransformResult t = transform_app(apps::sensor_hub());
    sim::ScheduleConfig warm = chaos_config(opts.seed);
    warm.rounds = 1;
    sim::run_schedule(warm);
    return t;
  });
  if (const std::string err = check_transform(subject); !err.empty()) r.fail(err);

  const std::size_t seeds = scaled(kChaosSeeds, opts.scale);
  const std::vector<Episode> eps = run_episodes(opts, [&] {
    Episode e;
    for (std::size_t j = 0; j < seeds; ++j) {
      e.time_host(*opts.reference);
      const Clock::time_point t0 = Clock::now();
      const sim::ScheduleResult result = sim::run_schedule(chaos_config(opts.seed + j));
      e.op_us.push_back(us_since(t0));
      ++e.attempted;
      if (!result.passed) e.fail(result.summary());
    }
    e.busy_s = sum(e.op_us) / 1e6;
    return e;
  });
  report_episodes(r, eps, opts.trace);
  if (!opts.trace) return r;

  // Telemetry replay: the same seeds through run_schedule with its exports
  // on, counts read back from the result and the metrics snapshot.
  SpanRecorder rec;
  double requests = 0, checks = 0, quiesce = 0, recovered = 0, truncated = 0, bytes = 0, hit = 0,
         miss = 0;
  for (std::size_t k = 0; k < seeds; ++k) {
    sim::ScheduleConfig config = chaos_config(opts.seed + k);
    config.capture_telemetry = true;
    const std::size_t parent = rec.begin("seed", k);
    const sim::ScheduleResult result =
        rec.timed(kChaosLayer, k, parent, [&] { return sim::run_schedule(config); });
    rec.end(parent);
    requests += double(result.requests);
    checks += double(result.variant_checks);
    quiesce += double(result.quiesce_rounds);
    recovered += double(result.recovered_ops);
    truncated += double(result.truncated_records);
    const json::Value counters = json::parse(result.metrics_snapshot)["counters"];
    const auto counter = [&](const char* key) {
      const json::Value* v = counters.find(key);
      return v ? v->as_number() : 0.0;
    };
    bytes += counter("sync.bytes.wire");
    hit += counter("sync.digest.hit");
    miss += counter("sync.digest.miss");
  }
  const auto self = rec.self_us();
  const double traced_s = sum(self.at(kChaosLayer)) / 1e6;
  report_shares(r, self, median(each(eps, &Episode::busy_s)), traced_s);
  const double n = double(seeds);
  r.set("sim.schedule_ms", traced_s * 1e3 / n);
  r.set("sim.requests_per_seed", requests / n);
  r.set("runtime.variant_checks_per_seed", checks / n);
  r.set("sim.quiesce_rounds_per_seed", quiesce / n);
  r.set("durability.recovered_ops_per_seed", recovered / n);
  r.set("durability.truncated_records_per_seed", truncated / n);
  r.set("sync.bytes_per_seed", bytes / n);
  r.set("runtime.digest_hit_rate", ratio(hit, hit + miss));
  if (!opts.trace_out.empty() && !rec.write_chrome_trace(opts.trace_out)) {
    r.fail("cannot write " + opts.trace_out);
  }
  return r;
}

// ---- command line ---------------------------------------------------------

const std::vector<std::string> kWorkloads = {"transform", "edge-read", "edge-write", "chaos"};

Result run_workload(const std::string& workload, const Options& opts) {
  Result r;
  try {
    if (workload == "transform") r = run_transform(opts);
    if (workload == "edge-read") r = run_serving(workload, edge_read_shape(opts.scale), opts);
    if (workload == "edge-write") r = run_serving(workload, edge_write_shape(opts.scale), opts);
    if (workload == "chaos") r = run_chaos(opts);
  } catch (const std::exception& e) {
    r.workload = workload;
    r.fail(std::string("exception: ") + e.what());
  }
  if (opts.trace) {
    // Layers a workload never reaches read 0, so every workload reports
    // the same per-layer set.
    for (const auto& [name, info] : spec().metrics) {
      if (info.layer) r.metrics.try_emplace(name, Metric{0, info.unit});
    }
  }
  return r;
}

void print_result(const Result& r) {
  std::printf("\n== %s: %llu ops attempted, %llu failed ==\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
  std::fflush(stdout);
}

json::Value result_json(const Result& r, const Options& opts) {
  json::Object metrics;
  for (const auto& [name, m] : r.metrics) {
    metrics.set(name, json::Value::object({{"value", m.value}, {"unit", m.unit}}));
  }
  json::Array failures(r.failures.begin(), r.failures.end());
  return json::Value::object({{"workload", r.workload},
                              {"seed", double(opts.seed)},
                              {"trace", opts.trace},
                              {"correct", r.failed == 0},
                              {"attempted", double(r.attempted)},
                              {"failed", double(r.failed)},
                              {"failures", json::Value(std::move(failures))},
                              {"metrics", json::Value(std::move(metrics))}});
}

json::Value run_and_print(const std::string& workload, const Options& opts) {
  const Result r = run_workload(workload, opts);
  print_result(r);
  return result_json(r, opts);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <transform|edge-read|edge-write|chaos|all>\n"
               "                 [--seed N] [--seconds S] [--trace] [--json PATH]\n"
               "       bench_e2e --smoke [--json PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string workload, json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  std::vector<std::string> workloads;
  if (smoke) {
    workloads = kWorkloads;
    opts.scale = 1.0 / 50;
    opts.seconds = 0;  // one episode each
    opts.setup_reps = 1;
    opts.trace = true;
  } else if (workload == "all") {
    workloads = kWorkloads;
  } else if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) != kWorkloads.end()) {
    workloads = {workload};
  } else {
    return usage();
  }
  std::unique_ptr<ReferenceTimer> reference;
  try {
    spec();
    reference = std::make_unique<ReferenceTimer>();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  opts.reference = reference.get();

  // out.json -> out.<workload>.trace.json
  std::string trace_stem = json_path;
  if (trace_stem.size() > 5 && trace_stem.compare(trace_stem.size() - 5, 5, ".json") == 0) {
    trace_stem.resize(trace_stem.size() - 5);
  }
  json::Array results;
  bool all_correct = true;
  for (const std::string& w : workloads) {
    Options run = opts;
    if (opts.trace && !json_path.empty()) run.trace_out = trace_stem + "." + w + ".trace.json";
    json::Value result;
    if (workloads.size() == 1) {
      result = run_and_print(w, run);
    } else {
      // Each workload in its own process, so its heap and peak_rss_mb
      // start as when it runs alone.
      try {
        result = in_child([&] { return run_and_print(w, run); });
      } catch (const std::exception& e) {
        Result crashed;
        crashed.workload = w;
        crashed.fail(e.what());
        print_result(crashed);
        result = result_json(crashed, run);
      }
    }
    all_correct &= result["correct"].as_bool();
    results.push_back(std::move(result));
  }
  if (!json_path.empty() &&
      !obs::write_text_file(json_path,
                            json::Value::object({{"results", json::Value(std::move(results))}})
                                    .dump_pretty() +
                                "\n")) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return all_correct ? 0 : 1;
}
