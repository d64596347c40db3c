#include <gtest/gtest.h>

#include <map>

#include "apps/app.h"
#include "json/parse.h"
#include "minijs/parser.h"
#include "minijs/printer.h"
#include "refactor/normalize.h"
#include "util/rng.h"

#include "trace/fuzzer.h"
#include "trace/rwlog.h"
#include "trace/state_capture.h"

namespace edgstr::trace {
namespace {

const char* kStatefulServer = R"JS(
var counter = 0;
var label = "none";
db.query("CREATE TABLE log (n, tag)");
fs.writeFile("models/m.bin", "weights");
app.post("/work", function (req, res) {
  var amount = req.params.amount;
  compute(50);
  counter = counter + amount;
  label = "did-" + amount;
  db.query("INSERT INTO log (n, tag) VALUES (?, ?)", [counter, label]);
  fs.appendFile("data/audit.log", str(amount));
  res.send({ counter: counter, got: amount });
});
app.get("/peek", function (req, res) {
  var q = req.params.q;
  res.send({ counter: counter, q: q });
});
)JS";

http::HttpRequest work_request(double amount) {
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/work";
  req.params = json::Value::object({{"amount", amount}});
  return req;
}

TEST(ValueDigestTest, EqualValuesEqualDigests) {
  const minijs::JsValue a = minijs::JsValue::from_json(json::parse(R"({"x":[1,2]})"));
  const minijs::JsValue b = minijs::JsValue::from_json(json::parse(R"({"x":[1,2]})"));
  const minijs::JsValue c = minijs::JsValue::from_json(json::parse(R"({"x":[1,3]})"));
  EXPECT_EQ(value_digest(a), value_digest(b));
  EXPECT_NE(value_digest(a), value_digest(c));
}

TEST(ValueDigestTest, BlobDigestTracksFingerprint) {
  EXPECT_NE(value_digest(minijs::JsValue(minijs::Blob{100, 1})),
            value_digest(minijs::JsValue(minijs::Blob{100, 2})));
  EXPECT_EQ(value_digest(minijs::JsValue(minijs::Blob{100, 1})),
            value_digest(minijs::JsValue(minijs::Blob{100, 1})));
}

// A random nested value from a small domain, so that many pairs render to
// the same JSON text: strings mixing a two-letter alphabet with arbitrary
// bytes, -0 next to 0, and empty arrays and objects. NaN and ±Infinity are
// left out: they render as null but keep their number bits in the digest.
minijs::JsValue random_value(util::Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth > 0 ? 5 : 3)) {
    case 0: return rng.chance(0.5) ? minijs::JsValue() : minijs::JsValue(rng.chance(0.5));
    case 1: {
      static const double kNumbers[] = {0.0, -0.0, 1.0, -1.5, 0.1, 1e15, 123456789012.0};
      return minijs::JsValue(kNumbers[rng.index(7)]);
    }
    case 2:
    case 3: {
      std::string s;
      const auto length = rng.uniform_int(0, 3);
      for (std::int64_t i = 0; i < length; ++i) {
        s.push_back(rng.chance(0.8) ? "ab"[rng.index(2)] : static_cast<char>(rng.uniform_int(0, 255)));
      }
      return minijs::JsValue(std::move(s));
    }
    case 4: {
      minijs::JsArray items;
      const auto length = rng.uniform_int(0, 2);
      for (std::int64_t i = 0; i < length; ++i) items.push_back(random_value(rng, depth - 1));
      return minijs::JsValue::new_array(std::move(items));
    }
    default: {
      minijs::JsValue obj = minijs::JsValue::new_object();
      const auto length = rng.uniform_int(0, 2);
      for (std::int64_t i = 0; i < length; ++i) {
        obj.as_object()->set(rng.chance(0.5) ? "k" : "\x01\xff", random_value(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST(ValueDigestTest, JsonEqualValuesDigestEqualProperty) {
  std::map<std::string, std::uint64_t> digest_of_text;
  std::map<std::uint64_t, std::string> text_of_digest;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    util::Rng rng(seed);
    const minijs::JsValue value = random_value(rng, 3);
    const std::string text = value.to_json().dump();
    const std::uint64_t digest = value_digest(value);
    EXPECT_EQ(value_digest(value), digest) << "seed " << seed;  // bodies now hashed
    // The same value through fresh, never-hashed bodies.
    const minijs::JsValue fresh = minijs::JsValue::from_json(json::parse(text));
    ASSERT_EQ(fresh.to_json().dump(), text) << "seed " << seed;
    EXPECT_EQ(value_digest(fresh), digest) << "seed " << seed << ": " << text;
    // JSON-equal <=> digest-equal across every value drawn.
    const auto [it, fresh_text] = digest_of_text.emplace(text, digest);
    EXPECT_EQ(it->second, digest) << "seed " << seed << ": " << text;
    const auto [jt, fresh_digest] = text_of_digest.emplace(digest, text);
    EXPECT_EQ(jt->second, text) << "seed " << seed << ": digest collision";
  }
  EXPECT_LT(digest_of_text.size(), 400u) << "no two values were JSON-equal";
}

TEST(ValueDigestTest, StringDigestCoversEveryByteValue) {
  std::map<std::uint64_t, int> seen;
  for (int b = 0; b < 256; ++b) {
    const std::string s = "x" + std::string(1, static_cast<char>(b)) + "y";
    const minijs::JsValue value(s);
    const std::uint64_t digest = value_digest(value);
    EXPECT_EQ(value_digest(minijs::JsValue(util::make_text(s))), digest) << "byte " << b;
    EXPECT_EQ(value_digest(minijs::JsValue::from_json(json::Value(s))), digest) << "byte " << b;
    EXPECT_TRUE(seen.emplace(digest, b).second) << "byte " << b << " collides";
  }
  // Type tags keep a string apart from the number it spells and "" apart
  // from null; -0 keeps its sign, as its JSON text does.
  EXPECT_NE(value_digest(minijs::JsValue("1")), value_digest(minijs::JsValue(1.0)));
  EXPECT_NE(value_digest(minijs::JsValue("")), value_digest(minijs::JsValue()));
  EXPECT_NE(value_digest(minijs::JsValue(0.0)), value_digest(minijs::JsValue(-0.0)));
  EXPECT_NE(value_digest(minijs::JsValue::new_array()), value_digest(minijs::JsValue::new_object()));
}

TEST(RwCollectorTest, CapturesEventsAndFlows) {
  ProfilingHarness harness(kStatefulServer);
  RwCollector collector;
  harness.invoke(http::Route{http::Verb::kPost, "/work"}, work_request(5), &collector);

  // amount written (declare), then read when computing counter.
  bool amount_written = false, amount_read = false;
  for (const RwEvent& e : collector.events()) {
    if (e.name() == "amount" && e.kind == RwEvent::Kind::kWrite) amount_written = true;
    if (e.name() == "amount" && e.kind == RwEvent::Kind::kRead) amount_read = true;
  }
  EXPECT_TRUE(amount_written);
  EXPECT_TRUE(amount_read);

  // Dynamic flow edge: reader of 'amount' linked to its writer statement.
  bool flow_found = false;
  for (const FlowEdge& edge : collector.flow_edges()) {
    if (edge.variable() == "amount") flow_found = true;
  }
  EXPECT_TRUE(flow_found);
  EXPECT_FALSE(collector.executed_statements().empty());
}

TEST(RwCollectorTest, ClassifiesSqlInvocations) {
  ProfilingHarness harness(kStatefulServer);
  RwCollector collector;
  harness.invoke(http::Route{http::Verb::kPost, "/work"}, work_request(5), &collector);
  ASSERT_EQ(collector.sql_events().size(), 1u);
  EXPECT_EQ(collector.sql_events()[0].table, "log");
  EXPECT_TRUE(collector.sql_events()[0].mutation);
}

TEST(RwCollectorTest, ClassifiesFileInvocations) {
  ProfilingHarness harness(kStatefulServer);
  RwCollector collector;
  harness.invoke(http::Route{http::Verb::kPost, "/work"}, work_request(5), &collector);
  ASSERT_EQ(collector.file_events().size(), 1u);
  EXPECT_EQ(collector.file_events()[0].path, "data/audit.log");
  EXPECT_TRUE(collector.file_events()[0].write);
}

TEST(RwCollectorTest, ClearResets) {
  RwCollector collector;
  collector.on_write(1, util::intern("x"), minijs::JsValue(1.0));
  collector.clear();
  EXPECT_TRUE(collector.events().empty());
  EXPECT_TRUE(collector.flow_edges().empty());
}

TEST(StateCaptureTest, SnapshotCoversAllThreeUnits) {
  ProfilingHarness harness(kStatefulServer);
  const Snapshot& snap = harness.init_snapshot();
  EXPECT_TRUE(snap.globals.count("counter"));
  EXPECT_TRUE(snap.globals.count("label"));
  EXPECT_FALSE(snap.globals.count("app"));  // builtins excluded
  EXPECT_EQ(snap.tables.size(), 1u);
  EXPECT_TRUE(snap.files.count("models/m.bin"));
  EXPECT_GT(snap.size_bytes(), 0u);
  // size_bytes arithmetic must match the serializer exactly.
  EXPECT_EQ(snap.size_bytes(), snap.to_json().wire_size());
  // Round trip through JSON.
  const Snapshot back = Snapshot::from_json(snap.to_json());
  EXPECT_EQ(back.globals_json(), snap.globals_json());
  EXPECT_EQ(back.to_json(), snap.to_json());
  EXPECT_EQ(back.size_bytes(), snap.size_bytes());
}

TEST(StateCaptureTest, GlobalsExcludeFunctions) {
  ProfilingHarness harness("function f() { return 1; } var x = 2;");
  const json::Value globals = capture_globals(harness.interpreter());
  EXPECT_TRUE(globals.find("x"));
  EXPECT_FALSE(globals.find("f"));
}

TEST(StateCaptureTest, IsolationRestoresInitAroundExecution) {
  ProfilingHarness harness(kStatefulServer);
  const http::Route route{http::Verb::kPost, "/work"};

  auto first = harness.invoke_isolated(route, work_request(5));
  auto second = harness.invoke_isolated(route, work_request(5));
  // Stateful service, but isolation makes executions identical.
  EXPECT_EQ(first.response.body, second.response.body);
  EXPECT_DOUBLE_EQ(first.response.body["counter"].as_number(), 5.0);
  EXPECT_DOUBLE_EQ(first.compute_units, 50.0);

  // After isolation, live state equals init state.
  const Snapshot now = harness.capture();
  EXPECT_EQ(now.globals_json(), harness.init_snapshot().globals_json());
  EXPECT_EQ(now.database_json(), harness.init_snapshot().database_json());
  EXPECT_TRUE(diff_snapshots(harness.init_snapshot(), now).empty());
}

TEST(StateCaptureTest, DiffDetectsEachUnit) {
  ProfilingHarness harness(kStatefulServer);
  const auto result =
      harness.invoke_isolated(http::Route{http::Verb::kPost, "/work"}, work_request(3));
  EXPECT_EQ(result.state_diff.changed_tables, (std::set<std::string>{"log"}));
  EXPECT_EQ(result.state_diff.changed_files, (std::set<std::string>{"data/audit.log"}));
  EXPECT_EQ(result.state_diff.changed_globals, (std::set<std::string>{"counter", "label"}));
  EXPECT_FALSE(result.state_diff.empty());
  EXPECT_EQ(result.state_diff.total(), 4u);
}

TEST(StateCaptureTest, SnapshotsRestoreAcrossHarnessesByStampOrContent) {
  const http::Route route{http::Verb::kPost, "/work"};
  ProfilingHarness a(kStatefulServer), b(kStatefulServer);
  a.invoke(route, work_request(4));
  const Snapshot moved = a.capture();

  // Stamps are process-wide, so another harness restores a's snapshot by
  // stamp: the copied table keeps a's stamp, and nothing reads as changed.
  b.restore(moved);
  EXPECT_EQ(b.database().table_epoch("log"), a.database().table_epoch("log"));
  EXPECT_EQ(b.capture().to_json(), moved.to_json());
  EXPECT_TRUE(diff_snapshots(moved, b.capture()).empty());

  // Stamp 0 (a snapshot read back from JSON) restores by content, even over
  // state whose stamps are all different.
  b.invoke(route, work_request(9));
  const Snapshot foreign = Snapshot::from_json(moved.to_json());
  b.restore(foreign);
  EXPECT_EQ(b.capture().to_json(), moved.to_json());
  EXPECT_TRUE(diff_snapshots(foreign, b.capture()).empty());
  EXPECT_TRUE(diff_snapshots(moved, b.capture()).empty());
}

TEST(StateCaptureTest, ReadOnlyServiceHasEmptyDiff) {
  ProfilingHarness harness(kStatefulServer);
  http::HttpRequest req;
  req.verb = http::Verb::kGet;
  req.path = "/peek";
  req.params = json::Value::object({{"q", 1}});
  const auto result = harness.invoke_isolated(http::Route{http::Verb::kGet, "/peek"}, req);
  EXPECT_TRUE(result.state_diff.empty());
}

// size_bytes() sizes on demand from the shared components; it must equal
// the serializer byte for byte at every point of a harness's life, and a
// cow=false harness (whole-state captures) must report the same size.
TEST(SnapshotSizeTest, SizeOnDemandMatchesSerializedSnapshotForEveryApp) {
  HarnessOptions full;
  full.cow = false;
  for (const apps::SubjectApp* app : apps::all_subject_apps()) {
    SCOPED_TRACE(app->name);
    const std::string source =
        minijs::print_program(refactor::normalize(minijs::parse_program(app->server_source)));
    ProfilingHarness cow(source);
    ProfilingHarness copy(source, minijs::InterpreterConfig(), full);
    const auto check = [](const Snapshot& snap, const Snapshot& reference) {
      EXPECT_EQ(snap.size_bytes(), snap.to_json().wire_size());
      EXPECT_EQ(snap.size_bytes(), reference.size_bytes());
    };
    check(cow.init_snapshot(), copy.init_snapshot());
    for (const http::HttpRequest& request : app->workload) {
      const http::Route route{request.verb, request.path};
      for (ProfilingHarness* harness : {&cow, &copy}) {
        try {
          harness->invoke(route, request);
        } catch (const minijs::JsError&) {
          // A failed request still leaves whatever state it wrote.
        }
      }
      check(cow.capture(), copy.capture());
    }
    cow.restore_init();
    copy.restore_init();
    check(cow.capture(), copy.capture());
    EXPECT_EQ(cow.capture().size_bytes(), cow.init_snapshot().size_bytes());
  }
}

TEST(FuzzerTest, PerturbChangesEveryComponent) {
  http::HttpRequest req;
  req.params = json::Value::object({{"n", 5}, {"s", "text"}, {"flag", true},
                                    {"arr", json::Value::array({1, 2})}});
  req.payload_bytes = 1000;
  const http::HttpRequest fz = Fuzzer::perturb(req, 3);
  EXPECT_DOUBLE_EQ(fz.params["n"].as_number(), 8.0);
  EXPECT_EQ(fz.params["s"].as_string(), "text_fz3");
  EXPECT_NE(fz.payload_bytes, req.payload_bytes);
  // Salt 0 replays unmodified.
  const http::HttpRequest same = Fuzzer::perturb(req, 0);
  EXPECT_EQ(same.params, req.params);
  EXPECT_EQ(same.payload_bytes, req.payload_bytes);
}

TEST(FuzzerTest, ComponentDigestsCoverParamsAndPayload) {
  http::HttpRequest req;
  req.params = json::Value::object({{"a", 1}, {"b", "x"}});
  req.payload_bytes = 512;
  const auto digests = request_component_digests(req);
  EXPECT_TRUE(digests.count("params"));
  EXPECT_TRUE(digests.count("params.a"));
  EXPECT_TRUE(digests.count("params.b"));
  EXPECT_TRUE(digests.count("payload"));
}

TEST(FuzzerTest, FuzzProducesIsolatedInstrumentedRuns) {
  ProfilingHarness harness(kStatefulServer);
  http::ServiceProfile profile;
  profile.route = {http::Verb::kPost, "/work"};
  profile.exemplar_params.push_back(json::Value::object({{"amount", 5}}));
  profile.exemplar_results.push_back(json::Value());
  profile.invocation_count = 1;
  profile.request_bytes_total = work_request(5).wire_size();

  Fuzzer fuzzer(harness, util::Rng(7));
  const FuzzReport report = fuzzer.fuzz(profile, 4);
  ASSERT_EQ(report.runs.size(), 4u);
  // Responses vary with the fuzzed parameter.
  EXPECT_NE(report.runs[0].response_digest, report.runs[1].response_digest);
  // All runs executed the same statements (no divergent control flow here).
  EXPECT_EQ(report.common_statements().size(), report.runs[0].executed_statements.size());
  // Isolation: every run starts from counter == 0.
  for (const FuzzRun& run : report.runs) {
    EXPECT_DOUBLE_EQ(run.response.body["counter"].as_number(),
                     run.request.params["amount"].as_number());
  }
}

TEST(FuzzerTest, FuzzRequiresExemplar) {
  ProfilingHarness harness(kStatefulServer);
  Fuzzer fuzzer(harness, util::Rng(7));
  http::ServiceProfile empty;
  empty.route = {http::Verb::kPost, "/work"};
  EXPECT_THROW(fuzzer.fuzz(empty, 3), std::invalid_argument);
}

}  // namespace
}  // namespace edgstr::trace
