#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "apps/app.h"
#include "minijs/interpreter.h"
#include "json/parse.h"
#include "minijs/lexer.h"
#include "minijs/parser.h"
#include "minijs/printer.h"

namespace edgstr::minijs {
namespace {

/// Runs a program that must end with `app.get("/t", ...)` and invokes it.
json::Value run_service(const std::string& source, json::Value params = json::Value::object({}),
                        std::uint64_t payload = 0) {
  Interpreter interp(parse_program(source));
  sqldb::Database db;
  vfs::Vfs fs;
  interp.bind_database(&db);
  interp.bind_vfs(&fs);
  interp.run_toplevel();
  http::HttpRequest req;
  req.verb = http::Verb::kGet;
  req.path = "/t";
  req.params = std::move(params);
  req.payload_bytes = payload;
  return interp.invoke(http::Route{http::Verb::kGet, "/t"}, req).body;
}

/// Evaluates an expression via a trivial service.
json::Value eval_expr(const std::string& expr) {
  return run_service("app.get(\"/t\", function (req, res) { res.send(" + expr + "); });");
}

TEST(MiniJsLexer, RejectsBadInput) {
  EXPECT_THROW(lex("var x = 'unterminated"), LexError);
  EXPECT_THROW(lex("@"), LexError);
  EXPECT_THROW(lex("/* never closed"), LexError);
}

TEST(MiniJsLexer, CommentsAndKeywords) {
  const auto tokens = lex("// line\nvar x; /* block */ let y; const z;");
  int var_count = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kVar) ++var_count;
  }
  EXPECT_EQ(var_count, 3);  // var/let/const all map to kVar
}

TEST(MiniJsParser, RejectsMalformed) {
  EXPECT_THROW(parse_program("var = 3;"), ParseError);
  EXPECT_THROW(parse_program("if (x {"), ParseError);
  EXPECT_THROW(parse_program("function () {}"), ParseError);  // decl needs name
  EXPECT_THROW(parse_program("1 = 2;"), ParseError);          // bad assign target
}

TEST(MiniJsParser, StatementIdsAreUniqueAndDense) {
  Program prog = parse_program("var a = 1; function f(x) { return x; } if (a) { f(a); }");
  std::set<int> ids;
  visit_statements(prog, [&](const StmtPtr& s) { ids.insert(s->id); });
  EXPECT_EQ(static_cast<int>(ids.size()), prog.next_stmt_id - 1);
}

TEST(MiniJsInterp, Arithmetic) {
  EXPECT_DOUBLE_EQ(eval_expr("1 + 2 * 3").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(eval_expr("(1 + 2) * 3").as_number(), 9.0);
  EXPECT_DOUBLE_EQ(eval_expr("10 % 3").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(eval_expr("-4 + 1").as_number(), -3.0);
  EXPECT_DOUBLE_EQ(eval_expr("7 / 2").as_number(), 3.5);
}

TEST(MiniJsInterp, StringConcatAndComparison) {
  EXPECT_EQ(eval_expr("\"a\" + \"b\" + 3").as_string(), "ab3");
  EXPECT_EQ(eval_expr("\"a\" < \"b\"").as_bool(), true);
  EXPECT_EQ(eval_expr("\"abc\" == \"abc\"").as_bool(), true);
}

TEST(MiniJsInterp, LogicShortCircuits) {
  // RHS would throw if evaluated.
  EXPECT_EQ(eval_expr("false && missingVar").as_bool(), false);
  EXPECT_EQ(eval_expr("true || missingVar").as_bool(), true);
  EXPECT_EQ(eval_expr("!0").as_bool(), true);
  EXPECT_EQ(eval_expr("1 ? \"y\" : \"n\"").as_string(), "y");
}

TEST(MiniJsInterp, ControlFlow) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var total = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) { continue; }
        if (i > 7) { break; }
        total = total + i;
      }
      var w = 0;
      while (w < 3) { w = w + 1; }
      res.send({ total: total, w: w });
    });
  )JS");
  EXPECT_DOUBLE_EQ(v["total"].as_number(), 1 + 3 + 5 + 7);
  EXPECT_DOUBLE_EQ(v["w"].as_number(), 3);
}

TEST(MiniJsInterp, FunctionsAndClosures) {
  const json::Value v = run_service(R"JS(
    function makeCounter() {
      var n = 0;
      return function () { n = n + 1; return n; };
    }
    var c = makeCounter();
    app.get("/t", function (req, res) {
      c(); c();
      res.send({ n: c() });
    });
  )JS");
  EXPECT_DOUBLE_EQ(v["n"].as_number(), 3);
}

TEST(MiniJsInterp, ThrowAndCatch) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var caught = "";
      try {
        throw "boom";
      } catch (e) {
        caught = e;
      }
      res.send({ caught: caught });
    });
  )JS");
  EXPECT_EQ(v["caught"].as_string(), "boom");
}

TEST(MiniJsInterp, UncaughtThrowSurfacesAsJsError) {
  Interpreter interp(parse_program(
      "app.get(\"/t\", function (req, res) { throw \"bad\"; });"));
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  EXPECT_THROW(interp.invoke(http::Route{http::Verb::kGet, "/t"}, req), JsError);
}

TEST(MiniJsInterp, MissingResSendIsAnError) {
  Interpreter interp(parse_program("app.get(\"/t\", function (req, res) { var x = 1; });"));
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  EXPECT_THROW(interp.invoke(http::Route{http::Verb::kGet, "/t"}, req), JsError);
}

TEST(MiniJsInterp, ArraysAndMethods) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var a = [3, 1, 2];
      a.push(4);
      var doubled = a.map(function (x) { return x * 2; });
      var big = a.filter(function (x) { return x >= 2; });
      res.send({
        len: a.length, joined: a.join("-"), idx: a.indexOf(2),
        doubled: doubled, big: big, slice: a.slice(1, 3), popped: a.pop()
      });
    });
  )JS");
  EXPECT_DOUBLE_EQ(v["len"].as_number(), 4);
  EXPECT_EQ(v["joined"].as_string(), "3-1-2-4");
  EXPECT_DOUBLE_EQ(v["idx"].as_number(), 2);
  EXPECT_EQ(v["doubled"].dump(), "[6,2,4,8]");
  EXPECT_EQ(v["big"].dump(), "[3,2,4]");
  EXPECT_EQ(v["slice"].dump(), "[1,2]");
  EXPECT_DOUBLE_EQ(v["popped"].as_number(), 4);
}

TEST(MiniJsInterp, StringMethods) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var s = " Hello World ";
      res.send({
        trim: s.trim(), up: s.trim().toUpperCase(), low: s.trim().toLowerCase(),
        parts: s.trim().split(" "), sub: s.trim().substring(0, 5),
        has: s.includes("World"), starts: s.trim().startsWith("Hello"),
        code: "A".charCodeAt(0)
      });
    });
  )JS");
  EXPECT_EQ(v["trim"].as_string(), "Hello World");
  EXPECT_EQ(v["up"].as_string(), "HELLO WORLD");
  EXPECT_EQ(v["parts"].dump(), R"(["Hello","World"])");
  EXPECT_EQ(v["sub"].as_string(), "Hello");
  EXPECT_TRUE(v["has"].as_bool());
  EXPECT_TRUE(v["starts"].as_bool());
  EXPECT_DOUBLE_EQ(v["code"].as_number(), 65);
}

TEST(MiniJsInterp, ObjectsAndIndexing) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var o = { a: 1, nested: { b: 2 } };
      o.c = 3;
      o["d"] = 4;
      o.nested.b = o.nested.b + 10;
      res.send({ o: o, keys: keys(o), missing: o.zzz });
    });
  )JS");
  EXPECT_DOUBLE_EQ(v["o"]["c"].as_number(), 3);
  EXPECT_DOUBLE_EQ(v["o"]["d"].as_number(), 4);
  EXPECT_DOUBLE_EQ(v["o"]["nested"]["b"].as_number(), 12);
  EXPECT_EQ(v["keys"].dump(), R"(["a","nested","c","d"])");
  EXPECT_TRUE(v["missing"].is_null());
}

TEST(MiniJsInterp, IncrementDecrementDesugar) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var x = 5;
      x++;
      ++x;
      x--;
      var y = 0;
      for (var i = 0; i < 3; i++) { y += 2; }
      y -= 1;
      res.send({ x: x, y: y });
    });
  )JS");
  EXPECT_DOUBLE_EQ(v["x"].as_number(), 6);
  EXPECT_DOUBLE_EQ(v["y"].as_number(), 5);
}

TEST(MiniJsInterp, BuiltinsJsonMathLen) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var obj = JSON.parse("{\"k\": [1, 2]}");
      res.send({
        str: JSON.stringify({ a: 1 }),
        k0: obj.k[0],
        fl: Math.floor(2.7), ce: Math.ceil(2.1), mx: Math.max(1, 5, 3),
        mn: Math.min(4, 2), pw: Math.pow(2, 10), ab: Math.abs(-3),
        ln: len([1, 2, 3]), s: str(42), n: num("3.5"), pi: parseInt("7.9")
      });
    });
  )JS");
  EXPECT_EQ(v["str"].as_string(), "{\"a\":1}");
  EXPECT_DOUBLE_EQ(v["k0"].as_number(), 1);
  EXPECT_DOUBLE_EQ(v["fl"].as_number(), 2);
  EXPECT_DOUBLE_EQ(v["ce"].as_number(), 3);
  EXPECT_DOUBLE_EQ(v["mx"].as_number(), 5);
  EXPECT_DOUBLE_EQ(v["mn"].as_number(), 2);
  EXPECT_DOUBLE_EQ(v["pw"].as_number(), 1024);
  EXPECT_DOUBLE_EQ(v["ab"].as_number(), 3);
  EXPECT_DOUBLE_EQ(v["ln"].as_number(), 3);
  EXPECT_EQ(v["s"].as_string(), "42");
  EXPECT_DOUBLE_EQ(v["n"].as_number(), 3.5);
  EXPECT_DOUBLE_EQ(v["pi"].as_number(), 7);
}

TEST(MiniJsInterp, BlobsCarrySizeAndFingerprint) {
  Interpreter interp(parse_program(R"JS(
    app.post("/b", function (req, res) {
      var img = req.payload;
      res.send({ size: img.size, h1: blobHash(img, "m"), h2: blobHash(img, "m") });
    });
  )JS"));
  interp.run_toplevel();
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/b";
  req.payload_bytes = 12345;
  const auto resp = interp.invoke(http::Route{http::Verb::kPost, "/b"}, req);
  EXPECT_DOUBLE_EQ(resp.body["size"].as_number(), 12345);
  EXPECT_EQ(resp.body["h1"], resp.body["h2"]);  // deterministic

  http::HttpRequest req2 = req;
  req2.payload_bytes = 54321;
  const auto resp2 = interp.invoke(http::Route{http::Verb::kPost, "/b"}, req2);
  EXPECT_FALSE(resp.body["h1"] == resp2.body["h1"]);  // input-dependent
}

TEST(MiniJsInterp, BlobsInResponseBecomePayloadBytes) {
  Interpreter interp(parse_program(R"JS(
    app.get("/t", function (req, res) {
      res.send({ thumb: blob(2048, 7), note: "ok" });
    });
  )JS"));
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  const auto resp = interp.invoke(http::Route{http::Verb::kGet, "/t"}, req);
  EXPECT_EQ(resp.payload_bytes, 2048u);
  EXPECT_EQ(resp.body["note"].as_string(), "ok");
}

TEST(MiniJsInterp, ComputeUnitsAccrue) {
  Interpreter interp(parse_program(
      "app.get(\"/t\", function (req, res) { compute(25); compute(17); res.send({ok:1}); });"));
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  interp.invoke(http::Route{http::Verb::kGet, "/t"}, req);
  EXPECT_DOUBLE_EQ(interp.drain_compute_units(), 42.0);
  EXPECT_DOUBLE_EQ(interp.drain_compute_units(), 0.0);
}

TEST(MiniJsInterp, StepLimitStopsRunawayLoops) {
  InterpreterConfig cfg;
  cfg.max_steps = 10000;
  Interpreter interp(parse_program(
      "app.get(\"/t\", function (req, res) { while (true) { var x = 1; } });"), cfg);
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  EXPECT_THROW(interp.invoke(http::Route{http::Verb::kGet, "/t"}, req), JsError);
}

TEST(MiniJsInterp, UndefinedVariableThrows) {
  Interpreter interp(parse_program("var x = ghost + 1;"));
  EXPECT_THROW(interp.run_toplevel(), JsError);
}

TEST(MiniJsInterp, AssignToUndeclaredThrows) {
  Interpreter interp(parse_program("typo = 3;"));
  EXPECT_THROW(interp.run_toplevel(), JsError);
}

TEST(MiniJsInterp, RoutesRegisteredForAllVerbs) {
  Interpreter interp(parse_program(R"JS(
    app.get("/a", function (req, res) { res.send(1); });
    app.post("/a", function (req, res) { res.send(2); });
    app.put("/b", function (req, res) { res.send(3); });
    app.delete("/c", function (req, res) { res.send(4); });
  )JS"));
  interp.run_toplevel();
  EXPECT_EQ(interp.routes().size(), 4u);
  EXPECT_TRUE(interp.has_route({http::Verb::kDelete, "/c"}));
  EXPECT_FALSE(interp.has_route({http::Verb::kGet, "/c"}));
}

TEST(MiniJsInterp, UnknownRouteGives404) {
  Interpreter interp(parse_program("var x = 1;"));
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/none";
  EXPECT_EQ(interp.invoke(http::Route{http::Verb::kGet, "/none"}, req).status, 404);
}

TEST(MiniJsInterp, MathRandomIsSeededDeterministic) {
  auto run = [] {
    InterpreterConfig cfg;
    cfg.rng_seed = 99;
    Interpreter interp(parse_program(
        "app.get(\"/t\", function (req, res) { res.send({ r: Math.random() }); });"), cfg);
    interp.run_toplevel();
    http::HttpRequest req;
    req.path = "/t";
    return interp.invoke(http::Route{http::Verb::kGet, "/t"}, req).body["r"].as_number();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(MiniJsInterp, ConsoleOutputCaptured) {
  Interpreter interp(parse_program("console.log(\"boot\", 42);"));
  interp.run_toplevel();
  ASSERT_EQ(interp.console_output().size(), 1u);
  EXPECT_EQ(interp.console_output()[0], "boot 42");
}

TEST(MiniJsPrinter, PrintParseFixpoint) {
  const std::string source = R"JS(
    var g = 10;
    function f(a, b) {
      if (a > b) { return a - b; } else { return b - a; }
    }
    app.get("/t", function (req, res) {
      var acc = [];
      for (var i = 0; i < g; i = i + 1) {
        acc.push(f(i, 5));
      }
      res.send({ acc: acc, flag: g > 5 ? "hi" : "lo" });
    });
  )JS";
  const std::string printed1 = print_program(parse_program(source));
  const std::string printed2 = print_program(parse_program(printed1));
  EXPECT_EQ(printed1, printed2);
}

TEST(MiniJsAst, CloneIsDeep) {
  Program prog = parse_program("var a = { k: [1, 2] };");
  Program copy = prog.clone();
  copy.body[0]->name = "changed";
  copy.body[0]->expr->entries[0].second->args[0]->number = 99;
  EXPECT_EQ(prog.body[0]->name, "a");
  EXPECT_DOUBLE_EQ(prog.body[0]->expr->entries[0].second->args[0]->number, 1.0);
}

TEST(MiniJsAst, RenumberAndFind) {
  Program prog = parse_program("var a = 1; var b = 2;");
  renumber_statements(prog, 100);
  EXPECT_EQ(prog.body[0]->id, 100);
  EXPECT_EQ(prog.body[1]->id, 101);
  EXPECT_EQ(find_statement(prog, 101)->name, "b");
  EXPECT_EQ(find_statement(prog, 999), nullptr);
}

TEST(MiniJsValue, DeepCopyDecouplesContainers) {
  auto arr = std::make_shared<JsArray>();
  arr->push_back(JsValue(1.0));
  JsValue original{arr};
  JsValue copy = original.deep_copy();
  copy.as_array()->push_back(JsValue(2.0));
  EXPECT_EQ(original.as_array()->size(), 1u);
}

TEST(MiniJsValue, EqualsIsStructural) {
  JsValue a = JsValue::from_json(json::parse(R"({"x":[1,{"y":2}]})"));
  JsValue b = JsValue::from_json(json::parse(R"({"x":[1,{"y":2}]})"));
  JsValue c = JsValue::from_json(json::parse(R"({"x":[1,{"y":3}]})"));
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
}

TEST(MiniJsValue, JsonRoundTripWithBlob) {
  Blob blob{4096, 777};
  auto obj = std::make_shared<JsObject>();
  obj->set("img", JsValue(blob));
  obj->set("n", JsValue(1.5));
  const JsValue v{obj};
  const JsValue back = JsValue::from_json(v.to_json());
  EXPECT_TRUE(back.as_object()->get("img").is_blob());
  EXPECT_EQ(back.as_object()->get("img").as_blob().size, 4096u);
  EXPECT_EQ(back.as_object()->get("img").as_blob().fingerprint, 777u);
}

}  // namespace
}  // namespace edgstr::minijs
// NOTE: appended suite — interpreter resource guards.
namespace edgstr::minijs {
namespace {

TEST(MiniJsInterp, RecursionDepthGuard) {
  InterpreterConfig cfg;
  cfg.max_call_depth = 64;
  Interpreter interp(parse_program(R"JS(
    function spiral(n) { return spiral(n + 1); }
    app.get("/t", function (req, res) { res.send({ v: spiral(0) }); });
  )JS"), cfg);
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  try {
    interp.invoke(http::Route{http::Verb::kGet, "/t"}, req);
    FAIL() << "expected JsError";
  } catch (const JsError& err) {
    EXPECT_NE(std::string(err.what()).find("call depth"), std::string::npos);
  }
}

TEST(MiniJsInterp, BoundedRecursionStillWorks) {
  InterpreterConfig cfg;
  cfg.max_call_depth = 64;
  Interpreter interp(parse_program(R"JS(
    function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); }
    app.get("/t", function (req, res) { res.send({ v: fact(10) }); });
  )JS"), cfg);
  interp.run_toplevel();
  http::HttpRequest req;
  req.path = "/t";
  const auto resp = interp.invoke(http::Route{http::Verb::kGet, "/t"}, req);
  EXPECT_DOUBLE_EQ(resp.body["v"].as_number(), 3628800.0);
}

TEST(MiniJsInterp, DepthResetsAfterGuardTrips) {
  // A failed (too-deep) invocation must not poison the next one.
  InterpreterConfig cfg;
  cfg.max_call_depth = 16;
  Interpreter interp(parse_program(R"JS(
    function deep(n) { return n == 0 ? 0 : deep(n - 1); }
    app.get("/deep", function (req, res) { res.send({ v: deep(req.params.n) }); });
  )JS"), cfg);
  interp.run_toplevel();
  http::HttpRequest bad;
  bad.path = "/deep";
  bad.params = json::Value::object({{"n", 1000}});
  EXPECT_THROW(interp.invoke(http::Route{http::Verb::kGet, "/deep"}, bad), JsError);
  http::HttpRequest ok;
  ok.path = "/deep";
  ok.params = json::Value::object({{"n", 5}});
  EXPECT_DOUBLE_EQ(
      interp.invoke(http::Route{http::Verb::kGet, "/deep"}, ok).body["v"].as_number(), 0.0);
}

// The step budget is per entry point, not per interpreter lifetime: a
// long-lived service keeps serving after its total steps pass many budgets,
// a runaway handler still trips the guard, and a native that calls back into
// the interpreter does not start a fresh budget. Callers and callees share
// the budget, so both engines trip it at the same step.
TEST(MiniJsInterp, StepBudgetIsPerEntryPoint) {
  for (const bool vm : {false, true}) {
    SCOPED_TRACE(vm ? "vm" : "tree-walker");
    InterpreterConfig cfg;
    cfg.max_steps = 50'000;
    cfg.vm = vm;
    Interpreter interp(parse_program(R"JS(
      app.get("/work", function (req, res) {
        var s = 0;
        for (var i = 0; i < 200; i = i + 1) { s = s + i; }
        res.send({ s: s });
      });
      app.get("/spin", function (req, res) { while (true) {} });
      function inner() { var i = 0; while (i < 30) { i = i + 1; } return i; }
      app.get("/split", function (req, res) {
        while (true) { var j = 0; while (j < 30) { j = j + 1; } inner(); }
      });
      app.get("/nested", function (req, res) {
        var k = 0;
        while (k < 100000) { callBack(function () { return 1; }); k = k + 1; }
        res.send({ k: k });
      });
    )JS"), cfg);
    interp.globals()->define(
        "callBack", JsValue(std::make_shared<NativeFunction>(
                        "callBack", [](Interpreter& in, std::vector<JsValue>& args) {
                          return in.call_function(args.at(0), {});
                        })));
    interp.run_toplevel();
    const auto call = [&](const std::string& path) {
      http::HttpRequest req;
      req.path = path;
      return interp.invoke(http::Route{http::Verb::kGet, path}, req);
    };
    const auto expect_limit = [&](const std::string& path) {
      try {
        call(path);
        FAIL() << path << ": expected JsError";
      } catch (const JsError& err) {
        EXPECT_NE(std::string(err.what()).find("step limit exceeded"), std::string::npos);
      }
    };
    int served = 0;
    while (interp.steps() <= 10 * cfg.max_steps) {
      ASSERT_DOUBLE_EQ(call("/work").body["s"].as_number(), 19900.0) << "request " << served;
      ++served;
    }
    EXPECT_GT(served, 10);
    expect_limit("/spin");
    expect_limit("/nested");
    const std::uint64_t before = interp.steps();
    expect_limit("/split");
    EXPECT_EQ(interp.steps() - before, cfg.max_steps + 1);
    // A tripped guard does not poison the next request.
    EXPECT_DOUBLE_EQ(call("/work").body["s"].as_number(), 19900.0);
  }
}

// db.query turns result cells into JS values directly. Every row must equal
// the one the JSON route builds (JsValue::from_json(cell.to_json())), both
// as a value and once serialized.
TEST(MiniJsBuiltins, DbQueryRowsMatchTheJsonRoute) {
  sqldb::Database db;
  db.execute("CREATE TABLE cells (id, v)");
  const std::vector<sqldb::SqlValue> cells = {
      sqldb::SqlValue(),
      sqldb::SqlValue(std::int64_t{42}),
      sqldb::SqlValue(std::int64_t{(std::int64_t{1} << 53) + 1}),
      sqldb::SqlValue(2.5),
      sqldb::SqlValue(-0.0),
      sqldb::SqlValue(std::string("q\"uote b\\slash \n\t\x01\x1f end"))};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    db.execute("INSERT INTO cells (id, v) VALUES (?, ?)",
               {sqldb::SqlValue(static_cast<std::int64_t>(i)), cells[i]});
  }
  Interpreter interp(parse_program("var rows = db.query(\"SELECT * FROM cells\");"));
  interp.bind_database(&db);
  interp.run_toplevel();
  const JsValue& rows = interp.globals()->get("rows");

  const sqldb::ResultSet expected = db.execute("SELECT * FROM cells");
  ASSERT_EQ(rows.as_array()->size(), cells.size());
  ASSERT_EQ(expected.rows.size(), cells.size());
  for (std::size_t r = 0; r < cells.size(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    auto want = std::make_shared<JsObject>();
    for (std::size_t c = 0; c < expected.columns.size(); ++c) {
      want->set(expected.columns[c], JsValue::from_json(expected.rows[r][c].to_json()));
    }
    const JsValue& got = (*rows.as_array())[r];
    EXPECT_TRUE(got.equals(JsValue(want)));
    EXPECT_EQ(got.to_json().dump(), JsValue(want).to_json().dump());
  }
  const JsValue neg_zero = (*rows.as_array())[4].as_object()->get("v");
  EXPECT_TRUE(std::signbit(neg_zero.as_number()));
  EXPECT_EQ((*rows.as_array())[2].as_object()->get("v").to_json().dump(), "9007199254740992");
}

// Bind parameters become cells directly too: each must equal
// SqlValue::from_json(param.to_json()), type included.
TEST(MiniJsBuiltins, DbQueryParamsMatchTheJsonRoute) {
  sqldb::Database db;
  db.execute("CREATE TABLE cells (id, v)");
  Interpreter interp(parse_program(
      "function put(i, v) { return db.query(\"INSERT INTO cells (id, v) VALUES (?, ?)\", [i, v]); }"
      "function nothing() { return 0; }"));
  interp.bind_database(&db);
  interp.run_toplevel();
  const std::vector<JsValue> params = {
      JsValue(),          JsValue(true),   JsValue(false),  JsValue(7.0),
      JsValue(-0.0),      JsValue(2.5),    JsValue(1e300),  JsValue(9.5e18),
      JsValue(-9.1e18),   JsValue("s\"q"), interp.globals()->get("nothing")};
  for (std::size_t i = 0; i < params.size(); ++i) {
    interp.call_global("put", {JsValue(static_cast<double>(i)), params[i]});
  }
  const sqldb::ResultSet stored = db.execute("SELECT * FROM cells");
  ASSERT_EQ(stored.rows.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE("param " + std::to_string(i));
    const sqldb::SqlValue want = sqldb::SqlValue::from_json(params[i].to_json());
    const sqldb::SqlValue& got = stored.rows[i][1];
    EXPECT_EQ(got.is_null(), want.is_null());
    EXPECT_EQ(got.is_int(), want.is_int());
    EXPECT_EQ(got.is_double(), want.is_double());
    EXPECT_EQ(got.to_json().dump(), want.to_json().dump());
  }
  // Containers are not cells: both routes reject them alike.
  EXPECT_THROW(interp.call_global("put", {JsValue(99.0), JsValue::new_array()}),
               std::invalid_argument);
}

TEST(MiniJsBuiltins, PadBuildsExactSizes) {
  const json::Value v = run_service(R"JS(
    app.get("/t", function (req, res) {
      var exact = pad("abc", 7);
      res.send({ len: exact.length, text: exact, big: pad("x", 1000).length });
    });
  )JS");
  EXPECT_DOUBLE_EQ(v["len"].as_number(), 7.0);
  EXPECT_EQ(v["text"].as_string(), "abcabca");
  EXPECT_DOUBLE_EQ(v["big"].as_number(), 1000.0);
}

TEST(MiniJsBuiltins, PadRejectsEmptyPattern) {
  Interpreter interp(parse_program("var x = pad(\"\", 10);"));
  EXPECT_THROW(interp.run_toplevel(), JsError);
}

}  // namespace
}  // namespace edgstr::minijs
// NOTE: appended suite — printer coverage for every statement kind.
namespace edgstr::minijs {
namespace {

TEST(MiniJsPrinter, AllStatementKindsRoundTrip) {
  const std::string source = R"JS(
    var g;
    var h = null;
    function f(a) {
      try {
        if (a > 0) {
          throw "positive";
        } else {
          while (a < 0) {
            a = a + 1;
            if (a == -1) { break; }
            if (a == -2) { continue; }
          }
        }
      } catch (e) {
        return e;
      }
      return -a;
    }
    app.get("/t", function (req, res) {
      var arr = [1, { k: "v" }, [2, 3]];
      var t = req.params.x ? f(1) : f(-3);
      res.send({ t: t, neg: -arr[0], not: !false });
    });
  )JS";
  const std::string printed = print_program(parse_program(source));
  // Fixpoint: printing the reparse reproduces the same text.
  EXPECT_EQ(print_program(parse_program(printed)), printed);
  // And the printed program still runs identically.
  const json::Value direct = run_service(source, json::Value::object({{"x", 1}}));
  const json::Value reprinted = run_service(printed, json::Value::object({{"x", 1}}));
  EXPECT_EQ(direct, reprinted);
}

// A closure holds its defining environment, and a `function` declaration
// binds the closure back into that environment, so reference counting alone
// frees neither. Destroying the interpreter must free both, on either
// engine (param: InterpreterConfig::vm).
class MiniJsTeardown : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<Interpreter> start(const std::string& source) {
    InterpreterConfig config;
    config.vm = GetParam();
    auto interp = std::make_unique<Interpreter>(parse_program(source), config);
    interp->bind_database(&db_);
    interp->bind_vfs(&fs_);
    interp->run_toplevel();
    return interp;
  }

  /// Watches `fn` and the environment it closes over.
  void watch(const JsValue& fn) {
    closures_.push_back(fn.as_closure());
    envs_.push_back(fn.as_closure()->env);
  }
  void watch_globals(Interpreter& interp) { envs_.push_back(interp.globals()); }

  /// Destroys the interpreter and checks that everything watched is gone.
  void expect_all_freed(std::unique_ptr<Interpreter> interp) {
    ASSERT_FALSE(closures_.empty());
    interp.reset();
    for (std::size_t i = 0; i < closures_.size(); ++i) {
      EXPECT_TRUE(closures_[i].expired()) << "closure #" << i << " outlived its interpreter";
    }
    for (std::size_t i = 0; i < envs_.size(); ++i) {
      EXPECT_TRUE(envs_[i].expired()) << "environment #" << i << " outlived its interpreter";
    }
  }

  sqldb::Database db_;
  vfs::Vfs fs_;
  std::vector<std::weak_ptr<Closure>> closures_;
  std::vector<std::weak_ptr<Environment>> envs_;
};

TEST_P(MiniJsTeardown, TopLevelFunctionDeclaration) {
  auto interp = start("function twice(x) { return x * 2; } var four = twice(2);");
  watch(interp->globals()->get("twice"));
  watch_globals(*interp);
  expect_all_freed(std::move(interp));
}

TEST_P(MiniJsTeardown, MakeCounterClosures) {
  auto interp = start(R"JS(
    function makeCounter() {
      var n = 0;
      return function () { n = n + 1; return n; };
    }
    var c = makeCounter();
    var d = makeCounter();
    c(); c(); d();
  )JS");
  EXPECT_DOUBLE_EQ(interp->call_global("c", {}).as_number(), 3);
  watch(interp->globals()->get("makeCounter"));
  watch(interp->globals()->get("c"));
  watch(interp->globals()->get("d"));
  watch_globals(*interp);
  expect_all_freed(std::move(interp));
}

TEST_P(MiniJsTeardown, FunctionDeclaredInsideCalledFrame) {
  // inner's frame binds inner: a cycle no global reaches once outer returns.
  auto interp = start(R"JS(
    function outer(k) {
      function inner() { return k; }
      inner();
      return inner;
    }
    outer(1);
  )JS");
  {
    const JsValue inner = interp->call_global("outer", {JsValue(2)});
    EXPECT_DOUBLE_EQ(interp->call_function(inner, {}).as_number(), 2);
    watch(inner);
  }
  watch(interp->globals()->get("outer"));
  watch_globals(*interp);
  expect_all_freed(std::move(interp));
}

TEST_P(MiniJsTeardown, RouteHandlersOfEverySubjectApp) {
  for (const apps::SubjectApp* app : apps::all_subject_apps()) {
    SCOPED_TRACE(app->name);
    db_ = sqldb::Database();
    fs_ = vfs::Vfs();
    closures_.clear();
    envs_.clear();
    auto interp = start(app->server_source);
    const http::HttpRequest& req = app->workload.front();
    EXPECT_TRUE(interp->invoke(http::Route{req.verb, req.path}, req).ok());
    for (const auto& [route, handler] : interp->routes()) watch(handler);
    watch_globals(*interp);
    expect_all_freed(std::move(interp));
  }
}

// Breaks the ownership rule on purpose: a closure kept past teardown stays
// allocated but blank, and goes with its last reference.
TEST_P(MiniJsTeardown, ClosureKeptPastTeardownIsFreedWithItsLastReference) {
  auto interp = start("var k = 1; function f() { return k; }");
  JsValue kept = interp->globals()->get("f");
  watch(kept);
  interp.reset();
  ASSERT_FALSE(closures_[0].expired());
  EXPECT_EQ(kept.as_closure()->env->find(util::intern("k")), nullptr);
  kept = JsValue();
  EXPECT_TRUE(closures_[0].expired());
  EXPECT_TRUE(envs_[0].expired());
}

INSTANTIATE_TEST_SUITE_P(Engines, MiniJsTeardown, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Vm" : "TreeWalker");
                         });

// Strings are shared immutable bodies (util::Text) from the VFS through
// MiniJS values: reading a file, copying a value and writing a string back
// move no bytes, and no write or append changes a string a script already
// holds (param: InterpreterConfig::vm).
class MiniJsStringSharing : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<Interpreter> start(const std::string& source) {
    InterpreterConfig config;
    config.vm = GetParam();
    auto interp = std::make_unique<Interpreter>(parse_program(source), config);
    interp->bind_vfs(&fs_);
    interp->run_toplevel();
    return interp;
  }
  const util::Text* body(Interpreter& interp, const std::string& name) {
    return interp.globals()->get(name).as_text().get();
  }

  vfs::Vfs fs_;
};

TEST(MiniJsValue, CopiedStringSharesItsBody) {
  EXPECT_LE(sizeof(JsValue), 24u);
  const JsValue a(std::string(1000, 'x'));
  const JsValue b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.as_text(), b.as_text());
  EXPECT_TRUE(a.equals(b));
  EXPECT_TRUE(a.equals(JsValue(std::string(1000, 'x'))));
  EXPECT_FALSE(a.equals(JsValue(std::string(1000, 'y'))));
}

TEST_P(MiniJsStringSharing, ReadFileReturnsTheVfsBody) {
  fs_.write("models/m.bin", std::string(4096, 'w'));
  auto interp = start("var weights = fs.readFile(\"models/m.bin\"); var alias = weights;");
  const util::Text* stored = fs_.read_text("models/m.bin").get();
  EXPECT_EQ(body(*interp, "weights"), stored);
  EXPECT_EQ(body(*interp, "alias"), stored);
}

TEST_P(MiniJsStringSharing, WriteFileStoresTheStringsBody) {
  auto interp = start("var s = pad(\"ab\", 5000); fs.writeFile(\"out.bin\", s);"
                      "fs.writeFile(\"n.txt\", 42);");
  EXPECT_EQ(fs_.read_text("out.bin").get(), body(*interp, "s"));
  EXPECT_EQ(fs_.read("n.txt"), "42");  // non-strings still store their display text
}

TEST_P(MiniJsStringSharing, ReadValueKeepsItsContentsAcrossAppendAndWrite) {
  fs_.write("log.txt", "a;");
  auto interp = start(
      "var before = fs.readFile(\"log.txt\");"
      "fs.appendFile(\"log.txt\", \"b;\");"
      "var middle = fs.readFile(\"log.txt\");"
      "fs.writeFile(\"log.txt\", \"fresh\");");
  EXPECT_EQ(interp->globals()->get("before").as_string(), "a;");
  EXPECT_EQ(interp->globals()->get("middle").as_string(), "a;b;");
  EXPECT_EQ(fs_.read("log.txt"), "fresh");
  EXPECT_EQ(fs_.fingerprint("log.txt"), util::content_hash("fresh"));
}

// JsValue::digest: equal for equal values however they were built, and
// apart wherever the JSON view of two values differs.
TEST_P(MiniJsStringSharing, DigestIsEqualForEqualValuesBuiltApart) {
  constexpr const char* kBuild =
      "var lit = {name: \"sensor-7\", tags: [1, \"two\", {on: true}], blob: null};"
      "var built = {};"
      "built.name = \"sensor-\" + (3 + 4);"
      "built.tags = [];"
      "built.tags.push(1); built.tags.push(\"t\" + \"wo\"); built.tags.push({on: !false});"
      "built.blob = null;"
      "var long1 = pad(\"ab\", 4099); var long2 = pad(\"a\" + \"b\", 4099);";
  auto interp = start(kBuild);
  const JsValue lit = interp->globals()->get("lit");
  const JsValue built = interp->globals()->get("built");
  EXPECT_NE(lit.as_object(), built.as_object());
  EXPECT_EQ(lit.digest(), built.digest());
  EXPECT_EQ(lit.digest(), JsValue::from_json(lit.to_json()).digest());
  const JsValue long1 = interp->globals()->get("long1");
  const JsValue long2 = interp->globals()->get("long2");
  EXPECT_NE(long1.as_text(), long2.as_text());
  EXPECT_EQ(long1.digest(), long2.digest());

  // The other engine builds the same values with the same digests.
  InterpreterConfig other;
  other.vm = !GetParam();
  Interpreter peer(parse_program(kBuild), other);
  peer.bind_vfs(&fs_);
  peer.run_toplevel();
  EXPECT_EQ(peer.globals()->get("built").digest(), lit.digest());
  EXPECT_EQ(peer.globals()->get("long2").digest(), long1.digest());
}

TEST(MiniJsValue, DigestKeepsTypesNestingAndKeyValueBoundariesApart) {
  const auto digest_of = [](const char* json_text) {
    return JsValue::from_json(json::parse(json_text)).digest();
  };
  const std::vector<const char*> distinct = {
      "1",          "\"1\"",          "true",        "null",          "0",
      "\"\"",       "[]",             "{}",          "[[]]",          "[null]",
      "[1,[2]]",    "[[1],2]",        "[[1,2]]",     "[1,2]",         "[2,1]",
      "{\"ab\":\"c\"}", "{\"a\":\"bc\"}", "{\"a\":[\"bc\"]}", "{\"a\":{\"b\":\"c\"}}",
      "[\"ab\",\"c\"]", "[\"a\",\"bc\"]", "[\"abc\"]",   "\"abc\"",     "{\"abc\":null}"};
  std::set<std::uint64_t> seen;
  for (const char* text : distinct) EXPECT_TRUE(seen.insert(digest_of(text)).second) << text;
  // Numbers hash by their bits.
  EXPECT_NE(JsValue(1.0).digest(), JsValue(std::nextafter(1.0, 2.0)).digest());
}

INSTANTIATE_TEST_SUITE_P(Engines, MiniJsStringSharing, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Vm" : "TreeWalker");
                         });

}  // namespace
}  // namespace edgstr::minijs
