#include "refactor/dependence.h"

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

namespace edgstr::refactor {

namespace {

using datalog::Atom;
using datalog::C;
using datalog::Rule;
using datalog::V;
using minijs::ExprKind;
using minijs::ExprPtr;
using minijs::StmtKind;
using minijs::StmtPtr;
using trace::FuzzRun;

http::Verb verb_from_member(const std::string& name, bool& ok) {
  ok = true;
  if (name == "get") return http::Verb::kGet;
  if (name == "post") return http::Verb::kPost;
  if (name == "put") return http::Verb::kPut;
  if (name == "delete") return http::Verb::kDelete;
  if (name == "patch") return http::Verb::kPatch;
  ok = false;
  return http::Verb::kGet;
}

/// Candidate (stmt, var) pairs matched against per-run digests. `require`
/// returns the digests a matching event must equal in a given run.
template <typename GetDigests, typename Pred>
std::map<std::pair<int, std::string>, std::size_t> match_in_runs(
    const std::vector<const FuzzRun*>& runs, GetDigests get_digests, Pred event_matches) {
  std::map<std::pair<int, std::string>, std::size_t> hits;  // (stmt,var) -> #runs matched
  for (const FuzzRun* run : runs) {
    const auto digests = get_digests(*run);
    std::set<std::pair<int, std::string>> matched_this_run;
    for (const trace::RwEvent& event : run->events) {
      if (!event_matches(event)) continue;
      for (const std::uint64_t d : digests) {
        if (event.digest == d) {
          matched_this_run.insert({event.stmt_id, event.name()});
          break;
        }
      }
    }
    for (const auto& key : matched_this_run) ++hits[key];
  }
  return hits;
}

/// The candidate (stmt, var) whose first event in `run` comes earliest
/// (`latest` = false) or latest (true), found in one pass over the trace.
/// Every candidate matched in every run, so each has an event in `run`.
std::pair<int, std::string> first_in_trace(const FuzzRun& run,
                                           const std::vector<std::pair<int, std::string>>& candidates,
                                           bool latest) {
  std::map<std::pair<int, std::string>, std::size_t> first;
  for (const auto& key : candidates) first.emplace(key, static_cast<std::size_t>(-1));
  for (const trace::RwEvent& event : run.events) {
    const auto it = first.find({event.stmt_id, event.name()});
    if (it != first.end() && it->second == static_cast<std::size_t>(-1)) it->second = event.order;
  }
  const auto by_order = [](const auto& a, const auto& b) { return a.second < b.second; };
  return (latest ? std::max_element(first.begin(), first.end(), by_order)
                 : std::min_element(first.begin(), first.end(), by_order))
      ->first;
}

/// ctrl(s, c) for every statement s guarded by control statement c
/// (if/while/for/try headers), including function-literal bodies.
std::vector<std::pair<int, int>> control_facts(const minijs::Program& program) {
  std::vector<std::pair<int, int>> out;
  std::vector<int> control_stack;
  std::function<void(const StmtPtr&)> walk = [&](const StmtPtr& stmt) {
    if (!stmt) return;
    for (const int guard : control_stack) out.emplace_back(stmt->id, guard);
    const bool is_control = stmt->kind == StmtKind::kIf || stmt->kind == StmtKind::kWhile ||
                            stmt->kind == StmtKind::kFor || stmt->kind == StmtKind::kTryCatch;
    if (is_control) control_stack.push_back(stmt->id);
    for (const StmtPtr& s : stmt->stmts) walk(s);
    if (stmt->a_block) walk(stmt->a_block);
    if (stmt->b_block) walk(stmt->b_block);
    if (stmt->for_init) walk(stmt->for_init);
    if (is_control) control_stack.pop_back();
    // Function literal bodies.
    std::function<void(const ExprPtr&)> walk_expr = [&](const ExprPtr& e) {
      if (!e) return;
      if (e->kind == ExprKind::kFunction && e->body) walk(e->body);
      walk_expr(e->a);
      walk_expr(e->b);
      walk_expr(e->c);
      for (const ExprPtr& a : e->args) walk_expr(a);
      for (const auto& [k, v] : e->entries) walk_expr(v);
    };
    walk_expr(stmt->expr);
    walk_expr(stmt->for_update);
  };
  for (const StmtPtr& stmt : program.body) walk(stmt);
  return out;
}

/// Collects every identifier referenced anywhere under `stmt` (including
/// nested expressions and function-literal bodies).
void collect_idents(const ExprPtr& expr, std::set<std::string>& out);

void collect_idents(const StmtPtr& stmt, std::set<std::string>& out) {
  if (!stmt) return;
  collect_idents(stmt->expr, out);
  collect_idents(stmt->for_update, out);
  collect_idents(stmt->for_init ? stmt->for_init->expr : nullptr, out);
  for (const StmtPtr& s : stmt->stmts) collect_idents(s, out);
  collect_idents(stmt->a_block, out);
  collect_idents(stmt->b_block, out);
}

void collect_idents(const ExprPtr& expr, std::set<std::string>& out) {
  if (!expr) return;
  if (expr->kind == ExprKind::kIdent) out.insert(expr->text);
  collect_idents(expr->a, out);
  collect_idents(expr->b, out);
  collect_idents(expr->c, out);
  for (const ExprPtr& arg : expr->args) collect_idents(arg, out);
  for (const auto& [k, v] : expr->entries) collect_idents(v, out);
  if (expr->body) collect_idents(expr->body, out);
}

}  // namespace

minijs::ExprPtr find_handler(const minijs::Program& program, const http::Route& route) {
  for (const StmtPtr& stmt : program.body) {
    if (stmt->kind != StmtKind::kExpr || !stmt->expr) continue;
    const ExprPtr& call = stmt->expr;
    if (call->kind != ExprKind::kCall || call->a->kind != ExprKind::kMember) continue;
    const ExprPtr& member = call->a;
    if (member->a->kind != ExprKind::kIdent || member->a->text != "app") continue;
    bool ok = false;
    const http::Verb verb = verb_from_member(member->text, ok);
    if (!ok || verb != route.verb) continue;
    if (call->args.size() < 2 || call->args[0]->kind != ExprKind::kString ||
        call->args[0]->text != route.path) {
      continue;
    }
    if (call->args[1]->kind == ExprKind::kFunction) return call->args[1];
  }
  return nullptr;
}

DependenceAnalyzer::DependenceAnalyzer(const minijs::Program& program)
    : program_(program), ctrl_facts_(control_facts(program)) {}

ExtractionPlan DependenceAnalyzer::analyze(const trace::FuzzReport& report) const {
  ExtractionPlan plan;
  plan.route = report.route;

  // Keep only successful instrumented runs (§III-E: "uses only those
  // instrumentation results that are generated by successful executions").
  std::vector<const FuzzRun*> runs;
  for (const FuzzRun& run : report.runs) {
    if (run.response.ok()) runs.push_back(&run);
  }
  if (runs.size() < 2) {
    plan.error = "need at least two successful fuzz runs";
    return plan;
  }

  // ---- STMT-UNMAR: writes tracking a fuzzed request component ----------
  const auto unmar_hits = match_in_runs(
      runs,
      [](const FuzzRun& run) {
        std::vector<std::uint64_t> ds;
        for (const auto& [component, digest] : run.param_digests) ds.push_back(digest);
        return ds;
      },
      [](const trace::RwEvent& e) {
        return e.kind == trace::RwEvent::Kind::kWrite ||
               e.kind == trace::RwEvent::Kind::kDeclare;
      });
  std::vector<std::pair<int, std::string>> unmar_candidates;
  for (const auto& [key, count] : unmar_hits) {
    if (count == runs.size()) unmar_candidates.push_back(key);
  }
  if (!unmar_candidates.empty()) {
    // Earliest write in trace order = the unmarshal point.
    std::tie(plan.entry_stmt, plan.unmar_var) =
        first_in_trace(*runs[0], unmar_candidates, /*latest=*/false);
  }

  // ---- STMT-MAR: reads tracking the response ----------------------------
  bool response_varies = false;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i]->response_digest != runs[0]->response_digest) response_varies = true;
  }
  const std::vector<int> common = trace::common_statements(runs);

  if (response_varies) {
    const auto mar_hits = match_in_runs(
        runs,
        [](const FuzzRun& run) { return std::vector<std::uint64_t>{run.response_digest}; },
        [](const trace::RwEvent&) { return true; });
    std::vector<std::pair<int, std::string>> mar_candidates;
    for (const auto& [key, count] : mar_hits) {
      if (count == runs.size()) mar_candidates.push_back(key);
    }
    if (!mar_candidates.empty()) {
      // Latest event in trace order = the marshal (res.send) point.
      std::tie(plan.exit_stmt, plan.mar_var) =
          first_in_trace(*runs[0], mar_candidates, /*latest=*/true);
    }
  }
  if (plan.exit_stmt == 0) {
    // Constant response (or untracked): fall back to the last executed
    // statement, which for a normalized handler is the res.send call.
    std::size_t best_order = 0;
    for (const trace::RwEvent& e : runs[0]->events) {
      if (e.order >= best_order) {
        best_order = e.order;
        plan.exit_stmt = e.stmt_id;
        plan.mar_var = e.name();
      }
    }
    plan.exit_is_fallback = true;
  }
  if (plan.entry_stmt == 0) {
    // Did any request component actually vary across the fuzz runs? For a
    // parameterless service (e.g. GET /labels) there is nothing to track,
    // so the handler's first executed statement is the entry by definition.
    bool request_varies = false;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i]->param_digests != runs[0]->param_digests) request_varies = true;
    }
    if (!request_varies && !runs[0]->events.empty()) {
      plan.entry_stmt = runs[0]->events.front().stmt_id;
      plan.unmar_var = runs[0]->events.front().name();
      plan.entry_is_fallback = true;
    } else {
      plan.error = "could not locate unmarshal (entry) statement";
      return plan;
    }
  }

  // ---- Datalog program ---------------------------------------------------
  datalog::Engine engine;
  const std::set<int> common_set(common.begin(), common.end());

  // The inferred entry/exit points become first-class facts (the paper's
  // STMT-UNMAR / STMT-MAR predicates), so downstream rules and queries can
  // reference them symbolically.
  engine.add_fact("stmt_unmar", {plan.entry_stmt, plan.unmar_var});
  engine.add_fact("stmt_mar", {plan.exit_stmt, plan.mar_var});

  // FLOW facts (union across runs).
  for (const FuzzRun* run : runs) {
    for (const trace::FlowEdge& edge : run->flow_edges) {
      engine.add_fact("flow", {edge.reader_stmt, edge.writer_stmt});
    }
  }
  // CTRL facts from the AST (program-static, collected once).
  for (const auto& [stmt, guard] : ctrl_facts_) engine.add_fact("ctrl", {stmt, guard});
  // POSTDOM facts: within every block, a later common-executed statement
  // post-dominates the earlier common-executed statements of that block.
  {
    std::function<void(const StmtPtr&)> walk = [&](const StmtPtr& stmt) {
      if (!stmt) return;
      if (stmt->kind == StmtKind::kBlock) {
        std::vector<int> executed;
        for (const StmtPtr& s : stmt->stmts) {
          if (common_set.count(s->id)) executed.push_back(s->id);
        }
        for (std::size_t i = 0; i < executed.size(); ++i) {
          for (std::size_t j = i + 1; j < executed.size(); ++j) {
            engine.add_fact("postdom", {executed[j], executed[i]});
          }
        }
      }
      for (const StmtPtr& s : stmt->stmts) walk(s);
      if (stmt->a_block) walk(stmt->a_block);
      if (stmt->b_block) walk(stmt->b_block);
      if (stmt->for_init) walk(stmt->for_init);
      std::function<void(const ExprPtr&)> walk_expr = [&](const ExprPtr& e) {
        if (!e) return;
        if (e->kind == ExprKind::kFunction && e->body) walk(e->body);
        walk_expr(e->a);
        walk_expr(e->b);
        walk_expr(e->c);
        for (const ExprPtr& a : e->args) walk_expr(a);
        for (const auto& [k, v] : e->entries) walk_expr(v);
      };
      walk_expr(stmt->expr);
      walk_expr(stmt->for_update);
    };
    for (const StmtPtr& stmt : program_.body) walk(stmt);
  }
  // ACTUAL facts: user-function invocations (builtin names contain '.',
  // array/string methods are screened by checking global function decls).
  std::set<std::string> user_functions;
  for (const StmtPtr& stmt : program_.body) {
    if (stmt->kind == StmtKind::kFunctionDecl) user_functions.insert(stmt->name);
  }
  for (const FuzzRun* run : runs) {
    for (const trace::InvokeEvent& inv : run->invoke_events) {
      if (user_functions.count(inv.function())) {
        engine.add_fact("actual", {inv.stmt_id, inv.function()});
        plan.called_functions.insert(inv.function());
      }
    }
  }

  // Rules: DEP closure.
  engine.add_rule(Rule{datalog::atom("dep", {V("A"), V("B")}),
                       {datalog::atom("flow", {V("A"), V("B")})},
                       {}});
  engine.add_rule(Rule{datalog::atom("dep", {V("A"), V("B")}),
                       {datalog::atom("ctrl", {V("A"), V("B")})},
                       {}});
  engine.add_rule(Rule{datalog::atom("dep", {V("A"), V("B")}),
                       {datalog::atom("postdom", {V("A"), V("B")})},
                       {}});
  engine.add_rule(Rule{datalog::atom("dep", {V("A"), V("C")}),
                       {datalog::atom("dep", {V("A"), V("B")}),
                        datalog::atom("dep", {V("B"), V("C")})},
                       {{"A", "C"}}});
  engine.run();

  plan.fact_count = engine.fact_count();
  plan.derived_dep_count = engine.facts("dep").size();

  // ---- Extraction set: everything the marshal point depends on ----------
  plan.included.insert(plan.exit_stmt);
  plan.included.insert(plan.entry_stmt);
  for (const datalog::Bindings& b :
       engine.query(datalog::atom("dep", {C(static_cast<std::int64_t>(plan.exit_stmt)), V("S")}))) {
    const std::int64_t s = b.at("S").as_int();
    if (common_set.count(static_cast<int>(s))) plan.included.insert(static_cast<int>(s));
  }

  // ---- Replication needs -------------------------------------------------
  for (const FuzzRun* run : runs) {
    for (const trace::SqlEvent& sql : run->sql_events) {
      if (!sql.table.empty()) plan.needed_tables.insert(sql.table);
      if (sql.mutation && !sql.table.empty()) plan.mutated_tables.insert(sql.table);
    }
    for (const trace::FileEvent& file : run->file_events) {
      plan.needed_files.insert(file.path);
      if (file.write) plan.mutated_files.insert(file.path);
    }
    for (const std::string& table : run->state_diff.changed_tables) {
      plan.needed_tables.insert(table);
      plan.mutated_tables.insert(table);
    }
    for (const std::string& file : run->state_diff.changed_files) {
      plan.needed_files.insert(file);
      plan.mutated_files.insert(file);
    }
    for (const std::string& global : run->state_diff.changed_globals) {
      plan.needed_globals.insert(global);
      plan.mutated_globals.insert(global);
    }
  }
  // Globals the handler *reads*: any RW event on a top-level var name.
  std::set<std::string> top_level_vars;
  for (const StmtPtr& stmt : program_.body) {
    if (stmt->kind == StmtKind::kVarDecl) top_level_vars.insert(stmt->name);
  }
  for (const FuzzRun* run : runs) {
    for (const trace::RwEvent& e : run->events) {
      if (top_level_vars.count(e.name())) plan.needed_globals.insert(e.name());
    }
  }

  // Static closure pass: dynamic traces only see executed branches, so a
  // global (or helper) referenced on an unexercised path would be missing
  // from the replica. Walk the handler body and the transitive helper
  // closure for identifier references and add every top-level var / user
  // function they mention.
  {
    std::map<std::string, StmtPtr> decls;
    for (const StmtPtr& stmt : program_.body) {
      if (stmt->kind == StmtKind::kFunctionDecl) decls[stmt->name] = stmt;
    }
    std::set<std::string> refs;
    if (const ExprPtr handler = find_handler(program_, plan.route)) {
      collect_idents(handler->body, refs);
    }
    // Transitive closure over helpers.
    std::vector<std::string> frontier(plan.called_functions.begin(),
                                      plan.called_functions.end());
    for (const std::string& ref : refs) {
      if (decls.count(ref)) frontier.push_back(ref);
    }
    std::set<std::string> visited;
    while (!frontier.empty()) {
      const std::string fn = frontier.back();
      frontier.pop_back();
      if (!visited.insert(fn).second) continue;
      plan.called_functions.insert(fn);
      std::set<std::string> inner;
      collect_idents(decls.at(fn)->a_block, inner);
      for (const std::string& ref : inner) {
        refs.insert(ref);
        if (decls.count(ref)) frontier.push_back(ref);
      }
    }
    for (const std::string& ref : refs) {
      if (top_level_vars.count(ref)) plan.needed_globals.insert(ref);
    }
  }

  plan.ok = true;
  return plan;
}

}  // namespace edgstr::refactor
