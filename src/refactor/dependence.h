// Datalog-driven dependence analysis (§III-E, Algorithm 1).
//
// Pipeline per service s_i:
//   1. From the fuzz report, find the unmarshal statement (writes a value
//      whose digest tracks a fuzzed request component in EVERY run) and the
//      marshal statement (reads/writes the value whose digest tracks the
//      response in every run) — the STMT-UNMAR / STMT-MAR inference.
//   2. Assert facts into the Datalog engine:
//        FLOW(s1, s2)    dynamic data-flow (reader, last writer)
//        CTRL(s, c)      s is guarded by control statement c
//        POSTDOM(s2, s1) s2 post-dominates s1 (same executed block, later)
//        ACTUAL(s, f)    s invokes user function f
//      and evaluate
//        DEP(a,b) :- FLOW(a,b) | CTRL(a,b) | POSTDOM(a,b)
//        DEP(a,c) :- DEP(a,b), DEP(b,c)
//   3. The extraction set is every statement the marshal point depends on,
//      which — because only *successful* executions are instrumented —
//      excludes unexecuted fault-handling code by construction.
//   4. Replication needs: tables/files/globals the service touches
//      (initialization set) and the subset it mutates (synchronization set).
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "minijs/ast.h"
#include "trace/fuzzer.h"

namespace edgstr::refactor {

/// Everything the transformer needs to replicate one service at the edge.
struct ExtractionPlan {
  http::Route route;
  bool ok = false;
  std::string error;

  int entry_stmt = 0;       ///< unmarshal statement id
  int exit_stmt = 0;        ///< marshal statement id
  std::string unmar_var;    ///< variable holding p_i (the paper's tv1)
  std::string mar_var;      ///< variable holding r_i (the paper's tv2)
  bool exit_is_fallback = false;   ///< response did not vary; used last stmt
  bool entry_is_fallback = false;  ///< request had no varying component;
                                   ///< used the handler's first statement

  std::set<int> included;   ///< statement ids to extract
  std::set<std::string> called_functions;  ///< user function decls to carry

  // Initialization set: state that must exist at the replica.
  std::set<std::string> needed_tables;
  std::set<std::string> needed_files;
  std::set<std::string> needed_globals;
  // Synchronization set: state the service mutates (wired to CRDTs).
  std::set<std::string> mutated_tables;
  std::set<std::string> mutated_files;
  std::set<std::string> mutated_globals;

  // Analysis statistics (reported by the efficiency benchmarks).
  std::size_t fact_count = 0;
  std::size_t derived_dep_count = 0;

  bool is_stateful() const {
    return !mutated_tables.empty() || !mutated_files.empty() || !mutated_globals.empty();
  }
};

/// Locates the handler function literal registered for a route
/// (`app.<verb>(path, function(req,res){...})`). Returns nullptr if absent.
minijs::ExprPtr find_handler(const minijs::Program& program, const http::Route& route);

class DependenceAnalyzer {
 public:
  explicit DependenceAnalyzer(const minijs::Program& program);

  /// Runs the full analysis for one service's fuzz report.
  ExtractionPlan analyze(const trace::FuzzReport& report) const;

 private:
  const minijs::Program& program_;
  /// CTRL(s, c) pairs: static in the program, shared by every service.
  std::vector<std::pair<int, int>> ctrl_facts_;
};

}  // namespace edgstr::refactor
