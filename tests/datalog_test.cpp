#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/engine.h"
#include "util/rng.h"

namespace edgstr::datalog {
namespace {

TEST(DatalogTerm, ValueComparison) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_FALSE(Value(1) == Value(2));
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_LT(Value(1), Value(2));
}

TEST(DatalogTerm, Rendering) {
  EXPECT_EQ(atom("p", {V("X"), C(3), C("s")}).to_string(), "p(X, 3, 's')");
  Rule rule{atom("h", {V("X")}), {atom("b", {V("X"), V("Y")})}, {{"X", "Y"}}};
  EXPECT_EQ(rule.to_string(), "h(X) :- b(X, Y), X != Y.");
}

TEST(DatalogEngine, FactsDeduplicate) {
  Engine engine;
  EXPECT_TRUE(engine.add_fact("p", {1, 2}));
  EXPECT_FALSE(engine.add_fact("p", {1, 2}));
  EXPECT_EQ(engine.fact_count(), 1u);
  EXPECT_TRUE(engine.holds("p", {1, 2}));
  EXPECT_FALSE(engine.holds("p", {2, 1}));
  EXPECT_FALSE(engine.holds("q", {1}));
}

TEST(DatalogEngine, QueryBindsVariables) {
  Engine engine;
  engine.add_fact("edge", {1, 2});
  engine.add_fact("edge", {2, 3});
  const auto results = engine.query(atom("edge", {C(1), V("Y")}));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("Y"), Value(2));
}

TEST(DatalogEngine, QueryRepeatedVariableFilters) {
  Engine engine;
  engine.add_fact("p", {1, 1});
  engine.add_fact("p", {1, 2});
  const auto results = engine.query(atom("p", {V("X"), V("X")}));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("X"), Value(1));
}

TEST(DatalogEngine, ConjunctiveQueryJoins) {
  Engine engine;
  engine.add_fact("parent", {"ann", "bea"});
  engine.add_fact("parent", {"bea", "cal"});
  const auto results = engine.query_all(
      {atom("parent", {V("G"), V("P")}), atom("parent", {V("P"), V("C")})});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("G"), Value("ann"));
  EXPECT_EQ(results[0].at("C"), Value("cal"));
}

TEST(DatalogEngine, TransitiveClosure) {
  Engine engine;
  for (int i = 1; i < 6; ++i) engine.add_fact("edge", {i, i + 1});
  engine.add_rule(Rule{atom("path", {V("A"), V("B")}), {atom("edge", {V("A"), V("B")})}, {}});
  engine.add_rule(Rule{atom("path", {V("A"), V("C")}),
                       {atom("path", {V("A"), V("B")}), atom("path", {V("B"), V("C")})},
                       {}});
  engine.run();
  // 5+4+3+2+1 = 15 pairs.
  EXPECT_EQ(engine.facts("path").size(), 15u);
  EXPECT_TRUE(engine.holds("path", {1, 6}));
  EXPECT_FALSE(engine.holds("path", {6, 1}));
}

TEST(DatalogEngine, CyclicGraphTerminates) {
  Engine engine;
  engine.add_fact("edge", {1, 2});
  engine.add_fact("edge", {2, 3});
  engine.add_fact("edge", {3, 1});
  engine.add_rule(Rule{atom("path", {V("A"), V("B")}), {atom("edge", {V("A"), V("B")})}, {}});
  engine.add_rule(Rule{atom("path", {V("A"), V("C")}),
                       {atom("path", {V("A"), V("B")}), atom("path", {V("B"), V("C")})},
                       {}});
  engine.run();
  EXPECT_EQ(engine.facts("path").size(), 9u);  // complete 3x3
  EXPECT_TRUE(engine.holds("path", {1, 1}));
}

TEST(DatalogEngine, DisequalityConstraint) {
  Engine engine;
  engine.add_fact("n", {1});
  engine.add_fact("n", {2});
  engine.add_rule(Rule{atom("pair", {V("A"), V("B")}),
                       {atom("n", {V("A")}), atom("n", {V("B")})},
                       {{"A", "B"}}});
  engine.run();
  EXPECT_EQ(engine.facts("pair").size(), 2u);  // (1,2) and (2,1), not (i,i)
}

TEST(DatalogEngine, ConstantsInRuleHead) {
  Engine engine;
  engine.add_fact("item", {"a"});
  engine.add_rule(Rule{atom("tagged", {V("X"), C("seen")}), {atom("item", {V("X")})}, {}});
  engine.run();
  EXPECT_TRUE(engine.holds("tagged", {"a", "seen"}));
}

TEST(DatalogEngine, UnsafeRuleRejected) {
  Engine engine;
  EXPECT_THROW(
      engine.add_rule(Rule{atom("h", {V("Unbound")}), {atom("b", {V("X")})}, {}}),
      std::invalid_argument);
}

TEST(DatalogEngine, UnboundDisequalityRejected) {
  // A constraint on a variable the body never binds cannot be evaluated;
  // it must be refused, not dropped.
  Engine engine;
  EXPECT_THROW(engine.add_rule(Rule{atom("h", {V("X")}), {atom("b", {V("X")})}, {{"X", "Y"}}}),
               std::invalid_argument);
  EXPECT_THROW(engine.add_rule(Rule{atom("h", {V("X")}), {atom("b", {V("X")})}, {{"Z", "X"}}}),
               std::invalid_argument);
}

TEST(DatalogEngine, StratifiedDerivationAcrossRules) {
  // a -> b -> c chains through two distinct rules.
  Engine engine;
  engine.add_fact("base", {5});
  engine.add_rule(Rule{atom("step1", {V("X")}), {atom("base", {V("X")})}, {}});
  engine.add_rule(Rule{atom("step2", {V("X")}), {atom("step1", {V("X")})}, {}});
  engine.run();
  EXPECT_TRUE(engine.holds("step2", {5}));
}

TEST(DatalogEngine, MixedArityAndTypes) {
  Engine engine;
  engine.add_fact("rw", {"s1", "v1", 42});
  engine.add_fact("rw", {"s2", "v1", 42});
  engine.add_rule(Rule{atom("alias", {V("A"), V("B")}),
                       {atom("rw", {V("A"), V("V"), V("D")}),
                        atom("rw", {V("B"), V("V"), V("D")})},
                       {{"A", "B"}}});
  engine.run();
  EXPECT_EQ(engine.facts("alias").size(), 2u);
}

TEST(DatalogEngine, LargeChainPerformance) {
  // Semi-naive evaluation should handle a 200-node chain comfortably. The
  // gate is on join work, not time: every derived fact should cost O(1)
  // candidate visits (a delta fact plus an index probe). A join that scans
  // a relation per partial match visits O(n^3) candidates here and fails
  // on any machine.
  Engine engine;
  for (int i = 0; i < 200; ++i) engine.add_fact("e", {i, i + 1});
  engine.add_rule(Rule{atom("p", {V("A"), V("B")}), {atom("e", {V("A"), V("B")})}, {}});
  engine.add_rule(
      Rule{atom("p", {V("A"), V("C")}), {atom("p", {V("A"), V("B")}), atom("e", {V("B"), V("C")})}, {}});
  engine.run();
  const std::size_t derived = engine.facts("p").size();
  EXPECT_EQ(derived, 200u * 201u / 2);
  EXPECT_GT(engine.candidates_visited(), 0u);
  EXPECT_LE(engine.candidates_visited(), 4 * derived);
}

// ---- Differential oracle ---------------------------------------------------
//
// Seeded random programs, evaluated by the engine and by a naive fixpoint
// written here from the definition: apply every rule to the whole database
// until nothing new appears. Nothing is shared with the engine but the
// term types.

using Database = std::map<std::string, std::set<Fact>>;

void naive_match(const Database& db, const Rule& rule, std::size_t i,
                 const std::map<std::string, Value>& env, std::set<Fact>& out) {
  if (i == rule.body.size()) {
    for (const Disequality& d : rule.diseq) {
      if (env.at(d.left) == env.at(d.right)) return;
    }
    Fact head;
    for (const Term& t : rule.head.terms) head.push_back(t.is_var() ? env.at(t.var_name()) : t.value());
    out.insert(head);
    return;
  }
  const Atom& a = rule.body[i];
  const auto rel = db.find(a.predicate);
  if (rel == db.end()) return;
  for (const Fact& fact : rel->second) {
    if (fact.size() != a.terms.size()) continue;
    std::map<std::string, Value> next = env;
    bool ok = true;
    for (std::size_t c = 0; c < fact.size() && ok; ++c) {
      const Term& t = a.terms[c];
      if (!t.is_var()) {
        ok = t.value() == fact[c];
      } else if (const auto [it, fresh] = next.emplace(t.var_name(), fact[c]); !fresh) {
        ok = it->second == fact[c];
      }
    }
    if (ok) naive_match(db, rule, i + 1, next, out);
  }
}

Database naive_fixpoint(Database db, const std::vector<Rule>& rules) {
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : rules) {
      std::set<Fact> derived;
      naive_match(db, rule, 0, {}, derived);
      for (const Fact& fact : derived) changed = db[rule.head.predicate].insert(fact).second || changed;
    }
  }
  return db;
}

/// A small random program: EDB relations of arity 1-3 over ints and
/// symbols (graphs with cycles), and rules mixing transitive closure,
/// disequalities, head and body constants and repeated variables.
struct RandomProgram {
  Database edb;
  std::vector<Rule> rules;
};

RandomProgram random_program(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<Value> domain{0, 1, 2, 3, "a", "b"};
  const auto value = [&] { return domain[rng.index(domain.size())]; };
  const std::map<std::string, std::size_t> arity{{"e", 2}, {"n", 1}, {"t", 3},
                                                 {"p", 2}, {"q", 1}, {"r", 2}};
  const std::vector<std::string> names{"e", "n", "t", "p", "q", "r"};
  const std::vector<std::string> idb{"p", "q", "r"};
  const std::vector<std::string> vars{"A", "B", "C", "D"};

  RandomProgram prog;
  const auto edges = rng.uniform_int(0, 9);
  for (std::int64_t i = 0; i < edges; ++i) prog.edb["e"].insert({value(), value()});
  for (std::int64_t i = rng.uniform_int(0, 4); i > 0; --i) prog.edb["n"].insert({value()});
  for (std::int64_t i = rng.uniform_int(0, 4); i > 0; --i) {
    prog.edb["t"].insert({value(), value(), value()});
  }
  if (rng.chance(0.5)) {  // a transitive closure over e
    prog.rules.push_back(Rule{atom("p", {V("A"), V("B")}), {atom("e", {V("A"), V("B")})}, {}});
    prog.rules.push_back(Rule{atom("p", {V("A"), V("C")}),
                              {atom("p", {V("A"), V("B")}), atom("p", {V("B"), V("C")})},
                              {}});
  }
  for (std::int64_t r = rng.uniform_int(1, 4); r > 0; --r) {
    Rule rule;
    std::vector<std::string> bound;
    for (std::int64_t b = rng.uniform_int(1, rng.chance(0.1) ? 3 : 2); b > 0; --b) {
      Atom a{names[rng.index(names.size())], {}};
      for (std::size_t c = 0; c < arity.at(a.predicate); ++c) {
        if (rng.chance(0.2)) {
          a.terms.push_back(Term::val(value()));
        } else {
          a.terms.push_back(V(vars[rng.index(vars.size())]));  // repeats are likely
          bound.push_back(a.terms.back().var_name());
        }
      }
      rule.body.push_back(std::move(a));
    }
    rule.head.predicate = idb[rng.index(idb.size())];
    for (std::size_t c = 0; c < arity.at(rule.head.predicate); ++c) {
      if (bound.empty() || rng.chance(0.2)) {
        rule.head.terms.push_back(Term::val(value()));
      } else {
        rule.head.terms.push_back(V(bound[rng.index(bound.size())]));
      }
    }
    if (bound.size() >= 2 && rng.chance(0.4)) {
      rule.diseq.push_back({bound[rng.index(bound.size())], bound[rng.index(bound.size())]});
    }
    prog.rules.push_back(std::move(rule));
  }
  return prog;
}

TEST(DatalogEngine, MatchesNaiveFixpointOnSeededPrograms) {
  const std::vector<std::string> names{"e", "n", "p", "q", "r", "t"};  // predicates() order
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomProgram prog = random_program(seed);
    Engine engine;
    for (const auto& [pred, facts] : prog.edb) {
      for (const Fact& fact : facts) engine.add_fact(pred, fact);
    }
    for (const Rule& rule : prog.rules) engine.add_rule(rule);
    engine.run();

    const Database expected = naive_fixpoint(prog.edb, prog.rules);
    std::vector<std::string> nonempty;
    for (const std::string& pred : names) {
      const auto it = expected.find(pred);
      const std::set<Fact> want = it == expected.end() ? std::set<Fact>{} : it->second;
      ASSERT_EQ(engine.facts(pred), want) << pred;
      if (!want.empty()) nonempty.push_back(pred);
    }
    EXPECT_EQ(engine.predicates(), nonempty);

    // query() answers in std::set fact order, whether it scans (all
    // variables) or probes an index (a constant column).
    for (const std::string pred : {"p", "t"}) {
      const std::size_t n = pred == "p" ? 2 : 3;
      std::vector<Fact> in_order;
      for (const Fact& fact : engine.facts(pred)) in_order.push_back(fact);
      // Rebuilds each answer's fact; a column missing from the bindings
      // was the constant `key`.
      const auto read_back = [&](const std::vector<Bindings>& results, const Value& key) {
        std::vector<Fact> out;
        for (const Bindings& b : results) {
          Fact fact;
          for (std::size_t c = 0; c < n; ++c) {
            const auto it = b.find("X" + std::to_string(c));
            fact.push_back(it == b.end() ? key : it->second);
          }
          out.push_back(fact);
        }
        return out;
      };
      Atom all{pred, {}};
      for (std::size_t c = 0; c < n; ++c) all.terms.push_back(V("X" + std::to_string(c)));
      EXPECT_EQ(read_back(engine.query(all), Value()), in_order) << pred;
      if (in_order.empty()) continue;
      const Value key = in_order.back()[1];
      Atom probe = all;
      probe.terms[1] = Term::val(key);
      std::vector<Fact> want;
      for (const Fact& fact : in_order) {
        if (fact[1] == key) want.push_back(fact);
      }
      EXPECT_EQ(read_back(engine.query(probe), key), want) << pred;
    }
  }
}

}  // namespace
}  // namespace edgstr::datalog
