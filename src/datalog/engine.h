// Bottom-up Datalog evaluation engine: compiled rules, indexed semi-naive joins.
//
// Rules are compiled once, at add_rule: every variable becomes a dense slot
// in one flat binding array, every body atom a {relation, per-column
// constant / bind-slot / check-slot} step, and every disequality a slot pair
// tested as soon as both slots are bound. A join therefore builds no maps
// and allocates nothing per candidate fact.
//
// Each relation keeps its facts twice: the ordered std::set that facts()
// exposes (Value::operator< order, so printed fact sets are stable), and an
// insertion-ordered array of the same facts with one Value -> positions
// index per column. A step probes the index of its first column whose value
// is already known (a constant or a bound slot); only a step with no known
// column scans the relation.
//
// Evaluation is semi-naive. A round's delta is the contiguous tail of each
// relation's insertion array that the previous round added. For every body
// position p whose relation has a delta, the rule is joined with atom p
// restricted to the delta and evaluated first, atoms before p restricted to
// the facts that predate the delta (a prefix of every index bucket), and
// atoms after p over the whole relation. Each derivation is thus found in
// the round its newest premise appeared, and a transitive closure costs
// O(derived facts x fan-out) candidate visits, not O(rounds x facts).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/term.h"

namespace edgstr::datalog {

/// Variable bindings produced by a query.
using Bindings = std::map<std::string, Value>;

class Engine {
 public:
  Engine() = default;
  // The insertion arrays point into the fact sets' nodes.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Asserts one ground fact. Returns false if it was already present.
  bool add_fact(const std::string& predicate, Fact fact);

  /// Compiles and registers a rule. Throws std::invalid_argument if a head
  /// variable or a disequality variable is not bound by the body. Rules
  /// added after run() require a re-run.
  void add_rule(Rule rule);

  /// Evaluates all rules to fixpoint (semi-naive).
  void run();

  /// All facts of a predicate.
  const std::set<Fact>& facts(const std::string& predicate) const;

  /// True if the ground atom holds.
  bool holds(const std::string& predicate, const Fact& fact) const;

  /// Finds every binding of the pattern's variables against the database.
  /// Ground terms in the pattern filter; variables bind. Results come in
  /// the std::set order of the matched facts.
  std::vector<Bindings> query(const Atom& pattern) const;

  /// Multi-atom conjunctive query with shared variables. Results come in
  /// lexicographic order of the matched facts, atom by atom.
  std::vector<Bindings> query_all(const std::vector<Atom>& pattern) const;

  std::size_t fact_count() const;
  std::size_t predicate_count() const;
  std::vector<std::string> predicates() const;

  /// Facts that run()'s joins have looked at, over the engine's lifetime:
  /// a machine-independent measure of join work.
  std::size_t candidates_visited() const { return candidates_visited_; }

 private:
  /// How one column of a compiled atom treats the fact's value.
  struct Column {
    enum class Kind : std::uint8_t { kConst, kBind, kCheck };
    Kind kind = Kind::kConst;
    std::uint32_t slot = 0;
    Value constant;
  };

  using SlotPair = std::pair<std::uint32_t, std::uint32_t>;

  /// The facts a step may match, as a range of insertion positions.
  enum class Source : std::uint8_t { kDelta, kOld, kAll };

  /// One join level: match the facts of `relation` in `source` against
  /// `columns`, probing the index of column `probe` (or scanning if -1),
  /// then test `diseq`.
  struct Step {
    std::uint32_t relation = 0;
    Source source = Source::kAll;
    std::vector<Column> columns;
    int probe = -1;
    std::vector<SlotPair> diseq;
  };

  struct CompiledRule {
    std::uint32_t head_relation = 0;
    std::vector<Column> head;  ///< kConst, or kCheck reading a slot
    std::size_t slots = 0;
    std::vector<std::uint32_t> body_relations;
    /// plans[p]: the join order with body atom p restricted to the delta.
    std::vector<std::vector<Step>> plans;
  };

  struct Relation {
    Relation() = default;
    Relation(const Relation&) = delete;
    Relation& operator=(const Relation&) = delete;
    Relation(Relation&&) noexcept = default;
    Relation& operator=(Relation&&) noexcept = default;

    std::set<Fact> facts;
    std::vector<const Fact*> order;  ///< facts in insertion order
    /// index[c][v]: ascending positions in `order` of facts with column c == v.
    std::vector<std::unordered_map<Value, std::vector<std::uint32_t>>> index;
    std::uint32_t delta_begin = 0;  ///< order[delta_begin, delta_end) is the delta
    std::uint32_t delta_end = 0;
  };

  std::map<std::string, std::uint32_t> ids_;
  std::vector<Relation> relations_;
  std::vector<CompiledRule> rules_;
  std::size_t candidates_visited_ = 0;

  std::uint32_t relation_id(const std::string& predicate);
  const Relation* find(const std::string& predicate) const;
  bool insert(Relation& rel, Fact&& fact);

  /// Builds the steps that join `atoms` (with their relations and sources)
  /// in the given order. A variable's first column binds its slot and
  /// later ones check it; each disequality is tested at the first step
  /// where both of its slots are bound.
  static std::vector<Step> compile_steps(const std::vector<const Atom*>& atoms,
                                         const std::vector<std::uint32_t>& relations,
                                         const std::vector<Source>& sources,
                                         const std::map<std::string, std::uint32_t>& slot_of,
                                         const std::vector<SlotPair>& diseq);

  /// Enumerates every binding of `steps[i..]` into `slots`, calling
  /// `emit()` for each complete match; `matched[i]` is step i's fact.
  template <typename Emit>
  void join(const std::vector<Step>& steps, std::size_t i, std::vector<Value>& slots,
            std::vector<const Fact*>& matched, std::size_t& visited, Emit& emit) const;

  std::vector<Bindings> run_query(const std::vector<Atom>& pattern) const;
};

}  // namespace edgstr::datalog

