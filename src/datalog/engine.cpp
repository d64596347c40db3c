#include "datalog/engine.h"

#include <algorithm>
#include <stdexcept>

namespace edgstr::datalog {

std::uint32_t Engine::relation_id(const std::string& predicate) {
  const auto [it, inserted] =
      ids_.emplace(predicate, static_cast<std::uint32_t>(relations_.size()));
  if (inserted) relations_.emplace_back();
  return it->second;
}

const Engine::Relation* Engine::find(const std::string& predicate) const {
  const auto it = ids_.find(predicate);
  return it == ids_.end() ? nullptr : &relations_[it->second];
}

bool Engine::insert(Relation& rel, Fact&& fact) {
  const auto [it, inserted] = rel.facts.insert(std::move(fact));
  if (!inserted) return false;
  const Fact& stored = *it;
  const auto pos = static_cast<std::uint32_t>(rel.order.size());
  rel.order.push_back(&stored);
  if (rel.index.size() < stored.size()) rel.index.resize(stored.size());
  for (std::size_t c = 0; c < stored.size(); ++c) rel.index[c][stored[c]].push_back(pos);
  return true;
}

bool Engine::add_fact(const std::string& predicate, Fact fact) {
  return insert(relations_[relation_id(predicate)], std::move(fact));
}

void Engine::add_rule(Rule rule) {
  if (rule.head.terms.empty()) throw std::invalid_argument("rule head needs terms");

  // Slots in order of first appearance in the body.
  std::map<std::string, std::uint32_t> slot_of;
  for (const Atom& atom : rule.body) {
    for (const Term& t : atom.terms) {
      if (t.is_var()) slot_of.emplace(t.var_name(), static_cast<std::uint32_t>(slot_of.size()));
    }
  }

  CompiledRule compiled;
  compiled.slots = slot_of.size();
  for (const Term& t : rule.head.terms) {
    Column column;
    if (t.is_var()) {
      const auto it = slot_of.find(t.var_name());
      if (it == slot_of.end()) {
        throw std::invalid_argument("unsafe rule: head variable '" + t.var_name() +
                                    "' not bound in body: " + rule.to_string());
      }
      column.kind = Column::Kind::kCheck;
      column.slot = it->second;
    } else {
      column.constant = t.value();
    }
    compiled.head.push_back(column);
  }
  std::vector<SlotPair> diseq;
  for (const Disequality& d : rule.diseq) {
    for (const std::string* name : {&d.left, &d.right}) {
      if (!slot_of.count(*name)) {
        throw std::invalid_argument("unsafe rule: disequality variable '" + *name +
                                    "' not bound in body: " + rule.to_string());
      }
    }
    diseq.emplace_back(slot_of.at(d.left), slot_of.at(d.right));
  }

  compiled.head_relation = relation_id(rule.head.predicate);
  for (const Atom& atom : rule.body) compiled.body_relations.push_back(relation_id(atom.predicate));

  // One plan per delta position: the delta atom first, then the others in
  // body order; atoms before it see only pre-delta facts.
  const std::size_t k = rule.body.size();
  for (std::size_t p = 0; p < k; ++p) {
    std::vector<const Atom*> atoms{&rule.body[p]};
    std::vector<std::uint32_t> relations{compiled.body_relations[p]};
    std::vector<Source> sources{Source::kDelta};
    for (std::size_t q = 0; q < k; ++q) {
      if (q == p) continue;
      atoms.push_back(&rule.body[q]);
      relations.push_back(compiled.body_relations[q]);
      sources.push_back(q < p ? Source::kOld : Source::kAll);
    }
    compiled.plans.push_back(compile_steps(atoms, relations, sources, slot_of, diseq));
  }
  rules_.push_back(std::move(compiled));
}

std::vector<Engine::Step> Engine::compile_steps(
    const std::vector<const Atom*>& atoms, const std::vector<std::uint32_t>& relations,
    const std::vector<Source>& sources, const std::map<std::string, std::uint32_t>& slot_of,
    const std::vector<SlotPair>& diseq) {
  std::vector<bool> bound(slot_of.size(), false);
  std::vector<bool> tested(diseq.size(), false);
  std::vector<Step> steps;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    Step step;
    step.relation = relations[i];
    step.source = sources[i];
    const std::vector<bool> bound_before = bound;
    const std::vector<Term>& terms = atoms[i]->terms;
    for (std::size_t c = 0; c < terms.size(); ++c) {
      Column column;
      if (!terms[c].is_var()) {
        column.constant = terms[c].value();
      } else {
        column.slot = slot_of.at(terms[c].var_name());
        column.kind = bound[column.slot] ? Column::Kind::kCheck : Column::Kind::kBind;
        bound[column.slot] = true;
      }
      const bool known = column.kind == Column::Kind::kConst || bound_before[column.slot];
      if (step.probe < 0 && known) step.probe = static_cast<int>(c);
      step.columns.push_back(column);
    }
    for (std::size_t d = 0; d < diseq.size(); ++d) {
      if (!tested[d] && bound[diseq[d].first] && bound[diseq[d].second]) {
        step.diseq.push_back(diseq[d]);
        tested[d] = true;
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

template <typename Emit>
void Engine::join(const std::vector<Step>& steps, std::size_t i, std::vector<Value>& slots,
                  std::vector<const Fact*>& matched, std::size_t& visited, Emit& emit) const {
  if (i == steps.size()) {
    emit();
    return;
  }
  const Step& step = steps[i];
  const Relation& rel = relations_[step.relation];
  std::uint32_t lo = 0;
  auto hi = static_cast<std::uint32_t>(rel.order.size());
  if (step.source == Source::kDelta) {
    lo = rel.delta_begin;
    hi = rel.delta_end;
  } else if (step.source == Source::kOld) {
    hi = rel.delta_begin;
  }

  const auto visit = [&](const Fact& fact) {
    ++visited;
    if (fact.size() != step.columns.size()) return;
    for (std::size_t c = 0; c < fact.size(); ++c) {
      const Column& column = step.columns[c];
      switch (column.kind) {
        case Column::Kind::kConst:
          if (!(fact[c] == column.constant)) return;
          break;
        case Column::Kind::kCheck:
          if (!(fact[c] == slots[column.slot])) return;
          break;
        case Column::Kind::kBind:
          slots[column.slot] = fact[c];
          break;
      }
    }
    for (const auto& [l, r] : step.diseq) {
      if (slots[l] == slots[r]) return;
    }
    matched[i] = &fact;
    join(steps, i + 1, slots, matched, visited, emit);
  };

  if (step.probe < 0) {
    for (std::uint32_t pos = lo; pos < hi; ++pos) visit(*rel.order[pos]);
    return;
  }
  const auto probe = static_cast<std::size_t>(step.probe);
  if (probe >= rel.index.size()) return;
  const Column& key = step.columns[probe];
  const auto it =
      rel.index[probe].find(key.kind == Column::Kind::kConst ? key.constant : slots[key.slot]);
  if (it == rel.index[probe].end()) return;
  const std::vector<std::uint32_t>& bucket = it->second;
  auto pos = lo == 0 ? bucket.begin() : std::lower_bound(bucket.begin(), bucket.end(), lo);
  for (; pos != bucket.end() && *pos < hi; ++pos) visit(*rel.order[*pos]);
}

void Engine::run() {
  // The first round treats every fact as new, which makes it a naive pass.
  for (Relation& rel : relations_) {
    rel.delta_begin = 0;
    rel.delta_end = static_cast<std::uint32_t>(rel.order.size());
  }

  std::vector<Value> slots;
  std::vector<const Fact*> matched;
  std::vector<Value> pending;  // derived head tuples, flat
  Fact scratch;
  std::size_t visited = 0;
  // Derived facts are inserted only after the join: inserting grows the
  // index buckets the join is iterating.
  const auto derive = [&](const CompiledRule& rule, const std::vector<Step>& plan) {
    pending.clear();
    slots.assign(rule.slots, Value());
    matched.assign(plan.size(), nullptr);
    const auto emit = [&] {
      for (const Column& column : rule.head) {
        pending.push_back(column.kind == Column::Kind::kConst ? column.constant
                                                              : slots[column.slot]);
      }
    };
    join(plan, 0, slots, matched, visited, emit);
    Relation& head = relations_[rule.head_relation];
    const std::size_t arity = rule.head.size();
    for (std::size_t at = 0; at < pending.size(); at += arity) {
      scratch.assign(pending.begin() + static_cast<std::ptrdiff_t>(at),
                     pending.begin() + static_cast<std::ptrdiff_t>(at + arity));
      insert(head, std::move(scratch));
    }
  };

  for (const CompiledRule& rule : rules_) {
    if (rule.plans.empty()) derive(rule, {});  // a bodiless rule holds once
  }
  for (bool changed = true; changed;) {
    for (const CompiledRule& rule : rules_) {
      for (std::size_t p = 0; p < rule.plans.size(); ++p) {
        const Relation& delta = relations_[rule.body_relations[p]];
        if (delta.delta_begin == delta.delta_end) continue;
        // Atoms before p match only pre-delta facts; with none, no match.
        bool old_empty = false;
        for (std::size_t q = 0; q < p; ++q) {
          old_empty = old_empty || relations_[rule.body_relations[q]].delta_begin == 0;
        }
        if (!old_empty) derive(rule, rule.plans[p]);
      }
    }
    changed = false;
    for (Relation& rel : relations_) {
      rel.delta_begin = rel.delta_end;
      rel.delta_end = static_cast<std::uint32_t>(rel.order.size());
      changed = changed || rel.delta_begin != rel.delta_end;
    }
  }
  candidates_visited_ += visited;
}

const std::set<Fact>& Engine::facts(const std::string& predicate) const {
  static const std::set<Fact> kEmpty;
  const Relation* rel = find(predicate);
  return rel ? rel->facts : kEmpty;
}

bool Engine::holds(const std::string& predicate, const Fact& fact) const {
  const Relation* rel = find(predicate);
  return rel && rel->facts.count(fact) > 0;
}

std::vector<Bindings> Engine::run_query(const std::vector<Atom>& pattern) const {
  std::map<std::string, std::uint32_t> slot_of;
  std::vector<const Atom*> atoms;
  std::vector<std::uint32_t> relations;
  for (const Atom& atom : pattern) {
    const auto id = ids_.find(atom.predicate);
    if (id == ids_.end()) return {};
    atoms.push_back(&atom);
    relations.push_back(id->second);
    for (const Term& t : atom.terms) {
      if (t.is_var()) slot_of.emplace(t.var_name(), static_cast<std::uint32_t>(slot_of.size()));
    }
  }
  const std::vector<Step> steps = compile_steps(
      atoms, relations, std::vector<Source>(atoms.size(), Source::kAll), slot_of, {});

  std::vector<Value> slots(slot_of.size());
  std::vector<const Fact*> matched(steps.size(), nullptr);
  std::vector<std::pair<std::vector<const Fact*>, Bindings>> found;
  std::size_t visited = 0;
  const auto emit = [&] {
    Bindings bindings;
    for (const auto& [name, slot] : slot_of) bindings.emplace(name, slots[slot]);
    found.emplace_back(matched, std::move(bindings));
  };
  join(steps, 0, slots, matched, visited, emit);

  // Index buckets hold insertion order; answer in fact order.
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return std::lexicographical_compare(a.first.begin(), a.first.end(), b.first.begin(),
                                        b.first.end(),
                                        [](const Fact* x, const Fact* y) { return *x < *y; });
  });
  std::vector<Bindings> out;
  out.reserve(found.size());
  for (auto& [facts, bindings] : found) out.push_back(std::move(bindings));
  return out;
}

std::vector<Bindings> Engine::query(const Atom& pattern) const { return run_query({pattern}); }

std::vector<Bindings> Engine::query_all(const std::vector<Atom>& pattern) const {
  return run_query(pattern);
}

std::size_t Engine::fact_count() const {
  std::size_t total = 0;
  for (const Relation& rel : relations_) total += rel.facts.size();
  return total;
}

// A relation exists for every predicate a rule names; it counts once it
// holds a fact, as a predicate that was asserted or derived.
std::size_t Engine::predicate_count() const {
  return static_cast<std::size_t>(std::count_if(
      relations_.begin(), relations_.end(), [](const Relation& rel) { return !rel.facts.empty(); }));
}

std::vector<std::string> Engine::predicates() const {
  std::vector<std::string> out;
  for (const auto& [name, id] : ids_) {
    if (!relations_[id].facts.empty()) out.push_back(name);
  }
  return out;
}

}  // namespace edgstr::datalog
