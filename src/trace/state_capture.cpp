#include "trace/state_capture.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "minijs/parser.h"
#include "util/intern.h"

namespace edgstr::trace {

namespace {

// Serialized size of one object section {key:value,...}. Keys pay their
// JSON string-escaped length.
std::uint64_t object_section_size(const ComponentMap& components) {
  std::uint64_t total = 2;  // {}
  bool first = true;
  for (const auto& [key, comp] : components) {
    if (!first) ++total;  // comma
    first = false;
    total += json::string_wire_size(key) + 1 + comp.value->wire_size();  // "key":value
  }
  return total;
}

SnapshotComponent make_component(json::Value value, std::uint64_t stamp) {
  return SnapshotComponent{std::make_shared<const json::Value>(std::move(value)), stamp};
}

}  // namespace

std::uint64_t Snapshot::size_bytes() const {
  // Mirrors json::Value::write byte-for-byte:
  //   {"database":{"tables":[...]},"files":{...},"globals":{...}}
  // = 33 punctuation/key bytes + the three unit bodies.
  std::uint64_t db = 13;  // {"tables":[]}
  if (!tables.empty()) {
    for (const auto& [name, comp] : tables) db += comp.value->wire_size();
    db += tables.size() - 1;  // commas
  }
  return 33 + db + object_section_size(files) + object_section_size(globals);
}

json::Value Snapshot::database_json() const {
  json::Array arr;
  for (const auto& [name, comp] : tables) arr.push_back(*comp.value);
  return json::Value::object({{"tables", json::Value(std::move(arr))}});
}

json::Value Snapshot::files_json() const {
  json::Object out;
  for (const auto& [path, comp] : files) out.set(path, *comp.value);
  return json::Value(std::move(out));
}

json::Value Snapshot::globals_json() const {
  json::Object out;
  for (const auto& [name, comp] : globals) out.set(name, *comp.value);
  return json::Value(std::move(out));
}

json::Value Snapshot::to_json() const {
  return json::Value::object(
      {{"database", database_json()}, {"files", files_json()}, {"globals", globals_json()}});
}

Snapshot Snapshot::from_json(const json::Value& v) {
  return from_units(v["database"], v["files"], v["globals"]);
}

Snapshot Snapshot::from_units(json::Value database, json::Value files, json::Value globals) {
  Snapshot snap;
  for (json::Value& t : database.as_object().at("tables").as_array()) {
    std::string name = t["name"].as_string();
    snap.tables.emplace(std::move(name), make_component(std::move(t), 0));
  }
  for (auto& [path, entry] : files.as_object()) {
    snap.files.emplace(std::move(path), make_component(std::move(entry), 0));
  }
  for (auto& [name, value] : globals.as_object()) {
    snap.globals.emplace(std::move(name), make_component(std::move(value), 0));
  }
  return snap;
}

StateDiff diff_snapshots(const Snapshot& before, const Snapshot& after) {
  StateDiff diff;
  const auto diff_unit = [](const ComponentMap& b, const ComponentMap& a,
                            std::set<std::string>& changed, bool contents_only) {
    for (const auto& [key, comp] : a) {
      const auto it = b.find(key);
      if (it == b.end()) {
        changed.insert(key);
        continue;
      }
      const SnapshotComponent& prev = it->second;
      if (prev.value == comp.value) continue;                    // shared => identical
      if (prev.stamp != 0 && prev.stamp == comp.stamp) continue;  // stamp equality => unchanged
      const bool equal = contents_only
                             ? (*prev.value)["contents"] == (*comp.value)["contents"]
                             : *prev.value == *comp.value;
      if (!equal) changed.insert(key);
    }
    for (const auto& [key, comp] : b) {
      if (!a.count(key)) changed.insert(key);
    }
  };
  diff_unit(before.tables, after.tables, diff.changed_tables, /*contents_only=*/false);
  diff_unit(before.files, after.files, diff.changed_files, /*contents_only=*/true);
  diff_unit(before.globals, after.globals, diff.changed_globals, /*contents_only=*/false);
  return diff;
}

json::Value capture_globals(minijs::Interpreter& interp) {
  // Name-sorted for deterministic JSON (scope iteration order is not).
  std::vector<std::pair<const std::string*, const minijs::JsValue*>> items;
  interp.globals()->each_local([&](util::Symbol sym, const minijs::JsValue& value) {
    if (value.is_callable()) return;  // code, not state
    items.emplace_back(&util::symbol_name(sym), &value);
  });
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  json::Object out;
  for (const auto& [name, value] : items) out.set(*name, value->to_json());
  return json::Value(std::move(out));
}

void restore_globals(minijs::Interpreter& interp, const json::Value& globals) {
  minijs::Environment& env = *interp.globals();
  // Remove non-function globals that the snapshot does not contain.
  std::vector<util::Symbol> stale;
  env.each_local([&](util::Symbol sym, const minijs::JsValue& value) {
    if (!value.is_callable() && !globals.find(util::symbol_name(sym))) stale.push_back(sym);
  });
  for (const util::Symbol sym : stale) env.erase_local(sym);
  for (const auto& [name, value] : globals.as_object()) {
    env.define(name, minijs::JsValue::from_json(value));
  }
}

ProfilingHarness::ProfilingHarness(const std::string& server_source,
                                   minijs::InterpreterConfig config, HarnessOptions options)
    : options_(options) {
  minijs::Program program = minijs::parse_program(server_source);
  interp_ = std::make_unique<minijs::Interpreter>(std::move(program), config);
  interp_->bind_database(&db_);
  interp_->bind_vfs(&fs_);
  interp_->run_toplevel();
  interp_->drain_compute_units();  // init-time compute is not per-request
  init_snapshot_ = capture();
}

ComponentMap ProfilingHarness::capture_global_components() {
  if (cache_valid_ && interp_->steps() == cache_steps_) return global_cache_;
  ComponentMap out;
  interp_->globals()->each_local([&](util::Symbol sym, const minijs::JsValue& value) {
    if (value.is_callable()) return;  // code, not state
    const std::string& name = util::symbol_name(sym);
    const std::uint64_t digest = value.digest();
    const auto it = global_cache_.find(name);
    if (it != global_cache_.end() && it->second.stamp == digest) {
      out.emplace(name, it->second);  // unchanged: share the serialized value
      return;
    }
    out.emplace(name, make_component(value.to_json(), digest));
  });
  global_cache_ = out;
  cache_steps_ = interp_->steps();
  cache_valid_ = true;
  return out;
}

Snapshot ProfilingHarness::capture() {
  if (!telemetry_) return capture_now();
  const auto started = std::chrono::steady_clock::now();
  Snapshot snap = capture_now();
  telemetry_->metrics().observe(
      "snapshot.save.ms",
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count());
  return snap;
}

void ProfilingHarness::restore(const Snapshot& snapshot) {
  if (!telemetry_) return restore_now(snapshot);
  const auto started = std::chrono::steady_clock::now();
  restore_now(snapshot);
  telemetry_->metrics().observe(
      "snapshot.restore.ms",
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count());
}

Snapshot ProfilingHarness::capture_now() {
  if (!options_.cow) {
    return Snapshot::from_units(db_.snapshot(), fs_.snapshot(), capture_globals(*interp_));
  }
  Snapshot snap;
  for (auto& c : db_.component_snapshots()) {
    snap.tables.emplace(std::move(c.name), SnapshotComponent{std::move(c.value), c.epoch});
  }
  for (auto& c : fs_.component_snapshots()) {
    snap.files.emplace(std::move(c.path), SnapshotComponent{std::move(c.value), c.epoch});
  }
  snap.globals = capture_global_components();
  return snap;
}

void ProfilingHarness::restore_now(const Snapshot& snapshot) {
  if (!options_.cow) {
    // CoW disabled: full rebuild of every unit.
    db_.restore(snapshot.database_json());
    fs_.restore(snapshot.files_json());
    restore_globals(*interp_, snapshot.globals_json());
    cache_valid_ = false;
    return;
  }

  // Tables: drop extras, rewrite only tables whose epoch differs. Stamp 0
  // (content of unknown provenance) always rewrites; the guard also keeps
  // it from matching table_epoch()'s 0 for a missing table.
  for (const std::string& name : db_.table_names()) {
    if (!snapshot.tables.count(name)) db_.erase_table(name);
  }
  for (const auto& [name, comp] : snapshot.tables) {
    if (comp.stamp != 0 && db_.table_epoch(name) == comp.stamp) continue;
    db_.restore_table(*comp.value, comp.stamp);
  }
  db_.clear_mutation_log();

  // Files: same protocol.
  for (const std::string& path : fs_.list()) {
    if (!snapshot.files.count(path)) fs_.erase_file(path);
  }
  for (const auto& [path, comp] : snapshot.files) {
    if (comp.stamp != 0 && fs_.entry_epoch(path) == comp.stamp) continue;
    fs_.restore_file(path, *comp.value, comp.stamp);
  }

  // Globals: digest-compare against the live environment.
  const ComponentMap current = capture_global_components();
  minijs::Environment& env = *interp_->globals();
  for (const auto& [name, comp] : current) {
    if (!snapshot.globals.count(name)) env.erase_local(util::intern(name));
  }
  for (const auto& [name, comp] : snapshot.globals) {
    const auto it = current.find(name);
    if (comp.stamp != 0 && it != current.end() && it->second.stamp == comp.stamp) continue;
    env.define(name, minijs::JsValue::from_json(*comp.value));
  }
  // The environment now matches the snapshot exactly; adopt its components
  // as the cache so the next capture is stamp-only. Stamp-0 globals carry
  // no digest, so their presence makes the next capture digest afresh.
  global_cache_ = snapshot.globals;
  cache_steps_ = interp_->steps();
  cache_valid_ = std::all_of(snapshot.globals.begin(), snapshot.globals.end(),
                             [](const auto& entry) { return entry.second.stamp != 0; });
}

http::HttpResponse ProfilingHarness::invoke(const http::Route& route,
                                            const http::HttpRequest& request,
                                            RwCollector* collector) {
  interp_->set_hooks(collector);
  http::HttpResponse response;
  try {
    response = interp_->invoke(route, request);
  } catch (...) {
    interp_->set_hooks(nullptr);
    throw;
  }
  interp_->set_hooks(nullptr);
  return response;
}

ProfilingHarness::IsolatedResult ProfilingHarness::invoke_isolated(
    const http::Route& route, const http::HttpRequest& request, RwCollector* collector) {
  restore_init();
  interp_->drain_compute_units();
  IsolatedResult result;
  result.response = invoke(route, request, collector);
  result.compute_units = interp_->drain_compute_units();
  const Snapshot after = capture();
  result.state_diff = diff_snapshots(init_snapshot_, after);
  restore_init();
  return result;
}

}  // namespace edgstr::trace
