// Server-state capture and isolation (§III-B, §III-C).
//
// A ProfilingHarness hosts one cloud service (MiniJS program + database +
// VFS) for *analysis*. It implements the paper's state-isolation protocol:
//
//   init, save "init", exec_i, restore "init", exec_{i+1}, restore "init" ...
//
// so every profiled execution starts from the identical checkpointed init
// state, even for stateful services. Snapshots cover the three replication
// units: database tables, files, and global variables.
//
// Snapshots are copy-on-write: each unit is a map of per-component
// immutable JSON values shared between consecutive snapshots (a component
// is one table, one file, or one global). Tables and files carry the
// process-wide epoch stamps of their substrate (sqldb::Database /
// vfs::Vfs, drawn from util::next_epoch); globals carry content digests,
// because JsValue aliasing makes write-tracking unsound for them. Either
// way equal nonzero stamps mean equal content, whichever harness captured
// them; stamp 0 (from_json / from_units) always compares and restores by
// content. Capture serializes only components whose stamp moved, restore
// writes only components whose stamp differs, and diff_snapshots compares
// stamps before content — all O(state touched) instead of O(total state). A capture never sizes a component, and copies
// each changed body at most once; Snapshot::size_bytes() sizes on demand.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "minijs/interpreter.h"
#include "obs/telemetry.h"
#include "trace/rwlog.h"

namespace edgstr::trace {

/// One immutable component of a snapshot (a table, file, or global).
struct SnapshotComponent {
  std::shared_ptr<const json::Value> value;  ///< serialized component state
  std::uint64_t stamp = 0;  ///< epoch (tables/files) or content digest (globals)
};

using ComponentMap = std::map<std::string, SnapshotComponent>;

/// Full server state: the three replication units, as shared components.
struct Snapshot {
  ComponentMap tables;   ///< table name -> per-table snapshot
  ComponentMap files;    ///< path -> {"contents", "version"}
  ComponentMap globals;  ///< global name -> JSON value

  /// Serialized size — the paper's S_app baseline for cross-ISA comparison.
  /// Sized on demand (captures never size): equals to_json().wire_size(),
  /// summed over the components without building the aggregate text.
  std::uint64_t size_bytes() const;

  /// Unit materializers: the legacy aggregate JSON shapes, for replica
  /// bootstrap and external persistence.
  json::Value database_json() const;  ///< {"tables": [sorted table snapshots]}
  json::Value files_json() const;     ///< {path: entry} (sorted)
  json::Value globals_json() const;   ///< {name: value} (sorted)

  json::Value to_json() const;
  static Snapshot from_json(const json::Value& v);
  /// Splits aggregate unit JSON into a snapshot of stamp-0 components,
  /// moving each table, file and global into its component.
  static Snapshot from_units(json::Value database, json::Value files, json::Value globals);
};

/// Which state units a single execution modified.
struct StateDiff {
  std::set<std::string> changed_tables;
  std::set<std::string> changed_files;
  std::set<std::string> changed_globals;

  bool empty() const {
    return changed_tables.empty() && changed_files.empty() && changed_globals.empty();
  }
  std::size_t total() const {
    return changed_tables.size() + changed_files.size() + changed_globals.size();
  }
};

/// Computes which units differ between two snapshots. Components short-
/// circuit on equal nonzero stamps; everything else falls back to content
/// comparison (files compare contents only — a same-content rewrite is not
/// a change).
StateDiff diff_snapshots(const Snapshot& before, const Snapshot& after);

/// Extracts the user-global variables of an interpreter as a JSON object
/// (functions excluded: code is replicated separately from state).
json::Value capture_globals(minijs::Interpreter& interp);

/// Writes captured globals back into the interpreter's global scope via
/// each variable's implicit set operation.
void restore_globals(minijs::Interpreter& interp, const json::Value& globals);

struct HarnessOptions {
  /// Copy-on-write checkpointing. Off = serialize/restore everything on
  /// every save/restore (the pre-optimization baseline, kept for
  /// differential testing and A/B benchmarks).
  bool cow = true;
};

class ProfilingHarness {
 public:
  /// Parses the server source and runs its init (top level). The post-init
  /// state is checkpointed as the canonical init snapshot.
  explicit ProfilingHarness(const std::string& server_source,
                            minijs::InterpreterConfig config = minijs::InterpreterConfig(),
                            HarnessOptions options = HarnessOptions());

  minijs::Interpreter& interpreter() { return *interp_; }
  sqldb::Database& database() { return db_; }
  vfs::Vfs& filesystem() { return fs_; }
  const Snapshot& init_snapshot() const { return init_snapshot_; }

  /// Current full state. Unchanged components share their JSON value with
  /// the previous capture. Only interpreter-driven execution and this
  /// harness's restore() may mutate state between captures; writing to the
  /// interpreter's global scope behind the harness's back goes unseen
  /// until the step counter next advances.
  Snapshot capture();
  /// Restores a previously captured state, skipping components whose
  /// current stamp already matches.
  void restore(const Snapshot& snapshot);
  /// Restores the checkpointed init state (the `restore "init"` step).
  void restore_init() { restore(init_snapshot_); }

  /// Runs one service execution against the *current* state with optional
  /// instrumentation.
  http::HttpResponse invoke(const http::Route& route, const http::HttpRequest& request,
                            RwCollector* collector = nullptr);

  /// State-isolated execution: restore init, execute (instrumented), diff
  /// the resulting state, restore init again. Returns response + diff.
  struct IsolatedResult {
    http::HttpResponse response;
    StateDiff state_diff;
    double compute_units = 0;
  };
  IsolatedResult invoke_isolated(const http::Route& route, const http::HttpRequest& request,
                                 RwCollector* collector = nullptr);

  /// Checkpoint observability: when attached, capture() and restore()
  /// record `snapshot.save.ms` / `snapshot.restore.ms` histograms. One
  /// branch per call when detached (the default). The values are
  /// wall-clock, so never attach the deterministic sim telemetry here —
  /// this hook is for benches and profiling runs.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  /// Digest-stamped components of the current interpreter globals. Reuses
  /// the cache wholesale while the interpreter step counter is unchanged,
  /// and per-component when a global's digest is unchanged.
  ComponentMap capture_global_components();

  Snapshot capture_now();
  void restore_now(const Snapshot& snapshot);

  sqldb::Database db_;
  vfs::Vfs fs_;
  std::unique_ptr<minijs::Interpreter> interp_;
  Snapshot init_snapshot_;
  HarnessOptions options_;
  obs::Telemetry* telemetry_ = nullptr;

  ComponentMap global_cache_;      ///< last-known digests + serialized values
  std::uint64_t cache_steps_ = 0;  ///< interp step count when cache was built
  bool cache_valid_ = false;
};

}  // namespace edgstr::trace
