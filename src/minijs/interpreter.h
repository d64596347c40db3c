// MiniJS tree-walking interpreter with jalangi-style instrumentation.
//
// The interpreter hosts one *server program*: executing the top level is
// the service's `init` (§III-B step 1) — it loads models, creates tables,
// declares globals, and registers REST routes via `app.get(path, handler)`.
// `invoke()` then performs steps (2)(3)(4) of one service execution:
// unmarshal the HTTP parameters into a `req` object, run the handler, and
// marshal whatever the handler passed to `res.send(...)`.
//
// Instrumentation hooks mirror jalangi's callback API (the paper modifies
// INVOKEFUNCTION(LOC, F, ARGS, VAL)): every declare/read/write/invoke is
// reported with the enclosing statement id, which is what the trace module
// turns into RW-LOG facts. Names cross the hook boundary as interned
// symbols — no string copies per event.
//
// Execution comes in two compiled flavours, selected once per entry point
// on whether hooks are installed: the whole evaluator is a template over
// `WithHooks`, so the serve path (hooks off) contains no instrumentation
// branches or virtual dispatch at all.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "http/message.h"
#include "http/router.h"
#include "minijs/ast.h"
#include "minijs/chunk.h"
#include "minijs/resolve.h"
#include "minijs/value.h"
#include "sqldb/database.h"
#include "util/intern.h"
#include "util/rng.h"
#include "vfs/vfs.h"

namespace edgstr::minijs {

class Vm;

/// Runtime error raised by MiniJS code (`throw`), by builtins, or by the
/// interpreter itself (type errors, step-limit exhaustion).
class JsError : public std::runtime_error {
 public:
  explicit JsError(const std::string& what, JsValue value = JsValue())
      : std::runtime_error(what), value_(std::move(value)) {}
  const JsValue& value() const { return value_; }

 private:
  JsValue value_;
};

/// jalangi-equivalent callback surface. Names are interned symbols; use
/// util::symbol_name() when the text is needed.
class InstrumentationHooks {
 public:
  virtual ~InstrumentationHooks() = default;
  virtual void on_declare(int stmt_id, util::Symbol name, const JsValue& value) {
    (void)stmt_id; (void)name; (void)value;
  }
  virtual void on_read(int stmt_id, util::Symbol name, const JsValue& value) {
    (void)stmt_id; (void)name; (void)value;
  }
  virtual void on_write(int stmt_id, util::Symbol name, const JsValue& value) {
    (void)stmt_id; (void)name; (void)value;
  }
  /// F = function name, ARGS, VAL = result — the INVOKEFUNCTION callback.
  virtual void on_invoke(int stmt_id, util::Symbol fn, const std::vector<JsValue>& args,
                         const JsValue& result) {
    (void)stmt_id; (void)fn; (void)args; (void)result;
  }
};

/// Interpreter tuning knobs.
struct InterpreterConfig {
  /// Runaway-loop guard: steps one entry point (run_toplevel, invoke,
  /// call_function, call_global) may take, nested calls included.
  std::uint64_t max_steps = 10'000'000;
  std::uint64_t rng_seed = 7;            ///< for Math.random determinism
  int max_call_depth = 512;              ///< guards the host C++ stack
  bool resolve = true;  ///< run the static resolver (false -> named slow path)
  bool vm = false;      ///< compile to bytecode and run on the VM (forces resolve)
};

class Interpreter {
 public:
  using Config = InterpreterConfig;

  explicit Interpreter(Program program, Config config = Config());
  ~Interpreter();

  // Host bindings (must be set before run_toplevel for services that use
  // them; they may also be swapped between executions for state isolation).
  void bind_database(sqldb::Database* db) { db_ = db; }
  void bind_vfs(vfs::Vfs* vfs) { vfs_ = vfs; }
  void set_hooks(InstrumentationHooks* hooks) { hooks_ = hooks; }

  sqldb::Database* database() { return db_; }
  vfs::Vfs* filesystem() { return vfs_; }

  /// Executes the program top level (the service `init`).
  void run_toplevel();

  /// REST routes registered during init.
  const std::map<http::Route, JsValue>& routes() const { return routes_; }
  bool has_route(const http::Route& route) const { return routes_.count(route) > 0; }

  /// One service execution exec_i: unmarshal -> handler -> marshal.
  /// Throws JsError if the handler throws or never calls res.send.
  http::HttpResponse invoke(const http::Route& route, const http::HttpRequest& request);

  /// Calls an arbitrary function value (used by the extracted replica
  /// functions and by tests).
  JsValue call_function(const JsValue& fn, std::vector<JsValue> args);

  /// Calls a function *bound in the global scope* by name.
  JsValue call_global(const std::string& name, std::vector<JsValue> args);

  /// The user-global scope (top-level `var`s land here; builtins live in
  /// the parent scope and are invisible to state capture).
  const std::shared_ptr<Environment>& globals() { return globals_; }

  /// Program access for the analysis/refactoring stages.
  const Program& program() const { return program_; }

  /// Simulated CPU work units accrued by `compute(u)` since last drain.
  double drain_compute_units() {
    const double units = compute_units_;
    compute_units_ = 0;
    return units;
  }
  void add_compute(double units) { compute_units_ += units; }

  /// console.log lines captured since construction.
  const std::vector<std::string>& console_output() const { return console_; }
  void append_console(std::string line) { console_.push_back(std::move(line)); }

  util::Rng& rng() { return rng_; }

  // Execution counters (monotonic since construction; deterministic for a
  // given program + inputs, which is what the bench gates key on). Reads
  // and writes are counted separately: a fast-path assignment bumps
  // slot_writes, not slot_reads.
  std::uint64_t steps() const { return steps_; }
  std::uint64_t slot_reads() const { return slot_reads_; }    ///< fast-path reads
  std::uint64_t named_reads() const { return named_reads_; }  ///< dynamic-walk reads
  std::uint64_t slot_writes() const { return slot_writes_; }    ///< fast-path writes
  std::uint64_t named_writes() const { return named_writes_; }  ///< dynamic-walk writes
  /// Environments currently referenced: builtins, globals, and every frame
  /// a live closure or a running call holds. Flat across served requests.
  std::size_t live_environments() const { return heap_.live(); }

  // VM introspection (zeros / null when config.vm is off).
  bool vm_enabled() const { return vm_ != nullptr; }
  const CompiledProgram& compiled() const { return compiled_; }
  std::uint64_t ic_hits() const;    ///< inline-cache hits (prop + global + call)
  std::uint64_t ic_misses() const;  ///< inline-cache misses / refills

  /// Used by the `res.send` builtin.
  void set_pending_response(JsValue value, int status);

  /// Used by the `app.get/post/...` builtins during init.
  void register_route(http::Verb verb, const std::string& path, JsValue handler);

 private:
  friend class Vm;  ///< the bytecode engine shares the whole runtime state

  /// Allocates every environment below. Declared first so it is destroyed
  /// last: the other members drop their references, then its teardown frees
  /// what closure <-> environment cycles still hold. No closure or
  /// environment may outlive the interpreter.
  EnvHeap heap_;
  Program program_;
  Config config_;
  CompiledProgram compiled_;  ///< populated when config.vm is on
  std::unique_ptr<Vm> vm_;    ///< bytecode engine; null -> tree-walk only
  std::shared_ptr<Environment> builtins_;  ///< root scope: natives
  std::shared_ptr<Environment> globals_;   ///< user globals
  std::map<http::Route, JsValue> routes_;
  InstrumentationHooks* hooks_ = nullptr;
  sqldb::Database* db_ = nullptr;
  vfs::Vfs* vfs_ = nullptr;
  util::Rng rng_;
  std::uint64_t steps_ = 0;
  std::uint64_t step_limit_ = 0;  ///< steps_ value the current entry may reach
  int entry_depth_ = 0;           ///< nesting of public entry points
  std::uint64_t slot_reads_ = 0;
  std::uint64_t named_reads_ = 0;
  std::uint64_t slot_writes_ = 0;
  std::uint64_t named_writes_ = 0;
  double compute_units_ = 0;
  std::vector<std::string> console_;

  // Per-invocation response slot.
  JsValue pending_response_;
  int pending_status_ = 200;
  bool response_sent_ = false;

  int current_stmt_ = 0;  ///< statement id for hook attribution
  int call_depth_ = 0;    ///< live closure-call nesting

  // Control-flow signals.
  struct ReturnSignal { JsValue value; };
  struct BreakSignal {};
  struct ContinueSignal {};

  // The step budget belongs to the outermost entry point: entering it sets
  // the limit max_steps past the lifetime counter, and a nested entry (a
  // native calling back in) keeps the limit it finds. steps_ itself keeps
  // counting over the interpreter's lifetime.
  class EntryBudget {
   public:
    explicit EntryBudget(Interpreter& interp) : interp_(interp) {
      if (interp_.entry_depth_++ > 0) return;
      const std::uint64_t room = std::numeric_limits<std::uint64_t>::max() - interp_.steps_;
      interp_.step_limit_ = interp_.steps_ + std::min(interp_.config_.max_steps, room);
    }
    ~EntryBudget() { --interp_.entry_depth_; }
    EntryBudget(const EntryBudget&) = delete;
    EntryBudget& operator=(const EntryBudget&) = delete;

   private:
    Interpreter& interp_;
  };

  // One step of the runaway-loop guard. Inline: the VM calls this per
  // expression op, so an out-of-line call shows up in profiles.
  void tick() {
    if (++steps_ > step_limit_) {
      throw JsError("step limit exceeded (possible infinite loop)");
    }
  }

  std::shared_ptr<Environment> make_named(std::shared_ptr<Environment> parent);
  std::shared_ptr<Environment> make_frame(ScopeInfoPtr scope,
                                          std::shared_ptr<Environment> parent);
  /// Child scope for a block: a frame when the resolver laid one out, a
  /// named scope otherwise (slow path).
  std::shared_ptr<Environment> child_env(const ScopeInfoPtr& scope,
                                         const std::shared_ptr<Environment>& parent);

  // The evaluator proper. WithHooks selects the instrumented instantiation;
  // the hooks-off one compiles every callback away.
  template <bool WithHooks>
  void exec_stmt(const StmtPtr& stmt, const std::shared_ptr<Environment>& env);
  template <bool WithHooks>
  void exec_block(const StmtPtr& block, const std::shared_ptr<Environment>& env);
  template <bool WithHooks>
  JsValue eval(const ExprPtr& expr, const std::shared_ptr<Environment>& env);
  template <bool WithHooks>
  JsValue eval_call(const ExprPtr& expr, const std::shared_ptr<Environment>& env);
  template <bool WithHooks>
  JsValue eval_assign(const ExprPtr& expr, const std::shared_ptr<Environment>& env);
  template <bool WithHooks>
  JsValue call_value(const JsValue& fn, util::Symbol name, std::vector<JsValue>& args);
  template <bool WithHooks>
  JsValue builtin_method(const JsValue& receiver, const std::string& method,
                         std::vector<JsValue>& args, bool& handled);

  /// Resolved-identifier helpers: locate the storage for (depth, slot) /
  /// the global fast probe. Return nullptr to fall back to the named walk.
  JsValue* resolved_slot(const Expr& ident, Environment* env);
  JsValue* global_binding(util::Symbol sym);

  /// Base identifier of an lvalue chain (obj.a[i].b -> obj); kNoSymbol if
  /// the chain is not rooted in an identifier.
  static util::Symbol root_sym(const ExprPtr& expr);
};

/// Builds a `req` JsValue from an HttpRequest (params + payload blob).
JsValue make_request_object(const http::HttpRequest& request);

/// Converts a handler's res.send argument into an HttpResponse, moving blob
/// payload bytes out of the JSON body into payload_bytes.
http::HttpResponse make_response(const JsValue& sent, int status);

}  // namespace edgstr::minijs
