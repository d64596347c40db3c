#include "minijs/interpreter.h"

#include <cmath>

#include "minijs/builtins.h"
#include "minijs/compile.h"
#include "minijs/vm.h"

namespace edgstr::minijs {

Interpreter::Interpreter(Program program, Config config)
    : program_(std::move(program)),
      config_(config),
      rng_(config.rng_seed),
      step_limit_(config.max_steps) {
  // The bytecode compiler consumes (depth, slot) addresses, so the VM
  // implies the resolver.
  if (config_.vm) config_.resolve = true;
  // Annotate (or scrub) the AST in place: either way every name is
  // interned, so the evaluator can rely on symbol ids being present.
  if (config_.resolve) {
    resolve_program(program_);
  } else {
    strip_resolution(program_);
  }
  if (config_.vm) {
    compiled_ = compile_program(program_);
    vm_ = std::make_unique<Vm>(*this);
  }
  builtins_ = make_named(nullptr);
  globals_ = make_named(builtins_);
  install_builtins(*this, *builtins_);
}

Interpreter::~Interpreter() = default;

std::uint64_t Interpreter::ic_hits() const { return vm_ ? vm_->ic_hits() : 0; }
std::uint64_t Interpreter::ic_misses() const { return vm_ ? vm_->ic_misses() : 0; }

std::shared_ptr<Environment> Interpreter::make_named(std::shared_ptr<Environment> parent) {
  auto env = heap_.acquire();
  env->init_named(std::move(parent));
  return env;
}

std::shared_ptr<Environment> Interpreter::make_frame(ScopeInfoPtr scope,
                                                     std::shared_ptr<Environment> parent) {
  auto env = heap_.acquire();
  env->init_frame(std::move(scope), std::move(parent));
  return env;
}

std::shared_ptr<Environment> Interpreter::child_env(const ScopeInfoPtr& scope,
                                                    const std::shared_ptr<Environment>& parent) {
  return scope ? make_frame(scope, parent) : make_named(parent);
}

void Interpreter::register_route(http::Verb verb, const std::string& path, JsValue handler) {
  if (!handler.is_callable()) throw JsError("app route handler must be a function");
  routes_[http::Route{verb, path}] = std::move(handler);
}

void Interpreter::run_toplevel() {
  const EntryBudget budget(*this);
  if (vm_) {
    vm_->run_toplevel();
    return;
  }
  if (hooks_) {
    for (const StmtPtr& stmt : program_.body) exec_stmt<true>(stmt, globals_);
  } else {
    for (const StmtPtr& stmt : program_.body) exec_stmt<false>(stmt, globals_);
  }
}

void Interpreter::set_pending_response(JsValue value, int status) {
  pending_response_ = std::move(value);
  pending_status_ = status;
  response_sent_ = true;
}

JsValue make_request_object(const http::HttpRequest& request) {
  auto req = std::make_shared<JsObject>();
  req->set("params", JsValue::from_json(request.params));
  req->set("path", JsValue(request.path));
  req->set("method", JsValue(http::to_string(request.verb)));
  if (request.payload_bytes > 0) {
    req->set("payload", JsValue(Blob{request.payload_bytes,
                                     request.payload_bytes * 0x9e3779b9ULL}));
  }
  return JsValue(std::move(req));
}

namespace {
std::uint64_t collect_blob_bytes(const JsValue& value) {
  switch (value.type()) {
    case JsValue::Type::kBlob: return value.as_blob().size;
    case JsValue::Type::kArray: {
      std::uint64_t total = 0;
      for (const JsValue& item : *value.as_array()) total += collect_blob_bytes(item);
      return total;
    }
    case JsValue::Type::kObject: {
      std::uint64_t total = 0;
      for (const auto& [k, v] : value.as_object()->entries()) total += collect_blob_bytes(v);
      return total;
    }
    default: return 0;
  }
}
}  // namespace

http::HttpResponse make_response(const JsValue& sent, int status) {
  http::HttpResponse resp;
  resp.status = status;
  resp.body = sent.to_json();
  resp.payload_bytes = collect_blob_bytes(sent);
  return resp;
}

http::HttpResponse Interpreter::invoke(const http::Route& route,
                                       const http::HttpRequest& request) {
  auto it = routes_.find(route);
  if (it == routes_.end()) {
    return http::HttpResponse::error(404, "no handler for " + route.to_string());
  }
  const EntryBudget budget(*this);
  response_sent_ = false;
  pending_status_ = 200;
  pending_response_ = JsValue();

  // Unmarshal (step 2): HTTP parameters -> req object.
  JsValue req = make_request_object(request);
  auto res = std::make_shared<JsObject>();
  res->set("send", JsValue(std::make_shared<NativeFunction>(NativeFunction{
               "send", [](Interpreter& interp, std::vector<JsValue>& args) {
                 interp.set_pending_response(args.empty() ? JsValue() : args[0], 200);
                 return JsValue();
               }})));
  res->set("status", JsValue(std::make_shared<NativeFunction>(NativeFunction{
               "status", [this](Interpreter&, std::vector<JsValue>& args) {
                 if (!args.empty()) pending_status_ = static_cast<int>(args[0].as_number());
                 return JsValue();
               }})));

  // Execute (step 3).
  call_function(it->second, {req, JsValue(std::move(res))});

  // Marshal (step 4).
  if (!response_sent_) throw JsError("handler for " + route.to_string() + " never called res.send");
  return make_response(pending_response_, pending_status_);
}

JsValue Interpreter::call_function(const JsValue& fn, std::vector<JsValue> args) {
  const EntryBudget budget(*this);
  const util::Symbol name = fn.type() == JsValue::Type::kClosure ? fn.as_closure()->name_sym
                            : fn.type() == JsValue::Type::kNative ? fn.as_native()->name_sym
                                                                  : util::kNoSymbol;
  return hooks_ ? call_value<true>(fn, name, args) : call_value<false>(fn, name, args);
}

JsValue Interpreter::call_global(const std::string& name, std::vector<JsValue> args) {
  if (!globals_->has(name)) throw JsError("no such global function: " + name);
  const EntryBudget budget(*this);
  const util::Symbol sym = util::intern(name);
  return hooks_ ? call_value<true>(globals_->get(name), sym, args)
                : call_value<false>(globals_->get(name), sym, args);
}

template <bool WithHooks>
JsValue Interpreter::call_value(const JsValue& fn, util::Symbol name,
                                std::vector<JsValue>& args) {
  // Chunked closures run on the VM (which does its own tick / depth guard /
  // invoke hook); everything else tree-walks.
  if (vm_ && fn.type() == JsValue::Type::kClosure && fn.as_closure()->chunk) {
    return vm_->call_chunked<WithHooks>(fn.as_closure(), name, args);
  }
  tick();
  if (fn.type() == JsValue::Type::kNative) {
    JsValue result = fn.as_native()->fn(*this, args);
    if constexpr (WithHooks) {
      // Natives report their qualified registration name ("db.query") so
      // the instrumentation can classify SQL / file-system invocations.
      const util::Symbol native_name = fn.as_native()->name_sym;
      hooks_->on_invoke(current_stmt_, native_name != util::kNoSymbol ? native_name : name,
                        args, result);
    }
    return result;
  }
  if (fn.type() == JsValue::Type::kClosure) {
    if (call_depth_ >= config_.max_call_depth) {
      throw JsError("maximum call depth exceeded (" +
                    std::to_string(config_.max_call_depth) + ") calling '" +
                    util::symbol_name(name) + "'");
    }
    ++call_depth_;
    struct DepthGuard {
      int* depth;
      ~DepthGuard() { --*depth; }
    } guard{&call_depth_};

    const auto& closure = fn.as_closure();
    std::shared_ptr<Environment> frame;
    if (closure->scope) {
      frame = make_frame(closure->scope, closure->env);
      const std::vector<int>& param_slots = closure->scope->param_slots;
      for (std::size_t i = 0; i < param_slots.size(); ++i) {
        // Duplicate params share a slot; binding in order keeps
        // last-one-wins, same as repeated named defines.
        if (param_slots[i] >= 0) {
          frame->bind_slot(param_slots[i], i < args.size() ? args[i] : JsValue());
        }
      }
    } else {
      frame = make_named(closure->env);
      for (std::size_t i = 0; i < closure->params.size(); ++i) {
        frame->define(closure->params[i], i < args.size() ? args[i] : JsValue());
      }
    }
    JsValue result;
    try {
      exec_block<WithHooks>(closure->body, frame);
    } catch (ReturnSignal& ret) {
      result = std::move(ret.value);
    }
    if constexpr (WithHooks) hooks_->on_invoke(current_stmt_, name, args, result);
    return result;
  }
  const std::string& name_text = util::symbol_name(name);
  throw JsError("attempt to call a non-function value" +
                (name_text.empty() ? "" : " '" + name_text + "'"));
}

template <bool WithHooks>
void Interpreter::exec_block(const StmtPtr& block, const std::shared_ptr<Environment>& env) {
  for (const StmtPtr& stmt : block->stmts) exec_stmt<WithHooks>(stmt, env);
}

template <bool WithHooks>
void Interpreter::exec_stmt(const StmtPtr& stmt, const std::shared_ptr<Environment>& env) {
  tick();
  const int saved_stmt = current_stmt_;
  current_stmt_ = stmt->id;
  struct Restore {
    int* slot;
    int value;
    ~Restore() { *slot = value; }
  } restore{&current_stmt_, saved_stmt};

  switch (stmt->kind) {
    case StmtKind::kVarDecl: {
      JsValue init = stmt->expr ? eval<WithHooks>(stmt->expr, env) : JsValue();
      if (stmt->res_slot >= 0 && env->is_frame()) {
        env->bind_slot(stmt->res_slot, std::move(init));
        if constexpr (WithHooks) {
          const JsValue& bound = env->slot(stmt->res_slot);
          hooks_->on_declare(stmt->id, stmt->name_sym, bound);
          hooks_->on_write(stmt->id, stmt->name_sym, bound);
        }
      } else {
        env->define(stmt->name_sym, std::move(init));
        if constexpr (WithHooks) {
          const JsValue* bound = env->find_local(stmt->name_sym);
          hooks_->on_declare(stmt->id, stmt->name_sym, *bound);
          hooks_->on_write(stmt->id, stmt->name_sym, *bound);
        }
      }
      return;
    }
    case StmtKind::kExpr:
      eval<WithHooks>(stmt->expr, env);
      return;
    case StmtKind::kIf:
      if (eval<WithHooks>(stmt->expr, env).truthy()) {
        exec_block<WithHooks>(stmt->a_block, child_env(stmt->a_block->block_scope, env));
      } else if (stmt->b_block) {
        exec_block<WithHooks>(stmt->b_block, child_env(stmt->b_block->block_scope, env));
      }
      return;
    case StmtKind::kWhile:
      while (eval<WithHooks>(stmt->expr, env).truthy()) {
        tick();
        try {
          exec_block<WithHooks>(stmt->a_block, child_env(stmt->a_block->block_scope, env));
        } catch (BreakSignal&) {
          break;
        } catch (ContinueSignal&) {
          continue;
        }
      }
      return;
    case StmtKind::kFor: {
      auto loop_env = child_env(stmt->aux_scope, env);
      if (stmt->for_init) exec_stmt<WithHooks>(stmt->for_init, loop_env);
      while (!stmt->expr || eval<WithHooks>(stmt->expr, loop_env).truthy()) {
        tick();
        bool brk = false;
        try {
          exec_block<WithHooks>(stmt->a_block, child_env(stmt->a_block->block_scope, loop_env));
        } catch (BreakSignal&) {
          brk = true;
        } catch (ContinueSignal&) {
        }
        if (brk) break;
        if (stmt->for_update) eval<WithHooks>(stmt->for_update, loop_env);
      }
      return;
    }
    case StmtKind::kReturn:
      throw ReturnSignal{stmt->expr ? eval<WithHooks>(stmt->expr, env) : JsValue()};
    case StmtKind::kBlock:
      exec_block<WithHooks>(stmt, child_env(stmt->block_scope, env));
      return;
    case StmtKind::kFunctionDecl: {
      auto closure = std::make_shared<Closure>();
      closure->name = stmt->name;
      closure->name_sym = stmt->name_sym;
      closure->params = stmt->params;
      closure->body = stmt->a_block;
      closure->env = env;
      closure->scope = stmt->fn_scope;
      JsValue fn(std::move(closure));
      if (stmt->res_slot >= 0 && env->is_frame()) {
        env->bind_slot(stmt->res_slot, fn);
      } else {
        env->define(stmt->name_sym, fn);
      }
      if constexpr (WithHooks) hooks_->on_declare(stmt->id, stmt->name_sym, fn);
      return;
    }
    case StmtKind::kThrow: {
      JsValue value = eval<WithHooks>(stmt->expr, env);
      // Sequenced: constructor argument order is unspecified, so building
      // the message inline would race value.to_display() against the move.
      std::string message = "minijs throw: " + value.to_display();
      throw JsError(std::move(message), std::move(value));
    }
    case StmtKind::kTryCatch:
      try {
        exec_block<WithHooks>(stmt->a_block, child_env(stmt->a_block->block_scope, env));
      } catch (JsError& err) {
        // The catch body runs directly in the scope binding the catch name.
        auto catch_env = child_env(stmt->aux_scope, env);
        JsValue caught = err.value();
        if (caught.is_null()) caught = JsValue(std::string(err.what()));
        if (stmt->res_slot >= 0 && catch_env->is_frame()) {
          catch_env->bind_slot(stmt->res_slot, std::move(caught));
        } else {
          catch_env->define(stmt->catch_sym, std::move(caught));
        }
        exec_block<WithHooks>(stmt->b_block, catch_env);
      }
      return;
    case StmtKind::kBreak:
      throw BreakSignal{};
    case StmtKind::kContinue:
      throw ContinueSignal{};
  }
}

util::Symbol Interpreter::root_sym(const ExprPtr& expr) {
  const Expr* e = expr.get();
  while (e) {
    if (e->kind == ExprKind::kIdent) return e->sym;
    if (e->kind == ExprKind::kMember || e->kind == ExprKind::kIndex) {
      e = e->a.get();
      continue;
    }
    return util::kNoSymbol;
  }
  return util::kNoSymbol;
}

JsValue* Interpreter::resolved_slot(const Expr& ident, Environment* env) {
  Environment* frame = env;
  for (std::int32_t d = 0; d < ident.res_depth; ++d) frame = frame->parent();
  if (!frame->slot_bound(ident.res_slot)) {
    // Slot declared later in this scope and still unbound: the binding (if
    // any) is an outer one — fall back to the dynamic walk.
    return nullptr;
  }
  return &frame->slot(ident.res_slot);
}

JsValue* Interpreter::global_binding(util::Symbol sym) {
  JsValue* v = globals_->find_local(sym);
  if (!v) v = builtins_->find_local(sym);
  return v;
}

template <bool WithHooks>
JsValue Interpreter::eval(const ExprPtr& expr, const std::shared_ptr<Environment>& env) {
  tick();
  switch (expr->kind) {
    case ExprKind::kNumber: return JsValue(expr->number);
    case ExprKind::kString: return JsValue(expr->text);
    case ExprKind::kBool: return JsValue(expr->boolean);
    case ExprKind::kNull: return JsValue();
    case ExprKind::kIdent: {
      const JsValue* value = nullptr;
      if (expr->res_depth >= 0) {
        value = resolved_slot(*expr, env.get());
        if (value) ++slot_reads_;
      } else if (expr->res_depth == kDepthGlobal) {
        value = global_binding(expr->sym);
        if (!value) throw JsError("undefined variable: " + expr->text);
        ++slot_reads_;
      }
      if (!value) {
        ++named_reads_;
        value = env->find(expr->sym);
        if (!value) throw JsError("undefined variable: " + expr->text);
      }
      if constexpr (WithHooks) hooks_->on_read(current_stmt_, expr->sym, *value);
      return *value;
    }
    case ExprKind::kMember: {
      JsValue object = eval<WithHooks>(expr->a, env);
      if (object.is_object()) {
        return expr->sym != util::kNoSymbol ? object.as_object()->get(expr->sym)
                                            : object.as_object()->get(expr->text);
      }
      if (object.is_array()) {
        if (expr->text == "length") return JsValue(static_cast<double>(object.as_array()->size()));
        // Array methods are resolved at call sites; bare access yields null.
        return JsValue();
      }
      if (object.is_string()) {
        if (expr->text == "length") return JsValue(static_cast<double>(object.as_string().size()));
        return JsValue();
      }
      if (object.is_blob()) {
        if (expr->text == "size") return JsValue(static_cast<double>(object.as_blob().size));
        if (expr->text == "fingerprint") {
          return JsValue(static_cast<double>(object.as_blob().fingerprint));
        }
        return JsValue();
      }
      if (object.is_null()) throw JsError("cannot read property '" + expr->text + "' of null");
      return JsValue();
    }
    case ExprKind::kIndex: {
      JsValue object = eval<WithHooks>(expr->a, env);
      JsValue index = eval<WithHooks>(expr->b, env);
      if (object.is_array()) {
        const auto& arr = *object.as_array();
        const auto i = static_cast<std::size_t>(index.as_number());
        if (i >= arr.size()) return JsValue();
        return arr[i];
      }
      if (object.is_object()) {
        return object.as_object()->get(index.is_string() ? index.as_string()
                                                         : index.to_display());
      }
      if (object.is_string()) {
        const std::string& s = object.as_string();
        const auto i = static_cast<std::size_t>(index.as_number());
        if (i >= s.size()) return JsValue();
        return JsValue(std::string(1, s[i]));
      }
      throw JsError("cannot index a " + object.to_display());
    }
    case ExprKind::kCall:
      return eval_call<WithHooks>(expr, env);
    case ExprKind::kBinary: {
      // Short-circuit operators first.
      if (expr->binary_op == BinaryOp::kAnd) {
        JsValue lhs = eval<WithHooks>(expr->a, env);
        if (!lhs.truthy()) return lhs;
        return eval<WithHooks>(expr->b, env);
      }
      if (expr->binary_op == BinaryOp::kOr) {
        JsValue lhs = eval<WithHooks>(expr->a, env);
        if (lhs.truthy()) return lhs;
        return eval<WithHooks>(expr->b, env);
      }
      JsValue lhs = eval<WithHooks>(expr->a, env);
      JsValue rhs = eval<WithHooks>(expr->b, env);
      switch (expr->binary_op) {
        case BinaryOp::kAdd:
          if (lhs.is_string() || rhs.is_string()) {
            return JsValue(lhs.to_display() + rhs.to_display());
          }
          return JsValue(lhs.as_number() + rhs.as_number());
        case BinaryOp::kSub: return JsValue(lhs.as_number() - rhs.as_number());
        case BinaryOp::kMul: return JsValue(lhs.as_number() * rhs.as_number());
        case BinaryOp::kDiv: return JsValue(lhs.as_number() / rhs.as_number());
        case BinaryOp::kMod: return JsValue(std::fmod(lhs.as_number(), rhs.as_number()));
        case BinaryOp::kEq: return JsValue(lhs.equals(rhs));
        case BinaryOp::kNe: return JsValue(!lhs.equals(rhs));
        case BinaryOp::kLt:
          if (lhs.is_string() && rhs.is_string()) return JsValue(lhs.as_string() < rhs.as_string());
          return JsValue(lhs.as_number() < rhs.as_number());
        case BinaryOp::kLe:
          if (lhs.is_string() && rhs.is_string()) return JsValue(lhs.as_string() <= rhs.as_string());
          return JsValue(lhs.as_number() <= rhs.as_number());
        case BinaryOp::kGt:
          if (lhs.is_string() && rhs.is_string()) return JsValue(lhs.as_string() > rhs.as_string());
          return JsValue(lhs.as_number() > rhs.as_number());
        case BinaryOp::kGe:
          if (lhs.is_string() && rhs.is_string()) return JsValue(lhs.as_string() >= rhs.as_string());
          return JsValue(lhs.as_number() >= rhs.as_number());
        default:
          throw JsError("unhandled binary operator");
      }
    }
    case ExprKind::kUnary: {
      JsValue operand = eval<WithHooks>(expr->a, env);
      if (expr->unary_op == UnaryOp::kNot) return JsValue(!operand.truthy());
      return JsValue(-operand.as_number());
    }
    case ExprKind::kTernary:
      return eval<WithHooks>(expr->a, env).truthy() ? eval<WithHooks>(expr->b, env)
                                                    : eval<WithHooks>(expr->c, env);
    case ExprKind::kObject: {
      auto obj = std::make_shared<JsObject>();
      const bool have_syms = expr->entry_syms.size() == expr->entries.size();
      for (std::size_t i = 0; i < expr->entries.size(); ++i) {
        JsValue value = eval<WithHooks>(expr->entries[i].second, env);
        if (have_syms) {
          obj->set(expr->entry_syms[i], std::move(value));
        } else {
          obj->set(expr->entries[i].first, std::move(value));
        }
      }
      return JsValue(std::move(obj));
    }
    case ExprKind::kArray: {
      auto arr = std::make_shared<JsArray>();
      arr->reserve(expr->args.size());
      for (const ExprPtr& item : expr->args) arr->push_back(eval<WithHooks>(item, env));
      return JsValue(std::move(arr));
    }
    case ExprKind::kFunction: {
      auto closure = std::make_shared<Closure>();
      closure->params = expr->params;
      closure->body = expr->body;
      closure->env = env;
      closure->scope = expr->fn_scope;
      return JsValue(std::move(closure));
    }
    case ExprKind::kAssign:
      return eval_assign<WithHooks>(expr, env);
  }
  throw JsError("unhandled expression kind");
}

template <bool WithHooks>
JsValue Interpreter::eval_assign(const ExprPtr& expr, const std::shared_ptr<Environment>& env) {
  JsValue rhs = eval<WithHooks>(expr->b, env);
  const ExprPtr& target = expr->a;

  auto combined = [&](const JsValue& current) -> JsValue {
    switch (expr->assign_op) {
      case AssignOp::kAssign: return rhs;
      case AssignOp::kAddAssign:
        if (current.is_string() || rhs.is_string()) {
          return JsValue(current.to_display() + rhs.to_display());
        }
        return JsValue(current.as_number() + rhs.as_number());
      case AssignOp::kSubAssign: return JsValue(current.as_number() - rhs.as_number());
    }
    return rhs;
  };

  if (target->kind == ExprKind::kIdent) {
    JsValue* binding = nullptr;
    if (target->res_depth >= 0) {
      binding = resolved_slot(*target, env.get());
      if (binding) ++slot_writes_;
    } else if (target->res_depth == kDepthGlobal) {
      binding = global_binding(target->sym);
      if (!binding) {
        // Implicit global creation (sloppy-mode JS); subject code relies on
        // plain assignment to globals declared elsewhere, so this throws to
        // catch typos instead.
        throw JsError("assignment to undeclared variable: " + target->text);
      }
      ++slot_writes_;
    }
    if (!binding) {
      ++named_writes_;
      binding = env->find_mutable(target->sym);
      if (!binding) throw JsError("assignment to undeclared variable: " + target->text);
    }
    JsValue value = combined(*binding);
    *binding = value;
    if constexpr (WithHooks) hooks_->on_write(current_stmt_, target->sym, value);
    return value;
  }
  if (target->kind == ExprKind::kMember) {
    JsValue object = eval<WithHooks>(target->a, env);
    if (!object.is_object()) throw JsError("cannot set property on non-object");
    JsObject& obj = *object.as_object();
    JsValue value;
    if (target->sym != util::kNoSymbol) {
      value = combined(obj.get(target->sym));
      obj.set(target->sym, value);
    } else {
      value = combined(obj.get(target->text));
      obj.set(target->text, value);
    }
    if constexpr (WithHooks) {
      const util::Symbol root = root_sym(target);
      if (root != util::kNoSymbol) hooks_->on_write(current_stmt_, root, object);
    }
    return value;
  }
  if (target->kind == ExprKind::kIndex) {
    JsValue object = eval<WithHooks>(target->a, env);
    JsValue index = eval<WithHooks>(target->b, env);
    if (object.is_array()) {
      auto& arr = *object.as_array();
      const auto i = static_cast<std::size_t>(index.as_number());
      if (i >= arr.size()) arr.resize(i + 1);
      JsValue value = combined(arr[i]);
      arr[i] = value;
      if constexpr (WithHooks) {
        const util::Symbol root = root_sym(target);
        if (root != util::kNoSymbol) hooks_->on_write(current_stmt_, root, object);
      }
      return value;
    }
    if (object.is_object()) {
      const std::string key = index.is_string() ? index.as_string() : index.to_display();
      JsValue value = combined(object.as_object()->get(key));
      object.as_object()->set(key, value);
      if constexpr (WithHooks) {
        const util::Symbol root = root_sym(target);
        if (root != util::kNoSymbol) hooks_->on_write(current_stmt_, root, object);
      }
      return value;
    }
    throw JsError("cannot index-assign a " + object.to_display());
  }
  throw JsError("invalid assignment target");
}

template <bool WithHooks>
JsValue Interpreter::eval_call(const ExprPtr& expr, const std::shared_ptr<Environment>& env) {
  // Method call: receiver.method(args)
  if (expr->a->kind == ExprKind::kMember) {
    JsValue receiver = eval<WithHooks>(expr->a->a, env);
    const std::string& method = expr->a->text;
    const util::Symbol method_sym =
        expr->a->sym != util::kNoSymbol ? expr->a->sym : util::intern(method);

    std::vector<JsValue> args;
    args.reserve(expr->args.size());
    for (const ExprPtr& arg : expr->args) args.push_back(eval<WithHooks>(arg, env));

    // Built-in string/array methods take precedence.
    bool handled = false;
    JsValue builtin_result = builtin_method<WithHooks>(receiver, method, args, handled);
    if (handled) {
      if constexpr (WithHooks) {
        hooks_->on_invoke(current_stmt_, method_sym, args, builtin_result);
        // A mutating method (push/pop/...) counts as a write of the receiver
        // root variable, so RW logs see container mutations.
        if (method == "push" || method == "pop" || method == "splice" || method == "sort" ||
            method == "shift" || method == "unshift") {
          const util::Symbol root = root_sym(expr->a->a);
          if (root != util::kNoSymbol) hooks_->on_write(current_stmt_, root, receiver);
        }
      }
      return builtin_result;
    }

    if (receiver.is_object()) {
      JsValue fn = receiver.as_object()->get(method_sym);
      if (fn.is_callable()) return call_value<WithHooks>(fn, method_sym, args);
    }
    throw JsError("no such method '" + method + "' on " + receiver.to_display());
  }

  // Plain call: f(args)
  JsValue callee = eval<WithHooks>(expr->a, env);
  std::vector<JsValue> args;
  args.reserve(expr->args.size());
  for (const ExprPtr& arg : expr->args) args.push_back(eval<WithHooks>(arg, env));
  const util::Symbol name =
      expr->a->kind == ExprKind::kIdent ? expr->a->sym : util::kNoSymbol;
  return call_value<WithHooks>(callee, name, args);
}

template <bool WithHooks>
JsValue Interpreter::builtin_method(const JsValue& receiver, const std::string& method,
                                    std::vector<JsValue>& args, bool& handled) {
  handled = true;
  if (receiver.is_array()) {
    auto& arr = *receiver.as_array();
    if (method == "push") {
      for (const JsValue& v : args) arr.push_back(v);
      return JsValue(static_cast<double>(arr.size()));
    }
    if (method == "pop") {
      if (arr.empty()) return JsValue();
      JsValue back = arr.back();
      arr.pop_back();
      return back;
    }
    if (method == "join") {
      const std::string sep = args.empty() ? "," : args[0].as_string();
      std::string out;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += sep;
        out += arr[i].to_display();
      }
      return JsValue(out);
    }
    if (method == "indexOf") {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (!args.empty() && arr[i].equals(args[0])) return JsValue(static_cast<double>(i));
      }
      return JsValue(-1.0);
    }
    if (method == "slice") {
      std::size_t begin = args.size() > 0 ? static_cast<std::size_t>(args[0].as_number()) : 0;
      std::size_t end = args.size() > 1 ? static_cast<std::size_t>(args[1].as_number()) : arr.size();
      begin = std::min(begin, arr.size());
      end = std::min(end, arr.size());
      auto out = std::make_shared<JsArray>();
      for (std::size_t i = begin; i < end; ++i) out->push_back(arr[i]);
      return JsValue(std::move(out));
    }
    if (method == "map" || method == "filter" || method == "forEach") {
      if (args.empty() || !args[0].is_callable()) throw JsError(method + " expects a function");
      static const util::Symbol kMapFn = util::intern("map#fn");
      static const util::Symbol kFilterFn = util::intern("filter#fn");
      static const util::Symbol kForEachFn = util::intern("forEach#fn");
      const util::Symbol fn_name =
          method == "map" ? kMapFn : method == "filter" ? kFilterFn : kForEachFn;
      auto out = std::make_shared<JsArray>();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        std::vector<JsValue> call_args = {arr[i], JsValue(static_cast<double>(i))};
        JsValue mapped = call_value<WithHooks>(args[0], fn_name, call_args);
        if (method == "map") out->push_back(mapped);
        if (method == "filter" && mapped.truthy()) out->push_back(arr[i]);
      }
      if (method == "forEach") return JsValue();
      return JsValue(std::move(out));
    }
  }
  if (receiver.is_string()) {
    const std::string& s = receiver.as_string();
    if (method == "split") {
      const std::string sep = args.empty() ? "" : args[0].as_string();
      auto out = std::make_shared<JsArray>();
      if (sep.empty()) {
        for (char c : s) out->push_back(JsValue(std::string(1, c)));
      } else {
        std::size_t start = 0;
        while (true) {
          const std::size_t pos = s.find(sep, start);
          if (pos == std::string::npos) {
            out->push_back(JsValue(s.substr(start)));
            break;
          }
          out->push_back(JsValue(s.substr(start, pos - start)));
          start = pos + sep.size();
        }
      }
      return JsValue(std::move(out));
    }
    if (method == "substring" || method == "substr" || method == "slice") {
      std::size_t begin = args.size() > 0 ? static_cast<std::size_t>(args[0].as_number()) : 0;
      std::size_t end = args.size() > 1 ? static_cast<std::size_t>(args[1].as_number()) : s.size();
      begin = std::min(begin, s.size());
      end = std::min(std::max(end, begin), s.size());
      return JsValue(s.substr(begin, end - begin));
    }
    if (method == "indexOf") {
      if (args.empty()) return JsValue(-1.0);
      const std::size_t pos = s.find(args[0].as_string());
      return JsValue(pos == std::string::npos ? -1.0 : static_cast<double>(pos));
    }
    if (method == "toUpperCase" || method == "toLowerCase") {
      std::string out = s;
      for (char& c : out) {
        c = method == "toUpperCase" ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                                    : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return JsValue(out);
    }
    if (method == "trim") {
      std::size_t b = 0, e = s.size();
      while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
      while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
      return JsValue(s.substr(b, e - b));
    }
    if (method == "startsWith") {
      return JsValue(!args.empty() && s.rfind(args[0].as_string(), 0) == 0);
    }
    if (method == "includes") {
      return JsValue(!args.empty() && s.find(args[0].as_string()) != std::string::npos);
    }
    if (method == "charCodeAt") {
      const std::size_t i = args.empty() ? 0 : static_cast<std::size_t>(args[0].as_number());
      if (i >= s.size()) return JsValue();
      return JsValue(static_cast<double>(static_cast<unsigned char>(s[i])));
    }
  }
  handled = false;
  return JsValue();
}

// Instantiated here for the VM (vm.cpp calls back into the dispatcher and
// the builtin methods from bytecode call sites).
template JsValue Interpreter::call_value<true>(const JsValue&, util::Symbol,
                                               std::vector<JsValue>&);
template JsValue Interpreter::call_value<false>(const JsValue&, util::Symbol,
                                                std::vector<JsValue>&);
template JsValue Interpreter::builtin_method<true>(const JsValue&, const std::string&,
                                                   std::vector<JsValue>&, bool&);
template JsValue Interpreter::builtin_method<false>(const JsValue&, const std::string&,
                                                    std::vector<JsValue>&, bool&);

}  // namespace edgstr::minijs
