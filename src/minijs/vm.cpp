#include "minijs/vm.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace edgstr::minijs {

namespace {

/// Numeric coercion with the tree-walker's exact failure behaviour: a
/// non-number raises the same std::logic_error JsValue::as_number does.
double vm_number(const VmValue& v) {
  if (v.is_number()) return v.as_number();
  return v.to_js().as_number();
}

bool vm_is_string(const VmValue& v) { return v.is_box() && v.boxed().is_string(); }

/// Compound-assignment combiner, mirroring eval_assign's `combined`.
JsValue vm_combined(const JsValue& current, const VmValue& rhs, AssignOp op) {
  switch (op) {
    case AssignOp::kAssign:
      return rhs.to_js();
    case AssignOp::kAddAssign: {
      if (current.is_number() && rhs.is_number()) {
        return JsValue(current.as_number() + rhs.as_number());
      }
      JsValue r = rhs.to_js();
      if (current.is_string() || r.is_string()) {
        return JsValue(current.to_display() + r.to_display());
      }
      return JsValue(current.as_number() + r.as_number());
    }
    case AssignOp::kSubAssign: {
      const double a = current.as_number();
      return JsValue(a - vm_number(rhs));
    }
  }
  return rhs.to_js();
}

}  // namespace

Vm::Vm(Interpreter& interp) : interp_(interp) {
  stack_.reserve(256);
  scopes_.reserve(64);
}

void Vm::run_toplevel() {
  const Chunk& chunk = *interp_.compiled_.toplevel;
  if (interp_.hooks_) {
    run<true>(chunk, interp_.globals_);
  } else {
    run<false>(chunk, interp_.globals_);
  }
}

template <bool WithHooks>
JsValue Vm::call_chunked(const std::shared_ptr<Closure>& closure, util::Symbol name,
                         std::vector<JsValue>& args) {
  return invoke_chunked<WithHooks>(closure, name, args).to_js();
}

template <bool WithHooks>
VmValue Vm::invoke_chunked(const std::shared_ptr<Closure>& closure, util::Symbol name,
                           std::vector<JsValue>& args) {
  interp_.tick();
  if (interp_.call_depth_ >= interp_.config_.max_call_depth) {
    throw JsError("maximum call depth exceeded (" +
                  std::to_string(interp_.config_.max_call_depth) + ") calling '" +
                  util::symbol_name(name) + "'");
  }
  ++interp_.call_depth_;
  struct DepthGuard {
    int* depth;
    ~DepthGuard() { --*depth; }
  } depth_guard{&interp_.call_depth_};

  auto frame = interp_.make_frame(closure->scope, closure->env);
  const std::vector<int>& param_slots = closure->scope->param_slots;
  for (std::size_t i = 0; i < param_slots.size(); ++i) {
    if (param_slots[i] >= 0) {
      frame->bind_slot(param_slots[i], i < args.size() ? args[i] : JsValue());
    }
  }
  VmValue result = run<WithHooks>(*closure->chunk, std::move(frame));
  if constexpr (WithHooks) {
    interp_.hooks_->on_invoke(interp_.current_stmt_, name, args, result.to_js());
  }
  return result;
}

template <bool WithHooks>
VmValue Vm::run(const Chunk& chunk, std::shared_ptr<Environment> env) {
  // Window the shared stacks and pin the hook-attribution statement id: on
  // every exit (return or unwinding exception) the caller sees its own
  // current_stmt_ again, exactly like the tree-walker's per-statement
  // restore guards.
  struct RunGuard {
    Vm& vm;
    std::size_t stack_base, scope_base, handler_base;
    int saved_stmt;
    ~RunGuard() {
      vm.stack_.resize(stack_base);
      vm.scopes_.resize(scope_base);
      vm.handlers_.resize(handler_base);
      vm.interp_.current_stmt_ = saved_stmt;
    }
  } guard{*this, stack_.size(), scopes_.size(), handlers_.size(), interp_.current_stmt_};
  scopes_.push_back(std::move(env));

  // Step accounting stays frame-local: ticks accumulate in a register and
  // flush to the interpreter's counter when this frame unwinds (normally
  // or via JsError), so the per-op cost is an increment and a compare.
  // Cumulative totals stay exact on every exit path; the runaway-loop
  // limit is enforced against what the current entry point's budget has
  // left.
  struct TickGuard {
    Interpreter& interp;
    std::uint64_t ticks = 0;
    ~TickGuard() { interp.steps_ += ticks; }
  } tg{interp_};
  std::uint64_t tick_budget = 0;
  // Hands this frame's pending ticks to the interpreter and re-derives the
  // frame's allowance from its count. Run around every call out of the
  // frame and on landing in a catch, so callers and callees share one
  // budget and the limit trips at the same step as on the tree-walker.
  const auto settle_ticks = [&]() {
    interp_.steps_ += tg.ticks;
    tg.ticks = 0;
    tick_budget = interp_.step_limit_ - std::min(interp_.steps_, interp_.step_limit_);
  };
  settle_ticks();
  const auto tick = [&]() {
    if (++tg.ticks > tick_budget) {
      throw JsError("step limit exceeded (possible infinite loop)");
    }
  };

  const std::uint8_t* code = chunk.code.data();
  std::size_t pc = 0;
  const auto rd_u8 = [&]() { return code[pc++]; };
  const auto rd_u16 = [&]() {
    std::uint16_t v;
    std::memcpy(&v, code + pc, 2);
    pc += 2;
    return v;
  };
  const auto rd_u32 = [&]() {
    std::uint32_t v;
    std::memcpy(&v, code + pc, 4);
    pc += 4;
    return v;
  };

  const auto compare = [&](auto cmp) {
    VmValue r = pop();
    VmValue l = pop();
    if (l.is_number() && r.is_number()) {
      push(VmValue::boolean(cmp(l.as_number(), r.as_number())));
      return;
    }
    JsValue lj = l.to_js();
    JsValue rj = r.to_js();
    if (lj.is_string() && rj.is_string()) {
      push(VmValue::boolean(cmp(lj.as_string(), rj.as_string())));
    } else {
      push(VmValue::boolean(cmp(lj.as_number(), rj.as_number())));
    }
  };
  const auto equal = [&]() {
    VmValue r = pop();
    VmValue l = pop();
    if (l.is_number() || r.is_number()) {
      return l.is_number() && r.is_number() && l.as_number() == r.as_number();
    }
    return l.to_js().equals(r.to_js());
  };

  // Shared property paths. The receiver is read in place (no value-stack
  // round trip), so the fused ident.member ops and the generic stack forms
  // behave identically.
  const auto member_get = [&](const JsValue& obj, util::Symbol sym, std::uint16_t ic) {
    if (obj.is_object()) {
      JsObject& o = *obj.as_object();
      PropCache& cache = chunk.prop_caches[ic];
      if (cache.index != kNoCacheEntry && o.sym_at(cache.index, sym)) {
        ++ic_hits_;
        push(VmValue::from_js(o.value_at(cache.index)));
        return;
      }
      ++ic_misses_;
      const int idx = o.find_index(sym);
      if (idx >= 0) {
        cache.index = static_cast<std::uint32_t>(idx);
        push(VmValue::from_js(o.value_at(static_cast<std::size_t>(idx))));
      } else {
        push(VmValue::null());
      }
      return;
    }
    if (obj.is_null()) {
      throw JsError("cannot read property '" + util::symbol_name(sym) + "' of null");
    }
    const std::string& text = util::symbol_name(sym);
    if (obj.is_array()) {
      push(text == "length" ? VmValue::number(static_cast<double>(obj.as_array()->size()))
                            : VmValue::null());
      return;
    }
    if (obj.is_string()) {
      push(text == "length" ? VmValue::number(static_cast<double>(obj.as_string().size()))
                            : VmValue::null());
      return;
    }
    if (obj.is_blob()) {
      if (text == "size") {
        push(VmValue::number(static_cast<double>(obj.as_blob().size)));
      } else if (text == "fingerprint") {
        push(VmValue::number(static_cast<double>(obj.as_blob().fingerprint)));
      } else {
        push(VmValue::null());
      }
      return;
    }
    push(VmValue::null());  // numbers / booleans / closures / natives
  };
  // Number-store fast path. The overwhelming majority of stores (loop
  // counters, accumulators, tallies) write a number over a number; for
  // those the write is a single in-place double, with no JsValue temp and
  // no variant destroy/reconstruct. Anything else falls back to the
  // generic vm_combined path, which preserves the tree-walker's coercions.
  const auto store_number = [](JsValue& binding, const VmValue& rhs, AssignOp aop,
                               double& out) {
    if (!rhs.is_number()) return false;
    double num = rhs.as_number();
    if (aop != AssignOp::kAssign) {
      if (!binding.is_number()) return false;
      num = aop == AssignOp::kAddAssign ? binding.as_number() + num
                                        : binding.as_number() - num;
    }
    if (!binding.set_number(num)) binding = JsValue(num);
    out = num;
    return true;
  };

  const auto member_set = [&](const JsValue& obj, util::Symbol sym, util::Symbol root,
                              std::uint16_t ic, AssignOp aop, VmValue& rhs, bool keep) {
    if (!obj.is_object()) throw JsError("cannot set property on non-object");
    JsObject& o = *obj.as_object();
    PropCache& cache = chunk.prop_caches[ic];
    JsValue* entry = nullptr;
    if (cache.index != kNoCacheEntry && o.sym_at(cache.index, sym)) {
      ++ic_hits_;
      entry = &o.value_at(cache.index);
    } else {
      ++ic_misses_;
      const int idx = o.find_index(sym);
      if (idx >= 0) {
        cache.index = static_cast<std::uint32_t>(idx);
        entry = &o.value_at(static_cast<std::size_t>(idx));
      }
    }
    if (entry) {
      double num;
      if (store_number(*entry, rhs, aop, num)) {
        if constexpr (WithHooks) {
          if (root != util::kNoSymbol) {
            interp_.hooks_->on_write(interp_.current_stmt_, root, obj);
          }
        }
        if (keep) push(VmValue::number(num));
        return;
      }
    }
    JsValue value;
    if (entry) {
      value = vm_combined(*entry, rhs, aop);
      *entry = value;
    } else {
      value = vm_combined(JsValue(), rhs, aop);
      o.set(sym, value);
    }
    if constexpr (WithHooks) {
      if (root != util::kNoSymbol) {
        interp_.hooks_->on_write(interp_.current_stmt_, root, obj);
      }
    }
    if (keep) push(VmValue::from_js(std::move(value)));
  };

  // Walks the property hops of a fused member chain. Intermediate hops
  // keep a reference into the current object (no boxing, no stack
  // traffic). One tick per hop — the tree walker ticks every member node.
  // Returns the final member by reference when the last receiver is a
  // plain object and the property exists (the hot case, nothing pushed);
  // otherwise routes the last hop through member_get, which pushes, and
  // returns nullptr. Callers push or consume the reference in place.
  const auto walk_chain = [&](const JsValue* cur, std::uint8_t hops) -> const JsValue* {
    static const JsValue null_value;
    JsValue tmp;
    for (std::uint8_t h = 0; h + 1 < hops; ++h) {
      tick();
      const auto sym = static_cast<util::Symbol>(rd_u32());
      const std::uint16_t ic = rd_u16();
      if (cur->is_object()) {
        JsObject& o = *cur->as_object();
        PropCache& cache = chunk.prop_caches[ic];
        if (cache.index != kNoCacheEntry && o.sym_at(cache.index, sym)) {
          ++ic_hits_;
          cur = &o.value_at(cache.index);
          continue;
        }
        ++ic_misses_;
        const int idx = o.find_index(sym);
        if (idx >= 0) {
          cache.index = static_cast<std::uint32_t>(idx);
          cur = &o.value_at(static_cast<std::size_t>(idx));
        } else {
          cur = &null_value;  // missing property: the next hop throws on null
        }
        continue;
      }
      // Arrays / strings / blobs / null: reuse the generic single-hop
      // path and re-anchor on its result.
      member_get(*cur, sym, ic);
      tmp = pop().to_js();
      cur = &tmp;
    }
    tick();
    const auto sym = static_cast<util::Symbol>(rd_u32());
    const std::uint16_t ic = rd_u16();
    if (cur->is_object()) {
      JsObject& o = *cur->as_object();
      PropCache& cache = chunk.prop_caches[ic];
      if (cache.index != kNoCacheEntry && o.sym_at(cache.index, sym)) {
        ++ic_hits_;
        return &o.value_at(cache.index);
      }
      ++ic_misses_;
      const int idx = o.find_index(sym);
      if (idx >= 0) {
        cache.index = static_cast<std::uint32_t>(idx);
        return &o.value_at(static_cast<std::size_t>(idx));
      }
      push(VmValue::null());
      return nullptr;
    }
    member_get(*cur, sym, ic);
    return nullptr;
  };

  // Decode + execute a fused member chain rooted at a local slot / a
  // global binding: resolves the receiver by reference (read counters and
  // hook exactly as kLoadSlot / kLoadGlobal), then walks the hops.
  // Forwards walk_chain's by-reference result.
  const auto member_chain_slot = [&]() -> const JsValue* {
    const std::uint8_t depth = rd_u8();
    const std::uint16_t slot = rd_u16();
    const auto obj_sym = static_cast<util::Symbol>(rd_u32());
    const std::uint8_t hops = rd_u8();
    Environment* frame = scopes_.back().get();
    for (int d = 0; d < depth; ++d) frame = frame->parent();
    const JsValue* obj;
    if (frame->slot_bound(slot)) {
      ++interp_.slot_reads_;
      obj = &frame->slot(slot);
    } else {
      ++interp_.named_reads_;
      obj = scopes_.back()->find(obj_sym);
      if (!obj) throw JsError("undefined variable: " + util::symbol_name(obj_sym));
    }
    if constexpr (WithHooks) {
      interp_.hooks_->on_read(interp_.current_stmt_, obj_sym, *obj);
    }
    return walk_chain(obj, hops);
  };
  const auto member_chain_global = [&]() -> const JsValue* {
    const auto obj_sym = static_cast<util::Symbol>(rd_u32());
    GlobalCache& gcache = chunk.global_caches[rd_u16()];
    const std::uint8_t hops = rd_u8();
    Environment* const globals = interp_.globals_.get();
    JsValue* obj;
    if (gcache.env == globals && gcache.globals_version == globals->version() &&
        gcache.builtins_version == interp_.builtins_->version()) {
      ++ic_hits_;
      obj = gcache.binding;
    } else {
      ++ic_misses_;
      obj = globals->find_local(obj_sym);
      if (!obj) obj = interp_.builtins_->find_local(obj_sym);
      if (!obj) throw JsError("undefined variable: " + util::symbol_name(obj_sym));
      gcache.env = globals;
      gcache.globals_version = globals->version();
      gcache.builtins_version = interp_.builtins_->version();
      gcache.binding = obj;
    }
    ++interp_.slot_reads_;
    if constexpr (WithHooks) {
      interp_.hooks_->on_read(interp_.current_stmt_, obj_sym, *obj);
    }
    return walk_chain(obj, hops);
  };

  // Addition with the tree-walker's coercions: number fast path, string
  // concatenation via display strings, as_number failure otherwise.
  const auto add_values = [&]() {
    VmValue r = pop();
    VmValue l = pop();
    if (l.is_number() && r.is_number()) {
      push(VmValue::number(l.as_number() + r.as_number()));
      return;
    }
    JsValue lj = l.to_js();
    JsValue rj = r.to_js();
    if (lj.is_string() || rj.is_string()) {
      push(VmValue::box(JsValue(lj.to_display() + rj.to_display())));
    } else {
      push(VmValue::number(lj.as_number() + rj.as_number()));
    }
  };
  // The kAddMember* tail: fold the by-reference member into the pending
  // lhs in place when both are numbers; otherwise materialize and reuse
  // add_values (walk_chain has already pushed when ref is null).
  const auto add_member_ref = [&](const JsValue* ref) {
    if (ref) {
      VmValue& l = stack_.back();
      if (l.is_number() && ref->is_number()) {
        l = VmValue::number(l.as_number() + ref->as_number());
        return;
      }
      push(VmValue::from_js(*ref));
    }
    add_values();
  };

  for (;;) {
    try {
      for (;;) {
        switch (static_cast<Op>(code[pc++])) {
          case Op::kConst:
            tick();
            push(VmValue::from_js(chunk.constants[rd_u16()]));
            break;
          case Op::kNull:
            push(VmValue::null());
            break;
          case Op::kTrue:
            tick();
            push(VmValue::boolean(true));
            break;
          case Op::kFalse:
            tick();
            push(VmValue::boolean(false));
            break;
          case Op::kPop:
            stack_.pop_back();
            break;

          case Op::kStmt:
            tick();
            interp_.current_stmt_ = static_cast<int>(rd_u32());
            break;
          case Op::kStmtId:
            interp_.current_stmt_ = static_cast<int>(rd_u32());
            break;
          case Op::kTick:
            tick();
            break;

          case Op::kLoadSlot: {
            tick();
            const std::uint8_t depth = rd_u8();
            const std::uint16_t slot = rd_u16();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            Environment* frame = scopes_.back().get();
            for (int d = 0; d < depth; ++d) frame = frame->parent();
            const JsValue* value;
            if (frame->slot_bound(slot)) {
              ++interp_.slot_reads_;
              value = &frame->slot(slot);
            } else {
              // Slot declared later in this scope and still unbound: the
              // binding (if any) is an outer one — dynamic walk.
              ++interp_.named_reads_;
              value = scopes_.back()->find(sym);
              if (!value) throw JsError("undefined variable: " + util::symbol_name(sym));
            }
            if constexpr (WithHooks) {
              interp_.hooks_->on_read(interp_.current_stmt_, sym, *value);
            }
            push(VmValue::from_js(*value));
            break;
          }
          case Op::kLoadGlobal: {
            tick();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            GlobalCache& cache = chunk.global_caches[rd_u16()];
            Environment* const globals = interp_.globals_.get();
            JsValue* value;
            if (cache.env == globals && cache.globals_version == globals->version() &&
                cache.builtins_version == interp_.builtins_->version()) {
              ++ic_hits_;
              value = cache.binding;
            } else {
              ++ic_misses_;
              value = globals->find_local(sym);
              if (!value) value = interp_.builtins_->find_local(sym);
              if (!value) throw JsError("undefined variable: " + util::symbol_name(sym));
              cache.env = globals;
              cache.globals_version = globals->version();
              cache.builtins_version = interp_.builtins_->version();
              cache.binding = value;
            }
            ++interp_.slot_reads_;
            if constexpr (WithHooks) {
              interp_.hooks_->on_read(interp_.current_stmt_, sym, *value);
            }
            push(VmValue::from_js(*value));
            break;
          }
          case Op::kLoadNamed: {
            tick();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            ++interp_.named_reads_;
            const JsValue* value = scopes_.back()->find(sym);
            if (!value) throw JsError("undefined variable: " + util::symbol_name(sym));
            if constexpr (WithHooks) {
              interp_.hooks_->on_read(interp_.current_stmt_, sym, *value);
            }
            push(VmValue::from_js(*value));
            break;
          }

          case Op::kStoreSlot: {
            tick();
            const std::uint8_t depth = rd_u8();
            const std::uint16_t slot = rd_u16();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue rhs = pop();
            Environment* frame = scopes_.back().get();
            for (int d = 0; d < depth; ++d) frame = frame->parent();
            JsValue* binding;
            if (frame->slot_bound(slot)) {
              ++interp_.slot_writes_;
              binding = &frame->slot(slot);
            } else {
              ++interp_.named_writes_;
              binding = scopes_.back()->find_mutable(sym);
              if (!binding) {
                throw JsError("assignment to undeclared variable: " + util::symbol_name(sym));
              }
            }
            double num;
            if (store_number(*binding, rhs, aop, num)) {
              if constexpr (WithHooks) {
                interp_.hooks_->on_write(interp_.current_stmt_, sym, JsValue(num));
              }
              if (keep) push(VmValue::number(num));
              break;
            }
            JsValue value = vm_combined(*binding, rhs, aop);
            *binding = value;
            if constexpr (WithHooks) {
              interp_.hooks_->on_write(interp_.current_stmt_, sym, value);
            }
            if (keep) push(VmValue::from_js(std::move(value)));
            break;
          }
          case Op::kStoreGlobal: {
            tick();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            GlobalCache& cache = chunk.global_caches[rd_u16()];
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue rhs = pop();
            Environment* const globals = interp_.globals_.get();
            JsValue* binding;
            if (cache.env == globals && cache.globals_version == globals->version() &&
                cache.builtins_version == interp_.builtins_->version()) {
              ++ic_hits_;
              binding = cache.binding;
            } else {
              ++ic_misses_;
              binding = globals->find_local(sym);
              if (!binding) binding = interp_.builtins_->find_local(sym);
              if (!binding) {
                // Implicit global creation is rejected, same as the
                // tree-walker: plain assignment never declares.
                throw JsError("assignment to undeclared variable: " + util::symbol_name(sym));
              }
              cache.env = globals;
              cache.globals_version = globals->version();
              cache.builtins_version = interp_.builtins_->version();
              cache.binding = binding;
            }
            ++interp_.slot_writes_;
            double num;
            if (store_number(*binding, rhs, aop, num)) {
              if constexpr (WithHooks) {
                interp_.hooks_->on_write(interp_.current_stmt_, sym, JsValue(num));
              }
              if (keep) push(VmValue::number(num));
              break;
            }
            JsValue value = vm_combined(*binding, rhs, aop);
            *binding = value;
            if constexpr (WithHooks) {
              interp_.hooks_->on_write(interp_.current_stmt_, sym, value);
            }
            if (keep) push(VmValue::from_js(std::move(value)));
            break;
          }
          case Op::kStoreNamed: {
            tick();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue rhs = pop();
            ++interp_.named_writes_;
            JsValue* binding = scopes_.back()->find_mutable(sym);
            if (!binding) {
              throw JsError("assignment to undeclared variable: " + util::symbol_name(sym));
            }
            double num;
            if (store_number(*binding, rhs, aop, num)) {
              if constexpr (WithHooks) {
                interp_.hooks_->on_write(interp_.current_stmt_, sym, JsValue(num));
              }
              if (keep) push(VmValue::number(num));
              break;
            }
            JsValue value = vm_combined(*binding, rhs, aop);
            *binding = value;
            if constexpr (WithHooks) {
              interp_.hooks_->on_write(interp_.current_stmt_, sym, value);
            }
            if (keep) push(VmValue::from_js(std::move(value)));
            break;
          }

          case Op::kGetMember: {
            tick();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const std::uint16_t ic = rd_u16();
            VmValue objv = pop();
            if (objv.is_box()) {
              member_get(objv.boxed(), sym, ic);
              break;
            }
            if (objv.is_null()) {
              throw JsError("cannot read property '" + util::symbol_name(sym) + "' of null");
            }
            push(VmValue::null());  // numbers / booleans
            break;
          }
          case Op::kSetMember: {
            tick();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const auto root = static_cast<util::Symbol>(rd_u32());
            const std::uint16_t ic = rd_u16();
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue objv = pop();
            VmValue rhs = pop();
            if (!objv.is_box()) throw JsError("cannot set property on non-object");
            member_set(objv.boxed(), sym, root, ic, aop, rhs, keep);
            break;
          }

          case Op::kGetMemberSlot: {
            // Fused ident.member chain: one step tick per expression node
            // (the root ident here, each member hop in walk_chain).
            tick();
            const JsValue* ref = member_chain_slot();
            if (ref) push(VmValue::from_js(*ref));
            break;
          }
          case Op::kGetMemberGlobal: {
            tick();
            const JsValue* ref = member_chain_global();
            if (ref) push(VmValue::from_js(*ref));
            break;
          }
          case Op::kAddMemberSlot:
            // Fused [get_member_chain][add]: the chain's ticks plus the
            // add node's own tick.
            tick();
            tick();
            add_member_ref(member_chain_slot());
            break;
          case Op::kAddMemberGlobal:
            tick();
            tick();
            add_member_ref(member_chain_global());
            break;
          case Op::kAddConst: {
            // Fused [const][add]: two expression nodes, two ticks.
            tick();
            tick();
            const JsValue& c = chunk.constants[rd_u16()];
            VmValue& l = stack_.back();
            if (l.is_number() && c.is_number()) {
              l = VmValue::number(l.as_number() + c.as_number());
              break;
            }
            push(VmValue::from_js(c));
            add_values();
            break;
          }
          case Op::kIncSlot: {
            // Statement-form `i = i + c` / `i += c` on a resolved local.
            // The plain form replays the ident read (counter + hook) and
            // ticks for ident, const, add, and assign; the compound form
            // ticks for const and assign only — exactly the unfused
            // sequences, minus the value-stack round trip (nothing is
            // pushed: the statement's kPop is folded away too).
            const std::uint8_t depth = rd_u8();
            const std::uint16_t slot = rd_u16();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const JsValue& c = chunk.constants[rd_u16()];
            const auto aop = static_cast<AssignOp>(rd_u8());
            const bool plain = rd_u8() != 0;
            Environment* frame = scopes_.back().get();
            for (int d = 0; d < depth; ++d) frame = frame->parent();
            const bool bound = frame->slot_bound(slot);
            JsValue* binding =
                bound ? &frame->slot(slot) : scopes_.back()->find_mutable(sym);
            if (plain) {
              tick();  // the ident read
              if (bound) {
                ++interp_.slot_reads_;
              } else {
                ++interp_.named_reads_;
                if (!binding) {
                  throw JsError("undefined variable: " + util::symbol_name(sym));
                }
              }
              if constexpr (WithHooks) {
                interp_.hooks_->on_read(interp_.current_stmt_, sym, *binding);
              }
              tick();  // the constant
              tick();  // the add node
            } else {
              tick();  // the constant
            }
            tick();  // the assign
            if (bound) {
              ++interp_.slot_writes_;
            } else {
              ++interp_.named_writes_;
              if (!binding) {
                throw JsError("assignment to undeclared variable: " + util::symbol_name(sym));
              }
            }
            const VmValue rhs = VmValue::number(c.as_number());
            double num;
            if (store_number(*binding, rhs, aop, num)) {
              if constexpr (WithHooks) {
                interp_.hooks_->on_write(interp_.current_stmt_, sym, JsValue(num));
              }
              break;
            }
            JsValue value = vm_combined(*binding, rhs, aop);
            *binding = value;
            if constexpr (WithHooks) {
              interp_.hooks_->on_write(interp_.current_stmt_, sym, value);
            }
            break;
          }
          case Op::kJumpCmpSlots: {
            // Fused two-local comparison + conditional branch. Ticks,
            // read counters, and hooks land in the same order as the
            // unfused [load][load][cmp][jump_if_false] sequence; the
            // operands never touch the value stack.
            const std::uint8_t cmp = rd_u8();
            const auto read_slot = [&]() -> const JsValue* {
              tick();
              const std::uint8_t depth = rd_u8();
              const std::uint16_t slot = rd_u16();
              const auto sym = static_cast<util::Symbol>(rd_u32());
              Environment* frame = scopes_.back().get();
              for (int d = 0; d < depth; ++d) frame = frame->parent();
              const JsValue* value;
              if (frame->slot_bound(slot)) {
                ++interp_.slot_reads_;
                value = &frame->slot(slot);
              } else {
                ++interp_.named_reads_;
                value = scopes_.back()->find(sym);
                if (!value) throw JsError("undefined variable: " + util::symbol_name(sym));
              }
              if constexpr (WithHooks) {
                interp_.hooks_->on_read(interp_.current_stmt_, sym, *value);
              }
              return value;
            };
            const JsValue* a = read_slot();
            const JsValue* b = read_slot();
            const std::size_t target = rd_u32();
            tick();  // the comparison node
            bool res;
            if (cmp >= 4) {
              if (a->is_number() || b->is_number()) {
                res = a->is_number() && b->is_number() && a->as_number() == b->as_number();
              } else {
                res = a->equals(*b);
              }
              if (cmp == 5) res = !res;
            } else if (a->is_number() && b->is_number()) {
              const double x = a->as_number(), y = b->as_number();
              res = cmp == 0 ? x < y : cmp == 1 ? x <= y : cmp == 2 ? x > y : x >= y;
            } else if (a->is_string() && b->is_string()) {
              const std::string& x = a->as_string();
              const std::string& y = b->as_string();
              res = cmp == 0 ? x < y : cmp == 1 ? x <= y : cmp == 2 ? x > y : x >= y;
            } else {
              const double x = a->as_number(), y = b->as_number();
              res = cmp == 0 ? x < y : cmp == 1 ? x <= y : cmp == 2 ? x > y : x >= y;
            }
            if (!res) pc = target;
            break;
          }
          case Op::kSetMemberSlot: {
            tick();
            tick();
            const std::uint8_t depth = rd_u8();
            const std::uint16_t slot = rd_u16();
            const auto obj_sym = static_cast<util::Symbol>(rd_u32());
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const std::uint16_t ic = rd_u16();
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue rhs = pop();
            Environment* frame = scopes_.back().get();
            for (int d = 0; d < depth; ++d) frame = frame->parent();
            const JsValue* obj;
            if (frame->slot_bound(slot)) {
              ++interp_.slot_reads_;
              obj = &frame->slot(slot);
            } else {
              ++interp_.named_reads_;
              obj = scopes_.back()->find(obj_sym);
              if (!obj) throw JsError("undefined variable: " + util::symbol_name(obj_sym));
            }
            if constexpr (WithHooks) {
              interp_.hooks_->on_read(interp_.current_stmt_, obj_sym, *obj);
            }
            member_set(*obj, sym, obj_sym, ic, aop, rhs, keep);
            break;
          }
          case Op::kSetMemberGlobal: {
            tick();
            tick();
            const auto obj_sym = static_cast<util::Symbol>(rd_u32());
            GlobalCache& gcache = chunk.global_caches[rd_u16()];
            const auto sym = static_cast<util::Symbol>(rd_u32());
            const std::uint16_t ic = rd_u16();
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue rhs = pop();
            Environment* const globals = interp_.globals_.get();
            JsValue* obj;
            if (gcache.env == globals && gcache.globals_version == globals->version() &&
                gcache.builtins_version == interp_.builtins_->version()) {
              ++ic_hits_;
              obj = gcache.binding;
            } else {
              ++ic_misses_;
              obj = globals->find_local(obj_sym);
              if (!obj) obj = interp_.builtins_->find_local(obj_sym);
              if (!obj) throw JsError("undefined variable: " + util::symbol_name(obj_sym));
              gcache.env = globals;
              gcache.globals_version = globals->version();
              gcache.builtins_version = interp_.builtins_->version();
              gcache.binding = obj;
            }
            ++interp_.slot_reads_;
            if constexpr (WithHooks) {
              interp_.hooks_->on_read(interp_.current_stmt_, obj_sym, *obj);
            }
            member_set(*obj, sym, obj_sym, ic, aop, rhs, keep);
            break;
          }
          case Op::kGetIndex: {
            tick();
            VmValue idxv = pop();
            VmValue objv = pop();
            if (objv.is_box()) {
              const JsValue& obj = objv.boxed();
              if (obj.is_array()) {
                const auto& arr = *obj.as_array();
                const auto i = static_cast<std::size_t>(vm_number(idxv));
                push(i >= arr.size() ? VmValue::null() : VmValue::from_js(arr[i]));
                break;
              }
              if (obj.is_object()) {
                push(VmValue::from_js(obj.as_object()->get(
                    vm_is_string(idxv) ? idxv.boxed().as_string() : idxv.to_js().to_display())));
                break;
              }
              if (obj.is_string()) {
                const std::string& s = obj.as_string();
                const auto i = static_cast<std::size_t>(vm_number(idxv));
                push(i >= s.size() ? VmValue::null() : VmValue::box(JsValue(std::string(1, s[i]))));
                break;
              }
            }
            throw JsError("cannot index a " + objv.to_js().to_display());
          }
          case Op::kSetIndex: {
            tick();
            const auto root = static_cast<util::Symbol>(rd_u32());
            const std::uint8_t rawaop = rd_u8();
            const auto aop = static_cast<AssignOp>(rawaop & ~kAopDiscard);
            const bool keep = !(rawaop & kAopDiscard);
            VmValue idxv = pop();
            VmValue objv = pop();
            VmValue rhs = pop();
            JsValue value;
            if (objv.is_box() && objv.boxed().is_array()) {
              auto& arr = *objv.boxed().as_array();
              const auto i = static_cast<std::size_t>(vm_number(idxv));
              if (i >= arr.size()) arr.resize(i + 1);
              value = vm_combined(arr[i], rhs, aop);
              arr[i] = value;
            } else if (objv.is_box() && objv.boxed().is_object()) {
              JsObject& o = *objv.boxed().as_object();
              const std::string key =
                  vm_is_string(idxv) ? idxv.boxed().as_string() : idxv.to_js().to_display();
              value = vm_combined(o.get(key), rhs, aop);
              o.set(key, value);
            } else {
              throw JsError("cannot index-assign a " + objv.to_js().to_display());
            }
            if constexpr (WithHooks) {
              if (root != util::kNoSymbol) {
                interp_.hooks_->on_write(interp_.current_stmt_, root, objv.boxed());
              }
            }
            if (keep) push(VmValue::from_js(std::move(value)));
            break;
          }

          case Op::kCall: {
            tick();
            const std::uint8_t argc = rd_u8();
            const auto name = static_cast<util::Symbol>(rd_u32());
            CallCache& cache = chunk.call_caches[rd_u16()];
            std::vector<JsValue> args;
            args.reserve(argc);
            for (std::size_t i = stack_.size() - argc; i < stack_.size(); ++i) {
              args.push_back(stack_[i].to_js());
            }
            stack_.resize(stack_.size() - argc);
            VmValue calleev = pop();
            if (calleev.is_box() && calleev.boxed().type() == JsValue::Type::kClosure) {
              const auto& closure = calleev.boxed().as_closure();
              if (closure->chunk) {
                if (cache.target == closure.get()) {
                  ++ic_hits_;
                } else {
                  ++ic_misses_;
                  cache.target = closure.get();
                }
                settle_ticks();
                VmValue result = invoke_chunked<WithHooks>(closure, name, args);
                settle_ticks();
                push(std::move(result));
                break;
              }
            }
            // Natives, chunk-less closures, and call-a-non-function errors
            // all route through the tree-walker's dispatcher.
            JsValue callee = calleev.to_js();
            settle_ticks();
            JsValue result = interp_.call_value<WithHooks>(callee, name, args);
            settle_ticks();
            push(VmValue::from_js(std::move(result)));
            break;
          }
          case Op::kCallMethod: {
            tick();
            const std::uint8_t argc = rd_u8();
            const auto method_sym = static_cast<util::Symbol>(rd_u32());
            const auto root = static_cast<util::Symbol>(rd_u32());
            const std::uint16_t ic = rd_u16();
            const bool mutating = rd_u8() != 0;
            std::vector<JsValue> args;
            args.reserve(argc);
            for (std::size_t i = stack_.size() - argc; i < stack_.size(); ++i) {
              args.push_back(stack_[i].to_js());
            }
            stack_.resize(stack_.size() - argc);
            JsValue receiver = pop().to_js();
            const std::string& method = util::symbol_name(method_sym);

            bool handled = false;
            settle_ticks();
            JsValue result = interp_.builtin_method<WithHooks>(receiver, method, args, handled);
            settle_ticks();
            if (handled) {
              if constexpr (WithHooks) {
                interp_.hooks_->on_invoke(interp_.current_stmt_, method_sym, args, result);
                if (mutating && root != util::kNoSymbol) {
                  interp_.hooks_->on_write(interp_.current_stmt_, root, receiver);
                }
              }
              push(VmValue::from_js(std::move(result)));
              break;
            }

            if (receiver.is_object()) {
              JsObject& o = *receiver.as_object();
              PropCache& cache = chunk.prop_caches[ic];
              JsValue fn;
              if (cache.index != kNoCacheEntry && o.sym_at(cache.index, method_sym)) {
                ++ic_hits_;
                fn = o.value_at(cache.index);
              } else {
                ++ic_misses_;
                const int idx = o.find_index(method_sym);
                if (idx >= 0) {
                  cache.index = static_cast<std::uint32_t>(idx);
                  fn = o.value_at(static_cast<std::size_t>(idx));
                }
              }
              if (fn.is_callable()) {
                JsValue called = interp_.call_value<WithHooks>(fn, method_sym, args);
                settle_ticks();
                push(VmValue::from_js(std::move(called)));
                break;
              }
            }
            throw JsError("no such method '" + method + "' on " + receiver.to_display());
          }

          case Op::kAdd: {
            tick();
            VmValue r = pop();
            VmValue l = pop();
            if (l.is_number() && r.is_number()) {
              push(VmValue::number(l.as_number() + r.as_number()));
              break;
            }
            JsValue lj = l.to_js();
            JsValue rj = r.to_js();
            if (lj.is_string() || rj.is_string()) {
              push(VmValue::box(JsValue(lj.to_display() + rj.to_display())));
            } else {
              push(VmValue::number(lj.as_number() + rj.as_number()));
            }
            break;
          }
          case Op::kSub: {
            tick();
            VmValue r = pop();
            VmValue l = pop();
            const double a = vm_number(l);
            const double b = vm_number(r);
            push(VmValue::number(a - b));
            break;
          }
          case Op::kMul: {
            tick();
            VmValue r = pop();
            VmValue l = pop();
            const double a = vm_number(l);
            const double b = vm_number(r);
            push(VmValue::number(a * b));
            break;
          }
          case Op::kDiv: {
            tick();
            VmValue r = pop();
            VmValue l = pop();
            const double a = vm_number(l);
            const double b = vm_number(r);
            push(VmValue::number(a / b));
            break;
          }
          case Op::kMod: {
            tick();
            VmValue r = pop();
            VmValue l = pop();
            const double a = vm_number(l);
            const double b = vm_number(r);
            push(VmValue::number(std::fmod(a, b)));
            break;
          }
          case Op::kEq:
            tick();
            push(VmValue::boolean(equal()));
            break;
          case Op::kNe:
            tick();
            push(VmValue::boolean(!equal()));
            break;
          case Op::kLt:
            tick();
            compare([](const auto& a, const auto& b) { return a < b; });
            break;
          case Op::kLe:
            tick();
            compare([](const auto& a, const auto& b) { return a <= b; });
            break;
          case Op::kGt:
            tick();
            compare([](const auto& a, const auto& b) { return a > b; });
            break;
          case Op::kGe:
            tick();
            compare([](const auto& a, const auto& b) { return a >= b; });
            break;
          case Op::kNot:
            tick();
            push(VmValue::boolean(!pop().truthy()));
            break;
          case Op::kNeg: {
            tick();
            VmValue v = pop();
            push(VmValue::number(-vm_number(v)));
            break;
          }

          case Op::kJump:
            pc = rd_u32();
            break;
          case Op::kJumpIfFalse: {
            const std::size_t target = rd_u32();
            if (!pop().truthy()) pc = target;
            break;
          }
          case Op::kAndJump: {
            tick();
            const std::size_t target = rd_u32();
            if (!stack_.back().truthy()) {
              pc = target;
            } else {
              stack_.pop_back();
            }
            break;
          }
          case Op::kOrJump: {
            tick();
            const std::size_t target = rd_u32();
            if (stack_.back().truthy()) {
              pc = target;
            } else {
              stack_.pop_back();
            }
            break;
          }

          case Op::kMakeObject: {
            tick();
            const std::uint16_t count = rd_u16();
            const std::uint16_t base = rd_u16();
            auto obj = std::make_shared<JsObject>();
            const std::size_t first = stack_.size() - count;
            for (std::size_t i = 0; i < count; ++i) {
              obj->set(chunk.syms[base + i], stack_[first + i].to_js());
            }
            stack_.resize(first);
            push(VmValue::box(JsValue(std::move(obj))));
            break;
          }
          case Op::kMakeArray: {
            tick();
            const std::uint16_t count = rd_u16();
            auto arr = std::make_shared<JsArray>();
            arr->reserve(count);
            const std::size_t first = stack_.size() - count;
            for (std::size_t i = 0; i < count; ++i) arr->push_back(stack_[first + i].to_js());
            stack_.resize(first);
            push(VmValue::box(JsValue(std::move(arr))));
            break;
          }
          case Op::kMakeClosure: {
            const auto& fc = chunk.fn_chunks[rd_u16()];
            auto closure = std::make_shared<Closure>();
            closure->name = fc->name;
            closure->name_sym = fc->name_sym;
            closure->params = fc->params;
            closure->body = fc->body;
            closure->env = scopes_.back();
            closure->scope = fc->fn_scope;
            closure->chunk = fc;
            push(VmValue::box(JsValue(std::move(closure))));
            break;
          }

          case Op::kPushScope:
            scopes_.push_back(interp_.make_frame(chunk.scopes[rd_u16()], scopes_.back()));
            break;
          case Op::kPopScope:
            scopes_.pop_back();
            break;
          case Op::kPopScopeN:
            scopes_.resize(scopes_.size() - rd_u8());
            break;

          case Op::kDeclareSlot: {
            const std::uint16_t slot = rd_u16();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            Environment& e = *scopes_.back();
            e.bind_slot(slot, pop().to_js());
            if constexpr (WithHooks) {
              const JsValue& bound = e.slot(slot);
              interp_.hooks_->on_declare(interp_.current_stmt_, sym, bound);
              interp_.hooks_->on_write(interp_.current_stmt_, sym, bound);
            }
            break;
          }
          case Op::kDeclareNamed: {
            const auto sym = static_cast<util::Symbol>(rd_u32());
            Environment& e = *scopes_.back();
            e.define(sym, pop().to_js());
            if constexpr (WithHooks) {
              const JsValue* bound = e.find_local(sym);
              interp_.hooks_->on_declare(interp_.current_stmt_, sym, *bound);
              interp_.hooks_->on_write(interp_.current_stmt_, sym, *bound);
            }
            break;
          }
          case Op::kDeclareFnSlot: {
            const std::uint16_t slot = rd_u16();
            const auto sym = static_cast<util::Symbol>(rd_u32());
            Environment& e = *scopes_.back();
            e.bind_slot(slot, pop().to_js());
            if constexpr (WithHooks) {
              interp_.hooks_->on_declare(interp_.current_stmt_, sym, e.slot(slot));
            }
            break;
          }
          case Op::kDeclareFnNamed: {
            const auto sym = static_cast<util::Symbol>(rd_u32());
            Environment& e = *scopes_.back();
            e.define(sym, pop().to_js());
            if constexpr (WithHooks) {
              interp_.hooks_->on_declare(interp_.current_stmt_, sym, *e.find_local(sym));
            }
            break;
          }

          case Op::kTryPush:
            handlers_.push_back(Handler{rd_u32(), stack_.size(), scopes_.size()});
            break;
          case Op::kTryPop:
            handlers_.pop_back();
            break;
          case Op::kCatchBind: {
            const std::uint16_t scope_idx = rd_u16();
            const std::uint16_t slot = rd_u16();
            const auto catch_sym = static_cast<util::Symbol>(rd_u32());
            JsValue caught = pop().to_js();
            std::shared_ptr<Environment> cenv;
            if (scope_idx != 0xffff) {
              cenv = interp_.make_frame(chunk.scopes[scope_idx], scopes_.back());
              if (slot != 0xffff) {
                cenv->bind_slot(slot, std::move(caught));
              } else {
                cenv->define(catch_sym, std::move(caught));
              }
            } else {
              cenv = interp_.make_named(scopes_.back());
              cenv->define(catch_sym, std::move(caught));
            }
            scopes_.push_back(std::move(cenv));
            break;
          }

          case Op::kReturn: {
            VmValue result = pop();
            return result;
          }
          case Op::kThrow: {
            JsValue value = pop().to_js();
            std::string message = "minijs throw: " + value.to_display();
            throw JsError(message, std::move(value));
          }

          default:
            throw std::logic_error("minijs vm: corrupt bytecode");
        }
      }
    } catch (JsError& err) {
      if (handlers_.size() <= guard.handler_base) throw;
      settle_ticks();
      const Handler h = handlers_.back();
      handlers_.pop_back();
      stack_.resize(h.stack_depth);
      scopes_.resize(h.scope_depth);
      JsValue caught = err.value();
      if (caught.is_null()) caught = JsValue(std::string(err.what()));
      push(VmValue::from_js(std::move(caught)));
      pc = h.target;
    }
  }
}

// The cross-TU bridge: interpreter.cpp calls call_chunked, this file calls
// the interpreter's templated dispatcher/builtins (instantiated there).
template JsValue Vm::call_chunked<true>(const std::shared_ptr<Closure>&, util::Symbol,
                                        std::vector<JsValue>&);
template JsValue Vm::call_chunked<false>(const std::shared_ptr<Closure>&, util::Symbol,
                                         std::vector<JsValue>&);

}  // namespace edgstr::minijs
