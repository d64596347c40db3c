// MiniJS bytecode VM.
//
// Executes chunks produced by minijs/compile.h against the *same* runtime
// state the tree-walker uses: the interpreter's environment chain and
// heap, step/depth budgets, counters, and instrumentation hooks. The two
// engines are interchangeable mid-program — a chunked closure called from
// tree-walked code runs on the VM, a chunk-less closure reached from
// bytecode falls back to the tree-walker — which is what lets the variant
// harness run the VM as a shadow against the AST engines and demand
// byte-identical RW logs.
//
// The operand stack holds NaN-boxed VmValues (minijs/vm_value.h); the
// heavyweight JsValue appears only at the boundaries (environment slots,
// hooks, native calls, constants). Monomorphic inline caches live in the
// chunks (property entry index / global binding pointer / call target) and
// feed the vm.ic.{hit,miss} telemetry counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "minijs/chunk.h"
#include "minijs/interpreter.h"
#include "minijs/vm_value.h"

namespace edgstr::minijs {

class Vm {
 public:
  explicit Vm(Interpreter& interp);

  /// Runs the compiled toplevel chunk in the globals scope.
  void run_toplevel();

  /// Calls a chunked closure: tick, depth guard, frame setup, run, invoke
  /// hook — the VM half of Interpreter::call_value.
  template <bool WithHooks>
  JsValue call_chunked(const std::shared_ptr<Closure>& closure, util::Symbol name,
                       std::vector<JsValue>& args);

  std::uint64_t ic_hits() const { return ic_hits_; }
  std::uint64_t ic_misses() const { return ic_misses_; }

 private:
  /// An active try region: where to resume, and how much operand stack /
  /// scope chain to unwind when a JsError lands here.
  struct Handler {
    std::size_t target;
    std::size_t stack_depth;
    std::size_t scope_depth;
  };

  /// Executes one chunk in `env`; returns the kReturn value. Recursion
  /// depth is bounded by the interpreter's max_call_depth.
  template <bool WithHooks>
  VmValue run(const Chunk& chunk, std::shared_ptr<Environment> env);

  template <bool WithHooks>
  VmValue invoke_chunked(const std::shared_ptr<Closure>& closure, util::Symbol name,
                         std::vector<JsValue>& args);

  // Stack helpers.
  void push(VmValue v) { stack_.push_back(std::move(v)); }
  VmValue pop() {
    VmValue v = std::move(stack_.back());
    stack_.pop_back();
    return v;
  }

  Interpreter& interp_;
  std::vector<VmValue> stack_;  ///< shared operand stack; runs window it by base
  std::vector<std::shared_ptr<Environment>> scopes_;  ///< active scope chain
  std::vector<Handler> handlers_;
  std::uint64_t ic_hits_ = 0;
  std::uint64_t ic_misses_ = 0;
};

}  // namespace edgstr::minijs
