#include "minijs/resolve.h"

#include <memory>
#include <vector>

namespace edgstr::minijs {

namespace {

// ------------------------------------------------------------- interning --
// The parser builds many nodes directly (not through the ast.h factories),
// so both resolve and strip start by (re)interning every name in place.

void intern_stmt_names(Stmt& stmt) {
  stmt.name_sym = util::intern(stmt.name);
  stmt.catch_sym = util::intern(stmt.catch_name);
}

void intern_expr_names(Expr& expr) {
  if (expr.kind == ExprKind::kIdent || expr.kind == ExprKind::kMember) {
    expr.sym = util::intern(expr.text);
  }
  if (expr.kind == ExprKind::kObject) {
    expr.entry_syms.clear();
    expr.entry_syms.reserve(expr.entries.size());
    for (const auto& [key, value] : expr.entries) expr.entry_syms.push_back(util::intern(key));
  }
}

// -------------------------------------------------------------- resolver --

class Resolver {
 public:
  void run(Program& program) {
    // The toplevel executes in the named globals scope: no frame, every
    // toplevel name resolves through the global path.
    for (const StmtPtr& stmt : program.body) resolve_stmt(*stmt);
  }

 private:
  std::vector<std::shared_ptr<ScopeInfo>> stack_;  ///< innermost last

  std::shared_ptr<ScopeInfo> begin_scope() {
    auto scope = std::make_shared<ScopeInfo>();
    stack_.push_back(scope);
    return scope;
  }

  ScopeInfoPtr end_scope() {
    std::shared_ptr<ScopeInfo> scope = std::move(stack_.back());
    stack_.pop_back();
    return scope;
  }

  static int add_slot(ScopeInfo& scope, util::Symbol sym) {
    if (sym == util::kNoSymbol) return -1;
    const int existing = scope.index_of(sym);
    if (existing >= 0) return existing;
    scope.slots.push_back(sym);
    return static_cast<int>(scope.slots.size()) - 1;
  }

  /// Pre-pass: declarations in a scope's *immediate* statement list claim
  /// slots before any identifier inside the scope is resolved, so forward
  /// references (hoisting-like reads, `var x = x + 1` shadowing) address
  /// the right slot and rely on the unbound-slot fallback for timing.
  static void collect_decls(const std::vector<StmtPtr>& stmts, ScopeInfo& scope) {
    for (const StmtPtr& stmt : stmts) {
      if (stmt->kind == StmtKind::kVarDecl || stmt->kind == StmtKind::kFunctionDecl) {
        intern_stmt_names(*stmt);
        add_slot(scope, stmt->name_sym);
      }
    }
  }

  /// Current-scope slot of a declaration (named toplevel -> -1).
  int decl_slot(util::Symbol sym) const {
    if (stack_.empty()) return -1;
    return stack_.back()->index_of(sym);
  }

  void resolve_ident(Expr& expr) {
    std::int32_t depth = 0;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it, ++depth) {
      const int slot = (*it)->index_of(expr.sym);
      if (slot >= 0) {
        expr.res_depth = depth;
        expr.res_slot = slot;
        return;
      }
    }
    expr.res_depth = kDepthGlobal;
    expr.res_slot = -1;
  }

  /// A block that the interpreter runs in its own child frame (standalone
  /// blocks, if/while branches, loop bodies, try blocks).
  void resolve_scoped_block(const StmtPtr& block) {
    if (!block) return;
    auto scope = begin_scope();
    collect_decls(block->stmts, *scope);
    for (const StmtPtr& stmt : block->stmts) resolve_stmt(*stmt);
    block->block_scope = end_scope();
  }

  /// A function body: params and immediate declarations share the call
  /// frame; the body block runs directly in it (no extra scope).
  ScopeInfoPtr resolve_function(const std::vector<std::string>& params, const StmtPtr& body) {
    auto scope = begin_scope();
    scope->param_slots.reserve(params.size());
    for (const std::string& param : params) {
      // Duplicate params collapse to one slot; binding args in order keeps
      // last-one-wins semantics, same as repeated named defines.
      scope->param_slots.push_back(add_slot(*scope, util::intern(param)));
    }
    if (body) {
      collect_decls(body->stmts, *scope);
      for (const StmtPtr& stmt : body->stmts) resolve_stmt(*stmt);
    }
    return end_scope();
  }

  void resolve_stmt(Stmt& stmt) {
    intern_stmt_names(stmt);
    stmt.res_slot = -1;
    stmt.block_scope = nullptr;
    stmt.aux_scope = nullptr;
    stmt.fn_scope = nullptr;
    switch (stmt.kind) {
      case StmtKind::kVarDecl:
        resolve_expr(stmt.expr);
        stmt.res_slot = decl_slot(stmt.name_sym);
        return;
      case StmtKind::kExpr:
      case StmtKind::kReturn:
      case StmtKind::kThrow:
        resolve_expr(stmt.expr);
        return;
      case StmtKind::kIf:
        resolve_expr(stmt.expr);  // condition evaluates in the outer scope
        resolve_scoped_block(stmt.a_block);
        resolve_scoped_block(stmt.b_block);
        return;
      case StmtKind::kWhile:
        resolve_expr(stmt.expr);
        resolve_scoped_block(stmt.a_block);
        return;
      case StmtKind::kFor: {
        // Loop header scope holds for_init declarations; the body gets a
        // fresh child frame per iteration.
        auto aux = begin_scope();
        if (stmt.for_init && (stmt.for_init->kind == StmtKind::kVarDecl ||
                              stmt.for_init->kind == StmtKind::kFunctionDecl)) {
          intern_stmt_names(*stmt.for_init);
          add_slot(*aux, stmt.for_init->name_sym);
        }
        if (stmt.for_init) resolve_stmt(*stmt.for_init);
        resolve_expr(stmt.expr);
        resolve_expr(stmt.for_update);
        resolve_scoped_block(stmt.a_block);
        stmt.aux_scope = end_scope();
        return;
      }
      case StmtKind::kBlock:
        resolve_scoped_block_self(stmt);
        return;
      case StmtKind::kFunctionDecl:
        stmt.res_slot = decl_slot(stmt.name_sym);
        stmt.fn_scope = resolve_function(stmt.params, stmt.a_block);
        return;
      case StmtKind::kTryCatch: {
        resolve_scoped_block(stmt.a_block);
        // The catch body runs directly in the scope that binds the catch
        // name, mirroring the interpreter — so no block_scope on b_block.
        auto aux = begin_scope();
        const int catch_slot = add_slot(*aux, stmt.catch_sym);
        if (stmt.b_block) {
          collect_decls(stmt.b_block->stmts, *aux);
          for (const StmtPtr& s : stmt.b_block->stmts) resolve_stmt(*s);
        }
        stmt.aux_scope = end_scope();
        stmt.res_slot = catch_slot;
        return;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        return;
    }
  }

  void resolve_scoped_block_self(Stmt& block) {
    auto scope = begin_scope();
    collect_decls(block.stmts, *scope);
    for (const StmtPtr& stmt : block.stmts) resolve_stmt(*stmt);
    block.block_scope = end_scope();
  }

  void resolve_expr(const ExprPtr& expr) {
    if (!expr) return;
    intern_expr_names(*expr);
    if (expr->kind == ExprKind::kIdent) {
      resolve_ident(*expr);
    } else {
      expr->res_depth = kDepthUnresolved;
      expr->res_slot = -1;
    }
    resolve_expr(expr->a);
    resolve_expr(expr->b);
    resolve_expr(expr->c);
    for (const ExprPtr& arg : expr->args) resolve_expr(arg);
    for (const auto& [key, value] : expr->entries) resolve_expr(value);
    if (expr->kind == ExprKind::kFunction) {
      expr->fn_scope = resolve_function(expr->params, expr->body);
    } else {
      expr->fn_scope = nullptr;
    }
  }
};

// --------------------------------------------------------------- stripper --

void strip_expr(const ExprPtr& expr);

void strip_stmt(Stmt& stmt) {
  intern_stmt_names(stmt);
  stmt.res_slot = -1;
  stmt.block_scope = nullptr;
  stmt.aux_scope = nullptr;
  stmt.fn_scope = nullptr;
  strip_expr(stmt.expr);
  for (const StmtPtr& s : stmt.stmts) strip_stmt(*s);
  if (stmt.a_block) strip_stmt(*stmt.a_block);
  if (stmt.b_block) strip_stmt(*stmt.b_block);
  if (stmt.for_init) strip_stmt(*stmt.for_init);
  strip_expr(stmt.for_update);
}

void strip_expr(const ExprPtr& expr) {
  if (!expr) return;
  intern_expr_names(*expr);
  expr->res_depth = kDepthUnresolved;
  expr->res_slot = -1;
  expr->fn_scope = nullptr;
  strip_expr(expr->a);
  strip_expr(expr->b);
  strip_expr(expr->c);
  for (const ExprPtr& arg : expr->args) strip_expr(arg);
  for (const auto& [key, value] : expr->entries) strip_expr(value);
  if (expr->body) strip_stmt(*expr->body);
}

}  // namespace

void resolve_program(Program& program) {
  Resolver().run(program);
}

void strip_resolution(Program& program) {
  for (const StmtPtr& stmt : program.body) strip_stmt(*stmt);
}

}  // namespace edgstr::minijs
