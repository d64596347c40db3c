// Static resolution pass: assigns every identifier a lexical address.
//
// The resolver runs after parsing/normalization, when the scope structure
// is final. It mirrors the interpreter's environment creation exactly —
// one ScopeInfo per runtime Environment — so a resolved identifier can be
// read as `frame(depth).slot(i)` instead of a hash lookup per scope in the
// chain. Names that bind at the REPL-ish toplevel (or in the builtins
// scope) resolve to kDepthGlobal and keep a two-probe named lookup.
//
// Correctness hinges on one invariant: frame slots start *unbound*, and an
// unbound slot is invisible to chain lookups. A statically resolved read
// whose slot is still unbound (use-before-declaration inside a block that
// shadows an outer name) falls back to the dynamic named walk, which makes
// the fast path observably identical to the slow one.
#pragma once

#include "minijs/ast.h"

namespace edgstr::minijs {

/// Interns every name and annotates the program with scope layouts and
/// lexical addresses. Idempotent; recomputes from scratch each call.
void resolve_program(Program& program);

/// Interns every name but clears all resolution annotations, forcing the
/// dynamic named path everywhere (the differential-testing baseline).
void strip_resolution(Program& program);

}  // namespace edgstr::minijs
