// Process-wide string interning.
//
// MiniJS identifiers, property keys, RW-log variable names and Datalog
// symbols all flow through here: interning happens once (at lex/parse or
// native registration time), after which every comparison is a 32-bit id
// compare and every event record stores 4 bytes instead of a heap string.
//
// Symbol 0 is reserved as "no symbol"; symbol_name(0) is the empty string.
// Interned strings live for the lifetime of the process, so the returned
// references are stable.
//
// Thread-safety: interning is sharded by string hash (16 mutexes), and the
// symbol -> string direction is lock-free (atomically published pointer
// blocks indexed by id), so concurrent callers neither contend on a
// global lock nor block each other on reads. Symbol ids follow global
// first-intern order, so output-visible names are byte-stable across runs
// only when they are first interned in the same order (the simulation
// stack interns on one thread).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace edgstr::util {

using Symbol = std::uint32_t;
inline constexpr Symbol kNoSymbol = 0;

/// Returns the id for `name`, interning it on first sight. Thread-safe.
Symbol intern(std::string_view name);

/// The string behind a symbol. Stable reference; "" for kNoSymbol.
const std::string& symbol_name(Symbol sym);

/// Stable pointer form of symbol_name (used by datalog::Value to keep
/// lexicographic ordering while comparing identity first).
const std::string* symbol_cstr(Symbol sym);

/// Number of distinct strings interned so far (diagnostics/benches).
std::size_t symbol_count();

}  // namespace edgstr::util
