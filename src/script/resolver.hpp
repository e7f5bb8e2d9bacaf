// vpscript resolver pass: parse → **resolve** → compile → execute.
//
// Runs once per distinct source (the program cache compiles each
// source once), between the parser and the compiler, and rewrites the
// AST in place: constant subexpressions (`2 * 3 + 1`, `"a" + "b"`,
// `!false`, folded conditionals and short-circuits) are evaluated at
// resolve time with the VM's own operator semantics. Member names and
// object-literal keys are interned by the compiler, as it emits them.
//
// Scope layout (locals, upvalues, globals) is the compiler's business;
// the resolver never changes what a program means.
#pragma once

#include "script/ast.hpp"

namespace vp::script {

/// Annotate `program` in place. Idempotent in effect but meant to be
/// called exactly once, right after parsing.
void ResolveProgram(Program& program);

}  // namespace vp::script
