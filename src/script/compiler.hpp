// vpscript bytecode compiler.
//
// Single-pass AST → bytecode translation in the clox mold: each
// function compiles with its own scope tracker (stack-slot locals,
// lexical upvalue resolution), nested functions compile inline into
// child FunctionProtos adopted by the Vm.
//
// Scope semantics, notably:
//  * `var` is block-scoped; a declaration executes at its statement
//    (reads earlier in the block resolve outward), so block entry
//    reserves slots that stay invisible until the declaration runs;
//  * function declarations hoist per block;
//  * compound assignment / ++ / -- evaluate their target expression
//    twice (read then write);
//  * `const` violations are runtime errors (dead branches may contain
//    them) — the compiler emits kRuntimeError instead of failing.
//
// Bytecode operands bound what a program may contain; a program past
// any of these limits fails to compile with a kScriptError naming it:
//  * 255 arguments per call (u8 argc);
//  * 65535 bytes per jump or loop body (u16 offset);
//  * 65535 constants, locals or upvalues per function, and 65535
//    elements per array/object literal (u16 index / count).
#pragma once

#include "common/error.hpp"
#include "script/ast.hpp"

namespace vp::script {

class Vm;
struct FunctionProto;

/// Compile `program` into `vm` (protos + global slots). Returns the
/// top-level proto to pass to Vm::RunTopLevel.
Result<const FunctionProto*> CompileProgram(const Program& program, Vm& vm);

}  // namespace vp::script
