// vpscript abstract syntax tree.
//
// Plain struct hierarchy with unique_ptr ownership, produced by the
// parser and consumed once by the bytecode compiler (compiler.hpp). A
// resolver pass (resolver.hpp) runs in between and folds constant
// subexpressions in place.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vp::script {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

/// Dense operator codes, assigned by the parser so the compiler and the
/// constant folder switch on an integer instead of operator spellings.
enum class OpCode : uint8_t {
  kNone,
  // binary
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kStrictEq, kStrictNe,
  kLt, kLe, kGt, kGe,
  // logical
  kAndAnd, kOrOr,
  // unary
  kNeg, kPos, kNot, kTypeof,
  // update
  kInc, kDec,
};

// ---------------------------------------------------------------- Expr

enum class ExprKind {
  kNumber, kString, kBool, kNull, kUndefined,
  kIdentifier,
  kArrayLiteral, kObjectLiteral,
  kUnary,        // op operand      (-x, !x, typeof x)
  kUpdate,       // ++x, x++, --x, x--
  kBinary,       // left op right
  kLogical,      // && || (short-circuit)
  kConditional,  // cond ? a : b
  kAssign,       // target op= value
  kCall,         // callee(args)
  kMember,       // object.name
  kIndex,        // object[index]
  kFunction,     // function (params) { body }
};

struct ObjectProperty {
  std::string key;
  ExprPtr value;
};

struct Expr {
  ExprKind kind;
  int line = 0;

  /// Integer dispatch code for op (for kAssign: the compound binary op,
  /// kNone for plain '=').
  OpCode op_code = OpCode::kNone;
  bool bool_value = false;    // kBool
  bool prefix = false;        // kUpdate
  double number = 0;          // kNumber

  std::string string_value;  // string literal / identifier / member name
  std::string op;  // operator spelling for unary/binary/assign/update
  ExprPtr a, b, c;      // children (operands / callee / object / index)

  // Composite
  std::vector<ExprPtr> elements;  // array elements / call args
  std::vector<ObjectProperty> properties;  // object literal

  // kFunction
  std::vector<std::string> params;
  std::vector<StmtPtr> body;
  std::string function_name;  // optional (named function expressions)
};

// ---------------------------------------------------------------- Stmt

enum class StmtKind {
  kExpr,
  kVarDecl,   // var/let/const name = init
  kFunction,  // function name(params) { body }
  kReturn,
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kForIn,     // for (var k in obj)
  kBlock,
  kBreak,
  kContinue,
  kTry,       // try { body } catch (name) { else_branch }
  kThrow,
  kSwitch,    // switch (expr) { cases }
};

struct SwitchCase {
  ExprPtr test;  // nullptr = default
  std::vector<StmtPtr> body;
};

struct Stmt {
  StmtKind kind;
  int line = 0;

  ExprPtr expr;  // kExpr / kReturn value / condition for if/while
  std::string name;  // var name / function name / for-in variable
  bool is_const = false;

  // kIf
  std::vector<StmtPtr> then_branch;
  std::vector<StmtPtr> else_branch;

  // kWhile / kFor / kForIn / kBlock / function body
  std::vector<StmtPtr> body;

  // kFor
  StmtPtr init;
  ExprPtr condition;
  ExprPtr step;

  // kFunction
  std::vector<std::string> params;

  // kSwitch
  std::vector<SwitchCase> cases;
};

/// A parsed program: top-level statements.
struct Program {
  std::vector<StmtPtr> statements;
};

}  // namespace vp::script
