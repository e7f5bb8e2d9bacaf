#include "script/resolver.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "script/vm.hpp"

namespace vp::script {
namespace {

// ------------------------------------------------------ constant fold
// Literals fold through the VM's own value semantics (Vm::ToNumber,
// ToDisplayString, StrictEquals, LooseEquals, Compare, Truthy), so a
// folded `2 * 3 + "x"` displays exactly as the unfolded one would.

bool IsLiteral(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber:
    case ExprKind::kString:
    case ExprKind::kBool:
    case ExprKind::kNull:
    case ExprKind::kUndefined:
      return true;
    default:
      return false;
  }
}

/// A literal as a VM value. A string literal is backed by `scratch`,
/// which must outlive the value; the static helpers never touch a heap.
VpValue LiteralValue(const Expr& e, GcString& scratch) {
  switch (e.kind) {
    case ExprKind::kNumber: return VpValue::Number(e.number);
    case ExprKind::kString:
      scratch.text = e.string_value;
      return VpValue::Heap(&scratch);
    case ExprKind::kBool: return VpValue::Boolean(e.bool_value);
    case ExprKind::kNull: return VpValue::Null();
    default: return VpValue::Undefined();
  }
}

bool LiteralTruthy(const Expr& e) {
  GcString scratch{std::string()};
  return Vm::Truthy(LiteralValue(e, scratch));
}

/// Rewrite `e` as the literal `v` (a number, boolean, null or
/// undefined; strings go through ReplaceWithString).
void ReplaceWithLiteral(Expr& e, VpValue v) {
  const int line = e.line;
  e = Expr{};
  e.line = line;
  if (v.is_number()) {
    e.kind = ExprKind::kNumber;
    e.number = v.AsNumber();
  } else if (v.is_bool()) {
    e.kind = ExprKind::kBool;
    e.bool_value = v.AsBool();
  } else if (v.is_null()) {
    e.kind = ExprKind::kNull;
  } else {
    e.kind = ExprKind::kUndefined;
  }
}

void ReplaceWithString(Expr& e, std::string s) {
  const int line = e.line;
  e = Expr{};
  e.line = line;
  e.kind = ExprKind::kString;
  e.string_value = std::move(s);
}

/// Fold `a op b` into `e` with the VM's operator semantics; other
/// operator codes are left for the compiler.
void FoldBinaryLiterals(Expr& e, OpCode op, VpValue a, VpValue b) {
  auto number = [&e](double d) { ReplaceWithLiteral(e, VpValue::Number(d)); };
  auto boolean = [&e](bool v) { ReplaceWithLiteral(e, VpValue::Boolean(v)); };
  switch (op) {
    case OpCode::kAdd:
      if (a.is_string() || b.is_string()) {
        ReplaceWithString(e, Vm::ToDisplayString(a) + Vm::ToDisplayString(b));
      } else {
        number(Vm::ToNumber(a) + Vm::ToNumber(b));
      }
      return;
    case OpCode::kSub: return number(Vm::ToNumber(a) - Vm::ToNumber(b));
    case OpCode::kMul: return number(Vm::ToNumber(a) * Vm::ToNumber(b));
    case OpCode::kDiv: return number(Vm::ToNumber(a) / Vm::ToNumber(b));
    case OpCode::kMod:
      return number(std::fmod(Vm::ToNumber(a), Vm::ToNumber(b)));
    case OpCode::kEq: return boolean(Vm::LooseEquals(a, b));
    case OpCode::kNe: return boolean(!Vm::LooseEquals(a, b));
    case OpCode::kStrictEq: return boolean(Vm::StrictEquals(a, b));
    case OpCode::kStrictNe: return boolean(!Vm::StrictEquals(a, b));
    case OpCode::kLt: return boolean(Vm::Compare(Op::kLt, a, b));
    case OpCode::kLe: return boolean(Vm::Compare(Op::kLe, a, b));
    case OpCode::kGt: return boolean(Vm::Compare(Op::kGt, a, b));
    case OpCode::kGe: return boolean(Vm::Compare(Op::kGe, a, b));
    default: return;
  }
}

void ReplaceWithChild(Expr& e, ExprPtr child) {
  ExprPtr saved = std::move(child);  // keep the node alive across the move
  e = std::move(*saved);
}

// ---------------------------------------------------------- resolver

class Resolver {
 public:
  void Run(Program& program) { ResolveStmts(program.statements); }

 private:
  static uint32_t Intern(const std::string& s) {
    return Interner::Global().Intern(s);
  }

  void ResolveStmts(std::vector<StmtPtr>& stmts) {
    for (auto& s : stmts) ResolveStmt(*s);
  }

  void ResolveStmt(Stmt& s) {
    if (s.expr) ResolveExpr(*s.expr);
    if (s.init) ResolveStmt(*s.init);
    if (s.condition) ResolveExpr(*s.condition);
    if (s.step) ResolveExpr(*s.step);
    ResolveStmts(s.then_branch);
    ResolveStmts(s.else_branch);
    ResolveStmts(s.body);
    for (auto& c : s.cases) {
      if (c.test) ResolveExpr(*c.test);
      ResolveStmts(c.body);
    }
  }

  void ResolveExpr(Expr& e) {
    switch (e.kind) {
      case ExprKind::kObjectLiteral:
        for (auto& p : e.properties) {
          p.key_id = Intern(p.key);
          ResolveExpr(*p.value);
        }
        return;
      case ExprKind::kMember:
        ResolveExpr(*e.a);
        e.name_id = Intern(e.string_value);
        return;
      case ExprKind::kFunction:
        ResolveStmts(e.body);
        return;
      default:
        break;
    }
    for (auto& el : e.elements) ResolveExpr(*el);
    if (e.a) ResolveExpr(*e.a);
    if (e.b) ResolveExpr(*e.b);
    if (e.c) ResolveExpr(*e.c);
    switch (e.kind) {
      case ExprKind::kUnary:
        FoldUnary(e);
        break;
      case ExprKind::kBinary:
        FoldBinary(e);
        break;
      case ExprKind::kLogical:
        FoldLogical(e);
        break;
      case ExprKind::kConditional:
        if (IsLiteral(*e.a)) {
          ReplaceWithChild(e, LiteralTruthy(*e.a) ? std::move(e.b)
                                                  : std::move(e.c));
        }
        break;
      default:
        break;
    }
  }

  void FoldUnary(Expr& e) {
    if (!IsLiteral(*e.a)) return;
    GcString scratch{std::string()};
    const VpValue v = LiteralValue(*e.a, scratch);
    switch (e.op_code) {
      case OpCode::kNeg:
        ReplaceWithLiteral(e, VpValue::Number(-Vm::ToNumber(v)));
        break;
      case OpCode::kPos:
        ReplaceWithLiteral(e, VpValue::Number(Vm::ToNumber(v)));
        break;
      case OpCode::kNot:
        ReplaceWithLiteral(e, VpValue::Boolean(!Vm::Truthy(v)));
        break;
      default: break;  // typeof et al.: left to run time
    }
  }

  void FoldBinary(Expr& e) {
    if (!IsLiteral(*e.a) || !IsLiteral(*e.b)) return;
    GcString scratch_a{std::string()};
    GcString scratch_b{std::string()};
    const VpValue a = LiteralValue(*e.a, scratch_a);
    const VpValue b = LiteralValue(*e.b, scratch_b);
    FoldBinaryLiterals(e, e.op_code, a, b);
  }

  void FoldLogical(Expr& e) {
    if (!IsLiteral(*e.a)) return;
    const bool truthy = LiteralTruthy(*e.a);
    if (e.op_code == OpCode::kAndAnd) {
      ReplaceWithChild(e, truthy ? std::move(e.b) : std::move(e.a));
    } else if (e.op_code == OpCode::kOrOr) {
      ReplaceWithChild(e, truthy ? std::move(e.a) : std::move(e.b));
    }
  }
};

}  // namespace

void ResolveProgram(Program& program) {
  Resolver().Run(program);
}

}  // namespace vp::script
