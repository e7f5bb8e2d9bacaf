#include "script/resolver.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "script/value.hpp"

namespace vp::script {
namespace {

// ------------------------------------------------------ constant fold

/// Binary operator semantics on boxed literals. Must agree bit for bit
/// with the VM's arithmetic and comparison opcodes (vm.cpp), so a
/// folded `2 * 3 + "x"` displays exactly as the unfolded one would.
/// Errors on OpCode::kNone / non-binary codes.
Result<Value> EvalBinaryOp(OpCode op, const Value& a, const Value& b) {
  switch (op) {
    case OpCode::kAdd:
      if (a.is_string() || b.is_string()) {
        return Value(a.ToDisplayString() + b.ToDisplayString());
      }
      return Value(a.ToNumber() + b.ToNumber());
    case OpCode::kSub: return Value(a.ToNumber() - b.ToNumber());
    case OpCode::kMul: return Value(a.ToNumber() * b.ToNumber());
    case OpCode::kDiv: return Value(a.ToNumber() / b.ToNumber());
    case OpCode::kMod:
      return Value(std::fmod(a.ToNumber(), b.ToNumber()));
    case OpCode::kEq: return Value(a.LooseEquals(b));
    case OpCode::kNe: return Value(!a.LooseEquals(b));
    case OpCode::kStrictEq: return Value(a.StrictEquals(b));
    case OpCode::kStrictNe: return Value(!a.StrictEquals(b));
    case OpCode::kLt:
    case OpCode::kLe:
    case OpCode::kGt:
    case OpCode::kGe: {
      if (a.is_string() && b.is_string()) {
        const int cmp = a.AsString().compare(b.AsString());
        switch (op) {
          case OpCode::kLt: return Value(cmp < 0);
          case OpCode::kLe: return Value(cmp <= 0);
          case OpCode::kGt: return Value(cmp > 0);
          default: return Value(cmp >= 0);
        }
      }
      const double x = a.ToNumber();
      const double y = b.ToNumber();
      switch (op) {
        case OpCode::kLt: return Value(x < y);
        case OpCode::kLe: return Value(x <= y);
        case OpCode::kGt: return Value(x > y);
        default: return Value(x >= y);
      }
    }
    default:
      return ScriptError("unknown binary operator");
  }
}

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

Value LiteralValue(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber: return Value(e.number);
    case ExprKind::kString: return Value(e.string_value);
    case ExprKind::kBool: return Value(e.bool_value);
    case ExprKind::kNull: return Value(nullptr);
    default: return Value::Undefined();
  }
}

void ReplaceWithLiteral(Expr& e, const Value& v) {
  const int line = e.line;
  e = Expr{};
  e.line = line;
  switch (v.type()) {
    case ValueType::kNumber:
      e.kind = ExprKind::kNumber;
      e.number = v.AsNumber();
      break;
    case ValueType::kString:
      e.kind = ExprKind::kString;
      e.string_value = v.AsString();
      break;
    case ValueType::kBool:
      e.kind = ExprKind::kBool;
      e.bool_value = v.AsBool();
      break;
    case ValueType::kNull:
      e.kind = ExprKind::kNull;
      break;
    default:
      e.kind = ExprKind::kUndefined;
      break;
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
          ReplaceWithChild(e, LiteralValue(*e.a).Truthy() ? std::move(e.b)
                                                          : std::move(e.c));
        }
        break;
      default:
        break;
    }
  }

  void FoldUnary(Expr& e) {
    if (!IsLiteral(*e.a)) return;
    const Value v = LiteralValue(*e.a);
    switch (e.op_code) {
      case OpCode::kNeg: ReplaceWithLiteral(e, Value(-v.ToNumber())); break;
      case OpCode::kPos: ReplaceWithLiteral(e, Value(v.ToNumber())); break;
      case OpCode::kNot: ReplaceWithLiteral(e, Value(!v.Truthy())); break;
      default: break;  // typeof et al.: left to run time
    }
  }

  void FoldBinary(Expr& e) {
    if (!IsLiteral(*e.a) || !IsLiteral(*e.b)) return;
    auto r = EvalBinaryOp(e.op_code, LiteralValue(*e.a), LiteralValue(*e.b));
    if (!r.ok()) return;  // unknown op — the compiler reports it
    ReplaceWithLiteral(e, *r);
  }

  void FoldLogical(Expr& e) {
    if (!IsLiteral(*e.a)) return;
    const bool truthy = LiteralValue(*e.a).Truthy();
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
