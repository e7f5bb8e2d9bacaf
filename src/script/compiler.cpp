#include "script/compiler.hpp"

#include <memory>
#include <string>
#include <vector>

#include "script/intern.hpp"
#include "script/vm.hpp"

namespace vp::script {
namespace {

struct LocalVar {
  std::string name;
  int depth;
  bool is_const;
  /// A slot is reserved at block entry but stays invisible to direct
  /// references until its declaration statement compiles: `var`
  /// defines at execution, and earlier reads in the block resolve
  /// outward.
  bool visible;
};

struct UpvalInfo {
  bool from_local;
  uint16_t index;
  bool is_const;
};

struct LoopCtx {
  bool accepts_continue;  // loops yes, switch no (continue passes through)
  int break_depth;        // scope depth `break` unwinds locals to
  int continue_depth;     // scope depth `continue` unwinds locals to
  int handler_depth;      // try-handlers open when the construct began
  bool continue_backward = false;
  size_t continue_target = 0;            // when continue_backward
  std::vector<size_t> break_jumps;
  std::vector<size_t> continue_jumps;    // when !continue_backward
};

/// Abstract interpretation of a proto's bytecode computing the maximum
/// value-stack depth (relative to the frame base) any execution of the
/// body can reach. Stack discipline is static — the depth at every
/// code offset is a pure function of the instruction stream — so a
/// worklist walk over the control-flow graph gives an exact bound.
/// PushFrame checks base + max_stack once per call, which is what
/// makes every unchecked Push() inside the dispatch loop safe
/// (including array/object literals of up to 0xffff elements, which
/// can exceed any fixed per-call headroom).
uint32_t ComputeMaxStack(const FunctionProto& proto) {
  const std::vector<uint8_t>& code = proto.code;
  // Largest depth seen reaching each offset; -1 = not yet visited.
  // A merge point is re-propagated only when a larger depth arrives,
  // so the walk terminates with per-point maxima.
  std::vector<int32_t> depth_at(code.size(), -1);
  std::vector<size_t> worklist;
  int32_t max_depth = 1 + proto.arity;  // entry: callee slot + parameters
  auto schedule = [&](size_t off, int32_t depth) {
    if (off >= code.size()) return;
    if (depth_at[off] >= depth) return;
    depth_at[off] = depth;
    if (depth > max_depth) max_depth = depth;
    worklist.push_back(off);
  };
  schedule(0, 1 + proto.arity);
  while (!worklist.empty()) {
    const size_t off = worklist.back();
    worklist.pop_back();
    const int32_t depth = depth_at[off];
    const Op op = static_cast<Op>(code[off]);
    auto u16 = [&code](size_t at) {
      return static_cast<uint16_t>(
          code[at] | (static_cast<uint16_t>(code[at + 1]) << 8));
    };
    size_t next = off + 1;
    int32_t delta = 0;
    switch (op) {
      case Op::kUndefined:
      case Op::kNull:
      case Op::kTrue:
      case Op::kFalse:
      case Op::kDup:
      case Op::kForInInit:  // pops the subject, pushes keys + index
        delta = 1;
        break;
      case Op::kConst:
      case Op::kGetLocal:
      case Op::kGetUpvalue:
      case Op::kGetGlobal:
      case Op::kClosure:
        delta = 1;
        next += 2;
        break;
      case Op::kUndefN:
        delta = static_cast<int32_t>(u16(next));
        next += 2;
        break;
      case Op::kPop:
      case Op::kGetIndex:
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kEq:
      case Op::kNe:
      case Op::kStrictEq:
      case Op::kStrictNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
        delta = -1;
        break;
      case Op::kPopN:
      case Op::kCloseScope:
        delta = -static_cast<int32_t>(u16(next));
        next += 2;
        break;
      case Op::kSwap:
      case Op::kRot3:
      case Op::kNegate:
      case Op::kToNumber:
      case Op::kNot:
      case Op::kTypeof:
      case Op::kInc:
      case Op::kDec:
      case Op::kPopHandler:
        break;
      case Op::kSetLocal:
      case Op::kSetUpvalue:
      case Op::kSetGlobal:
      case Op::kGetProp:
        next += 2;
        break;
      case Op::kSetIndex:
        delta = -2;
        break;
      case Op::kDefineGlobal:
      case Op::kDefineGlobalConst:
      case Op::kSetProp:
        delta = -1;
        next += 2;
        break;
      case Op::kArray:
        delta = 1 - static_cast<int32_t>(u16(next));
        next += 2;
        break;
      case Op::kObject:
        delta = 1 - 2 * static_cast<int32_t>(u16(next));
        next += 2;
        break;
      case Op::kCall:  // pops callee + argc, pushes the result
        delta = -static_cast<int32_t>(code[next]);
        next += 1;
        break;
      case Op::kInvoke:  // pops receiver + argc, pushes the result
        delta = -static_cast<int32_t>(code[next + 2]);
        next += 3;
        break;
      case Op::kJump: {
        const uint16_t jump = u16(next);
        next += 2;
        schedule(next + jump, depth);
        continue;  // no fallthrough
      }
      case Op::kLoop: {
        const uint16_t jump = u16(next);
        next += 2;
        schedule(next - jump, depth);
        continue;
      }
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue: {
        const uint16_t jump = u16(next);
        next += 2;
        schedule(next + jump, depth - 1);
        schedule(next, depth - 1);
        continue;
      }
      case Op::kJumpIfFalsePeek:
      case Op::kJumpIfTruePeek: {
        const uint16_t jump = u16(next);
        next += 2;
        schedule(next + jump, depth);
        schedule(next, depth);
        continue;
      }
      case Op::kPushHandler: {
        // The unwinder restores sp to the handler's recorded depth and
        // pushes the error object before entering the catch target.
        const uint16_t jump = u16(next);
        next += 2;
        schedule(next + jump, depth + 1);
        schedule(next, depth);
        continue;
      }
      case Op::kForInNext: {
        const uint16_t exit = u16(next + 2);
        next += 4;
        schedule(next + exit, depth);  // exhausted: nothing pushed
        schedule(next, depth + 1);     // next key pushed
        continue;
      }
      case Op::kReturn:
      case Op::kReturnUndef:
      case Op::kThrow:
      case Op::kRuntimeError:
        continue;  // terminal
    }
    schedule(next, depth + delta);
  }
  return static_cast<uint32_t>(max_depth);
}

OpCode BinaryFromSpelling(const std::string& op) {
  if (op == "+") return OpCode::kAdd;
  if (op == "-") return OpCode::kSub;
  if (op == "*") return OpCode::kMul;
  if (op == "/") return OpCode::kDiv;
  if (op == "%") return OpCode::kMod;
  if (op == "==") return OpCode::kEq;
  if (op == "!=") return OpCode::kNe;
  if (op == "===") return OpCode::kStrictEq;
  if (op == "!==") return OpCode::kStrictNe;
  if (op == "<") return OpCode::kLt;
  if (op == "<=") return OpCode::kLe;
  if (op == ">") return OpCode::kGt;
  if (op == ">=") return OpCode::kGe;
  return OpCode::kNone;
}

class FnCompiler {
 public:
  FnCompiler(Vm& vm, FnCompiler* enclosing, bool is_script, std::string name,
             int arity, Status* error)
      : vm_(vm), enclosing_(enclosing), is_script_(is_script), error_(error) {
    proto_ = std::make_unique<FunctionProto>();
    proto_->name = std::move(name);
    proto_->arity = arity;
  }

  // ---------------------------------------------------------- top level

  void CompileTopLevel(const std::vector<StmtPtr>& stmts) {
    AddLocal("(script)", false, false);  // slot 0: the script closure
    // Function declarations hoist to globals before any statement runs.
    for (const StmtPtr& stmt : stmts) {
      if (stmt->kind == StmtKind::kFunction) {
        CompileFunctionBody(stmt->name, stmt->params, stmt->body, stmt->line,
                            /*bind_self=*/false);
        EmitOp(Op::kDefineGlobal, stmt->line);
        EmitU16(vm_.GlobalSlot(stmt->name));
      }
    }
    for (const StmtPtr& stmt : stmts) {
      if (stmt->kind == StmtKind::kFunction) continue;
      CompileStmt(*stmt);
    }
    EmitOp(Op::kReturnUndef, 0);
  }

  std::unique_ptr<FunctionProto> TakeProto() {
    proto_->upvalues.reserve(upvals_.size());
    for (const UpvalInfo& u : upvals_) {
      proto_->upvalues.push_back(UpvalDesc{u.from_local, u.index});
    }
    proto_->max_stack = ComputeMaxStack(*proto_);
    return std::move(proto_);
  }

 private:
  // --------------------------------------------------------- emit layer

  size_t Here() const { return proto_->code.size(); }

  void EmitByte(uint8_t b, int line) {
    proto_->code.push_back(b);
    proto_->lines.push_back(line);
  }
  void EmitOp(Op op, int line) { EmitByte(static_cast<uint8_t>(op), line); }
  void EmitU16(uint16_t v) {
    const int line = proto_->lines.empty() ? 0 : proto_->lines.back();
    EmitByte(static_cast<uint8_t>(v & 0xff), line);
    EmitByte(static_cast<uint8_t>(v >> 8), line);
  }

  /// Emit a forward jump with a placeholder offset; returns the operand
  /// position for PatchJump.
  size_t EmitJump(Op op, int line) {
    EmitOp(op, line);
    EmitU16(0xffff);
    return Here() - 2;
  }

  void PatchJump(size_t operand_pos) {
    const size_t offset = Here() - (operand_pos + 2);
    if (offset > 0xffff) {
      Fail("jump too long (max 65535 bytes)");
      return;
    }
    proto_->code[operand_pos] = static_cast<uint8_t>(offset & 0xff);
    proto_->code[operand_pos + 1] = static_cast<uint8_t>(offset >> 8);
  }

  void PatchJumpTo(size_t operand_pos, size_t target) {
    const size_t offset = target - (operand_pos + 2);
    if (offset > 0xffff) {
      Fail("jump too long (max 65535 bytes)");
      return;
    }
    proto_->code[operand_pos] = static_cast<uint8_t>(offset & 0xff);
    proto_->code[operand_pos + 1] = static_cast<uint8_t>(offset >> 8);
  }

  void EmitLoop(size_t target, int line) {
    EmitOp(Op::kLoop, line);
    const size_t offset = Here() + 2 - target;
    if (offset > 0xffff) {
      Fail("loop body too long (max 65535 bytes)");
      EmitU16(0);
      return;
    }
    EmitU16(static_cast<uint16_t>(offset));
  }

  uint16_t AddConstant(VpValue v) {
    if (proto_->constants.size() >= 0xffff) {
      Fail("too many constants (max 65535)");
    }
    proto_->constants.push_back(v);
    return static_cast<uint16_t>(proto_->constants.size() - 1);
  }

  uint16_t NumberConst(double d) {
    const VpValue v = VpValue::Number(d);
    for (size_t i = 0; i < proto_->constants.size(); ++i) {
      if (proto_->constants[i].bits == v.bits) return static_cast<uint16_t>(i);
    }
    return AddConstant(v);
  }

  uint16_t StringConst(const std::string& s, uint32_t name_id = kNoNameId) {
    for (size_t i = 0; i < proto_->constants.size(); ++i) {
      const VpValue& c = proto_->constants[i];
      if (!c.IsHeapType(GcType::kString)) continue;
      auto* gs = static_cast<GcString*>(c.AsHeap());
      if (gs->text == s && gs->name_id == name_id) {
        return static_cast<uint16_t>(i);
      }
    }
    GcString* gs = vm_.NewString(s);
    gs->name_id = name_id;
    return AddConstant(VpValue::Heap(gs));
  }

  /// Name constant for property access: interned so the VM dispatches
  /// array methods and object lookups on integer ids.
  uint16_t NameConst(const std::string& name, uint32_t name_id) {
    if (name_id == kNoNameId) name_id = Interner::Global().Intern(name);
    return StringConst(name, name_id);
  }

  void EmitRuntimeError(const std::string& message, int line) {
    EmitOp(Op::kRuntimeError, line);
    EmitU16(StringConst(message));
  }

  void Fail(const std::string& what) {
    if (error_->ok()) {
      *error_ = Status(StatusCode::kScriptError, "script compile: " + what);
    }
  }

  // ------------------------------------------------------------- scopes

  void BeginScope() { ++scope_depth_; }

  void EndScope(int line) {
    int n = 0;
    while (!locals_.empty() && locals_.back().depth == scope_depth_) {
      locals_.pop_back();
      ++n;
    }
    --scope_depth_;
    EmitScopeExit(n, line);
  }

  /// kCloseScope unconditionally: whether any of the slots is captured
  /// can depend on code that has not compiled yet (a later closure in
  /// the same block observed by an earlier `break`), so the runtime
  /// check — one pointer compare when no upvalue is open — stays.
  void EmitScopeExit(int n, int line) {
    if (n == 0) return;
    EmitOp(Op::kCloseScope, line);
    EmitU16(static_cast<uint16_t>(n));
  }

  /// break/continue: pop the locals of every scope deeper than `depth`
  /// without touching compile-time bookkeeping (the block continues).
  void DiscardLocalsDownTo(int depth, int line) {
    int n = 0;
    for (int i = static_cast<int>(locals_.size()) - 1;
         i >= 0 && locals_[i].depth > depth; --i) {
      ++n;
    }
    EmitScopeExit(n, line);
  }

  uint16_t AddLocal(std::string name, bool is_const, bool visible) {
    if (locals_.size() >= 0xffff) Fail("too many locals (max 65535)");
    locals_.push_back(LocalVar{std::move(name), scope_depth_, is_const,
                               visible});
    return static_cast<uint16_t>(locals_.size() - 1);
  }

  int ResolveLocal(const std::string& name) const {
    for (int i = static_cast<int>(locals_.size()) - 1; i >= 0; --i) {
      if (locals_[i].visible && locals_[i].name == name) return i;
    }
    return -1;
  }

  /// Capture resolution ignores visibility: a hoisted function may
  /// close over a `var` declared later in the same block (the cell is
  /// the block's slot either way).
  int ResolveLocalForCapture(const std::string& name) const {
    for (int i = static_cast<int>(locals_.size()) - 1; i >= 0; --i) {
      if (locals_[i].name == name) return i;
    }
    return -1;
  }

  int FindLocalAtCurrentDepth(const std::string& name) const {
    for (int i = static_cast<int>(locals_.size()) - 1; i >= 0; --i) {
      if (locals_[i].depth < scope_depth_) break;
      if (locals_[i].name == name) return i;
    }
    return -1;
  }

  int AddUpvalue(bool from_local, uint16_t index, bool is_const) {
    for (size_t i = 0; i < upvals_.size(); ++i) {
      if (upvals_[i].from_local == from_local && upvals_[i].index == index) {
        return static_cast<int>(i);
      }
    }
    if (upvals_.size() >= 0xffff) Fail("too many upvalues (max 65535)");
    upvals_.push_back(UpvalInfo{from_local, index, is_const});
    return static_cast<int>(upvals_.size() - 1);
  }

  int ResolveUpvalue(const std::string& name) {
    if (enclosing_ == nullptr) return -1;
    const int local = enclosing_->ResolveLocalForCapture(name);
    if (local != -1) {
      return AddUpvalue(true, static_cast<uint16_t>(local),
                        enclosing_->locals_[local].is_const);
    }
    const int up = enclosing_->ResolveUpvalue(name);
    if (up != -1) {
      return AddUpvalue(false, static_cast<uint16_t>(up),
                        enclosing_->upvals_[up].is_const);
    }
    return -1;
  }

  void EmitLoad(const std::string& name, int line) {
    const int slot = ResolveLocal(name);
    if (slot != -1) {
      EmitOp(Op::kGetLocal, line);
      EmitU16(static_cast<uint16_t>(slot));
      return;
    }
    const int up = ResolveUpvalue(name);
    if (up != -1) {
      EmitOp(Op::kGetUpvalue, line);
      EmitU16(static_cast<uint16_t>(up));
      return;
    }
    EmitOp(Op::kGetGlobal, line);
    EmitU16(vm_.GlobalSlot(name));
  }

  /// Store-with-peek: value stays on the stack (assignment result).
  void EmitStore(const std::string& name, int line) {
    const int slot = ResolveLocal(name);
    if (slot != -1) {
      if (locals_[slot].is_const) {
        EmitRuntimeError("assignment to const '" + name + "'", line);
        return;
      }
      EmitOp(Op::kSetLocal, line);
      EmitU16(static_cast<uint16_t>(slot));
      return;
    }
    const int up = ResolveUpvalue(name);
    if (up != -1) {
      if (upvals_[up].is_const) {
        EmitRuntimeError("assignment to const '" + name + "'", line);
        return;
      }
      EmitOp(Op::kSetUpvalue, line);
      EmitU16(static_cast<uint16_t>(up));
      return;
    }
    // Globals carry const/undeclared state only at runtime.
    EmitOp(Op::kSetGlobal, line);
    EmitU16(vm_.GlobalSlot(name));
  }

  // ------------------------------------------------------------- blocks

  bool AtGlobalScope() const { return is_script_ && scope_depth_ == 0; }

  /// Reserve one slot per var/function declared directly in `stmts`
  /// (deduplicated: a redeclaration reuses the slot, overwriting the
  /// binding in place).
  void DeclareBlockLocals(const std::vector<StmtPtr>& stmts) {
    int fresh = 0;
    for (const StmtPtr& stmt : stmts) {
      if (stmt->kind != StmtKind::kVarDecl &&
          stmt->kind != StmtKind::kFunction) {
        continue;
      }
      if (FindLocalAtCurrentDepth(stmt->name) != -1) continue;
      AddLocal(stmt->name, stmt->is_const, false);
      ++fresh;
    }
    if (fresh > 0) {
      const int line = stmts.empty() ? 0 : stmts.front()->line;
      EmitOp(Op::kUndefN, line);
      EmitU16(static_cast<uint16_t>(fresh));
    }
  }

  void HoistFunctions(const std::vector<StmtPtr>& stmts) {
    for (const StmtPtr& stmt : stmts) {
      if (stmt->kind != StmtKind::kFunction) continue;
      CompileFunctionBody(stmt->name, stmt->params, stmt->body, stmt->line,
                          /*bind_self=*/false);
      const int slot = FindLocalAtCurrentDepth(stmt->name);
      EmitOp(Op::kSetLocal, stmt->line);
      EmitU16(static_cast<uint16_t>(slot));
      EmitOp(Op::kPop, stmt->line);
      locals_[slot].visible = true;
    }
  }

  void CompileBlockInCurrentScope(const std::vector<StmtPtr>& stmts) {
    DeclareBlockLocals(stmts);
    HoistFunctions(stmts);
    for (const StmtPtr& stmt : stmts) {
      if (stmt->kind == StmtKind::kFunction) continue;
      CompileStmt(*stmt);
    }
  }

  void CompileScopedBlock(const std::vector<StmtPtr>& stmts, int line) {
    BeginScope();
    CompileBlockInCurrentScope(stmts);
    EndScope(line);
  }

  // --------------------------------------------------------- statements

  void CompileStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kExpr:
        CompileExpr(*stmt.expr);
        EmitOp(Op::kPop, stmt.line);
        return;
      case StmtKind::kVarDecl:
        CompileVarDecl(stmt);
        return;
      case StmtKind::kFunction:
        // Hoisted by the enclosing block; nothing executes here.
        return;
      case StmtKind::kReturn:
        if (stmt.expr) {
          CompileExpr(*stmt.expr);
          EmitOp(Op::kReturn, stmt.line);
        } else {
          EmitOp(Op::kReturnUndef, stmt.line);
        }
        return;
      case StmtKind::kIf: {
        CompileExpr(*stmt.expr);
        const size_t jf = EmitJump(Op::kJumpIfFalse, stmt.line);
        CompileScopedBlock(stmt.then_branch, stmt.line);
        if (!stmt.else_branch.empty()) {
          const size_t jend = EmitJump(Op::kJump, stmt.line);
          PatchJump(jf);
          CompileScopedBlock(stmt.else_branch, stmt.line);
          PatchJump(jend);
        } else {
          PatchJump(jf);
        }
        return;
      }
      case StmtKind::kWhile: {
        const size_t loop_start = Here();
        CompileExpr(*stmt.expr);
        const size_t exit = EmitJump(Op::kJumpIfFalse, stmt.line);
        loops_.push_back(LoopCtx{true, scope_depth_, scope_depth_,
                                 handler_depth_, true, loop_start, {}, {}});
        CompileScopedBlock(stmt.body, stmt.line);
        EmitLoop(loop_start, stmt.line);
        PatchJump(exit);
        FinishLoop(stmt.line);
        return;
      }
      case StmtKind::kDoWhile: {
        const size_t loop_start = Here();
        loops_.push_back(LoopCtx{true, scope_depth_, scope_depth_,
                                 handler_depth_, false, 0, {}, {}});
        CompileScopedBlock(stmt.body, stmt.line);
        // continue lands on the condition (evaluated in the outer
        // scope).
        const size_t cond_pos = Here();
        for (const size_t j : loops_.back().continue_jumps) {
          PatchJumpTo(j, cond_pos);
        }
        loops_.back().continue_jumps.clear();
        CompileExpr(*stmt.expr);
        const size_t exit = EmitJump(Op::kJumpIfFalse, stmt.line);
        EmitLoop(loop_start, stmt.line);
        PatchJump(exit);
        FinishLoop(stmt.line);
        return;
      }
      case StmtKind::kFor:
        CompileFor(stmt);
        return;
      case StmtKind::kForIn:
        CompileForIn(stmt);
        return;
      case StmtKind::kBlock:
        CompileScopedBlock(stmt.body, stmt.line);
        return;
      case StmtKind::kBreak: {
        LoopCtx* ctx = loops_.empty() ? nullptr : &loops_.back();
        if (ctx == nullptr) {
          EmitRuntimeError("break/continue outside a loop", stmt.line);
          return;
        }
        EmitHandlerPops(ctx->handler_depth, stmt.line);
        DiscardLocalsDownTo(ctx->break_depth, stmt.line);
        loops_.back().break_jumps.push_back(EmitJump(Op::kJump, stmt.line));
        return;
      }
      case StmtKind::kContinue: {
        LoopCtx* ctx = nullptr;
        for (int i = static_cast<int>(loops_.size()) - 1; i >= 0; --i) {
          if (loops_[i].accepts_continue) {
            ctx = &loops_[i];
            break;
          }
        }
        if (ctx == nullptr) {
          EmitRuntimeError("break/continue outside a loop", stmt.line);
          return;
        }
        EmitHandlerPops(ctx->handler_depth, stmt.line);
        DiscardLocalsDownTo(ctx->continue_depth, stmt.line);
        if (ctx->continue_backward) {
          EmitLoop(ctx->continue_target, stmt.line);
        } else {
          ctx->continue_jumps.push_back(EmitJump(Op::kJump, stmt.line));
        }
        return;
      }
      case StmtKind::kTry:
        CompileTry(stmt);
        return;
      case StmtKind::kThrow:
        CompileExpr(*stmt.expr);
        EmitOp(Op::kThrow, stmt.line);
        return;
      case StmtKind::kSwitch:
        CompileSwitch(stmt);
        return;
    }
    Fail("unhandled statement");
  }

  void CompileVarDecl(const Stmt& stmt) {
    if (stmt.expr) {
      CompileExpr(*stmt.expr);
    } else {
      EmitOp(Op::kUndefined, stmt.line);
    }
    if (AtGlobalScope()) {
      EmitOp(stmt.is_const ? Op::kDefineGlobalConst : Op::kDefineGlobal,
             stmt.line);
      EmitU16(vm_.GlobalSlot(stmt.name));
      return;
    }
    const int slot = FindLocalAtCurrentDepth(stmt.name);
    if (slot == -1) {
      Fail("declaration without a reserved slot");
      return;
    }
    EmitOp(Op::kSetLocal, stmt.line);
    EmitU16(static_cast<uint16_t>(slot));
    EmitOp(Op::kPop, stmt.line);
    locals_[slot].visible = true;
    locals_[slot].is_const = stmt.is_const;
  }

  void CompileFor(const Stmt& stmt) {
    const int outer_depth = scope_depth_;
    BeginScope();  // loop scope: the induction variable, shared across
                   // iterations (closures over it see one cell)
    if (stmt.init) {
      if (stmt.init->kind == StmtKind::kVarDecl) {
        if (stmt.init->expr) {
          CompileExpr(*stmt.init->expr);
        } else {
          EmitOp(Op::kUndefined, stmt.init->line);
        }
        AddLocal(stmt.init->name, stmt.init->is_const, true);
      } else {
        CompileStmt(*stmt.init);
      }
    }
    const size_t loop_start = Here();
    size_t exit = 0;
    if (stmt.condition) {
      CompileExpr(*stmt.condition);
      exit = EmitJump(Op::kJumpIfFalse, stmt.line);
    }
    loops_.push_back(LoopCtx{true, outer_depth, scope_depth_, handler_depth_,
                             false, 0, {}, {}});
    // Per-iteration body scope: body-declared locals close every
    // iteration, so closures capture per-iteration cells.
    CompileScopedBlock(stmt.body, stmt.line);
    const size_t step_pos = Here();
    for (const size_t j : loops_.back().continue_jumps) {
      PatchJumpTo(j, step_pos);
    }
    loops_.back().continue_jumps.clear();
    if (stmt.step) {
      CompileExpr(*stmt.step);
      EmitOp(Op::kPop, stmt.line);
    }
    EmitLoop(loop_start, stmt.line);
    if (stmt.condition) PatchJump(exit);
    EndScope(stmt.line);
    FinishLoop(stmt.line);
  }

  void CompileForIn(const Stmt& stmt) {
    const int outer_depth = scope_depth_;
    CompileExpr(*stmt.expr);
    BeginScope();  // hidden key-iteration state
    EmitOp(Op::kForInInit, stmt.line);
    const uint16_t keys_slot = AddLocal("(forin keys)", false, false);
    AddLocal("(forin idx)", false, false);
    const size_t next_pos = Here();
    EmitOp(Op::kForInNext, stmt.line);
    EmitU16(keys_slot);
    EmitU16(0xffff);
    const size_t exit_operand = Here() - 2;
    loops_.push_back(LoopCtx{true, outer_depth, scope_depth_, handler_depth_,
                             true, next_pos, {}, {}});
    BeginScope();  // per-iteration: loop variable + body locals
    AddLocal(stmt.name, false, true);
    CompileBlockInCurrentScope(stmt.body);
    EndScope(stmt.line);
    EmitLoop(next_pos, stmt.line);
    PatchJump(exit_operand);
    EndScope(stmt.line);  // pops keys + idx
    FinishLoop(stmt.line);
  }

  void CompileTry(const Stmt& stmt) {
    EmitOp(Op::kPushHandler, stmt.line);
    EmitU16(0xffff);
    const size_t handler_operand = Here() - 2;
    ++handler_depth_;
    CompileScopedBlock(stmt.body, stmt.line);
    --handler_depth_;
    EmitOp(Op::kPopHandler, stmt.line);
    const size_t jend = EmitJump(Op::kJump, stmt.line);
    PatchJump(handler_operand);  // catch target: unwinder pushed the
                                 // error object, which becomes the
                                 // catch binding's slot
    BeginScope();
    AddLocal(stmt.name.empty() ? "(catch)" : stmt.name, false, true);
    CompileBlockInCurrentScope(stmt.else_branch);
    EndScope(stmt.line);
    PatchJump(jend);
  }

  void CompileSwitch(const Stmt& stmt) {
    const int outer_depth = scope_depth_;
    CompileExpr(*stmt.expr);  // discriminant, evaluated in outer scope
    BeginScope();
    const uint16_t disc_slot = AddLocal("(switch)", false, false);
    // One shared scope across all cases: every case-declared var gets
    // a slot, reset to undefined on switch entry.
    for (const SwitchCase& c : stmt.cases) DeclareBlockLocals(c.body);
    loops_.push_back(LoopCtx{false, outer_depth, outer_depth, handler_depth_,
                             false, 0, {}, {}});
    // Dispatch: strict-equality tests in case order, default last.
    std::vector<size_t> case_jumps(stmt.cases.size(), 0);
    int default_index = -1;
    for (size_t i = 0; i < stmt.cases.size(); ++i) {
      if (!stmt.cases[i].test) {
        default_index = static_cast<int>(i);
        continue;
      }
      CompileExpr(*stmt.cases[i].test);
      EmitOp(Op::kGetLocal, stmt.line);
      EmitU16(disc_slot);
      EmitOp(Op::kStrictEq, stmt.line);
      case_jumps[i] = EmitJump(Op::kJumpIfTrue, stmt.line);
    }
    const size_t no_match = EmitJump(Op::kJump, stmt.line);
    // Bodies, contiguous in source order: fall-through is just falling
    // off the end of one body into the next.
    std::vector<size_t> body_pos(stmt.cases.size(), 0);
    for (size_t i = 0; i < stmt.cases.size(); ++i) {
      body_pos[i] = Here();
      HoistFunctions(stmt.cases[i].body);
      for (const StmtPtr& s : stmt.cases[i].body) {
        if (s->kind == StmtKind::kFunction) continue;
        CompileStmt(*s);
      }
    }
    const size_t end_label = Here();
    for (size_t i = 0; i < stmt.cases.size(); ++i) {
      if (stmt.cases[i].test) PatchJumpTo(case_jumps[i], body_pos[i]);
    }
    PatchJumpTo(no_match, default_index >= 0
                              ? body_pos[static_cast<size_t>(default_index)]
                              : end_label);
    EndScope(stmt.line);
    FinishLoop(stmt.line);  // break targets land after the scope exit
  }

  void EmitHandlerPops(int down_to, int line) {
    for (int i = handler_depth_; i > down_to; --i) {
      EmitOp(Op::kPopHandler, line);
    }
  }

  /// Patch pending break jumps to Here() and pop the loop context.
  void FinishLoop(int line) {
    (void)line;
    for (const size_t j : loops_.back().break_jumps) PatchJump(j);
    loops_.pop_back();
  }

  // -------------------------------------------------------- expressions

  void CompileExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        EmitOp(Op::kConst, e.line);
        EmitU16(NumberConst(e.number));
        return;
      case ExprKind::kString:
        EmitOp(Op::kConst, e.line);
        EmitU16(StringConst(e.string_value));
        return;
      case ExprKind::kBool:
        EmitOp(e.bool_value ? Op::kTrue : Op::kFalse, e.line);
        return;
      case ExprKind::kNull:
        EmitOp(Op::kNull, e.line);
        return;
      case ExprKind::kUndefined:
        EmitOp(Op::kUndefined, e.line);
        return;
      case ExprKind::kIdentifier:
        EmitLoad(e.string_value, e.line);
        return;
      case ExprKind::kArrayLiteral: {
        if (e.elements.size() > 0xffff) {
          Fail("array literal too large (max 65535 elements)");
          return;
        }
        for (const ExprPtr& el : e.elements) CompileExpr(*el);
        EmitOp(Op::kArray, e.line);
        EmitU16(static_cast<uint16_t>(e.elements.size()));
        return;
      }
      case ExprKind::kObjectLiteral: {
        if (e.properties.size() > 0xffff) {
          Fail("object literal too large (max 65535 properties)");
          return;
        }
        for (const ObjectProperty& p : e.properties) {
          EmitOp(Op::kConst, e.line);
          EmitU16(NameConst(p.key, p.key_id));
          CompileExpr(*p.value);
        }
        EmitOp(Op::kObject, e.line);
        EmitU16(static_cast<uint16_t>(e.properties.size()));
        return;
      }
      case ExprKind::kUnary: {
        CompileExpr(*e.a);
        OpCode code = e.op_code;
        if (code == OpCode::kNone) {
          if (e.op == "-") code = OpCode::kNeg;
          else if (e.op == "+") code = OpCode::kPos;
          else if (e.op == "!") code = OpCode::kNot;
          else if (e.op == "typeof") code = OpCode::kTypeof;
        }
        switch (code) {
          case OpCode::kNeg: EmitOp(Op::kNegate, e.line); return;
          case OpCode::kPos: EmitOp(Op::kToNumber, e.line); return;
          case OpCode::kNot: EmitOp(Op::kNot, e.line); return;
          case OpCode::kTypeof: EmitOp(Op::kTypeof, e.line); return;
          default: Fail("unknown unary operator"); return;
        }
      }
      case ExprKind::kUpdate:
        CompileUpdate(e);
        return;
      case ExprKind::kBinary: {
        CompileExpr(*e.a);
        CompileExpr(*e.b);
        const OpCode code = e.op_code != OpCode::kNone
                                ? e.op_code
                                : BinaryFromSpelling(e.op);
        EmitBinary(code, e.line);
        return;
      }
      case ExprKind::kLogical: {
        CompileExpr(*e.a);
        const bool is_and = e.op_code == OpCode::kAndAnd ||
                            (e.op_code == OpCode::kNone && e.op == "&&");
        const size_t j = EmitJump(
            is_and ? Op::kJumpIfFalsePeek : Op::kJumpIfTruePeek, e.line);
        EmitOp(Op::kPop, e.line);
        CompileExpr(*e.b);
        PatchJump(j);
        return;
      }
      case ExprKind::kConditional: {
        CompileExpr(*e.a);
        const size_t jf = EmitJump(Op::kJumpIfFalse, e.line);
        CompileExpr(*e.b);
        const size_t jend = EmitJump(Op::kJump, e.line);
        PatchJump(jf);
        CompileExpr(*e.c);
        PatchJump(jend);
        return;
      }
      case ExprKind::kAssign:
        CompileAssign(e);
        return;
      case ExprKind::kCall:
        CompileCall(e);
        return;
      case ExprKind::kMember:
        CompileExpr(*e.a);
        EmitOp(Op::kGetProp, e.line);
        EmitU16(NameConst(e.string_value, e.name_id));
        return;
      case ExprKind::kIndex:
        CompileExpr(*e.a);
        CompileExpr(*e.b);
        EmitOp(Op::kGetIndex, e.line);
        return;
      case ExprKind::kFunction:
        CompileFunctionBody(e.function_name, e.params, e.body, e.line,
                            /*bind_self=*/true);
        return;
    }
    Fail("unhandled expression");
  }

  void EmitBinary(OpCode code, int line) {
    switch (code) {
      case OpCode::kAdd: EmitOp(Op::kAdd, line); return;
      case OpCode::kSub: EmitOp(Op::kSub, line); return;
      case OpCode::kMul: EmitOp(Op::kMul, line); return;
      case OpCode::kDiv: EmitOp(Op::kDiv, line); return;
      case OpCode::kMod: EmitOp(Op::kMod, line); return;
      case OpCode::kEq: EmitOp(Op::kEq, line); return;
      case OpCode::kNe: EmitOp(Op::kNe, line); return;
      case OpCode::kStrictEq: EmitOp(Op::kStrictEq, line); return;
      case OpCode::kStrictNe: EmitOp(Op::kStrictNe, line); return;
      case OpCode::kLt: EmitOp(Op::kLt, line); return;
      case OpCode::kLe: EmitOp(Op::kLe, line); return;
      case OpCode::kGt: EmitOp(Op::kGt, line); return;
      case OpCode::kGe: EmitOp(Op::kGe, line); return;
      default: Fail("unknown binary operator"); return;
    }
  }

  /// Compound assignment and ++/-- evaluate the target twice: read
  /// via the full expression, then write via the assignment path
  /// (which re-evaluates the base).
  void CompileAssign(const Expr& e) {
    const Expr& target = *e.a;
    CompileExpr(*e.b);  // rhs first — its side effects predate the read
    OpCode compound = e.op_code;
    if (compound == OpCode::kNone && e.op.size() > 1 && e.op != "=" &&
        e.op.back() == '=') {
      compound = BinaryFromSpelling(e.op.substr(0, e.op.size() - 1));
    }
    if (compound != OpCode::kNone) {
      CompileExpr(target);          // old value
      EmitOp(Op::kSwap, e.line);    // [old, rhs]
      EmitBinary(compound, e.line);
    }
    EmitStoreTarget(target, e.line);
  }

  /// Store the value on top of the stack into `target`, leaving the
  /// value on the stack.
  void EmitStoreTarget(const Expr& target, int line) {
    switch (target.kind) {
      case ExprKind::kIdentifier:
        EmitStore(target.string_value, line);
        return;
      case ExprKind::kMember:
        CompileExpr(*target.a);
        EmitOp(Op::kSwap, line);  // [obj, value]
        EmitOp(Op::kSetProp, line);
        EmitU16(NameConst(target.string_value, target.name_id));
        return;
      case ExprKind::kIndex:
        CompileExpr(*target.a);
        CompileExpr(*target.b);
        EmitOp(Op::kRot3, line);  // [obj, index, value]
        EmitOp(Op::kSetIndex, line);
        return;
      default:
        EmitRuntimeError("invalid assignment target", line);
        return;
    }
  }

  void CompileUpdate(const Expr& e) {
    const Expr& target = *e.a;
    CompileExpr(target);
    EmitOp(Op::kToNumber, e.line);
    const bool inc = e.op_code == OpCode::kInc ||
                     (e.op_code == OpCode::kNone && e.op == "++");
    if (e.prefix) {
      EmitOp(inc ? Op::kInc : Op::kDec, e.line);
      EmitStoreTarget(target, e.line);  // result: the new value
    } else {
      EmitOp(Op::kDup, e.line);  // [old, old]
      EmitOp(inc ? Op::kInc : Op::kDec, e.line);
      EmitStoreTarget(target, e.line);  // [old, new]
      EmitOp(Op::kPop, e.line);         // result: the old value
    }
  }

  void CompileCall(const Expr& e) {
    if (e.elements.size() > 255) {
      Fail("too many call arguments (max 255)");
      return;
    }
    const Expr& callee = *e.a;
    if (callee.kind == ExprKind::kMember) {
      // Fused receiver.method(args): array builtins dispatch natively,
      // everything else falls back to the property path.
      CompileExpr(*callee.a);
      for (const ExprPtr& arg : e.elements) CompileExpr(*arg);
      EmitOp(Op::kInvoke, e.line);
      EmitU16(NameConst(callee.string_value, callee.name_id));
      EmitByte(static_cast<uint8_t>(e.elements.size()), e.line);
      return;
    }
    CompileExpr(callee);
    for (const ExprPtr& arg : e.elements) CompileExpr(*arg);
    EmitOp(Op::kCall, e.line);
    EmitByte(static_cast<uint8_t>(e.elements.size()), e.line);
  }

  void CompileFunctionBody(const std::string& name,
                           const std::vector<std::string>& params,
                           const std::vector<StmtPtr>& body, int line,
                           bool bind_self) {
    FnCompiler child(vm_, this, false, name,
                     static_cast<int>(params.size()), error_);
    child.scope_depth_ = 1;
    // Slot 0 holds the callee. Named function expressions bind it so
    // the function can recurse by name; declarations resolve their own
    // name through the enclosing scope instead (a reassigned binding
    // must be observed).
    child.AddLocal(bind_self && !name.empty() ? name : "(fn)", false, true);
    for (const std::string& p : params) child.AddLocal(p, false, true);
    // The body shares the parameter scope: `var a` with a parameter
    // named `a` overwrites the parameter slot.
    child.DeclareBlockLocals(body);
    child.HoistFunctions(body);
    for (const StmtPtr& stmt : body) {
      if (stmt->kind == StmtKind::kFunction) continue;
      child.CompileStmt(*stmt);
    }
    child.EmitOp(Op::kReturnUndef, line);
    const uint16_t index = vm_.AdoptProto(child.TakeProto());
    EmitOp(Op::kClosure, line);
    EmitU16(index);
  }

  Vm& vm_;
  FnCompiler* enclosing_;
  bool is_script_;
  Status* error_;
  std::unique_ptr<FunctionProto> proto_;
  std::vector<LocalVar> locals_;
  std::vector<UpvalInfo> upvals_;
  int scope_depth_ = 0;
  int handler_depth_ = 0;
  std::vector<LoopCtx> loops_;
};

}  // namespace

Result<const FunctionProto*> CompileProgram(const Program& program, Vm& vm) {
  Status error = Status::Ok();
  // Allocate global slots in definition order (hoisted functions
  // first, then top-level vars in statement order): state snapshots
  // list module globals in slot order.
  for (const StmtPtr& stmt : program.statements) {
    if (stmt->kind == StmtKind::kFunction) vm.GlobalSlot(stmt->name);
  }
  for (const StmtPtr& stmt : program.statements) {
    if (stmt->kind == StmtKind::kVarDecl) vm.GlobalSlot(stmt->name);
  }
  FnCompiler script(vm, nullptr, /*is_script=*/true, "(script)", 0, &error);
  script.CompileTopLevel(program.statements);
  if (!error.ok()) return error.error();
  const uint16_t index = vm.AdoptProto(script.TakeProto());
  return vm.proto_at(index);
}

}  // namespace vp::script
