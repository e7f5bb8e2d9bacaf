#include "script/context.hpp"

#include "common/log.hpp"
#include "script/program_cache.hpp"

namespace vp::script {

Context::Context(ContextOptions options) : options_(options) {
  print_ = [](const std::string& line) { VP_INFO("script") << line; };
  baseline_ = MakeStdlib(options.random_seed, [this](const std::string& line) {
    if (print_) print_(line);
  });
}

void Context::RegisterHostFunction(const std::string& name, HostFunction fn) {
  DefineGlobal(name, Value::MakeHostFunction(name, std::move(fn)));
}

void Context::DefineGlobal(const std::string& name, Value v) {
  if (vm_ != nullptr) vm_->ImportGlobal(name, v, /*baseline=*/true);
  for (auto& [existing, value] : baseline_) {
    if (existing == name) {
      value = std::move(v);
      return;
    }
  }
  baseline_.emplace_back(name, std::move(v));
}

Status Context::Load(const std::string& source) {
  // A reload replaces the whole program: drop the previous VM first so
  // a rejected source leaves no trace of the old program's state.
  vm_.reset();
  auto cached = ProgramCache::Global().Acquire(source, options_.limits);
  if (!cached.ok()) return Status(cached.error());
  auto vm = std::make_unique<Vm>(options_.limits);
  const FunctionProto* top = (*cached)->LinkInto(*vm);
  // Baselines after the link: program-referenced names already own the
  // low slots (the bytecode's operands); stdlib + host imports fill
  // them or append.
  for (const auto& [name, value] : baseline_) {
    vm->ImportGlobal(name, value, /*baseline=*/true);
  }
  vm_ = std::move(vm);
  return vm_->RunTopLevel(top);
}

json::Value Context::SnapshotState() const {
  if (vm_ == nullptr) return json::Value::MakeObject();
  return vm_->SnapshotState();
}

Status Context::RestoreState(const json::Value& snapshot) {
  if (!snapshot.is_object()) {
    return Status(StatusCode::kInvalidArgument,
                  "state snapshot must be an object");
  }
  if (vm_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition,
                  "no module program loaded to restore into");
  }
  vm_->RestoreState(snapshot);
  return Status::Ok();
}

bool Context::HasFunction(const std::string& name) const {
  return vm_ != nullptr && vm_->GlobalIsFunction(name);
}

Result<Value> Context::Call(const std::string& name, std::vector<Value> args) {
  if (vm_ == nullptr) return NotFound("no function '" + name + "' in module");
  vm_->ResetBudget();
  return vm_->CallGlobal(name, std::move(args));
}

Value Context::GetGlobal(const std::string& name) const {
  return vm_ != nullptr ? vm_->GetGlobalBoxed(name) : Value::Undefined();
}

}  // namespace vp::script
