#include "script/context.hpp"

#include "common/log.hpp"
#include "script/program_cache.hpp"

namespace vp::script {

Context::Context(ContextOptions options)
    : options_(options), rng_(options.random_seed) {
  print_ = [](const std::string& line) { VP_INFO("script") << line; };
}

void Context::Import(Vm& vm, const BaselineGlobal& global) {
  const VpValue v = global.fn ? VpValue::Heap(vm.NewHostFn(global.name,
                                                           global.fn))
                              : vm.FromJson(global.value);
  vm.DefineGlobal(global.name, v, /*baseline=*/true);
}

void Context::RegisterHostFunction(const std::string& name, HostFunction fn) {
  AddBaseline({name, std::move(fn), json::Value()});
}

void Context::DefineGlobal(const std::string& name, json::Value v) {
  AddBaseline({name, HostFunction(), std::move(v)});
}

void Context::AddBaseline(BaselineGlobal global) {
  if (vm_ != nullptr) Import(*vm_, global);
  for (BaselineGlobal& existing : baseline_) {
    if (existing.name == global.name) {
      existing = std::move(global);
      return;
    }
  }
  baseline_.push_back(std::move(global));
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
  InstallStdlib(*vm, rng_, print_);
  for (const BaselineGlobal& global : baseline_) Import(*vm, global);
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

Result<json::Value> Context::Call(const std::string& name,
                                  std::initializer_list<json::Value> args) {
  if (vm_ == nullptr) return NotFound("no function '" + name + "' in module");
  vm_->ResetBudget();
  std::vector<VpValue> vm_args;
  vm_args.reserve(args.size());
  for (const json::Value& a : args) vm_args.push_back(vm_->FromJson(a));
  auto result = vm_->CallGlobal(name, vm_args);
  if (!result.ok()) return result.error();
  auto j = vm_->ToJson(*result);
  return j.ok() ? std::move(*j) : json::Value(nullptr);
}

json::Value Context::GetGlobal(const std::string& name) const {
  if (vm_ == nullptr) return json::Value(nullptr);
  auto j = vm_->ToJson(vm_->GetGlobal(name));
  return j.ok() ? std::move(*j) : json::Value(nullptr);
}

}  // namespace vp::script
