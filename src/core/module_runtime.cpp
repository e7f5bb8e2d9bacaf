#include "core/module_runtime.hpp"

#include <algorithm>
#include <functional>

#include "common/log.hpp"
#include "core/orchestrator.hpp"
#include "media/codec.hpp"

namespace vp::core {
namespace {

/// Per-event module runtime overhead (context dispatch), ref ms.
constexpr Duration kModuleEventOverhead = Duration::Millis(0.25);

}  // namespace

ModuleRuntime::ModuleRuntime(Orchestrator* orchestrator,
                             PipelineDeployment* pipeline,
                             const ModuleSpec* spec, std::string device,
                             net::Address address)
    : orchestrator_(orchestrator), pipeline_(pipeline), spec_(spec),
      device_(std::move(device)), address_(std::move(address)) {}

uint64_t ModuleScriptSeed(uint64_t seed, const std::string& module) {
  return seed ^ std::hash<std::string>{}(module);
}

Status ModuleRuntime::Initialize(std::unique_ptr<script::Context> pooled) {
  const bool load = pooled == nullptr;
  if (load) {
    script::ContextOptions options;
    options.random_seed =
        ModuleScriptSeed(orchestrator_->options().seed, spec_->name);
    context_ = std::make_unique<script::Context>(options);
  } else {
    // The pool context already ran Load for this module's source, so
    // the engine is live; globals/host functions defined below import
    // into it directly (Context forwards post-Load definitions).
    context_ = std::move(pooled);
  }
  context_->DefineGlobal("MODULE_NAME", json::Value(spec_->name));
  context_->DefineGlobal("DEVICE_NAME", json::Value(device_));
  context_->DefineGlobal("PIPELINE_NAME",
                         json::Value(pipeline_->spec().name));

  const std::string log_prefix =
      pipeline_->spec().name + "/" + spec_->name;
  script::PrintFn print = [log_prefix](const std::string& line) {
    VP_INFO("module") << log_prefix << ": " << line;
  };
  context_->set_print_handler(print);
  // `log(...)` is console.log under a shorter name.
  context_->RegisterHostFunction("log", script::LogFunction(print));

  context_->RegisterHostFunction(
      "call_service", [this](script::Vm& vm, script::HostArgs args) {
        return HostCallService(vm, args);
      });
  context_->RegisterHostFunction(
      "call_module", [this](script::Vm& vm, script::HostArgs args) {
        return HostCallModule(vm, args);
      });
  context_->RegisterHostFunction(
      "busy_ms", [this](script::Vm&, script::HostArgs args) {
        return HostBusyMs(args);
      });
  context_->RegisterHostFunction(
      "frame_info", [this](script::Vm& vm, script::HostArgs args) {
        return HostFrameInfo(vm, args);
      });
  context_->RegisterHostFunction(
      "now_ms",
      [this](script::Vm&, script::HostArgs) -> Result<script::VpValue> {
        return script::VpValue::Number(
            orchestrator_->cluster().simulator().Now().millis());
      });
  // set_timer(ms[, payload]) — one-shot: after `ms` virtual
  // milliseconds the module receives an event_received({timer: true,
  // …payload}). Lets modules aggregate, poll, or implement periodic
  // housekeeping without holding frames.
  context_->RegisterHostFunction(
      "set_timer",
      [this](script::Vm& vm,
             script::HostArgs args) -> Result<script::VpValue> {
        if (args.empty() || !args[0].is_number()) {
          return ScriptError("set_timer(ms[, payload]): ms needed");
        }
        const double ms = args[0].AsNumber();
        if (!(ms >= 0.0) || ms > 3.6e6) {
          return ScriptError("set_timer: ms must be in [0, 3.6e6]");
        }
        json::Value payload = json::Value::MakeObject();
        if (args.size() > 1 && args[1].IsHeapType(script::GcType::kObject)) {
          auto converted = vm.ToJson(args[1]);
          if (!converted.ok()) return converted.error();
          payload = std::move(*converted);
        }
        payload["timer"] = json::Value(true);
        const uint64_t seq = current_seq_;
        // The timer event captures `this`: push the drain watermark out
        // to its deadline so a retired runtime outlives the callback.
        drain_deadline_ = std::max(
            drain_deadline_,
            orchestrator_->cluster().Now() + Duration::Millis(ms));
        orchestrator_->cluster().simulator().After(
            Duration::Millis(ms),
            [this, seq, payload = std::move(payload)]() mutable {
              net::Message message("timer", std::move(payload));
              message.set_sender(name());
              message.set_seq(seq);
              OnMessage(std::move(message));
            });
        return script::VpValue::Boolean(true);
      });

  if (auto extras = pipeline_->extra_host_functions_.find(spec_->name);
      extras != pipeline_->extra_host_functions_.end()) {
    for (const auto& [name, fn] : extras->second) {
      context_->RegisterHostFunction(name, fn);
    }
  }

  if (load) VP_RETURN_IF_ERROR(context_->Load(spec_->code));
  if (context_->HasFunction("init")) {
    auto result = context_->Call("init", {});
    if (!result.ok()) return Status(result.error());
  }
  return Status::Ok();
}

void ModuleRuntime::OnMessage(net::Message message) {
  // A runtime on a dead device processes nothing: events targeting it
  // (timers armed before the crash, messages that slipped through)
  // vanish with the machine. The credit watchdog / recovery path
  // regenerates any frame lost this way.
  sim::Device* device = orchestrator_->cluster().FindDevice(device_);
  if (device == nullptr || !device->up()) {
    ++stats_.dropped_device_down;
    return;
  }
  // A fenced runtime is administratively dead: recovery superseded it
  // while its device was partitioned away. Nothing it would do now is
  // authoritative.
  if (fenced_) {
    ++stats_.dropped_fenced;
    return;
  }
  // Epoch fence: a message stamped with a placement epoch older than
  // the sender module's current epoch comes from a zombie instance —
  // one that recovery already replaced. Serving it would double-serve
  // the frame against the replacement's output.
  if (message.fence_epoch() != 0 && pipeline_ != nullptr) {
    const uint64_t current = pipeline_->module_epoch(message.sender());
    if (message.fence_epoch() < current) {
      if (orchestrator_->options().epoch_fencing) {
        ++stats_.dropped_stale_epoch;
        pipeline_->metrics().OnZombieFenced();
        return;
      }
      // Fencing disabled (bench comparison): count the split-brain
      // exposure but process anyway.
      pipeline_->metrics().OnZombieServed();
    }
  }
  drain_deadline_ =
      std::max(drain_deadline_, orchestrator_->cluster().Now());
  if (busy_) {
    // Queue-free semantics: one parked slot, newest message wins.
    if (parked_.has_value()) ++stats_.dropped_replaced;
    parked_ = std::move(message);
    return;
  }
  busy_ = true;
  ProcessMessage(std::move(message));
}

void ModuleRuntime::ProcessMessage(net::Message message) {
  // Pre-handler cost on the device's module lane: dispatch overhead
  // plus (when the message carries an encoded frame) the decode.
  Duration cost = kModuleEventOverhead;
  if (!message.parts().empty()) {
    cost += media::DecodeCost(message.parts().front().size());
  }
  sim::Device* device = orchestrator_->cluster().FindDevice(device_);
  // The handler runs on its own fiber so a blocking service call
  // suspends it instead of re-entrantly pumping the (possibly shared)
  // simulator — see sim::Fiber.
  device->module_lane().Run(
      cost, [this, message = std::move(message)]() mutable {
        orchestrator_->RunOnFiber(
            [this, message = std::move(message)]() mutable {
              ExecuteHandler(std::move(message));
            });
      });
}

void ModuleRuntime::ExecuteHandler(net::Message message) {
  // The device may have died between admission and lane completion.
  sim::Device* host = orchestrator_->cluster().FindDevice(device_);
  if (host == nullptr || !host->up()) {
    ++stats_.dropped_device_down;
    busy_ = false;
    parked_.reset();  // parked work died with the machine too
    return;
  }
  current_seq_ = message.seq();
  ++stats_.events;
  service_call_exhausted_ = false;
  // Timer events reuse the seq of the frame being handled when the
  // timer was set; abandoning from one could return a credit for a
  // frame still alive elsewhere in the pipeline.
  const bool data_event = message.type() != "timer";

  json::Value payload = std::move(message.payload());

  // Register an attached encoded frame in this device's store and
  // rewrite the reference (the decode cost was charged pre-handler).
  // `frame` holds it until the handler returns; a same-device message
  // holds its frame the same way, for as long as `message` lives.
  media::FrameRef frame;
  if (!message.parts().empty()) {
    auto put = orchestrator_->store(device_).Put(
        std::move(message.mutable_parts().front()));
    if (!put.ok()) {
      ++stats_.script_errors;
      VP_WARN("module") << name() << ": undecodable frame: "
                        << put.error().ToString();
      FinishEvent();
      return;
    }
    frame = std::move(*put);
    payload["frame_id"] = json::Value(static_cast<double>(frame->id()));
  }

  const TimePoint start = orchestrator_->cluster().Now();
  pipeline_->metrics().OnStageStart(current_seq_, name(), start);

  auto result = context_->Call("event_received", {std::move(payload)});
  if (!result.ok() && !orchestrator_->draining_fibers()) {
    ++stats_.script_errors;
    VP_WARN("module") << name() << ": event_received failed: "
                      << result.error().ToString();
  }

  const TimePoint end = orchestrator_->cluster().Now();
  pipeline_->metrics().OnStageEnd(current_seq_, name(), end);

  // Sink: first completion of each frame sequence returns the credit
  // (§2.3) and closes the frame's end-to-end trace.
  if (spec_->signal_source &&
      (!signaled_any_ || current_seq_ > last_signaled_seq_)) {
    signaled_any_ = true;
    last_signaled_seq_ = current_seq_;
    pipeline_->metrics().OnCompleted(current_seq_, end);
    orchestrator_->SignalSource(*pipeline_, device_, current_seq_);
  } else if (!result.ok() && service_call_exhausted_ && data_event &&
             !spec_->signal_source) {
    // Graceful degradation: the handler died because a service stayed
    // unreachable through every retry. Drop the frame and return its
    // credit now — plain script errors still go through the camera
    // watchdog instead.
    ++stats_.frames_abandoned;
    orchestrator_->AbandonFrame(*this, current_seq_);
  }
  service_call_exhausted_ = false;
  FinishEvent();
}

void ModuleRuntime::FinishEvent() {
  drain_deadline_ =
      std::max(drain_deadline_, orchestrator_->cluster().Now());
  busy_ = false;
  if (parked_.has_value()) {
    net::Message next = std::move(*parked_);
    parked_.reset();
    busy_ = true;
    ProcessMessage(std::move(next));
  }
}

namespace {

/// Argument `i` as the message payload: absent is null, and values
/// with no JSON form (functions, cycles, runaway nesting) are a
/// catchable script error.
Result<json::Value> PayloadArg(script::Vm& vm, script::HostArgs args,
                               size_t i) {
  if (args.size() <= i) return json::Value();
  return vm.ToJson(args[i]);
}

}  // namespace

Result<script::VpValue> ModuleRuntime::HostCallService(
    script::Vm& vm, script::HostArgs args) {
  if (args.empty() || !args[0].is_string()) {
    return ScriptError("call_service(service, message): service name needed");
  }
  const std::string service = args[0].AsString();
  if (std::find(spec_->services.begin(), spec_->services.end(), service) ==
      spec_->services.end()) {
    return ScriptError("module '" + name() + "' does not declare service '" +
                       service + "' in its config");
  }
  auto payload = PayloadArg(vm, args, 1);
  if (!payload.ok()) return payload.error();
  ++stats_.service_calls;
  auto response = orchestrator_->CallService(*this, service,
                                             std::move(*payload));
  if (!response.ok()) return response.error();
  return vm.FromJson(*response);
}

Result<script::VpValue> ModuleRuntime::HostCallModule(
    script::Vm& vm, script::HostArgs args) {
  if (args.empty() || !args[0].is_string()) {
    return ScriptError("call_module(module, message): module name needed");
  }
  const std::string target = args[0].AsString();
  if (std::find(spec_->next_modules.begin(), spec_->next_modules.end(),
                target) == spec_->next_modules.end()) {
    return ScriptError("module '" + name() + "' has no edge to '" + target +
                       "' (declare it in next_module)");
  }
  auto payload = PayloadArg(vm, args, 1);
  if (!payload.ok()) return payload.error();
  ++stats_.module_sends;
  Status sent = orchestrator_->SendToModule(*this, target, std::move(*payload));
  if (!sent.ok()) return ScriptError(sent.message());
  return script::VpValue::Undefined();
}

Result<script::VpValue> ModuleRuntime::HostBusyMs(script::HostArgs args) {
  const double ms = args.empty() ? 0.0 : script::Vm::ToNumber(args[0]);
  if (!(ms >= 0.0) || ms > 60000.0) {
    return ScriptError("busy_ms(ms): ms must be in [0, 60000]");
  }
  sim::Device* device = orchestrator_->cluster().FindDevice(device_);
  Status status = orchestrator_->BlockOnLane(device->module_lane(),
                                             Duration::Millis(ms));
  if (!status.ok()) return status.error();
  return script::VpValue::Undefined();
}

Result<script::VpValue> ModuleRuntime::HostFrameInfo(
    script::Vm& vm, script::HostArgs args) {
  if (args.empty() || !args[0].is_number()) {
    return ScriptError("frame_info(frame_id): numeric id needed");
  }
  auto frame = orchestrator_->store(device_).Get(
      media::FrameIdFromNumber(args[0].AsNumber()));
  if (!frame.ok()) return frame.error();
  json::Value info = json::Value::MakeObject();
  info["seq"] = json::Value(static_cast<double>((*frame)->seq()));
  info["width"] = json::Value((*frame)->width());
  info["height"] = json::Value((*frame)->height());
  info["capture_ms"] = json::Value((*frame)->capture_time().millis());
  return vm.FromJson(info);
}

}  // namespace vp::core
