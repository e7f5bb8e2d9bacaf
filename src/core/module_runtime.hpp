// Module runtime: hosts one module's script context on a device.
//
// Mirrors the paper's §3 implementation: "For each module of an
// application, a separate Duktape context is created to execute the
// module code" — here a vpscript Context — with the Table-1 API bound
// as host functions:
//
//   init()                          module-defined, called at every
//                                   start: deploy/migrate/restore/wake
//   event_received(message)         module-defined, called per event
//   call_service(service, message)  → response (blocks in virtual time)
//   call_module(module, message)    → fire-and-forget to a next_module
//
// plus pragmatic extras: log(…), now_ms(), busy_ms(ms) (models module
// CPU), frame_info(frame_id).
//
// Event semantics are queue-free (§2.3): a module busy with one event
// parks at most ONE pending message (newest wins; replaced messages
// count as drops). The flow-control credit keeps at most one frame in
// the pipeline, so parking only triggers on fan-in edges.
#pragma once

#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "net/fabric.hpp"
#include "script/context.hpp"

namespace vp::core {

class Orchestrator;
class PipelineDeployment;

/// Random seed of `module`'s script context under an orchestrator
/// seeded `seed`. Every context built for the module — cold, prewarmed
/// or pooled — takes it from here: a warm-pool hit must keep the
/// module's Math.random stream.
uint64_t ModuleScriptSeed(uint64_t seed, const std::string& module);

struct ModuleRuntimeStats {
  uint64_t events = 0;
  uint64_t dropped_replaced = 0;  // parked message overwritten
  uint64_t script_errors = 0;
  uint64_t service_calls = 0;
  uint64_t module_sends = 0;
  /// Frames dropped here after a service call exhausted its retries.
  uint64_t frames_abandoned = 0;
  /// Events discarded because this runtime's device was down.
  uint64_t dropped_device_down = 0;
  /// Events discarded because this runtime was fenced (stale epoch).
  uint64_t dropped_fenced = 0;
  /// Events discarded because the sender's placement epoch was stale
  /// (a zombie runtime still emitting after recovery superseded it).
  uint64_t dropped_stale_epoch = 0;
};

class ModuleRuntime {
 public:
  ModuleRuntime(Orchestrator* orchestrator, PipelineDeployment* pipeline,
                const ModuleSpec* spec, std::string device,
                net::Address address);

  /// Build the script context, bind host functions (Table 1 plus the
  /// pipeline's extras for this module), load the module code and run
  /// its init(). `pooled`, when set, is a pre-Loaded context from the
  /// lifecycle warm pool (same source, same seed): it is adopted and
  /// Load is skipped — host functions registered after Load import
  /// directly into the live engine.
  Status Initialize(std::unique_ptr<script::Context> pooled);

  /// Fabric delivery entry point.
  void OnMessage(net::Message message);

  const std::string& name() const { return spec_->name; }
  const std::string& device() const { return device_; }
  PipelineDeployment& pipeline() const { return *pipeline_; }
  const net::Address& address() const { return address_; }
  const ModuleSpec& spec() const { return *spec_; }
  const ModuleRuntimeStats& stats() const { return stats_; }
  script::Context& context() { return *context_; }
  const script::Context& context() const { return *context_; }

  /// Sequence number of the event currently being handled.
  uint64_t current_seq() const { return current_seq_; }

  /// Placement epoch of this runtime instance. Bumped by the
  /// orchestrator each time the module is re-placed after a failure;
  /// outgoing frames are stamped with it so receivers can fence
  /// messages from superseded (zombie) instances.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t e) { epoch_ = e; }

  /// Fence the runtime: it stops accepting and emitting events. Called
  /// by the orchestrator when a reconnecting device still hosts an
  /// instance that recovery has superseded.
  void Fence() { fenced_ = true; }
  bool fenced() const { return fenced_; }

  /// Whether an event is currently being handled (or parked behind one).
  bool busy() const { return busy_; }

  /// Drain watermark: the latest virtual time at which an in-flight
  /// sim event may still reference this runtime (message arrivals,
  /// handler completions, pending set_timer() deadlines). A retired
  /// runtime is safe to destroy once Now() is comfortably past this.
  TimePoint drain_deadline() const { return drain_deadline_; }

  /// Called by the orchestrator when a call_service() from this module
  /// exhausted its retry budget on a transient failure. If the current
  /// handler then fails (the script did not catch and recover), the
  /// frame is abandoned: dropped with its credit returned to the
  /// source instead of waiting out the camera watchdog.
  void NoteServiceCallExhausted() { service_call_exhausted_ = true; }

 private:
  void ProcessMessage(net::Message message);
  void ExecuteHandler(net::Message message);
  void FinishEvent();

  // Host-function implementations (Table 1).
  Result<script::VpValue> HostCallService(script::Vm& vm,
                                          script::HostArgs args);
  Result<script::VpValue> HostCallModule(script::Vm& vm,
                                         script::HostArgs args);
  Result<script::VpValue> HostBusyMs(script::HostArgs args);
  Result<script::VpValue> HostFrameInfo(script::Vm& vm,
                                        script::HostArgs args);

  Orchestrator* orchestrator_;
  PipelineDeployment* pipeline_;
  const ModuleSpec* spec_;
  std::string device_;
  net::Address address_;
  std::unique_ptr<script::Context> context_;

  uint64_t epoch_ = 1;
  bool fenced_ = false;
  bool busy_ = false;
  std::optional<net::Message> parked_;
  TimePoint drain_deadline_;
  uint64_t current_seq_ = 0;
  uint64_t last_signaled_seq_ = 0;
  bool signaled_any_ = false;
  /// Set by the orchestrator during the current handler (see
  /// NoteServiceCallExhausted); cleared when the handler finishes.
  bool service_call_exhausted_ = false;
  ModuleRuntimeStats stats_;
};

}  // namespace vp::core
