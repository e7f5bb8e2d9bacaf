#include "core/invariants.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

namespace vp::core {

InvariantChecker::InvariantChecker(Orchestrator* orchestrator,
                                   Duration interval)
    : orchestrator_(orchestrator), interval_(interval) {}

void InvariantChecker::Start() {
  if (running_) return;
  running_ = true;
  orchestrator_->cluster().simulator().After(interval_, [this] { Tick(); });
}

void InvariantChecker::Tick() {
  if (!running_) return;
  CheckNow();
  orchestrator_->cluster().simulator().After(interval_, [this] { Tick(); });
}

void InvariantChecker::Record(const std::string& what) {
  ++total_violations_;
  uint64_t& count = violation_counts_[what];
  if (count++ == 0) {
    violations_.push_back({orchestrator_->cluster().Now(), what});
    VP_ERROR("invariants") << what;
  }
}

void InvariantChecker::CheckNow() {
  ++checks_run_;
  const bool fencing = orchestrator_->options().epoch_fencing;
  const bool paced =
      orchestrator_->options().camera_options.paced_by_credits;
  for (const auto& pipeline : orchestrator_->pipelines()) {
    const std::string& name = pipeline->spec().name;

    // 1. Credit conservation (§2.3): one admission slot, exactly.
    if (paced && !pipeline->paused() && pipeline->camera().running()) {
      const int slots = pipeline->camera().credits() +
                        (pipeline->camera().has_outstanding() ? 1 : 0);
      if (slots != 1) {
        Record(Format("pipeline '%s': credit conservation broken "
                      "(credits=%d outstanding=%d)",
                      name.c_str(), pipeline->camera().credits(),
                      pipeline->camera().has_outstanding() ? 1 : 0));
      }
    }

    // 2. Effectively-once: a frame never completes twice.
    if (pipeline->metrics().duplicate_completions() != 0) {
      Record(Format("pipeline '%s': %llu duplicate frame completions",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        pipeline->metrics().duplicate_completions())));
    }

    // 4. Fencing: zombies never serve while fencing is on.
    if (fencing && pipeline->metrics().zombies_served() != 0) {
      Record(Format("pipeline '%s': %llu frames served by stale-epoch "
                    "runtimes despite fencing",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        pipeline->metrics().zombies_served())));
    }

    // 5. A wake starts every module or none: asleep, nothing runs.
    if (pipeline->hibernated() && !pipeline->modules().empty()) {
      Record(Format("pipeline '%s': hibernated with live runtimes",
                    name.c_str()));
    }

    // 6. The store holds one lineage: each checkpoint at its module's
    // current epoch.
    for (const auto& [module, checkpoint] : pipeline->checkpoints()) {
      if (checkpoint.epoch != pipeline->module_epoch(module)) {
        Record(Format("pipeline '%s': checkpoint of '%s' at epoch %llu, "
                      "module at epoch %llu",
                      name.c_str(), module.c_str(),
                      static_cast<unsigned long long>(checkpoint.epoch),
                      static_cast<unsigned long long>(
                          pipeline->module_epoch(module))));
      }
    }

    // 3. Split-brain exclusion: at most one live (bound, unfenced,
    // host-up) runtime per (module, epoch). Pre- and post-recovery
    // incarnations may overlap across a partition, but only at
    // different epochs.
    std::map<std::pair<std::string, uint64_t>, int> live;
    auto count_runtime = [&](const ModuleRuntime* runtime) {
      if (runtime == nullptr || runtime->fenced()) return;
      if (!orchestrator_->fabric().IsBound(runtime->address())) return;
      const sim::Device* host =
          orchestrator_->cluster().FindDevice(runtime->device());
      if (host == nullptr || !host->up()) return;
      ++live[{runtime->name(), runtime->epoch()}];
    };
    for (const auto& runtime : pipeline->modules()) {
      count_runtime(runtime.get());
    }
    for (const ModuleRuntime* runtime : pipeline->retired_runtimes()) {
      count_runtime(runtime);
    }
    for (const auto& [key, count] : live) {
      if (count > 1) {
        Record(Format("pipeline '%s': module '%s' has %d live runtimes at "
                      "epoch %llu (split brain)",
                      name.c_str(), key.first.c_str(), count,
                      static_cast<unsigned long long>(key.second)));
      }
    }
  }
}

Status InvariantChecker::CheckConvergence() {
  Status first = Status::Ok();
  auto fail = [&](const std::string& what) {
    Record(what);
    if (first.ok()) first = Status(StatusCode::kInternal, what);
  };

  // Detector vs ground truth: after the quiet tail every verdict must
  // match actual device liveness.
  if (detector_ != nullptr) {
    for (sim::Device* device : orchestrator_->cluster().devices()) {
      const bool actually_up = device->up();
      const bool declared_down =
          detector_->health(device->name()) == DeviceHealth::kDown;
      if (actually_up == declared_down) {
        fail(Format("convergence: detector says '%s' is %s but device is %s",
                    device->name().c_str(),
                    DeviceHealthName(detector_->health(device->name())),
                    actually_up ? "up" : "down"));
      }
    }
  }

  // Placement convergence: every module of every unpaused pipeline has
  // exactly one live runtime, and it sits at the module's current
  // epoch. (Paused pipelines lost their source device — nothing to
  // serve until it returns.)
  for (const auto& pipeline : orchestrator_->pipelines()) {
    if (pipeline->paused()) continue;
    // Hibernated pipelines intentionally have no live runtimes.
    if (pipeline->hibernated()) continue;
    const std::string& name = pipeline->spec().name;
    for (const ModuleSpec& spec : pipeline->spec().modules) {
      // The source module is the camera driver, not a fabric-bound
      // runtime — its liveness is the pipeline's paused flag.
      if (spec.type == ModuleType::kSource) continue;
      ModuleRuntime* runtime = pipeline->FindModule(spec.name);
      if (runtime == nullptr || runtime->fenced() ||
          !orchestrator_->fabric().IsBound(runtime->address())) {
        fail(Format("convergence: pipeline '%s' module '%s' has no live "
                    "runtime",
                    name.c_str(), spec.name.c_str()));
        continue;
      }
      const uint64_t current = pipeline->module_epoch(spec.name);
      if (runtime->epoch() != current) {
        fail(Format("convergence: pipeline '%s' module '%s' serves at "
                    "epoch %llu but current epoch is %llu",
                    name.c_str(), spec.name.c_str(),
                    static_cast<unsigned long long>(runtime->epoch()),
                    static_cast<unsigned long long>(current)));
      }
    }
  }
  return first;
}

std::string InvariantChecker::Report() const {
  if (violations_.empty()) {
    return Format("invariants: %llu checks, no violations\n",
                  static_cast<unsigned long long>(checks_run_));
  }
  std::string out =
      Format("invariants: %llu checks, %llu violations (%zu distinct)\n",
             static_cast<unsigned long long>(checks_run_),
             static_cast<unsigned long long>(total_violations_),
             violations_.size());
  for (const InvariantViolation& violation : violations_) {
    const auto it = violation_counts_.find(violation.what);
    out += Format("  t=%8.1f ms  x%llu  %s\n", violation.when.millis(),
                  static_cast<unsigned long long>(
                      it == violation_counts_.end() ? 1 : it->second),
                  violation.what.c_str());
  }
  return out;
}

}  // namespace vp::core
