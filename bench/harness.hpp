// Shared helpers for the table/figure benchmarks: deploy a pipeline on
// the paper's three-device testbed, run it for a fixed virtual
// duration, return its metrics.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/fall.hpp"
#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "apps/iot.hpp"
#include "core/orchestrator.hpp"
#include "sim/cluster.hpp"

namespace vp::bench {

struct Session {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Orchestrator> orchestrator;
  std::vector<core::PipelineDeployment*> pipelines;
  // Keep app-side state alive for gesture pipelines.
  std::shared_ptr<apps::IoTHub> hub;
  // Keep app-side state alive for fall pipelines.
  std::shared_ptr<apps::fall::AlertLog> alert_log;
};

inline Session MakeSession(core::OrchestratorOptions options = {}) {
  Session session;
  session.cluster = sim::MakeHomeTestbed();
  session.orchestrator =
      std::make_unique<core::Orchestrator>(session.cluster.get(), options);
  session.hub = std::make_shared<apps::IoTHub>();
  return session;
}

/// Deploy the fitness pipeline at `fps` under `policy`.
inline core::PipelineDeployment* DeployFitness(
    Session& session, core::PlacementPolicy policy, double fps) {
  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "fitness config: %s\n",
                 spec.error().ToString().c_str());
    std::abort();
  }
  spec->source.fps = fps;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = policy;
  auto deployment =
      session.orchestrator->Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.error().ToString().c_str());
    std::abort();
  }
  session.pipelines.push_back(*deployment);
  return *deployment;
}

/// Deploy the gesture pipeline at `fps` (shares services with any
/// pipeline already deployed in the session).
inline core::PipelineDeployment* DeployGesture(Session& session, double fps) {
  auto spec = apps::gesture::Spec();
  if (!spec.ok()) std::abort();
  spec->source.fps = fps;
  auto args = apps::gesture::MakeDeployArgs(
      *session.hub, &session.cluster->simulator());
  // Loop the short gesture session so long runs stay busy.
  auto looped = media::MotionScript::Make({
      {"idle", 3.0, {}},  {"wave", 4.8, {.period = 1.2}},
      {"idle", 3.0, {}},  {"clap", 4.0, {.period = 1.0}},
      {"idle", 3.0, {}},  {"wave", 4.8, {.period = 1.3}},
      {"clap", 4.0, {.period = 0.9}}, {"idle", 20.0, {}},
  });
  args.workload = std::move(*looped);
  auto deployment =
      session.orchestrator->Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy gesture: %s\n",
                 deployment.error().ToString().c_str());
    std::abort();
  }
  session.pipelines.push_back(*deployment);
  return *deployment;
}

/// Deploy the fall-detection pipeline at `fps`. Its config declares
/// "priority": "interactive"; `deadline_ms` (when > 0) arms
/// deadline-aware scheduling for its service calls. Shares
/// pose_detector with any fitness pipeline already in the session.
inline core::PipelineDeployment* DeployFall(Session& session, double fps,
                                            double deadline_ms = 0) {
  auto spec = apps::fall::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "fall config: %s\n", spec.error().ToString().c_str());
    std::abort();
  }
  spec->source.fps = fps;
  spec->deadline_ms = deadline_ms;
  if (!session.alert_log) {
    session.alert_log = std::make_shared<apps::fall::AlertLog>();
  }
  auto args = apps::fall::MakeDeployArgs(*session.alert_log,
                                         &session.cluster->simulator());
  args.placement.policy = core::PlacementPolicy::kCoLocate;
  // Loop the 20 s fall session so long runs stay busy.
  media::MotionParams fall_params;
  fall_params.period = 6.0;
  auto looped = media::MotionScript::Make({
      {"idle", 4.0, {}}, {"squat", 6.0, {}}, {"idle", 2.0, {}},
      {"fall", 8.0, fall_params},
      {"idle", 4.0, {}}, {"squat", 6.0, {}}, {"idle", 2.0, {}},
      {"fall", 8.0, fall_params},
      {"idle", 4.0, {}}, {"squat", 6.0, {}}, {"idle", 2.0, {}},
      {"fall", 8.0, fall_params},
      {"idle", 4.0, {}}, {"squat", 6.0, {}}, {"idle", 2.0, {}},
      {"fall", 8.0, fall_params},
  });
  args.workload = std::move(*looped);
  auto deployment =
      session.orchestrator->Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy fall: %s\n",
                 deployment.error().ToString().c_str());
    std::abort();
  }
  session.pipelines.push_back(*deployment);
  return *deployment;
}

inline void Run(Session& session, double seconds) {
  session.orchestrator->StartAll();
  session.orchestrator->RunFor(Duration::Seconds(seconds));
}

/// Smoke mode (VP_BENCH_SMOKE=1): shrink virtual run time so the
/// bench finishes fast while still exercising the full path and its
/// gates. The gated benches run this way as tier-1 ctest entries.
inline bool SmokeMode() { return std::getenv("VP_BENCH_SMOKE") != nullptr; }
inline double BenchSeconds(double full, double smoke = 8.0) {
  return SmokeMode() ? smoke : full;
}

}  // namespace vp::bench
