// Fault-tolerance bench: the fitness pipeline under replica crashes,
// hung replicas and lossy Wi-Fi.
//
// Scenario: two replicas per containerized service (the registry
// health-marks failed ones and balances around them), then a fault
// phase where every replica is crashed ~10% of the time (plus
// occasional wedges) and the wireless links run at 5% loss. The bar:
//
//   * faulted throughput ≥ 80% of the fault-free rate,
//   * throughput recovers once the faults clear,
//   * the whole timeline is bit-for-bit deterministic under a seed.
//
// Exits with the number of failed checks; ctest runs the bench as the
// `bench_fault_tolerance` entry.
#include <cstdio>
#include <tuple>

#include "harness.hpp"
#include "sim/fault_injector.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

constexpr double kWarmupS = 5.0;
constexpr double kCleanS = 15.0;
constexpr double kFaultS = 20.0;
constexpr double kRecoveryS = 15.0;

struct PhaseRates {
  double clean_fps = 0;
  double faulted_fps = 0;
  double recovered_fps = 0;
};

struct RunResult {
  PhaseRates rates;
  uint64_t completed = 0;
  uint64_t abandoned = 0;
  uint64_t retries = 0;
  uint64_t call_timeouts = 0;
  double downtime_ms = 0;
  uint64_t crashes = 0;
  uint64_t wedges = 0;
};

RunResult RunScenario(uint64_t seed) {
  core::OrchestratorOptions options;
  options.service_call.timeout = Duration::Millis(300);
  options.service_call.max_retries = 3;
  options.service_call.backoff_base = Duration::Millis(25);
  options.service_call.suspect_duration = Duration::Millis(400);

  Session session = MakeSession(options);
  core::PipelineDeployment* pipeline =
      DeployFitness(session, core::PlacementPolicy::kCoLocate, 20.0);

  // Second replica per containerized service: surviving a crash is a
  // load-balancing decision, not a stall.
  for (const auto& [service, device] : pipeline->plan().service_device) {
    if (pipeline->plan().IsNative(service)) continue;
    if (!session.orchestrator->ScaleService(device, service).ok()) {
      std::fprintf(stderr, "scale %s@%s failed\n", service.c_str(),
                   device.c_str());
      std::abort();
    }
  }

  sim::FaultInjector injector(&session.cluster->simulator(),
                              &session.cluster->network(), seed);
  session.orchestrator->RegisterReplicasForFaults(injector);

  const auto completed = [&] {
    return pipeline->metrics().frames_completed();
  };

  session.orchestrator->StartAll();
  session.orchestrator->RunFor(Duration::Seconds(kWarmupS));

  // Phase 1: fault-free reference.
  const uint64_t c0 = completed();
  session.orchestrator->RunFor(Duration::Seconds(kCleanS));
  const uint64_t c1 = completed();

  // Phase 2: faults. Each replica is crashed with probability 6.25%
  // per 250 ms tick for 400 ms (expected ≈10% downtime each) and
  // occasionally wedges; the Wi-Fi links degrade to 5% loss.
  sim::RandomFaultOptions faults;
  faults.interval = Duration::Millis(250);
  faults.crash_probability = 0.0625;
  faults.crash_downtime = Duration::Millis(400);
  faults.wedge_probability = 0.005;
  faults.wedge_duration = Duration::Millis(300);
  injector.StartRandomFaults(faults);

  sim::LinkSpec lossy;
  lossy.latency = Duration::Millis(3.5);
  lossy.bandwidth_bps = 80e6;
  lossy.jitter = Duration::Millis(0.8);
  lossy.loss = 0.05;
  const TimePoint fault_start = session.cluster->Now();
  const Duration fault_window = Duration::Seconds(kFaultS);
  injector.ScheduleLinkFault("phone", "desktop", fault_start, fault_window,
                             lossy);
  injector.ScheduleLinkFault("desktop", "tv", fault_start, fault_window,
                             lossy);
  injector.ScheduleLinkFault("tv", "phone", fault_start, fault_window,
                             lossy);

  session.orchestrator->RunFor(fault_window);
  injector.StopRandomFaults();
  const uint64_t c2 = completed();

  // Phase 3: recovery (pending restarts/restores drain immediately).
  session.orchestrator->RunFor(Duration::Seconds(kRecoveryS));
  const uint64_t c3 = completed();

  RunResult out;
  out.rates.clean_fps = static_cast<double>(c1 - c0) / kCleanS;
  out.rates.faulted_fps = static_cast<double>(c2 - c1) / kFaultS;
  out.rates.recovered_fps = static_cast<double>(c3 - c2) / kRecoveryS;
  const core::PipelineMetrics& m = pipeline->metrics();
  out.completed = m.frames_completed();
  out.abandoned = m.frames_abandoned();
  out.retries = m.retries();
  out.call_timeouts = m.call_timeouts();
  out.downtime_ms = m.replica_downtime_ms();
  out.crashes = injector.stats().crashes;
  out.wedges = injector.stats().wedges;
  return out;
}

}  // namespace

int main() {
  std::printf("=== Fault tolerance: fitness @20 FPS, 2 replicas/service "
              "===\n");
  std::printf("fault phase: ~10%% crash downtime/replica + wedges + 5%% "
              "link loss\n\n");

  const RunResult a = RunScenario(2024);

  std::printf("%-22s %10s\n", "phase", "e2e FPS");
  std::printf("%-22s %10.2f\n", "fault-free", a.rates.clean_fps);
  std::printf("%-22s %10.2f\n", "faulted", a.rates.faulted_fps);
  std::printf("%-22s %10.2f\n", "recovered", a.rates.recovered_fps);
  std::printf("\nrecovery metrics: retries=%llu call_timeouts=%llu "
              "frames_abandoned=%llu replica_downtime=%.0f ms "
              "(crashes=%llu wedges=%llu)\n",
              static_cast<unsigned long long>(a.retries),
              static_cast<unsigned long long>(a.call_timeouts),
              static_cast<unsigned long long>(a.abandoned),
              a.downtime_ms,
              static_cast<unsigned long long>(a.crashes),
              static_cast<unsigned long long>(a.wedges));

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  check(a.rates.faulted_fps >= 0.8 * a.rates.clean_fps,
        "faulted throughput >= 80% of fault-free");
  check(a.rates.recovered_fps >= 0.9 * a.rates.clean_fps,
        "throughput recovers after faults clear");
  check(a.crashes > 0 && a.downtime_ms > 0,
        "faults actually happened (crashes, downtime recorded)");

  const RunResult b = RunScenario(2024);
  const auto key = [](const RunResult& r) {
    return std::make_tuple(r.completed, r.abandoned, r.retries,
                           r.call_timeouts, r.crashes, r.wedges);
  };
  check(key(a) == key(b), "timeline deterministic under fixed seed");

  const RunResult c = RunScenario(7);
  check(key(a) != key(c), "different seed gives a different timeline");

  return failures;
}
