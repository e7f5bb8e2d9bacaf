// Chaos scheduling: seeded, deterministic fault timelines for soak
// tests. A ChaosSchedule draws a sequence of non-overlapping fault
// episodes — network partitions, device power losses, replica crashes
// and wedges, link degradations (loss + duplication + reordering +
// corruption) — from one Rng and arms them all on a FaultInjector up
// front. The same seed always produces the same timeline, so a chaos
// soak that trips an invariant is replayable bit-for-bit.
//
// Gaps between episodes are drawn from [600 ms, 3 s] and episode
// lengths from [400 ms, 2 s]. Kinds are drawn by fixed relative
// weights: partition 3, device crash 2, replica crash 2, wedge 1, link
// degrade 2; a kind with no eligible target (e.g. partitions on a
// 1-device cluster) drops out.
//
// Every episode heals itself, and nothing is scheduled inside the
// final `quiet_tail` of the horizon: by the end of a run the cluster
// has had time to converge, which is what the InvariantChecker's
// convergence pass asserts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/fault_injector.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace vp::sim {

struct ChaosOptions {
  /// Total run length the schedule covers, from Arm() time.
  Duration horizon = Duration::Seconds(60);
  /// No episode starts (or is still active) inside the last
  /// `quiet_tail` of the horizon — convergence headroom.
  Duration quiet_tail = Duration::Seconds(10);
  /// Devices never crashed and always kept on the majority side of a
  /// partition (the controller must stay able to coordinate, or every
  /// episode is just "no recovery happens").
  std::vector<std::string> protected_devices;
};

struct ChaosEpisode {
  enum class Kind {
    kPartition,
    kDeviceCrash,
    kReplicaCrash,
    kWedge,
    kLinkDegrade,
  };
  Kind kind;
  TimePoint at;
  Duration duration;
  /// Human-readable target ("phone|tv vs desktop", "nuc", …).
  std::string detail;
};

const char* ChaosEpisodeKindName(ChaosEpisode::Kind kind);

class ChaosSchedule {
 public:
  /// Targets are taken from the injector's registered devices and
  /// replicas, so register everything before calling Arm().
  ChaosSchedule(Simulator* sim, FaultInjector* injector, uint64_t seed,
                ChaosOptions options = {});

  /// Draw the whole timeline and schedule every episode (and its heal)
  /// on the injector. Call once.
  Status Arm();

  const std::vector<ChaosEpisode>& episodes() const { return episodes_; }
  const ChaosOptions& options() const { return options_; }

  /// One line per episode, for logging a failing seed's timeline.
  std::string Describe() const;

 private:
  Duration DrawBetween(Duration lo, Duration hi);
  void ArmEpisode(const ChaosEpisode& episode,
                  const std::vector<std::string>& groups_a,
                  const std::vector<std::string>& groups_b);

  Simulator* sim_;
  FaultInjector* injector_;
  Rng rng_;
  ChaosOptions options_;
  bool armed_ = false;
  std::vector<ChaosEpisode> episodes_;
};

}  // namespace vp::sim
