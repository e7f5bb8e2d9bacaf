#include "sim/chaos.hpp"

#include <algorithm>
#include <array>

#include "common/log.hpp"
#include "common/strings.hpp"

namespace vp::sim {
namespace {

/// Idle gap between consecutive episodes, drawn uniformly.
constexpr Duration kMinGap = Duration::Millis(600);
constexpr Duration kMaxGap = Duration::Seconds(3);
/// Episode length, drawn uniformly.
constexpr Duration kMinDuration = Duration::Millis(400);
constexpr Duration kMaxDuration = Duration::Seconds(2);

/// Relative weight of each episode kind, in draw order.
struct KindWeight {
  ChaosEpisode::Kind kind;
  double weight;
};
constexpr std::array<KindWeight, 5> kKindWeights = {{
    {ChaosEpisode::Kind::kPartition, 3.0},
    {ChaosEpisode::Kind::kDeviceCrash, 2.0},
    {ChaosEpisode::Kind::kReplicaCrash, 2.0},
    {ChaosEpisode::Kind::kWedge, 1.0},
    {ChaosEpisode::Kind::kLinkDegrade, 2.0},
}};

/// Link spec applied during a link-degrade episode: lossy, jittery
/// and adversarial (duplicates, reorders, corrupts).
constexpr LinkSpec kDegradedLink{.latency = Duration::Millis(40),
                                 .bandwidth_bps = 20e6,
                                 .jitter = Duration::Millis(15),
                                 .loss = 0.10,
                                 .duplicate = 0.08,
                                 .reorder = 0.08,
                                 .corrupt = 0.05};

}  // namespace

const char* ChaosEpisodeKindName(ChaosEpisode::Kind kind) {
  switch (kind) {
    case ChaosEpisode::Kind::kPartition: return "partition";
    case ChaosEpisode::Kind::kDeviceCrash: return "device_crash";
    case ChaosEpisode::Kind::kReplicaCrash: return "replica_crash";
    case ChaosEpisode::Kind::kWedge: return "wedge";
    case ChaosEpisode::Kind::kLinkDegrade: return "link_degrade";
  }
  return "unknown";
}

ChaosSchedule::ChaosSchedule(Simulator* sim, FaultInjector* injector,
                             uint64_t seed, ChaosOptions options)
    : sim_(sim), injector_(injector), rng_(seed),
      options_(std::move(options)) {}

Duration ChaosSchedule::DrawBetween(Duration lo, Duration hi) {
  return lo + (hi - lo) * rng_.NextDouble();
}

Status ChaosSchedule::Arm() {
  if (armed_) {
    return Status(StatusCode::kFailedPrecondition,
                  "chaos schedule already armed");
  }
  armed_ = true;

  const std::vector<std::string> devices = injector_->device_labels();
  const std::vector<std::string> replicas = injector_->replica_labels();
  std::vector<std::string> crashable;  // devices we may power-cycle
  for (const std::string& name : devices) {
    const bool is_protected =
        std::find(options_.protected_devices.begin(),
                  options_.protected_devices.end(),
                  name) != options_.protected_devices.end();
    if (!is_protected) crashable.push_back(name);
  }

  // Episode kinds with at least one eligible target. A partition needs
  // two sides; a link degrade needs two endpoints.
  auto eligible = [&](ChaosEpisode::Kind kind) {
    switch (kind) {
      case ChaosEpisode::Kind::kPartition:
        return devices.size() >= 2 && !crashable.empty();
      case ChaosEpisode::Kind::kDeviceCrash:
        return !crashable.empty();
      case ChaosEpisode::Kind::kReplicaCrash:
      case ChaosEpisode::Kind::kWedge:
        return !replicas.empty();
      case ChaosEpisode::Kind::kLinkDegrade:
        return devices.size() >= 2;
    }
    return false;
  };
  std::vector<KindWeight> kinds;
  for (const KindWeight& entry : kKindWeights) {
    if (eligible(entry.kind)) kinds.push_back(entry);
  }
  if (kinds.empty()) {
    return Status(StatusCode::kFailedPrecondition,
                  "no eligible chaos targets registered");
  }
  double total_weight = 0;
  for (const KindWeight& entry : kinds) total_weight += entry.weight;

  const TimePoint start = sim_->Now();
  const TimePoint last_heal = start + options_.horizon - options_.quiet_tail;
  TimePoint cursor = start + DrawBetween(kMinGap, kMaxGap);

  // Sequential, non-overlapping episodes: each one ends (heals) before
  // the next begins, and everything heals by `last_heal`.
  while (true) {
    const Duration duration = DrawBetween(kMinDuration, kMaxDuration);
    if (cursor + duration > last_heal) break;

    double roll = rng_.NextDouble() * total_weight;
    ChaosEpisode::Kind kind = kinds.back().kind;
    for (const KindWeight& entry : kinds) {
      if (roll < entry.weight) {
        kind = entry.kind;
        break;
      }
      roll -= entry.weight;
    }

    ChaosEpisode episode{kind, cursor, duration, ""};
    std::vector<std::string> side_a;
    std::vector<std::string> side_b;
    switch (kind) {
      case ChaosEpisode::Kind::kPartition: {
        // Random bipartition. Protected devices (the controller) stay
        // together on side A; every other device flips a fair coin.
        side_a = options_.protected_devices;
        for (const std::string& name : crashable) {
          (rng_.NextBool(0.5) ? side_a : side_b).push_back(name);
        }
        if (side_b.empty()) {  // degenerate draw: force a real split
          side_b.push_back(side_a.back());
          side_a.pop_back();
        }
        if (side_a.empty()) {
          side_a.push_back(side_b.back());
          side_b.pop_back();
        }
        episode.detail = Join(side_a, "|") + " vs " + Join(side_b, "|");
        break;
      }
      case ChaosEpisode::Kind::kDeviceCrash:
        episode.detail = crashable[static_cast<size_t>(
            rng_.NextInt(0, static_cast<int64_t>(crashable.size()) - 1))];
        break;
      case ChaosEpisode::Kind::kReplicaCrash:
      case ChaosEpisode::Kind::kWedge:
        episode.detail = replicas[static_cast<size_t>(
            rng_.NextInt(0, static_cast<int64_t>(replicas.size()) - 1))];
        break;
      case ChaosEpisode::Kind::kLinkDegrade: {
        const size_t a = static_cast<size_t>(
            rng_.NextInt(0, static_cast<int64_t>(devices.size()) - 1));
        size_t b = static_cast<size_t>(
            rng_.NextInt(0, static_cast<int64_t>(devices.size()) - 2));
        if (b >= a) ++b;
        episode.detail = devices[a] + "<->" + devices[b];
        break;
      }
    }
    ArmEpisode(episode, side_a, side_b);
    episodes_.push_back(std::move(episode));
    cursor = cursor + duration + DrawBetween(kMinGap, kMaxGap);
  }

  VP_INFO("chaos") << "armed " << episodes_.size() << " episodes over "
                   << options_.horizon.seconds() << " s (quiet tail "
                   << options_.quiet_tail.seconds() << " s)";
  return Status::Ok();
}

void ChaosSchedule::ArmEpisode(const ChaosEpisode& episode,
                               const std::vector<std::string>& side_a,
                               const std::vector<std::string>& side_b) {
  switch (episode.kind) {
    case ChaosEpisode::Kind::kPartition:
      injector_->SchedulePartition({side_a, side_b}, episode.at,
                                   episode.duration);
      break;
    case ChaosEpisode::Kind::kDeviceCrash:
      (void)injector_->ScheduleDeviceCrash(episode.detail, episode.at,
                                           episode.duration);
      break;
    case ChaosEpisode::Kind::kReplicaCrash:
      (void)injector_->ScheduleCrash(episode.detail, episode.at,
                                     episode.duration);
      break;
    case ChaosEpisode::Kind::kWedge:
      (void)injector_->ScheduleWedge(episode.detail, episode.at,
                                     episode.duration);
      break;
    case ChaosEpisode::Kind::kLinkDegrade: {
      const size_t split = episode.detail.find("<->");
      injector_->ScheduleLinkFault(episode.detail.substr(0, split),
                                   episode.detail.substr(split + 3),
                                   episode.at, episode.duration,
                                   kDegradedLink);
      break;
    }
  }
}

std::string ChaosSchedule::Describe() const {
  std::string out;
  for (const ChaosEpisode& episode : episodes_) {
    out += Format("  t=%8.1f ms  %-13s %-32s for %.0f ms\n",
                  episode.at.millis(), ChaosEpisodeKindName(episode.kind),
                  episode.detail.c_str(), episode.duration.millis());
  }
  return out;
}

}  // namespace vp::sim
