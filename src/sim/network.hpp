// Simulated home Wi-Fi network.
//
// Point-to-point links between devices with propagation latency,
// serialization bandwidth and optional Gaussian jitter. Per-link FIFO:
// a message starts serializing when the link's transmit queue frees
// up, so big frames back-to-back queue behind each other exactly like
// packets on a shared medium. Intra-device "loopback" delivery costs a
// fixed small IPC delay.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace vp::sim {

struct LinkSpec {
  /// One-way propagation latency.
  Duration latency = Duration::Millis(2.0);
  /// Serialization bandwidth in bits per second.
  double bandwidth_bps = 80e6;  // typical effective home Wi-Fi
  /// Gaussian jitter stddev added to latency (truncated at 0).
  Duration jitter = Duration::Millis(0.4);
  /// Packet loss probability per message (messages are redelivered by
  /// the transport after a retransmit timeout, modeled as +RTT).
  double loss = 0.0;
  /// Probability a delivered message arrives twice (duplicate ACK /
  /// retransmit race). The duplicate lands shortly after the original.
  double duplicate = 0.0;
  /// Probability a message is held back and delivered out of order,
  /// `reorder_delay` after its natural arrival time.
  double reorder = 0.0;
  Duration reorder_delay = Duration::Millis(8.0);
  /// Probability the payload arrives bit-flipped (caught by the
  /// message checksum at the endpoint and dropped there).
  double corrupt = 0.0;
};

struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t retransmits = 0;
  /// Messages dropped because the sender or receiver device was down
  /// (at send time or — for the receiver — at delivery time).
  uint64_t device_drops = 0;
  /// Messages dropped because sender and receiver were in different
  /// partition groups (at send or delivery time).
  uint64_t partition_drops = 0;
  /// Extra copies delivered by the duplication knob.
  uint64_t duplicates_delivered = 0;
  /// Messages delivered late (out of order) by the reorder knob.
  uint64_t reorders = 0;
};

class Network {
 public:
  Network(Simulator* sim, uint64_t seed);

  /// Default link used for device pairs without an explicit entry.
  void set_default_link(LinkSpec spec) { default_link_ = spec; }

  /// Configure the (directed) link a → b. Call twice for symmetry or
  /// use SetSymmetricLink.
  void SetLink(const std::string& a, const std::string& b, LinkSpec spec);
  void SetSymmetricLink(const std::string& a, const std::string& b,
                        LinkSpec spec);

  /// Current spec of the (directed) link from → to (the default link
  /// when no explicit entry exists). Fault injection reads this to
  /// restore a degraded link exactly.
  const LinkSpec& link(const std::string& from, const std::string& to) const {
    return SpecFor(from, to);
  }

  /// IPC delay for same-device delivery.
  void set_loopback_delay(Duration d) { loopback_delay_ = d; }
  Duration loopback_delay() const { return loopback_delay_; }

  /// Liveness oracle: returns whether the named device is up. When set
  /// (the Cluster wires it to Device::up()), messages from or to a down
  /// device are silently dropped — a dead radio neither transmits nor
  /// receives. Without a check every device counts as up.
  using LivenessCheck = std::function<bool(const std::string&)>;
  void set_liveness_check(LivenessCheck check) {
    liveness_check_ = std::move(check);
  }

  /// Deliver `bytes` from device `from` to device `to`; `on_delivery`
  /// fires at the receiver when the last byte arrives. Returns the
  /// delivery time. Corrupted copies are silently dropped at this
  /// layer; duplicates fire `on_delivery` more than once.
  TimePoint Send(const std::string& from, const std::string& to,
                 size_t bytes, Task on_delivery);

  /// Per-delivery fault annotations, for endpoints that model their
  /// own integrity/dedup layer (the fabric).
  struct Delivery {
    bool corrupted = false;  // payload failed its checksum
    bool duplicate = false;  // extra copy minted by the network
  };
  using DeliveryTask = std::function<void(const Delivery&)>;

  /// Like Send, but hands fault annotations to the receiver instead of
  /// filtering corrupted copies. Every arriving copy (original,
  /// duplicate, corrupted) invokes the task.
  TimePoint SendTagged(const std::string& from, const std::string& to,
                       size_t bytes, DeliveryTask on_delivery);

  /// At-least-once delivery: retries with a fixed timeout until one
  /// copy arrives uncorrupted at a live, reachable receiver, give or
  /// take a bounded number of attempts. Control-plane transfers
  /// (checkpoint restore shipping) use this to survive transient
  /// partitions; the receiver must tolerate duplicates.
  void SendReliable(const std::string& from, const std::string& to,
                    size_t bytes, Task on_delivery);

  /// Split the cluster into isolated groups: messages between devices
  /// in different groups are dropped (counted as partition_drops).
  /// Devices not named in any group form one implicit extra group.
  /// Deterministic — no randomness involved.
  void Partition(const std::vector<std::vector<std::string>>& groups);
  /// Remove the partition; all links carry traffic again.
  void Heal();
  bool partitioned() const { return !partition_group_.empty(); }
  /// True when a message from → to would pass the partition filter.
  bool Reachable(const std::string& from, const std::string& to) const;

  /// Predicted one-way delay for a message of `bytes` on an idle link
  /// (no queueing, no jitter) — used by placement heuristics.
  Duration EstimateDelay(const std::string& from, const std::string& to,
                         size_t bytes) const;

  const NetworkStats& stats() const { return stats_; }

 private:
  struct LinkState {
    LinkSpec spec;
    TimePoint tx_free;  // when the transmitter finishes current sends
  };

  const LinkSpec& SpecFor(const std::string& from,
                          const std::string& to) const;
  LinkState& StateFor(const std::string& from, const std::string& to);
  bool DeviceUp(const std::string& name) const {
    return !liveness_check_ || liveness_check_(name);
  }

  Simulator* sim_;
  Rng rng_;
  LivenessCheck liveness_check_;
  LinkSpec default_link_;
  Duration loopback_delay_ = Duration::Micros(150);
  std::map<std::pair<std::string, std::string>, LinkState> links_;
  /// device → partition group id; empty map = no partition. Devices
  /// absent from the map belong to implicit group -1.
  std::map<std::string, int> partition_group_;
  NetworkStats stats_;
};

}  // namespace vp::sim
