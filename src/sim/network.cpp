#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace vp::sim {

Network::Network(Simulator* sim, uint64_t seed) : sim_(sim), rng_(seed) {}

void Network::SetLink(const std::string& a, const std::string& b,
                      LinkSpec spec) {
  links_[{a, b}] = LinkState{spec, TimePoint()};
}

void Network::SetSymmetricLink(const std::string& a, const std::string& b,
                               LinkSpec spec) {
  SetLink(a, b, spec);
  SetLink(b, a, spec);
}

const LinkSpec& Network::SpecFor(const std::string& from,
                                 const std::string& to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? default_link_ : it->second.spec;
}

Network::LinkState& Network::StateFor(const std::string& from,
                                      const std::string& to) {
  auto it = links_.find({from, to});
  if (it == links_.end()) {
    it = links_.emplace(std::make_pair(from, to),
                        LinkState{default_link_, TimePoint()})
             .first;
  }
  return it->second;
}

void Network::Partition(const std::vector<std::vector<std::string>>& groups) {
  partition_group_.clear();
  int id = 0;
  for (const auto& group : groups) {
    for (const auto& device : group) partition_group_[device] = id;
    ++id;
  }
  // All groups empty → no partition at all (Heal semantics).
}

void Network::Heal() { partition_group_.clear(); }

bool Network::Reachable(const std::string& from, const std::string& to) const {
  if (partition_group_.empty() || from == to) return true;
  auto it_from = partition_group_.find(from);
  auto it_to = partition_group_.find(to);
  const int gf = it_from == partition_group_.end() ? -1 : it_from->second;
  const int gt = it_to == partition_group_.end() ? -1 : it_to->second;
  return gf == gt;
}

TimePoint Network::Send(const std::string& from, const std::string& to,
                        size_t bytes, Task on_delivery) {
  // Plain sends keep the historical contract: a corrupted copy simply
  // never arrives (the transport's checksum eats it) and a duplicate
  // fires the task again.
  return SendTagged(from, to, bytes,
                    [task = std::move(on_delivery)](const Delivery& d) {
                      if (d.corrupted) return;
                      if (task) task();
                    });
}

TimePoint Network::SendTagged(const std::string& from, const std::string& to,
                              size_t bytes, DeliveryTask on_delivery) {
  // Every device on this network lives on this network's simulator —
  // on the parallel fleet engine, that is the owning home's shard.
  // Intra-home traffic must never cross shards: a send from a foreign
  // shard's thread would race the owning shard's event loop.
  assert(sim_->InOwningContext() &&
         "intra-home send scheduled from a foreign shard");
  // A dead device neither transmits nor receives: drop at send time…
  if (!DeviceUp(from) || !DeviceUp(to)) {
    ++stats_.device_drops;
    return sim_->Now();
  }
  // …and a partitioned link carries nothing.
  if (!Reachable(from, to)) {
    ++stats_.partition_drops;
    return sim_->Now();
  }
  // Re-check receiver liveness and reachability at delivery time, so a
  // message in flight when its destination dies — or when the
  // partition lands — is lost with it.
  auto shared_task =
      std::make_shared<DeliveryTask>(std::move(on_delivery));
  auto deliver = [this, from, to, shared_task](Delivery note) {
    return [this, from, to, shared_task, note]() {
      if (!DeviceUp(to)) {
        ++stats_.device_drops;
        return;
      }
      if (!Reachable(from, to)) {
        ++stats_.partition_drops;
        return;
      }
      if (*shared_task) (*shared_task)(note);
    };
  };

  ++stats_.messages;
  stats_.bytes += bytes;

  if (from == to) {
    const TimePoint at = sim_->Now() + loopback_delay_;
    sim_->At(at, deliver(Delivery{}));
    return at;
  }

  LinkState& link = StateFor(from, to);
  const LinkSpec& spec = link.spec;

  // Serialization: FIFO per link transmitter.
  const Duration tx_time =
      Duration::Seconds(static_cast<double>(bytes) * 8.0 / spec.bandwidth_bps);
  const TimePoint tx_start = std::max(sim_->Now(), link.tx_free);
  TimePoint tx_end = tx_start + tx_time;
  link.tx_free = tx_end;

  // Propagation + jitter.
  Duration lat = spec.latency;
  if (spec.jitter > Duration::Zero()) {
    const double j = rng_.NextGaussian(0.0, spec.jitter.millis());
    lat += Duration::Millis(std::max(j, -lat.millis() * 0.9));
  }

  // Loss → retransmit after one RTT (simplified ARQ). Rounds are
  // capped so a fully-dead link (loss = 1.0) degrades to a very late
  // delivery instead of an unbounded loop.
  constexpr int kMaxRetransmits = 16;
  for (int round = 0;
       round < kMaxRetransmits && spec.loss > 0.0 && rng_.NextBool(spec.loss);
       ++round) {
    ++stats_.retransmits;
    tx_end = tx_end + spec.latency * 2.0 + tx_time;
    link.tx_free = tx_end;
  }

  TimePoint at = tx_end + lat;

  // Adversarial-delivery knobs. Each knob's RNG draw is guarded on its
  // probability so default (all-zero) links consume exactly the same
  // random sequence as before these knobs existed.
  Delivery note;
  if (spec.reorder > 0.0 && rng_.NextBool(spec.reorder)) {
    ++stats_.reorders;
    at = at + spec.reorder_delay;
  }
  if (spec.corrupt > 0.0 && rng_.NextBool(spec.corrupt)) {
    ++stats_.corruptions;
    note.corrupted = true;
  }
  if (spec.duplicate > 0.0 && rng_.NextBool(spec.duplicate)) {
    ++stats_.duplicates_delivered;
    Delivery dup_note = note;
    dup_note.duplicate = true;
    // The duplicate trails the original by roughly one propagation
    // delay (a retransmit-race copy).
    sim_->At(at + spec.latency, deliver(dup_note));
  }

  sim_->At(at, deliver(note));
  return at;
}

void Network::SendReliable(const std::string& from, const std::string& to,
                           size_t bytes, Task on_delivery) {
  // End-to-end ARQ above the link layer: resend on a fixed timeout
  // until one uncorrupted copy lands, bounded so a permanently dead
  // destination cannot spin forever. The receiver sees at-least-once
  // delivery; exactly-once is the endpoint's job (the state-transfer
  // handlers are idempotent).
  constexpr int kMaxAttempts = 64;
  const Duration kRetryTimeout = Duration::Millis(200.0);
  auto state = std::make_shared<bool>(false);  // delivered yet?
  auto task = std::make_shared<Task>(std::move(on_delivery));
  auto attempt = std::make_shared<std::function<void(int)>>();
  // The retry loop refers to itself weakly: the pending retry timer
  // holds the only strong reference, so the loop is freed once it stops.
  std::weak_ptr<std::function<void(int)>> self = attempt;
  *attempt = [this, from, to, bytes, state, task, self, kRetryTimeout](
                 int tries_left) {
    if (*state || tries_left <= 0) return;
    SendTagged(from, to, bytes,
               [state, task](const Delivery& d) {
                 if (d.corrupted || *state) return;
                 *state = true;
                 if (*task) (*task)();
               });
    sim_->After(kRetryTimeout, [state, retry = self.lock(), tries_left]() {
      if (!*state) (*retry)(tries_left - 1);
    });
  };
  (*attempt)(kMaxAttempts);
}

Duration Network::EstimateDelay(const std::string& from, const std::string& to,
                                size_t bytes) const {
  if (from == to) return loopback_delay_;
  const LinkSpec& spec = SpecFor(from, to);
  return spec.latency + Duration::Seconds(static_cast<double>(bytes) * 8.0 /
                                          spec.bandwidth_bps);
}

}  // namespace vp::sim
