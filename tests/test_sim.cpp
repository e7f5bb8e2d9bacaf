// Tests for the discrete-event simulation kernel: event ordering,
// cancellation, execution lanes, the device model, and the Wi-Fi
// network model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cluster.hpp"
#include "sim/device.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace vp::sim {
namespace {

// ------------------------------------------------------------ Simulator

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(TimePoint::FromMicros(300), [&] { order.push_back(3); });
  sim.At(TimePoint::FromMicros(100), [&] { order.push_back(1); });
  sim.At(TimePoint::FromMicros(200), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(300));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(TimePoint::FromMicros(50), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  sim.After(Duration::Millis(5), [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.Now().millis(), 5.0);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  sim.After(Duration::Millis(10), [&sim] {
    // Scheduling in the past runs "immediately" (at current time).
    sim.At(TimePoint::FromMicros(0), [] {});
  });
  sim.RunUntilIdle();
  EXPECT_EQ(sim.Now().millis(), 10.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const uint64_t id = sim.After(Duration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(999));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.At(TimePoint::FromMicros(100), [&] { ++count; });
  sim.At(TimePoint::FromMicros(200), [&] { ++count; });
  sim.At(TimePoint::FromMicros(300), [&] { ++count; });
  sim.RunUntil(TimePoint::FromMicros(200));
  EXPECT_EQ(count, 2);  // events at exactly `until` run
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(200));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(TimePoint::FromMicros(5000));
  EXPECT_EQ(sim.Now(), TimePoint::FromMicros(5000));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.After(Duration::Millis(1), chain);
  };
  sim.After(Duration::Millis(1), chain);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now().millis(), 5.0);
  EXPECT_EQ(sim.executed_events(), 5u);
}

// ----------------------------------------------------------------- Lane

TEST(ExecutionLane, SerializesWork) {
  Simulator sim;
  ExecutionLane lane(&sim, "lane", 1.0);
  std::vector<double> completions;
  lane.Run(Duration::Millis(10), [&] { completions.push_back(sim.Now().millis()); });
  lane.Run(Duration::Millis(5), [&] { completions.push_back(sim.Now().millis()); });
  sim.RunUntilIdle();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 10.0);
  EXPECT_DOUBLE_EQ(completions[1], 15.0);  // queued behind the first
}

TEST(ExecutionLane, SpeedScalesCost) {
  Simulator sim;
  ExecutionLane slow(&sim, "phone", 0.5);
  double done = 0;
  slow.Run(Duration::Millis(10), [&] { done = sim.Now().millis(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(done, 20.0);  // 10 ms reference / 0.5 speed
}

TEST(ExecutionLane, BacklogTracksAdmittedWork) {
  Simulator sim;
  ExecutionLane lane(&sim, "lane", 1.0);
  lane.Run(Duration::Millis(10), nullptr);
  lane.Run(Duration::Millis(10), nullptr);
  EXPECT_EQ(lane.backlog(sim.Now()), 2);
  sim.RunUntil(TimePoint::FromMicros(10001));
  EXPECT_EQ(lane.backlog(sim.Now()), 1);
  sim.RunUntilIdle();
  EXPECT_EQ(lane.backlog(sim.Now()), 0);
}

TEST(ExecutionLane, AccumulatesBusyTime) {
  Simulator sim;
  ExecutionLane lane(&sim, "lane", 2.0);
  lane.Run(Duration::Millis(10), nullptr);  // 5 ms actual
  lane.Run(Duration::Millis(4), nullptr);   // 2 ms actual
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(lane.busy_time().millis(), 7.0);
  EXPECT_EQ(lane.tasks_run(), 2u);
}

// --------------------------------------------------------------- Device

TEST(Device, SpecCapabilities) {
  DeviceSpec spec;
  spec.capabilities = {"camera", "display"};
  EXPECT_TRUE(spec.HasCapability("camera"));
  EXPECT_FALSE(spec.HasCapability("gpu"));
}

TEST(Device, ContainerLaneAllocation) {
  Simulator sim;
  DeviceSpec spec;
  spec.name = "desktop";
  spec.supports_containers = true;
  spec.container_cores = 2;
  Device device(&sim, spec);

  ExecutionLane* a = device.AllocateContainerLane("svc:a");
  ExecutionLane* b = device.AllocateContainerLane("svc:b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(device.AllocateContainerLane("svc:c"), nullptr);  // exhausted
  EXPECT_EQ(device.allocated_container_lanes(), 2);

  device.ReleaseContainerLane(a);
  EXPECT_EQ(device.allocated_container_lanes(), 1);
  EXPECT_NE(device.AllocateContainerLane("svc:c"), nullptr);
}

TEST(Device, NonContainerDeviceRefusesLanes) {
  Simulator sim;
  DeviceSpec spec;
  spec.name = "phone";
  spec.supports_containers = false;
  Device device(&sim, spec);
  EXPECT_EQ(device.AllocateContainerLane("svc"), nullptr);
}

// -------------------------------------------------------------- Network

TEST(Network, LatencyPlusSerialization) {
  Simulator sim;
  Network network(&sim, 1);
  LinkSpec link;
  link.latency = Duration::Millis(2);
  link.bandwidth_bps = 8e6;  // 1 MB/s → 1 KB = 1 ms
  link.jitter = Duration::Zero();
  network.SetSymmetricLink("a", "b", link);

  double delivered = -1;
  network.Send("a", "b", 1000, [&] { delivered = sim.Now().millis(); });
  sim.RunUntilIdle();
  EXPECT_NEAR(delivered, 3.0, 1e-9);  // 1 ms tx + 2 ms latency
}

TEST(Network, FifoPerLink) {
  Simulator sim;
  Network network(&sim, 1);
  LinkSpec link;
  link.latency = Duration::Millis(1);
  link.bandwidth_bps = 8e6;
  link.jitter = Duration::Zero();
  network.SetSymmetricLink("a", "b", link);

  std::vector<int> order;
  network.Send("a", "b", 4000, [&] { order.push_back(1); });  // 4 ms tx
  network.Send("a", "b", 1000, [&] { order.push_back(2); });  // queues
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(network.stats().messages, 2u);
  EXPECT_EQ(network.stats().bytes, 5000u);
}

TEST(Network, LoopbackIsFast) {
  Simulator sim;
  Network network(&sim, 1);
  double delivered = -1;
  network.Send("a", "a", 1 << 20, [&] { delivered = sim.Now().millis(); });
  sim.RunUntilIdle();
  EXPECT_LT(delivered, 1.0);  // IPC, not Wi-Fi
}

TEST(Network, JitterIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    Network network(&sim, seed);
    LinkSpec link;
    link.jitter = Duration::Millis(1);
    network.SetSymmetricLink("a", "b", link);
    std::vector<double> times;
    for (int i = 0; i < 10; ++i) {
      network.Send("a", "b", 100, [&] { times.push_back(sim.Now().millis()); });
    }
    sim.RunUntilIdle();
    return times;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Network, LossCausesRetransmitDelay) {
  Simulator sim;
  Network network(&sim, 3);
  LinkSpec lossy;
  lossy.latency = Duration::Millis(2);
  lossy.jitter = Duration::Zero();
  lossy.loss = 0.5;
  network.SetSymmetricLink("a", "b", lossy);

  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    network.Send("a", "b", 100, [&] { ++delivered; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 50);  // ARQ: everything arrives eventually
  EXPECT_GT(network.stats().retransmits, 10u);
}

TEST(Network, EstimateDelayMatchesIdleLink) {
  Simulator sim;
  Network network(&sim, 1);
  LinkSpec link;
  link.latency = Duration::Millis(2);
  link.bandwidth_bps = 8e6;
  link.jitter = Duration::Zero();
  network.SetSymmetricLink("a", "b", link);
  EXPECT_NEAR(network.EstimateDelay("a", "b", 1000).millis(), 3.0, 1e-9);
  EXPECT_LT(network.EstimateDelay("a", "a", 1000).millis(), 1.0);
}

// -------------------------------------------------------------- Cluster

TEST(Cluster, AddAndFindDevices) {
  Cluster cluster;
  DeviceSpec spec;
  spec.name = "phone";
  ASSERT_TRUE(cluster.AddDevice(spec).ok());
  EXPECT_NE(cluster.FindDevice("phone"), nullptr);
  EXPECT_EQ(cluster.FindDevice("tablet"), nullptr);
  EXPECT_FALSE(cluster.AddDevice(spec).ok());  // duplicate
}

TEST(Cluster, HomeTestbedShape) {
  auto cluster = MakeHomeTestbed();
  EXPECT_EQ(cluster->device_names(),
            (std::vector<std::string>{"phone", "desktop", "tv"}));
  EXPECT_FALSE(cluster->FindDevice("phone")->spec().supports_containers);
  EXPECT_TRUE(cluster->FindDevice("desktop")->spec().supports_containers);
  EXPECT_TRUE(cluster->FindDevice("phone")->spec().HasCapability("camera"));
  EXPECT_TRUE(cluster->FindDevice("tv")->spec().HasCapability("display"));
  EXPECT_EQ(cluster->container_devices().size(), 2u);
  // The phone is the slow device.
  EXPECT_LT(cluster->FindDevice("phone")->spec().cpu_speed,
            cluster->FindDevice("desktop")->spec().cpu_speed);
}

}  // namespace
}  // namespace vp::sim
