// Application-level integration tests: the gesture-control IoT app
// (§4.2) and the fall-detection app (§4.3) doing their actual jobs.
#include <gtest/gtest.h>

#include "apps/fall.hpp"
#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/orchestrator.hpp"
#include "invariants_hold.hpp"
#include "sim/cluster.hpp"

namespace vp::apps {
namespace {

using test_support::ExpectInvariantsHold;

TEST(GestureApp, ConfigParsesAndPlaces) {
  auto spec = gesture::Spec();
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->name, "gesture");
  EXPECT_EQ(spec->modules.size(), 4u);
  EXPECT_TRUE(spec->FindModule("iot_control_module")->signal_source);
}

TEST(GestureApp, ClapTogglesTheLightWaveTogglesTheDoorbell) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  IoTHub hub;
  auto spec = gesture::Spec();
  ASSERT_TRUE(spec.ok());
  auto args = gesture::MakeDeployArgs(hub, &cluster->simulator());
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  (*deployment)->Start();
  // The default gesture session: idle 3 s, wave ~5 s, idle, clap ~4 s.
  orchestrator.RunFor(Duration::Seconds(18));

  const IoTHub::DeviceState* light = hub.Find("living_room_light");
  const IoTHub::DeviceState* doorbell = hub.Find("doorbell_camera");
  ASSERT_NE(light, nullptr);
  ASSERT_NE(doorbell, nullptr);
  EXPECT_GE(doorbell->toggles, 1) << "wave should toggle the doorbell";
  EXPECT_GE(light->toggles, 1) << "clap should toggle the light";
  // The refractory period keeps a sustained gesture from re-firing
  // constantly.
  EXPECT_LE(light->toggles + doorbell->toggles, 8);

  // Command log entries carry timestamps inside the session.
  for (const IoTHub::Command& command : hub.log()) {
    EXPECT_GT(command.when.seconds(), 3.0);  // after the idle prefix
    EXPECT_LT(command.when.seconds(), 18.0);
  }
  ExpectInvariantsHold(orchestrator);
}

TEST(GestureApp, NoGesturesNoCommands) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  IoTHub hub;
  auto spec = gesture::Spec();
  auto args = gesture::MakeDeployArgs(hub, &cluster->simulator());
  auto idle = media::MotionScript::Make({{"idle", 20.0, {}}});
  args.workload = std::move(*idle);
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(15));
  EXPECT_TRUE(hub.log().empty());
  ExpectInvariantsHold(orchestrator);
}

TEST(FallApp, RaisesExactlyOneAlertAroundTheFall) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  fall::AlertLog log;
  auto spec = fall::Spec();
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  auto args = fall::MakeDeployArgs(log, &cluster->simulator());
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  (*deployment)->Start();
  // FallSession: idle 4 s, squat 6 s, idle 2 s, fall (starting ~14.4 s,
  // on the ground from ~16.2 s).
  orchestrator.RunFor(Duration::Seconds(20));

  ASSERT_EQ(log.alerts().size(), 1u) << "one fall, one alert";
  const fall::Alert& alert = log.alerts()[0];
  EXPECT_GT(alert.when.seconds(), 14.0);
  EXPECT_LT(alert.when.seconds(), 19.0);
  EXPECT_GT(alert.torso_angle_deg, 50.0);
  ExpectInvariantsHold(orchestrator);
}

TEST(FallApp, NoFallNoAlert) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  fall::AlertLog log;
  auto spec = fall::Spec();
  auto args = fall::MakeDeployArgs(log, &cluster->simulator());
  args.workload = apps::fitness::Workout();  // exercise, no fall
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok());
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(30));
  EXPECT_TRUE(log.alerts().empty())
      << "squats/lunges must not look like falls";
  ExpectInvariantsHold(orchestrator);
}

TEST(Apps, AllThreeConfigsShareThePoseDetector) {
  // fitness + gesture + fall on one cluster: one pose replica total.
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());

  core::Orchestrator::DeployArgs fitness_args;
  fitness_args.workload = fitness::Workout();
  ASSERT_TRUE(
      orchestrator.Deploy(*fitness::Spec(), std::move(fitness_args)).ok());

  IoTHub hub;
  ASSERT_TRUE(orchestrator
                  .Deploy(*gesture::Spec(),
                          gesture::MakeDeployArgs(hub, &cluster->simulator()))
                  .ok());

  fall::AlertLog log;
  ASSERT_TRUE(orchestrator
                  .Deploy(*fall::Spec(),
                          fall::MakeDeployArgs(log, &cluster->simulator()))
                  .ok());

  EXPECT_EQ(
      orchestrator.registry().Replicas("desktop", "pose_detector").size(),
      1u);
  EXPECT_EQ(orchestrator.pipelines().size(), 3u);

  orchestrator.StartAll();
  orchestrator.RunFor(Duration::Seconds(8));
  for (const auto& pipeline : orchestrator.pipelines()) {
    EXPECT_GT(pipeline->metrics().frames_completed(), 10u)
        << pipeline->spec().name;
  }
  ExpectInvariantsHold(orchestrator);
}

TEST(IoTHub, ExecuteSemantics) {
  IoTHub hub;
  hub.AddDevice("lamp");
  hub.Execute("lamp", "toggle", TimePoint::FromMicros(1));
  EXPECT_TRUE(hub.Find("lamp")->on);
  hub.Execute("lamp", "off", TimePoint::FromMicros(2));
  EXPECT_FALSE(hub.Find("lamp")->on);
  hub.Execute("lamp", "on", TimePoint::FromMicros(3));
  EXPECT_TRUE(hub.Find("lamp")->on);
  EXPECT_EQ(hub.Find("lamp")->toggles, 3);
  hub.Execute("ghost", "toggle", TimePoint::FromMicros(4));  // logged only
  EXPECT_EQ(hub.log().size(), 4u);
  EXPECT_EQ(hub.Find("ghost"), nullptr);
}

}  // namespace
}  // namespace vp::apps
