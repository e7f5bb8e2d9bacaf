// Tests for pipeline configuration parsing + validation (the paper's
// Listing-1 schema).
#include <gtest/gtest.h>

#include "apps/fitness.hpp"
#include "core/config.hpp"

namespace vp::core {
namespace {

ScriptResolver EmptyResolver() {
  return [](const std::string& include) -> Result<std::string> {
    return std::string("function event_received(msg) {} // " + include);
  };
}

const char* kMinimalConfig = R"CFG({
  "name": "mini",
  "source": { "module": "src", "fps": 10, "width": 64, "height": 48 },
  "modules": [
    { "name": "src", "type": "source", "next_module": ["sink"] },
    { "name": "sink", "code": "function event_received(m) {}",
      "signal_source": true }
  ]
})CFG";

TEST(Config, ParsesMinimalPipeline) {
  auto spec = ParsePipelineConfigText(kMinimalConfig, EmptyResolver());
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->name, "mini");
  EXPECT_DOUBLE_EQ(spec->source.fps, 10.0);
  EXPECT_EQ(spec->source.width, 64);
  EXPECT_EQ(spec->modules.size(), 2u);
  EXPECT_EQ(spec->FindModule("src")->type, ModuleType::kSource);
  EXPECT_TRUE(spec->FindModule("sink")->signal_source);
  EXPECT_EQ(spec->FindModule("nope"), nullptr);
}

TEST(Config, ParsesRolloutBlock) {
  const std::string with_rollout = std::string(R"CFG({
  "name": "mini",
  "rollout": { "canary_fraction": 0.5, "traffic_share": 0.4,
               "decision_window_ms": 3000, "min_probes": 12,
               "accuracy_margin": 0.05 },
  "source": { "module": "src", "fps": 10, "width": 64, "height": 48 },
  "modules": [
    { "name": "src", "type": "source", "next_module": ["sink"] },
    { "name": "sink", "code": "function event_received(m) {}",
      "signal_source": true }
  ]
})CFG");
  auto spec = ParsePipelineConfigText(with_rollout, EmptyResolver());
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  ASSERT_TRUE(spec->rollout.has_value());
  EXPECT_DOUBLE_EQ(spec->rollout->canary_fraction, 0.5);
  EXPECT_DOUBLE_EQ(spec->rollout->traffic_share, 0.4);
  EXPECT_DOUBLE_EQ(spec->rollout->decision_window.millis(), 3000.0);
  EXPECT_EQ(spec->rollout->min_probes, 12);
  EXPECT_DOUBLE_EQ(spec->rollout->accuracy_margin, 0.05);
  // Unspecified knobs keep their defaults.
  EXPECT_DOUBLE_EQ(spec->rollout->latency_inflation,
                   modelreg::RolloutPolicy{}.latency_inflation);

  // No rollout block → no policy override.
  auto plain = ParsePipelineConfigText(kMinimalConfig, EmptyResolver());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->rollout.has_value());

  // An out-of-range knob is rejected at parse time.
  const std::string bad = std::string(R"CFG({
  "name": "mini",
  "rollout": { "canary_fraction": 1.5 },
  "source": { "module": "src", "fps": 10, "width": 64, "height": 48 },
  "modules": [
    { "name": "src", "type": "source", "next_module": ["sink"] },
    { "name": "sink", "code": "function event_received(m) {}",
      "signal_source": true }
  ]
})CFG");
  EXPECT_FALSE(ParsePipelineConfigText(bad, EmptyResolver()).ok());
}

TEST(Config, ParsesThePaperStyleFitnessConfig) {
  auto spec = apps::fitness::Spec();
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->name, "fitness");
  EXPECT_EQ(spec->modules.size(), 5u);

  const ModuleSpec* pose = spec->FindModule("pose_detection_module");
  ASSERT_NE(pose, nullptr);
  EXPECT_EQ(pose->services, (std::vector<std::string>{"pose_detector"}));
  EXPECT_EQ(pose->endpoint.port, 5861);
  EXPECT_EQ(pose->endpoint.mode, net::EndpointMode::kBind);
  EXPECT_EQ(pose->next_modules,
            (std::vector<std::string>{"activity_detector_module"}));
  EXPECT_FALSE(pose->code.empty());
  EXPECT_EQ(pose->include, "PoseDetectionModule.js");

  // The Listing-1 fan-out: activity → {rep counter, display}.
  const ModuleSpec* activity = spec->FindModule("activity_detector_module");
  ASSERT_NE(activity, nullptr);
  EXPECT_EQ(activity->next_modules,
            (std::vector<std::string>{"rep_counter_module",
                                      "display_module"}));
}

TEST(Config, ServiceScalarShorthand) {
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "p",
    "modules": [
      { "name": "src", "type": "source", "next_module": "sink" },
      { "name": "sink", "code": "1;", "service": "display",
        "signal_source": true }
    ]
  })CFG",
                                      EmptyResolver());
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  EXPECT_EQ(spec->FindModule("sink")->services,
            (std::vector<std::string>{"display"}));
  EXPECT_EQ(spec->FindModule("src")->next_modules,
            (std::vector<std::string>{"sink"}));
  // source.module defaulted from the unique source module.
  EXPECT_EQ(spec->source.module, "src");
}

TEST(Config, ResolverFailureSurfaces) {
  auto failing = [](const std::string& include) -> Result<std::string> {
    return NotFound("no file " + include);
  };
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "p",
    "modules": [
      { "name": "src", "type": "source", "next_module": ["m"] },
      { "name": "m", "include": "Missing.js", "signal_source": true }
    ]
  })CFG",
                                      failing);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.error().code(), StatusCode::kNotFound);
}

struct BadConfigCase {
  const char* label;
  const char* text;
};

class BadConfig : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(BadConfig, IsRejected) {
  auto spec = ParsePipelineConfigText(GetParam().text, EmptyResolver());
  EXPECT_FALSE(spec.ok()) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Validation, BadConfig,
    ::testing::Values(
        BadConfigCase{"no modules", R"({"name":"p","modules":[]})"},
        BadConfigCase{"duplicate names", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true},
          {"name":"a","code":"1;"}]})"},
        BadConfigCase{"unknown edge target", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["ghost"]},
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"self edge", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true,
           "next_module":["a"]}]})"},
        BadConfigCase{"cycle", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","next_module":["b"],"signal_source":true},
          {"name":"b","code":"1;","next_module":["a"]}]})"},
        BadConfigCase{"no source module", R"({"name":"p","modules":[
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"two source modules", R"({"name":"p","modules":[
          {"name":"s1","type":"source","next_module":["a"]},
          {"name":"s2","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"no sink", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;"}]})"},
        BadConfigCase{"sink unreachable", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":[]},
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"script module without code",
                      R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","signal_source":true}]})"},
        BadConfigCase{"bad endpoint", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true,
           "endpoint":"tcp-five"}]})"},
        BadConfigCase{"duplicate ports", R"({"name":"p","modules":[
          {"name":"src","type":"source","next_module":["a"],
           "endpoint":"bind#tcp://*:7000"},
          {"name":"a","code":"1;","signal_source":true,
           "endpoint":"bind#tcp://*:7000"}]})"},
        BadConfigCase{"negative fps", R"({"name":"p",
          "source":{"fps":-5},
          "modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"unknown module type", R"({"name":"p","modules":[
          {"name":"src","type":"quantum","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"unnamed pipeline", R"({"modules":[
          {"name":"src","type":"source","next_module":["a"]},
          {"name":"a","code":"1;","signal_source":true}]})"},
        BadConfigCase{"not json", "pipeline: fitness"}));

TEST(Config, DiamondTopologyIsValid) {
  // src → a → {b, c} → d : a DAG with a join, no cycles.
  auto spec = ParsePipelineConfigText(R"CFG({
    "name": "diamond",
    "modules": [
      {"name":"src","type":"source","next_module":["a"]},
      {"name":"a","code":"1;","next_module":["b","c"]},
      {"name":"b","code":"1;","next_module":["d"]},
      {"name":"c","code":"1;","next_module":["d"]},
      {"name":"d","code":"1;","signal_source":true}
    ]
  })CFG",
                                      EmptyResolver());
  EXPECT_TRUE(spec.ok()) << (spec.ok() ? "" : spec.error().ToString());
}

TEST(Config, MapResolverLooksUpSources) {
  auto resolver = MapResolver({{"A.js", "var a = 1;"}});
  auto found = resolver("A.js");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, "var a = 1;");
  EXPECT_FALSE(resolver("B.js").ok());
}

TEST(Config, ValidateSpecDirectly) {
  PipelineSpec spec;
  spec.name = "built-programmatically";
  spec.source.module = "cam";
  ModuleSpec cam;
  cam.name = "cam";
  cam.type = ModuleType::kSource;
  cam.next_modules = {"out"};
  ModuleSpec out;
  out.name = "out";
  out.code = "function event_received(m) {}";
  out.signal_source = true;
  spec.modules = {cam, out};
  EXPECT_TRUE(ValidatePipelineSpec(spec).ok());

  // Source size: 1..65535 on each axis.
  for (int bad : {0, -1, 65536}) {
    spec.source.width = bad;
    EXPECT_FALSE(ValidatePipelineSpec(spec).ok()) << "width " << bad;
    spec.source.width = 320;
    spec.source.height = bad;
    EXPECT_FALSE(ValidatePipelineSpec(spec).ok()) << "height " << bad;
    spec.source.height = 240;
  }
  spec.source.width = 65535;
  spec.source.height = 1;
  EXPECT_TRUE(ValidatePipelineSpec(spec).ok());

  spec.source.module = "out";
  EXPECT_FALSE(ValidatePipelineSpec(spec).ok());
}

// The codec carries the frame size in u16 fields, and a negative size
// would wrap into a huge image allocation.
std::string ConfigWithSourceSize(const std::string& width,
                                 const std::string& height) {
  return R"CFG({
  "name": "mini",
  "source": { "module": "src", "fps": 10, "width": )CFG" +
         width + R"CFG(, "height": )CFG" + height + R"CFG( },
  "modules": [
    { "name": "src", "type": "source", "next_module": ["sink"] },
    { "name": "sink", "code": "function event_received(m) {}",
      "signal_source": true }
  ]
})CFG";
}

TEST(Config, SourceSizeBounds) {
  for (const char* ok : {"1", "320", "65535"}) {
    auto spec = ParsePipelineConfigText(ConfigWithSourceSize(ok, ok),
                                        EmptyResolver());
    EXPECT_TRUE(spec.ok()) << ok << ": " << spec.error().ToString();
  }
  // Each bound, on each axis; 4294967616 would wrap to 320 as an int.
  for (const char* bad : {"0", "-1", "-240", "65536", "4294967616"}) {
    EXPECT_FALSE(ParsePipelineConfigText(ConfigWithSourceSize(bad, "240"),
                                         EmptyResolver())
                     .ok())
        << "width " << bad;
    EXPECT_FALSE(ParsePipelineConfigText(ConfigWithSourceSize("320", bad),
                                         EmptyResolver())
                     .ok())
        << "height " << bad;
  }
}

}  // namespace
}  // namespace vp::core
