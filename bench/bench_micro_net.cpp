// Microbenchmarks: messaging + JSON + the DES kernel itself (events
// per second the simulator can process). The message hot paths run on
// the fitness pipeline's two largest service payloads.
#include <benchmark/benchmark.h>

#include "cv/pose_detector.hpp"
#include "cv/rep_counter.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "media/video_source.hpp"
#include "net/message.hpp"
#include "sim/cluster.hpp"

using namespace vp;

namespace {

// Poses detected on the first `n` frames of the default workout video.
std::vector<cv::DetectedPose> WorkoutPoses(int n) {
  const media::SyntheticVideoSource source(media::DefaultWorkoutScript(), 20.0);
  std::vector<cv::DetectedPose> poses;
  for (int seq = 0; seq < n; ++seq) {
    poses.push_back(cv::DetectPose(source, static_cast<uint64_t>(seq)));
  }
  return poses;
}

net::Message ServiceRequest(json::Value payload) {
  net::Message m("request", std::move(payload));
  m.set_sender("fitness/activity_detector_module");
  m.set_seq(42);
  return m;
}

// The activity_classifier request: a sliding window of 15 poses. Every
// service call ships its payload under the single-device plan
// (edgeeye_baseline), so each one is sized for the network.
net::Message ClassifierRequest() {
  json::Value payload = json::Value::MakeObject();
  for (const auto& pose : WorkoutPoses(15)) {
    payload["poses"].PushBack(pose.ToJson());
  }
  return ServiceRequest(std::move(payload));
}

// A rep_counter request: the fresh pose plus the counter's state with
// a full feature window.
net::Message RepCounterRequest() {
  const std::vector<cv::DetectedPose> poses = WorkoutPoses(80);
  const cv::RepCounter counter;
  cv::RepCounterState state;
  for (const auto& pose : poses) state = *counter.Step(std::move(state), pose);
  json::Value payload = json::Value::MakeObject();
  payload["pose"] = poses.back().ToJson();
  payload["state"] = state.ToJson();
  return ServiceRequest(std::move(payload));
}

// ByteSize (the per-send hot path in Push/Request/Publish) against
// printing the payload with json::Write.
void BM_MessageByteSize(benchmark::State& state, net::Message (*make)()) {
  const net::Message m = make();
  state.counters["bytes"] = static_cast<double>(m.ByteSize());
  for (auto _ : state) benchmark::DoNotOptimize(m.ByteSize());
}
BENCHMARK_CAPTURE(BM_MessageByteSize, classifier, &ClassifierRequest);
BENCHMARK_CAPTURE(BM_MessageByteSize, rep_counter, &RepCounterRequest);

void BM_PayloadWrite(benchmark::State& state, net::Message (*make)()) {
  const net::Message m = make();
  state.counters["bytes"] =
      static_cast<double>(json::Write(m.payload()).size());
  for (auto _ : state) benchmark::DoNotOptimize(json::Write(m.payload()));
}
BENCHMARK_CAPTURE(BM_PayloadWrite, classifier, &ClassifierRequest);
BENCHMARK_CAPTURE(BM_PayloadWrite, rep_counter, &RepCounterRequest);

// Fan-out copy cost: what Fabric::Publish pays per subscriber.
void BM_MessageCopy(benchmark::State& state) {
  const net::Message m = ClassifierRequest();
  for (auto _ : state) {
    net::Message copy = m;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_MessageCopy);

// Full wire round trip of a service request.
void BM_RequestEncodeDecode(benchmark::State& state) {
  const net::Message m = ClassifierRequest();
  for (auto _ : state) {
    const Bytes wire = m.Encode();
    auto decoded = net::Message::Decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RequestEncodeDecode);

void BM_MessageEncodeDecode(benchmark::State& state) {
  net::Message m("frame");
  m.set_sender("pose_detection_module");
  m.set_seq(42);
  m.payload()["frame_id"] = json::Value(7);
  m.AddPart(Bytes(static_cast<size_t>(state.range(0)), 0x3C));
  for (auto _ : state) {
    const Bytes wire = m.Encode();
    auto decoded = net::Message::Decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageEncodeDecode)->Arg(256)->Arg(20000)->Arg(200000);

void BM_JsonParse(benchmark::State& state) {
  // A rep-counter-state-sized document.
  json::Value doc = json::Value::MakeObject();
  for (int row = 0; row < 48; ++row) {
    json::Value::Array features;
    for (int i = 0; i < 34; ++i) {
      features.push_back(json::Value(row * 0.01 + i * 0.001));
    }
    doc["features"].PushBack(json::Value(std::move(features)));
  }
  const std::string text = json::Write(doc);
  state.counters["bytes"] = static_cast<double>(text.size());
  for (auto _ : state) {
    auto parsed = json::Parse(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_JsonParse);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.After(Duration::Micros(10), tick);
    };
    sim.After(Duration::Micros(10), tick);
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_NetworkSend(benchmark::State& state) {
  auto cluster = sim::MakeHomeTestbed();
  for (auto _ : state) {
    cluster->network().Send("phone", "desktop", 20000, nullptr);
    cluster->simulator().RunUntilIdle();
  }
}
BENCHMARK(BM_NetworkSend);

}  // namespace
