// Microbenchmarks: messaging + JSON + the DES kernel itself (events
// per second the simulator can process).
//
// Custom main(): VP_BENCH_SMOKE=1 skips google-benchmark and instead
// times the message hot paths on the fitness pipeline's two largest
// service payloads (ByteSize vs json::Write, fan-out copy,
// encode/decode), writing BENCH_net.json for CI to archive.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "cv/pose_detector.hpp"
#include "cv/rep_counter.hpp"
#include "harness.hpp"
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

void BM_MessageByteSize(benchmark::State& state) {
  const net::Message m = ClassifierRequest();
  state.counters["bytes"] = static_cast<double>(m.ByteSize());
  for (auto _ : state) benchmark::DoNotOptimize(m.ByteSize());
}
BENCHMARK(BM_MessageByteSize);

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

// ------------------------------------------------------- smoke mode

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best of `rounds` timings of `iters` calls of `fn`, in ns per call.
template <typename Fn>
double BestNs(int iters, Fn fn) {
  const int rounds = 5;
  double best = 1e18;
  for (int r = 0; r < rounds; ++r) {
    const double start = NowUs();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, (NowUs() - start) * 1e3 / iters);
  }
  return best;
}

int SmokeMain() {
  const int iters = 1000;
  const net::Message classifier = ClassifierRequest();
  const net::Message rep_counter = RepCounterRequest();

  json::Value doc = json::Value::MakeObject();
  doc["bench"] = json::Value("micro_net");

  // ByteSize (the per-send hot path in Push/Request/Publish) against
  // printing the payload with json::Write.
  const auto time_sizing = [&](const net::Message& m, const char* name) {
    const double size_ns =
        BestNs(iters, [&] { benchmark::DoNotOptimize(m.ByteSize()); });
    const double write_ns = BestNs(
        iters, [&] { benchmark::DoNotOptimize(json::Write(m.payload())); });
    const std::string key = name;
    doc[key + "_bytes"] = json::Value(m.ByteSize());
    doc[key + "_bytesize_ns"] = json::Value(size_ns);
    doc[key + "_write_ns"] = json::Value(write_ns);
    std::printf("%s: %zu bytes, ByteSize %.0f ns, Write %.0f ns\n", name,
                m.ByteSize(), size_ns, write_ns);
  };

  time_sizing(classifier, "classifier_request");
  time_sizing(rep_counter, "rep_counter_request");

  // Fan-out copy cost: what Fabric::Publish pays per subscriber.
  const double copy_ns = BestNs(20 * iters, [&] {
    net::Message copy = classifier;
    benchmark::DoNotOptimize(copy);
  });

  // Full wire round trip.
  const double codec_ns = BestNs(iters, [&] {
    const Bytes wire = classifier.Encode();
    auto decoded = net::Message::Decode(wire);
    benchmark::DoNotOptimize(decoded);
  });

  doc["copy_ns"] = json::Value(copy_ns);
  doc["encode_decode_us"] = json::Value(codec_ns / 1e3);
  bench::WriteBenchJson("net", doc);
  std::printf("copy %.0f ns; encode+decode %.1f us\n", copy_ns,
              codec_ns / 1e3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (vp::bench::SmokeMode()) return SmokeMain();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
