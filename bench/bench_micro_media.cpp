// Microbenchmarks: media substrate — scene rendering, the frame codec
// and the frame store (real wall-clock costs of the simulation
// itself, not virtual-time costs).
#include <benchmark/benchmark.h>

#include "media/codec.hpp"
#include "media/frame_store.hpp"
#include "media/renderer.hpp"
#include "media/video_source.hpp"

using namespace vp;

namespace {

void BM_RenderScene(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = static_cast<int>(state.range(0));
  scene.height = scene.width * 3 / 4;
  const media::Pose pose = media::Pose::Standing();
  uint64_t seed = 0;
  for (auto _ : state) {
    const media::Image image = media::RenderScene(pose, scene, seed++);
    benchmark::DoNotOptimize(image.data().data());
  }
}
BENCHMARK(BM_RenderScene)->Arg(160)->Arg(320)->Arg(640);

void BM_EncodeFrame(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = static_cast<int>(state.range(0));
  scene.height = scene.width * 3 / 4;
  media::Frame frame;
  frame.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  for (auto _ : state) {
    const Bytes wire = media::EncodeFrame(frame);
    benchmark::DoNotOptimize(wire.data());
  }
  media::Frame sized;
  sized.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  state.counters["bytes"] =
      static_cast<double>(media::EncodeFrame(sized).size());
}
BENCHMARK(BM_EncodeFrame)->Arg(160)->Arg(320)->Arg(640);

void BM_DecodeFrame(benchmark::State& state) {
  media::SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  media::Frame frame;
  frame.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  const Bytes wire = media::EncodeFrame(frame);
  for (auto _ : state) {
    auto decoded = media::DecodeFrame(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeFrame);

// A handler's frame: Put the wire bytes (validated, not decoded),
// resolve the id once, then release it by dropping both references.
void BM_FrameStorePutGet(benchmark::State& state) {
  media::FrameStore store(64);
  media::SceneOptions scene;
  scene.width = 320;
  scene.height = 240;
  media::Frame frame;
  frame.image = media::RenderScene(media::Pose::Standing(), scene, 1);
  const Bytes wire = media::EncodeFrame(frame);
  for (auto _ : state) {
    auto put = store.Put(wire);
    auto got = store.Get((*put)->id());
    benchmark::DoNotOptimize(got);
  }
  state.counters["resident"] = static_cast<double>(store.size());
}
BENCHMARK(BM_FrameStorePutGet);

media::SyntheticVideoSource SizedWorkoutSource(int width) {
  media::SceneOptions scene;
  scene.width = width;
  scene.height = width * 3 / 4;
  return media::SyntheticVideoSource(media::DefaultWorkoutScript(), 20.0,
                                     scene);
}

// The raw-pixel path (training, datasets, the e2e ledger's render
// replay).
void BM_CaptureFrame(benchmark::State& state) {
  const auto source = SizedWorkoutSource(static_cast<int>(state.range(0)));
  uint64_t seq = 0;
  for (auto _ : state) {
    const media::Frame frame = source.CaptureFrame(seq++ % 600);
    benchmark::DoNotOptimize(frame.image.data().data());
  }
}
BENCHMARK(BM_CaptureFrame)->Arg(160)->Arg(320);

// The camera's path: the same bytes as EncodeFrame(CaptureFrame(seq)),
// with the noise fused into quantization.
void BM_CaptureEncoded(benchmark::State& state) {
  const auto source = SizedWorkoutSource(static_cast<int>(state.range(0)));
  uint64_t seq = 0;
  for (auto _ : state) {
    const uint64_t s = seq++ % 600;
    const Bytes wire = source.CaptureEncoded(s, source.CaptureTime(s));
    benchmark::DoNotOptimize(wire.data());
  }
}
BENCHMARK(BM_CaptureEncoded)->Arg(160)->Arg(320);

// CaptureEncoded's three pieces, on frame 80 of the workout (a squat):
// the clean render, the noise fused with quantisation, and the RLE.
void BM_RenderCleanScene(benchmark::State& state) {
  const auto source = SizedWorkoutSource(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const media::Image image = source.CaptureClean(80);
    benchmark::DoNotOptimize(image.data().data());
  }
}
BENCHMARK(BM_RenderCleanScene)->Arg(64)->Arg(320);

// Each iteration first copies the clean render back (a memcpy of the
// image), since Apply quantizes in place. BM_NoisyQuantizerApply runs
// Apply's own choice (the lanes on a CPU with AVX-512 F/BW/DQ/VL, which
// the `lanes` counter reports), BM_NoisyQuantizerScalar the scalar loop
// on the same streams. Both report, per frame over seeds 0..63, the
// pairs past the fast path and those that reached libm: equal counters
// mean equal settling.
template <bool kScalar>
void NoisyQuantizerBench(benchmark::State& state) {
  const auto source = SizedWorkoutSource(static_cast<int>(state.range(0)));
  const media::Image clean = source.CaptureClean(80);
  const media::NoisyQuantizer quantizer(source.scene().noise_stddev);
  const auto apply = [&](media::Image& image, uint64_t seed) {
    return kScalar ? quantizer.ApplyScalar(image,
                                           media::SensorNoiseStream(seed))
                   : quantizer.Apply(image, seed);
  };
  media::Image work = clean;
  uint64_t seed = 0;
  for (auto _ : state) {
    work.data() = clean.data();
    apply(work, seed++ % 64);
    benchmark::DoNotOptimize(work.data().data());
    benchmark::ClobberMemory();
  }
  uint64_t tail = 0;
  uint64_t exact = 0;
  for (uint64_t s = 0; s < 64; ++s) {
    work.data() = clean.data();
    const auto counts = apply(work, s);
    tail += counts.tail;
    exact += counts.exact;
  }
  state.counters["tail"] = static_cast<double>(tail) / 64;
  state.counters["libm"] = static_cast<double>(exact) / 64;
  state.counters["lanes"] = !kScalar && media::NoisyQuantizer::LanesSupported();
}

void BM_NoisyQuantizerApply(benchmark::State& state) {
  NoisyQuantizerBench<false>(state);
}
BENCHMARK(BM_NoisyQuantizerApply)->Arg(64)->Arg(320);

void BM_NoisyQuantizerScalar(benchmark::State& state) {
  NoisyQuantizerBench<true>(state);
}
BENCHMARK(BM_NoisyQuantizerScalar)->Arg(64)->Arg(320);

void BM_EncodeQuantizedFrame(benchmark::State& state) {
  const auto source = SizedWorkoutSource(static_cast<int>(state.range(0)));
  media::Frame frame;
  frame.image = source.CaptureClean(80);
  media::NoisyQuantizer(source.scene().noise_stddev).Apply(frame.image, 1);
  for (auto _ : state) {
    const Bytes wire = media::EncodeQuantizedFrame(frame);
    benchmark::DoNotOptimize(wire.data());
  }
}
BENCHMARK(BM_EncodeQuantizedFrame)->Arg(64)->Arg(320);

}  // namespace
