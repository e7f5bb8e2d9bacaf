#include "core/camera.hpp"

#include <cmath>

#include "media/codec.hpp"

namespace vp::core {
namespace {

/// Sensor/ISP cost per captured frame (reference ms), charged on the
/// camera's native lane in addition to the real encode cost.
constexpr Duration kCaptureCost = Duration::Millis(1.0);

}  // namespace

CameraDriver::CameraDriver(sim::Simulator* sim, sim::ExecutionLane* lane,
                           media::SyntheticVideoSource source,
                           PipelineMetrics* metrics, EmitFn emit,
                           CameraOptions options)
    : sim_(sim), lane_(lane), source_(std::move(source)), metrics_(metrics),
      emit_(std::move(emit)), options_(options) {}

void CameraDriver::Start() {
  if (running_) return;
  running_ = true;
  MaybeEmit();
}

void CameraDriver::OnCredit(uint64_t seq) {
  if (options_.paced_by_credits &&
      (outstanding_seq_ < 0 ||
       seq != static_cast<uint64_t>(outstanding_seq_))) {
    // Stale: this credit pays for a frame the watchdog already wrote
    // off (it minted a replacement credit) or one that was abandoned
    // and re-credited by the runtime. Honoring it would cancel the
    // CURRENT frame's watchdog and mint a second credit — two frames
    // in flight, breaking §2.3's single-slot invariant.
    ++stale_credits_;
    return;
  }
  outstanding_seq_ = -1;
  if (watchdog_event_ != 0) {
    sim_->Cancel(watchdog_event_);
    watchdog_event_ = 0;
  }
  if (credits_ < 1) ++credits_;  // single-slot credit (one frame in flight)
  MaybeEmit();
}

void CameraDriver::WriteOffOutstanding() {
  if (!options_.paced_by_credits || outstanding_seq_ < 0) return;
  if (watchdog_event_ != 0) {
    sim_->Cancel(watchdog_event_);
    watchdog_event_ = 0;
  }
  outstanding_seq_ = -1;
  if (credits_ < 1) ++credits_;
  MaybeEmit();
}

void CameraDriver::MaybeEmit() {
  if (!running_ || emission_scheduled_) return;
  if (options_.paced_by_credits && credits_ <= 0) return;
  const Duration min_gap = Duration::Seconds(1.0 / source_.fps());
  const TimePoint earliest =
      emitted_any_ ? last_emit_ + min_gap : sim_->Now();
  emission_scheduled_ = true;
  if (earliest <= sim_->Now()) {
    sim_->After(Duration::Zero(), [this] { CaptureAndEmit(); });
  } else {
    sim_->At(earliest, [this] { CaptureAndEmit(); });
  }
}

void CameraDriver::CaptureAndEmit() {
  emission_scheduled_ = false;
  if (!running_) return;
  if (options_.paced_by_credits) {
    if (credits_ <= 0) return;
    --credits_;
  }

  // The sensor frame that exists *now*.
  const double fps = source_.fps();
  const auto seq = static_cast<uint64_t>(
      std::floor(sim_->Now().seconds() * fps + 1e-9));
  // Everything between the previous emission and this one was never
  // admitted into the pipeline.
  if (last_seq_ >= 0 && static_cast<int64_t>(seq) > last_seq_ + 1) {
    dropped_ += static_cast<uint64_t>(static_cast<int64_t>(seq) - last_seq_ - 1);
    for (int64_t s = last_seq_ + 1; s < static_cast<int64_t>(seq); ++s) {
      metrics_->OnSourceDrop();
    }
  }
  last_seq_ = static_cast<int64_t>(seq);
  last_emit_ = sim_->Now();
  emitted_any_ = true;
  metrics_->OnSourceTick();

  const TimePoint capture_time = sim_->Now();
  Bytes encoded = source_.CaptureEncoded(seq, capture_time);
  const media::SceneOptions& scene = source_.scene();
  const Duration cost =
      kCaptureCost + media::EncodeCost(scene.width, scene.height);
  metrics_->OnCaptured(seq, capture_time);

  lane_->Run(cost, [this, seq, capture_time,
                    encoded = std::move(encoded)]() mutable {
    ++emitted_;
    emit_(seq, capture_time, std::move(encoded));
  });

  if (!options_.paced_by_credits) {
    MaybeEmit();  // free-running: next sensor frame regardless
    return;
  }
  outstanding_seq_ = static_cast<int64_t>(seq);
  // Arm the credit watchdog for this emission.
  if (options_.credit_timeout > Duration::Zero()) {
    watchdog_event_ = sim_->After(options_.credit_timeout, [this] {
      watchdog_event_ = 0;
      ++credit_timeouts_;
      // The outstanding frame is written off: its credit, should it
      // arrive after all, is stale from here on.
      outstanding_seq_ = -1;
      if (credits_ < 1) ++credits_;
      MaybeEmit();
    });
  }
}

}  // namespace vp::core
