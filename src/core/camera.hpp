// Camera driver: the pipeline's source module + native video-source
// service (the phone-side pair in Fig. 4), plus the queue-free flow
// control of §2.3.
//
// Admission protocol: the driver holds a single credit. Emitting a
// frame consumes it; the credit returns when the sink module finishes
// a frame and the runtime signals the source. The camera sensor runs
// at `fps`; on emission the driver sends the *latest* sensor frame and
// counts every skipped sensor frame as a drop — "this approach pushes
// frame dropping to the beginning of the pipeline and eliminates
// queuing delays inside the pipeline."
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "media/video_source.hpp"
#include "sim/device.hpp"

namespace vp::core {

/// A captured frame costs the camera's native lane 1 reference ms of
/// sensor/ISP time on top of the real encode cost.
struct CameraOptions {
  /// Watchdog: if the sink's credit does not return within this long
  /// after an emission (frame lost to a module failure), the credit is
  /// regenerated so the pipeline cannot wedge.
  Duration credit_timeout = Duration::Seconds(1.0);
  /// §2.3 ablation: when false, the camera free-runs at the sensor
  /// rate and pushes every frame into the pipeline regardless of
  /// credits — the design the paper rejects ("Queuing the images
  /// anywhere inside the pipeline will introduce delays").
  bool paced_by_credits = true;
};

class CameraDriver {
 public:
  /// `emit` delivers an encoded frame into the pipeline: (seq,
  /// capture_time, encoded bytes, decoded image size).
  using EmitFn = std::function<void(uint64_t seq, TimePoint capture,
                                    Bytes encoded)>;

  CameraDriver(sim::Simulator* sim, sim::ExecutionLane* lane,
               media::SyntheticVideoSource source, PipelineMetrics* metrics,
               EmitFn emit, CameraOptions options = {});

  /// Begin producing: the first frame goes out immediately (one
  /// initial credit).
  void Start();
  void Stop() { running_ = false; }

  /// Credit from the sink (§2.3): admits the next frame. `seq` names
  /// the frame the credit pays for; credits for frames the watchdog
  /// already wrote off are stale and ignored, preserving the
  /// single-frame-in-flight invariant (a stale credit must not mint a
  /// second admission slot).
  void OnCredit(uint64_t seq);

  /// Recovery hook: the outstanding frame is known dead (its device
  /// crashed), so write it off now instead of waiting out the watchdog
  /// — cancel the watchdog, invalidate the frame's credit (stale from
  /// here on) and mint the replacement admission slot. Safe even when
  /// the frame actually survived: the seq-tagged stale-credit check
  /// keeps the single-slot invariant. No-op with no frame outstanding.
  void WriteOffOutstanding();

  bool running() const { return running_; }
  bool has_outstanding() const { return outstanding_seq_ >= 0; }
  /// Free admission slots (§2.3 single-slot invariant: for a running,
  /// paced camera, credits() + has_outstanding() == 1 at every event
  /// boundary — the chaos InvariantChecker asserts this).
  int credits() const { return credits_; }

  uint64_t frames_emitted() const { return emitted_; }
  uint64_t frames_dropped() const { return dropped_; }
  uint64_t credit_timeouts() const { return credit_timeouts_; }
  /// Late credits discarded because their frame was already resolved.
  uint64_t stale_credits() const { return stale_credits_; }
  double fps() const { return source_.fps(); }

 private:
  /// Emit if a credit is available and the sensor pacing allows.
  void MaybeEmit();
  void CaptureAndEmit();

  sim::Simulator* sim_;
  sim::ExecutionLane* lane_;
  media::SyntheticVideoSource source_;
  PipelineMetrics* metrics_;
  EmitFn emit_;
  CameraOptions options_;

  bool running_ = false;
  int credits_ = 1;
  bool emission_scheduled_ = false;
  int64_t last_seq_ = -1;
  TimePoint last_emit_;
  bool emitted_any_ = false;
  uint64_t emitted_ = 0;
  uint64_t dropped_ = 0;
  uint64_t credit_timeouts_ = 0;
  uint64_t stale_credits_ = 0;
  uint64_t watchdog_event_ = 0;  // 0 = none armed
  /// Seq of the frame currently holding the admission slot; -1 when no
  /// frame is outstanding (slot free or watchdog wrote the frame off).
  int64_t outstanding_seq_ = -1;
};

}  // namespace vp::core
