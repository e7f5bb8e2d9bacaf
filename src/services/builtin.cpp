// Builtin VideoPipe services (§2.2, §4.1): pose detection, activity
// recognition, rep counting, object detection, face detection, fall
// detection, image classification, and the TV-side display service.
//
// Request/response conventions (all JSON):
//   pose_detector       {frame_id}                    → DetectedPose
//   activity_classifier {window_features:[…]} or {poses:[…]} → {label, confidence}
//   rep_counter         {state, pose}                 → {state, reps}
//   object_detector     {frame_id, classes?:[{name,r,g,b}]} → {objects:[…]}
//   face_detector       {frame_id} or {pose}          → DetectedFace
//   fall_detector       {poses:[…]}                   → FallAssessment
//   image_classifier    {frame_id}                    → {label, confidence}
//   display             {anything}                    → {displayed, frames_shown}
#include "common/strings.hpp"
#include "cv/face_detector.hpp"
#include "cv/fall_detector.hpp"
#include "cv/features.hpp"
#include "cv/object_detector.hpp"
#include "cv/rep_counter.hpp"
#include "cv/tracker.hpp"
#include "services/models.hpp"
#include "services/service.hpp"

namespace vp::services {
namespace {

Result<std::vector<cv::DetectedPose>> PosesFromPayload(
    const json::Value& payload, const char* key) {
  const json::Value* poses = payload.Find(key);
  if (poses == nullptr || !poses->is_array()) {
    return InvalidArgument(Format("expected '%s' array", key));
  }
  std::vector<cv::DetectedPose> out;
  out.reserve(poses->AsArray().size());
  for (const json::Value& p : poses->AsArray()) {
    auto pose = cv::DetectedPose::FromJson(p);
    if (!pose.ok()) return pose.error();
    out.push_back(std::move(*pose));
  }
  return out;
}

class PoseDetectorService : public Service {
 public:
  std::string name() const override { return "pose_detector"; }
  Duration Cost(const ServiceRequest& request) const override {
    return request.frame ? cv::PoseDetectCost(request.frame->width(),
                                              request.frame->height())
                         : Duration::Millis(0.1);
  }
  Duration BatchCost(const ServiceBatch& batch) const override {
    // The fixed part of PoseDetectCost is dominated by per-invocation
    // CNN setup (graph warm-up, weight paging); batched frames share
    // one setup.
    return AmortizedBatchCost(*this, batch, Duration::Millis(30));
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    if (!request.frame) {
      return InvalidArgument("pose_detector: request carries no frame");
    }
    json::Value out = cv::DetectPose(*request.frame).ToJson();
    out["frame_seq"] = json::Value(static_cast<double>(request.frame->seq()));
    return out;
  }
};

/// Base for services that run a versioned model: the container runtime
/// binds a per-replica ModelHandle at launch (so replicas of one group
/// can run different versions during a rollout); instances created
/// outside the container runtime (direct catalog use in unit rigs)
/// lazily fall back to the v0 artifact — the old singleton behavior.
class ModelBackedService : public Service {
 public:
  explicit ModelBackedService(const char* kind) : kind_(kind) {}
  std::string ModelKind() const override { return kind_; }
  void BindModel(std::shared_ptr<modelreg::ModelHandle> handle) override {
    handle_ = std::move(handle);
  }
  std::shared_ptr<modelreg::ModelHandle> model_handle() const override {
    return handle_;
  }

 protected:
  std::shared_ptr<const modelreg::ModelArtifact> Artifact() const {
    if (handle_ == nullptr) {
      handle_ = std::make_shared<modelreg::ModelHandle>(
          DefaultArtifactForKind(kind_));
    }
    return handle_->artifact();
  }

 private:
  std::string kind_;
  mutable std::shared_ptr<modelreg::ModelHandle> handle_;
};

class ActivityClassifierService : public ModelBackedService {
 public:
  ActivityClassifierService() : ModelBackedService(modelreg::kActivityKind) {}
  std::string name() const override { return "activity_classifier"; }
  Duration Cost(const ServiceRequest&) const override {
    // Per-version cost: a rollout candidate may be heavier than the
    // incumbent (spec.cost_multiplier), and the latency gate must see
    // that on real traffic.
    const auto artifact = Artifact();
    return artifact ? artifact->InferenceCost()
                    : cv::ActivityClassifier::Cost();
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    const auto artifact = Artifact();
    if (!artifact || !artifact->activity.has_value()) {
      return Internal("activity_classifier: no model bound");
    }
    const cv::ActivityClassifier& model = *artifact->activity;
    Result<cv::ActivityPrediction> prediction =
        InvalidArgument("activity_classifier: expected 'window_features' "
                        "or 'poses'");
    if (const json::Value* features =
            request.body().Find("window_features");
        features != nullptr && features->is_array()) {
      std::vector<double> f;
      f.reserve(features->AsArray().size());
      for (const json::Value& d : features->AsArray()) {
        if (!d.is_number()) {
          return InvalidArgument("window_features must be numeric");
        }
        f.push_back(d.AsDouble());
      }
      prediction = model.ClassifyFeatures(f);
    } else if (request.body().Find("poses") != nullptr) {
      auto poses = PosesFromPayload(request.body(), "poses");
      if (!poses.ok()) return poses.error();
      prediction = model.Classify(*poses);
    }
    if (!prediction.ok()) return prediction.error();
    json::Value out = json::Value::MakeObject();
    out["label"] = json::Value(prediction->label);
    out["confidence"] = json::Value(prediction->confidence);
    return out;
  }
};

class RepCounterService : public Service {
 public:
  std::string name() const override { return "rep_counter"; }
  Duration Cost(const ServiceRequest&) const override {
    return cv::RepCounter::Cost();
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    const json::Value* pose_json = request.body().Find("pose");
    if (pose_json == nullptr) {
      return InvalidArgument("rep_counter: missing 'pose'");
    }
    auto pose = cv::DetectedPose::FromJson(*pose_json);
    if (!pose.ok()) return pose.error();

    cv::RepCounterState state;
    if (const json::Value* state_json = request.body().Find("state");
        state_json != nullptr && state_json->is_object()) {
      auto parsed = cv::RepCounterState::FromJson(*state_json);
      if (!parsed.ok()) return parsed.error();
      state = std::move(*parsed);
    }
    const cv::RepCounter counter;
    auto next = counter.Step(std::move(state), *pose);
    if (!next.ok()) return next.error();
    json::Value out = json::Value::MakeObject();
    out["reps"] = json::Value(next->reps);
    out["state"] = next->ToJson();
    return out;
  }
};

class ObjectDetectorService : public Service {
 public:
  std::string name() const override { return "object_detector"; }
  Duration Cost(const ServiceRequest& request) const override {
    return request.frame ? cv::ObjectDetectCost(request.frame->width(),
                                                request.frame->height())
                         : Duration::Millis(0.1);
  }
  Duration BatchCost(const ServiceBatch& batch) const override {
    return AmortizedBatchCost(*this, batch, Duration::Millis(18));
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    if (!request.frame) {
      return InvalidArgument("object_detector: request carries no frame");
    }
    cv::ObjectDetectorOptions options;
    if (const json::Value* classes = request.body().Find("classes");
        classes != nullptr && classes->is_array()) {
      for (const json::Value& cls : classes->AsArray()) {
        options.classes.push_back(cv::ObjectClass{
            cls.GetString("name", "unknown"),
            media::Rgb{static_cast<uint8_t>(cls.GetInt("r")),
                       static_cast<uint8_t>(cls.GetInt("g")),
                       static_cast<uint8_t>(cls.GetInt("b"))}});
      }
    }
    json::Value out = json::Value::MakeObject();
    json::Value::Array objects;
    for (const cv::DetectedObject& object :
         cv::DetectObjects(request.frame->image(), options)) {
      objects.push_back(object.ToJson());
    }
    out["objects"] = json::Value(std::move(objects));
    return out;
  }
};

class FaceDetectorService : public Service {
 public:
  std::string name() const override { return "face_detector"; }
  Duration Cost(const ServiceRequest& request) const override {
    // Cheap path when the caller already has a pose.
    if (request.body().Find("pose") != nullptr) {
      return Duration::Millis(0.8);
    }
    return request.frame ? cv::FaceDetectCost(request.frame->width(),
                                              request.frame->height())
                         : Duration::Millis(0.1);
  }
  Duration BatchCost(const ServiceBatch& batch) const override {
    return AmortizedBatchCost(*this, batch, Duration::Millis(8));
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    if (const json::Value* pose_json = request.body().Find("pose");
        pose_json != nullptr) {
      auto pose = cv::DetectedPose::FromJson(*pose_json);
      if (!pose.ok()) return pose.error();
      return cv::FaceFromPose(*pose).ToJson();
    }
    if (!request.frame) {
      return InvalidArgument("face_detector: no frame and no pose");
    }
    return cv::FaceFromPose(cv::DetectPose(*request.frame)).ToJson();
  }
};

class FallDetectorService : public Service {
 public:
  std::string name() const override { return "fall_detector"; }
  Duration Cost(const ServiceRequest&) const override {
    return cv::FallDetectCost();
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    auto poses = PosesFromPayload(request.body(), "poses");
    if (!poses.ok()) return poses.error();
    return cv::AssessFall(*poses).ToJson();
  }
};

class ImageClassifierService : public ModelBackedService {
 public:
  ImageClassifierService() : ModelBackedService(modelreg::kImageKind) {}
  std::string name() const override { return "image_classifier"; }
  Duration Cost(const ServiceRequest&) const override {
    const auto artifact = Artifact();
    return artifact ? artifact->InferenceCost() : cv::ImageClassifier::Cost();
  }
  Duration BatchCost(const ServiceBatch& batch) const override {
    return AmortizedBatchCost(*this, batch, Duration::Millis(5));
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    if (!request.frame) {
      return InvalidArgument("image_classifier: request carries no frame");
    }
    const auto artifact = Artifact();
    if (!artifact || !artifact->image.has_value()) {
      return Internal("image_classifier: no model bound");
    }
    auto prediction = artifact->image->Classify(request.frame->image());
    if (!prediction.ok()) return prediction.error();
    json::Value out = json::Value::MakeObject();
    out["label"] = json::Value(prediction->label);
    out["confidence"] = json::Value(prediction->confidence);
    return out;
  }
};

/// Object tracking (§2.2). Stateless: tracker state rides in the
/// request. Accepts either pre-computed detections ({state, objects})
/// or a frame to detect in ({state, frame_id, classes}).
class ObjectTrackerService : public Service {
 public:
  std::string name() const override { return "object_tracker"; }
  Duration Cost(const ServiceRequest& request) const override {
    Duration cost = cv::TrackerCost();
    if (request.frame) {
      cost += cv::ObjectDetectCost(request.frame->width(),
                                   request.frame->height());
    }
    return cost;
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    cv::TrackerState state;
    if (const json::Value* state_json = request.body().Find("state");
        state_json != nullptr && state_json->is_object()) {
      auto parsed = cv::TrackerState::FromJson(*state_json);
      if (!parsed.ok()) return parsed.error();
      state = std::move(*parsed);
    }

    std::vector<cv::DetectedObject> detections;
    if (const json::Value* objects = request.body().Find("objects");
        objects != nullptr && objects->is_array()) {
      for (const json::Value& o : objects->AsArray()) {
        cv::DetectedObject det;
        det.class_name = o.GetString("class", "unknown");
        det.x0 = o.GetDouble("x0");
        det.y0 = o.GetDouble("y0");
        det.x1 = o.GetDouble("x1");
        det.y1 = o.GetDouble("y1");
        detections.push_back(std::move(det));
      }
    } else if (request.frame) {
      cv::ObjectDetectorOptions options;
      if (const json::Value* classes = request.body().Find("classes");
          classes != nullptr && classes->is_array()) {
        for (const json::Value& cls : classes->AsArray()) {
          options.classes.push_back(cv::ObjectClass{
              cls.GetString("name", "unknown"),
              media::Rgb{static_cast<uint8_t>(cls.GetInt("r")),
                         static_cast<uint8_t>(cls.GetInt("g")),
                         static_cast<uint8_t>(cls.GetInt("b"))}});
        }
      }
      detections = cv::DetectObjects(request.frame->image(), options);
    } else {
      return InvalidArgument(
          "object_tracker: need 'objects' or a frame to detect in");
    }

    state = cv::UpdateTracks(std::move(state), detections);
    json::Value out = json::Value::MakeObject();
    json::Value::Array tracks;
    for (const cv::Track& track : state.tracks) {
      tracks.push_back(track.ToJson());
    }
    out["tracks"] = json::Value(std::move(tracks));
    out["state"] = state.ToJson();
    return out;
  }
};

/// The TV-side display sink (a native service in Fig. 4's blue boxes):
/// "renders" the frame plus overlay. We model render cost and count
/// frames; the overlay text is echoed back for tests/examples.
class DisplayService : public Service {
 public:
  std::string name() const override { return "display"; }
  Duration Cost(const ServiceRequest&) const override {
    return Duration::Millis(2.5);
  }
  Result<json::Value> Handle(const ServiceRequest& request) override {
    ++frames_shown_;
    json::Value out = json::Value::MakeObject();
    out["displayed"] = json::Value(true);
    out["frames_shown"] = json::Value(frames_shown_);
    if (const json::Value* overlay = request.body().Find("overlay")) {
      out["overlay"] = *overlay;
    }
    return out;
  }

 private:
  // Monotone render counter — presentation bookkeeping, not data-path
  // state (replicas of a *display* are distinct physical screens).
  int64_t frames_shown_ = 0;
};

}  // namespace

void RegisterBuiltinServices(ServiceCatalog& catalog) {
  (void)catalog.Register("pose_detector", [] {
    return std::make_unique<PoseDetectorService>();
  });
  (void)catalog.Register("activity_classifier", [] {
    return std::make_unique<ActivityClassifierService>();
  });
  (void)catalog.Register("rep_counter", [] {
    return std::make_unique<RepCounterService>();
  });
  (void)catalog.Register("object_detector", [] {
    return std::make_unique<ObjectDetectorService>();
  });
  (void)catalog.Register("face_detector", [] {
    return std::make_unique<FaceDetectorService>();
  });
  (void)catalog.Register("fall_detector", [] {
    return std::make_unique<FallDetectorService>();
  });
  (void)catalog.Register("image_classifier", [] {
    return std::make_unique<ImageClassifierService>();
  });
  (void)catalog.Register("object_tracker", [] {
    return std::make_unique<ObjectTrackerService>();
  });
  (void)catalog.Register("display", [] {
    return std::make_unique<DisplayService>();
  });
}

}  // namespace vp::services
