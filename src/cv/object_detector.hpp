// Object detection service algorithm.
//
// Detects the solid-color props the scene renderer places in the room
// (lamps, speakers, doorbell panels, …) via connected-component
// analysis over a color mask, then labels each blob by nearest
// registered class color. One of the paper's example heavyweight
// services (§2.2 lists object detection first).
#pragma once

#include <string>
#include <vector>

#include "common/time.hpp"
#include "json/value.hpp"
#include "media/image.hpp"

namespace vp::cv {

struct ObjectClass {
  std::string name;
  media::Rgb color;
};

struct DetectedObject {
  std::string class_name;
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  int pixels = 0;
  double confidence = 0;

  json::Value ToJson() const;
};

struct ObjectDetectorOptions {
  /// Registered classes; blobs whose mean color is not within 40 of
  /// any class color are labeled "unknown". Pixels at least 45 from
  /// the background estimate enter the foreground mask.
  std::vector<ObjectClass> classes;
  int min_blob_pixels = 12;
};

std::vector<DetectedObject> DetectObjects(const media::Image& image,
                                          const ObjectDetectorOptions& options);

/// Reference-device cost of one detection on a width×height frame.
Duration ObjectDetectCost(int width, int height);

}  // namespace vp::cv
