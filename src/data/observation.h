// Observation: one 3D bounding box proposed by a human labeler, an ML
// model, or an expert auditor, at one time step. The atomic unit that LOA
// reasons over (denoted omega in the paper's syntax, Table 1).
#ifndef FIXY_DATA_OBSERVATION_H_
#define FIXY_DATA_OBSERVATION_H_

#include "data/types.h"
#include "geometry/box.h"

namespace fixy {

/// A single observation: source, class, oriented 3D box, and (for model
/// predictions) a confidence score. Its time step is the frame that holds
/// it (and the bundle built from that frame), which records its index and
/// timestamp once for all of its observations.
struct Observation {
  ObservationId id = kInvalidObservationId;
  ObservationSource source = ObservationSource::kHuman;
  ObjectClass object_class = ObjectClass::kCar;
  geom::Box3d box;
  /// Detector confidence in [0, 1]. Human and auditor labels carry 1.0.
  double confidence = 1.0;
};

}  // namespace fixy

#endif  // FIXY_DATA_OBSERVATION_H_
