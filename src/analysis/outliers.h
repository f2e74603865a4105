#ifndef TRAP_ANALYSIS_OUTLIERS_H_
#define TRAP_ANALYSIS_OUTLIERS_H_

#include <cstdint>
#include <vector>

namespace trap::analysis {

// The three anomaly detectors used in Fig. 17(b) to check whether effective
// perturbations are out-of-distribution: Isolation Forest [80], Local
// Outlier Factor [81], and a one-class centroid detector standing in for the
// one-class SVM [79]. Each flags round(contamination * n) points.
enum class OutlierDetector { kIsolationForest, kLof, kOneClass };

const char* OutlierDetectorName(OutlierDetector d);

// Returns a flag per row of `data` (all rows the same dimension); true =
// outlier. `contamination` in (0, 0.5].
std::vector<bool> DetectOutliers(OutlierDetector detector,
                                 const std::vector<std::vector<double>>& data,
                                 double contamination, uint64_t seed = 17);

}  // namespace trap::analysis

#endif  // TRAP_ANALYSIS_OUTLIERS_H_
