// The FIRE analysis chain on real data: median filter -> 3-D motion
// correction -> detrending -> incremental correlation over the
// accumulated series.  This is the numerics the RT-client either runs
// locally on a workstation or delegates to the Cray T3E "in a 'remote
// procedure call' like manner" (paper section 4); the pipeline module
// decides *where* it runs, this class decides *what* runs.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fire/correlation.hpp"
#include "fire/detrend.hpp"
#include "fire/filters.hpp"
#include "fire/motion.hpp"
#include "fire/reference.hpp"
#include "fire/volume.hpp"

namespace gtw::fire {

struct AnalysisConfig {
  bool median_filter = true;
  bool motion_correction = true;
  bool detrend = true;
  StimulusDesign stimulus;
  HrfParams hrf;
  double tr_s = 2.0;
  DetrendConfig detrend_cfg;
  MotionConfig motion_cfg;
};

class AnalysisEngine {
 public:
  AnalysisEngine(Dims dims, AnalysisConfig cfg);

  // Process the next raw scan; returns the fully preprocessed image that
  // entered the correlation. Scans must arrive in acquisition order.
  VolumeF process_scan(const VolumeF& raw);

  int scans() const { return corr_.scans(); }
  VolumeF correlation_map() const { return corr_.correlation_map(); }
  double correlation_at(std::size_t voxel) const {
    return corr_.correlation_at(voxel);
  }

  // Motion estimate of the most recent scan (identity when the module is
  // off or on the reference scan).
  const RigidTransform& last_motion() const { return last_motion_; }

  // Mean time course over a region of interest (list of voxel indices) —
  // the paper's GUI displays exactly these per-ROI signal curves (fig. 3).
  std::vector<double> roi_time_course(
      const std::vector<std::size_t>& voxels) const;

  const std::vector<double>& reference() const { return reference_; }
  const AnalysisConfig& config() const { return cfg_; }

 private:
  Dims dims_;
  AnalysisConfig cfg_;
  std::vector<double> reference_;
  std::optional<MotionCorrector> motion_;
  std::optional<IncrementalDetrend> detrend_;
  IncrementalCorrelation corr_;
  std::vector<VolumeF> processed_series_;  // feeds ROI queries
  RigidTransform last_motion_;
};

}  // namespace gtw::fire
