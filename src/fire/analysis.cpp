#include "fire/analysis.hpp"

#include <stdexcept>

namespace gtw::fire {

AnalysisEngine::AnalysisEngine(Dims dims, AnalysisConfig cfg)
    : dims_(dims), cfg_(cfg),
      reference_(make_reference(cfg.stimulus, cfg.detrend_cfg.expected_scans,
                                cfg.tr_s, cfg.hrf)),
      corr_(dims) {
  if (cfg_.detrend) detrend_.emplace(dims, cfg_.detrend_cfg);
}

VolumeF AnalysisEngine::process_scan(const VolumeF& raw) {
  if (!(raw.dims() == dims_))
    throw std::invalid_argument("AnalysisEngine: dims mismatch");
  const int t = corr_.scans();

  VolumeF img = cfg_.median_filter ? median_filter_3x3(raw) : raw;

  last_motion_ = RigidTransform{};
  if (cfg_.motion_correction) {
    if (!motion_) {
      // First scan becomes the alignment reference.
      motion_.emplace(img, cfg_.motion_cfg);
    } else {
      MotionResult res = motion_->correct(img);
      last_motion_ = res.estimate;
      img = std::move(res.corrected);
    }
  }

  if (detrend_) img = detrend_->add_scan(img);

  const double ref_t =
      t < static_cast<int>(reference_.size())
          ? reference_[static_cast<std::size_t>(t)]
          : 0.0;
  corr_.add_scan(img, ref_t);
  processed_series_.push_back(img);
  return img;
}

std::vector<double> AnalysisEngine::roi_time_course(
    const std::vector<std::size_t>& voxels) const {
  std::vector<double> out;
  out.reserve(processed_series_.size());
  for (const VolumeF& v : processed_series_) {
    double acc = 0.0;
    for (std::size_t idx : voxels) acc += v[idx];
    out.push_back(voxels.empty() ? 0.0
                                 : acc / static_cast<double>(voxels.size()));
  }
  return out;
}

}  // namespace gtw::fire
