#include "scanner/phantom.hpp"

#include <algorithm>
#include <cmath>

namespace gtw::scanner {

namespace {

// Normalised ellipsoid radius of (x,y,z) w.r.t. semi-axes (ax,ay,az) around
// the volume centre.
double ellipse_r(const fire::Dims& d, double x, double y, double z, double ax,
                 double ay, double az) {
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;
  const double ux = (x - cx) / (ax * d.nx / 2.0);
  const double uy = (y - cy) / (ay * d.ny / 2.0);
  const double uz = (z - cz) / (az * d.nz / 2.0);
  return std::sqrt(ux * ux + uy * uy + uz * uz);
}

}  // namespace

fire::VolumeF make_head_phantom(fire::Dims dims) {
  fire::VolumeF v(dims);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const double r_head = ellipse_r(dims, x, y, z, 0.90, 0.95, 0.90);
        const double r_brain = ellipse_r(dims, x, y, z, 0.75, 0.80, 0.75);
        const double r_vent =
            ellipse_r(dims, x, y - dims.ny * 0.05, z, 0.18, 0.25, 0.30);
        double val = 0.0;  // air
        if (r_head < 1.0) val = 350.0;                      // scalp/skull
        if (r_brain < 1.0) {
          // Brain tissue with smooth intensity variation (grey/white-ish).
          val = 700.0 +
                120.0 * std::sin(0.35 * x) * std::cos(0.3 * y) *
                    std::cos(0.5 * z) +
                80.0 * (1.0 - r_brain);
        }
        if (r_vent < 1.0) val = 180.0;                      // CSF, dark on EPI
        v.at(x, y, z) = static_cast<float>(val);
      }
    }
  }
  return v;
}

fire::VolumeF make_anatomical(fire::Dims dims) {
  // Same geometry, T1-like contrast (bright white matter, mid grey matter).
  fire::VolumeF v(dims);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const double r_head = ellipse_r(dims, x, y, z, 0.90, 0.95, 0.90);
        const double r_brain = ellipse_r(dims, x, y, z, 0.75, 0.80, 0.75);
        const double r_vent =
            ellipse_r(dims, x, y - dims.ny * 0.05, z, 0.18, 0.25, 0.30);
        double val = 0.0;
        if (r_head < 1.0) val = 600.0;  // skull bright on T1
        if (r_brain < 1.0)
          val = 450.0 + 250.0 * std::exp(-3.0 * r_brain * r_brain);
        if (r_vent < 1.0) val = 100.0;
        v.at(x, y, z) = static_cast<float>(val);
      }
    }
  }
  return v;
}

FmriSeriesGenerator::FmriSeriesGenerator(FmriConfig cfg)
    : cfg_(cfg), baseline_(make_head_phantom(cfg.dims)),
      amplitude_(cfg.dims), rng_(cfg.seed), motion_rng_(cfg.seed ^ 0xabcdef) {
  // Per-voxel activation amplitude (baseline-scaled) inside the regions.
  for (int z = 0; z < cfg_.dims.nz; ++z) {
    for (int y = 0; y < cfg_.dims.ny; ++y) {
      for (int x = 0; x < cfg_.dims.nx; ++x) {
        double amp = 0.0;
        for (const ActivationRegion& reg : cfg_.regions) {
          const double dx = x - reg.cx, dy = y - reg.cy, dz = z - reg.cz;
          const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
          if (r < reg.radius)
            amp = std::max(amp, reg.amplitude * (1.0 - r / reg.radius));
        }
        amplitude_.at(x, y, z) =
            static_cast<float>(amp * baseline_.at(x, y, z));
      }
    }
  }
  // Ground-truth BOLD response: stimulus (x) unit-sum HRF, in [0, 1].
  const std::vector<double> s = cfg_.stimulus.series(cfg_.expected_scans);
  const std::vector<double> h = fire::hrf_kernel(cfg_.hrf, cfg_.tr_s);
  response_.assign(static_cast<std::size_t>(cfg_.expected_scans), 0.0);
  for (int i = 0; i < cfg_.expected_scans; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < h.size() && static_cast<int>(j) <= i; ++j)
      acc += s[static_cast<std::size_t>(i) - j] * h[j];
    response_[static_cast<std::size_t>(i)] = acc;
  }
}

fire::RigidTransform FmriSeriesGenerator::motion_at(int t) const {
  // Deterministic per-scan motion independent of acquisition order.
  des::Rng r(cfg_.seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(t));
  fire::RigidTransform m;
  m.tx = cfg_.motion.drift_per_scan * t + r.normal(0.0, cfg_.motion.jitter);
  m.ty = r.normal(0.0, cfg_.motion.jitter);
  m.tz = 0.5 * cfg_.motion.drift_per_scan * t +
         r.normal(0.0, 0.5 * cfg_.motion.jitter);
  m.rx = r.normal(0.0, cfg_.motion.rot_jitter);
  m.ry = r.normal(0.0, cfg_.motion.rot_jitter);
  m.rz = r.normal(0.0, cfg_.motion.rot_jitter);
  return m;
}

fire::VolumeF FmriSeriesGenerator::acquire(int t) {
  const double resp =
      t < cfg_.expected_scans
          ? response_[static_cast<std::size_t>(t)]
          : response_.back();
  const double u = static_cast<double>(t) /
                   std::max(1, cfg_.expected_scans - 1);
  const double drift = cfg_.drift_amplitude * u +
                       cfg_.cosine_drift_amplitude * std::cos(M_PI * u);

  fire::VolumeF img(cfg_.dims);
  const std::size_t n = img.size();
  for (std::size_t i = 0; i < n; ++i) {
    double val = baseline_[i] + amplitude_[i] * resp;
    if (baseline_[i] > 0.0f) val += drift;
    img[i] = static_cast<float>(val);
  }

  // Rigid head motion, if any.
  const fire::RigidTransform m = motion_at(t);
  if (m.max_abs() > 1e-9) img = fire::resample(img, m);

  // Thermal noise added per voxel.
  for (std::size_t i = 0; i < n; ++i)
    img[i] += static_cast<float>(rng_.normal(0.0, cfg_.noise_sigma));
  return img;
}

fire::Volume<std::uint8_t> FmriSeriesGenerator::activation_mask() const {
  fire::Volume<std::uint8_t> mask(cfg_.dims);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask[i] = amplitude_[i] > 0.0f ? 1 : 0;
  return mask;
}

}  // namespace gtw::scanner
