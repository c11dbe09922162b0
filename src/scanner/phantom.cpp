#include "scanner/phantom.hpp"

#include <algorithm>
#include <cmath>

namespace gtw::scanner {

namespace {

// Normalised radius of an ellipsoid about the volume centre, with semi-axes
// (ax, ay, az) as fractions of the half-extents.  Each axis's term depends
// on that axis alone, so it is computed once per coordinate; a voxel's
// radius is then sqrt((ux^2 + uy^2) + uz^2), the same operations in the
// same order as evaluating it per voxel.
class Ellipsoid {
 public:
  // `y_shift` moves the centre along y (the ventricles sit off-centre).
  Ellipsoid(const fire::Dims& d, double ax, double ay, double az,
            double y_shift = 0.0)
      : ux2_(squares(d.nx, ax, 0.0)),
        uy2_(squares(d.ny, ay, y_shift)),
        uz2_(squares(d.nz, az, 0.0)) {}

  double r(int x, int y, int z) const {
    const auto at = [](const std::vector<double>& v, int i) {
      return v[static_cast<std::size_t>(i)];
    };
    return std::sqrt(at(ux2_, x) + at(uy2_, y) + at(uz2_, z));
  }

 private:
  static std::vector<double> squares(int n, double a, double shift) {
    const double c = (n - 1) / 2.0;
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double u = ((i - shift) - c) / (a * n / 2.0);
      out.push_back(u * u);
    }
    return out;
  }

  std::vector<double> ux2_, uy2_, uz2_;
};

// f(k * i) for i in [0, n).
template <typename F>
std::vector<double> axis_table(int n, double k, F f) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(f(k * i));
  return out;
}

}  // namespace

fire::VolumeF make_head_phantom(fire::Dims dims) {
  fire::VolumeF v(dims);
  const Ellipsoid head(dims, 0.90, 0.95, 0.90);
  const Ellipsoid brain(dims, 0.75, 0.80, 0.75);
  const Ellipsoid vent(dims, 0.18, 0.25, 0.30, dims.ny * 0.05);
  // The brain's intensity pattern 120 sin(0.35x) cos(0.3y) cos(0.5z),
  // multiplied left to right.
  const auto sin_x = axis_table(dims.nx, 0.35, [](double u) {
    return 120.0 * std::sin(u);
  });
  const auto cos_y = axis_table(dims.ny, 0.3, [](double u) {
    return std::cos(u);
  });
  const auto cos_z = axis_table(dims.nz, 0.5, [](double u) {
    return std::cos(u);
  });
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const double r_head = head.r(x, y, z);
        const double r_brain = brain.r(x, y, z);
        const double r_vent = vent.r(x, y, z);
        double val = 0.0;  // air
        if (r_head < 1.0) val = 350.0;                      // scalp/skull
        if (r_brain < 1.0) {
          // Brain tissue with smooth intensity variation (grey/white-ish).
          val = 700.0 +
                sin_x[static_cast<std::size_t>(x)] *
                    cos_y[static_cast<std::size_t>(y)] *
                    cos_z[static_cast<std::size_t>(z)] +
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
  const Ellipsoid head(dims, 0.90, 0.95, 0.90);
  const Ellipsoid brain(dims, 0.75, 0.80, 0.75);
  const Ellipsoid vent(dims, 0.18, 0.25, 0.30, dims.ny * 0.05);
  for (int z = 0; z < dims.nz; ++z) {
    for (int y = 0; y < dims.ny; ++y) {
      for (int x = 0; x < dims.nx; ++x) {
        const double r_head = head.r(x, y, z);
        const double r_brain = brain.r(x, y, z);
        const double r_vent = vent.r(x, y, z);
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
