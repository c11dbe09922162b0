// F3 — Figure 3 of the paper: "Control panel and 2-D display of the FIRE
// software.  The upper left canvas shows MR-images with a color coded
// correlation map overlay.  In the upper right part, the signal time
// courses of special 'regions of interest' can be displayed.  In the lower
// panel, the stimulation time course and the modeled hemodynamic response
// can be specified."
// Non-graphical equivalent: an ASCII correlation-overlay slice, the ROI
// time-course panel, and the stimulus/HRF model panel.
#include <cstdio>
#include <vector>

#include "fire/analysis.hpp"
#include "scanner/phantom.hpp"

namespace {

using namespace gtw;

void print_fig3() {
  std::printf("== Figure 3: FIRE 2-D display (text rendering) ==\n");
  scanner::FmriConfig scfg;
  scfg.dims = {32, 32, 8};
  scfg.regions = {{10, 20, 4, 3.5, 0.06}};
  scfg.expected_scans = 48;
  scanner::FmriSeriesGenerator gen(scfg);

  fire::AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = false;
  acfg.detrend_cfg.expected_scans = scfg.expected_scans;
  fire::AnalysisEngine engine(scfg.dims, acfg);
  for (int t = 0; t < scfg.expected_scans; ++t)
    engine.process_scan(gen.acquire(t));

  // Upper-left canvas: anatomy with correlation overlay, slice z=4.
  const fire::VolumeF map = engine.correlation_map();
  const fire::VolumeF& anat = gen.baseline();
  std::printf("\nMR slice z=4 with correlation overlay "
              "(.:air  -=#:tissue  *:r>0.35):\n");
  for (int y = 0; y < 32; y += 1) {
    for (int x = 0; x < 32; ++x) {
      char c = '.';
      const float a = anat.at(x, y, 4);
      if (a > 100.0f) c = a > 600.0f ? '#' : (a > 300.0f ? '=' : '-');
      if (map.at(x, y, 4) > 0.35f) c = '*';
      std::putchar(c);
    }
    std::putchar('\n');
  }

  // Upper-right: ROI time courses.
  const auto mask = gen.activation_mask();
  std::vector<std::size_t> roi_active, roi_quiet;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) roi_active.push_back(i);
  }
  for (int z = 2; z < 3; ++z)
    for (int y = 8; y < 12; ++y)
      for (int x = 20; x < 26; ++x)
        roi_quiet.push_back(
            (static_cast<std::size_t>(z) * 32 + y) * 32 + x);

  auto sparkline = [](const std::vector<double>& v) {
    double lo = v[0], hi = v[0];
    for (double x : v) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    std::string out;
    const char* levels = " .:-=+*#%@";
    for (double x : v) {
      const int idx = hi > lo
          ? static_cast<int>((x - lo) / (hi - lo) * 9.0)
          : 0;
      out += levels[idx];
    }
    return out;
  };
  std::printf("\nROI time courses (one char per scan):\n");
  std::printf("  activated ROI |%s|\n",
              sparkline(engine.roi_time_course(roi_active)).c_str());
  std::printf("  control ROI   |%s|\n",
              sparkline(engine.roi_time_course(roi_quiet)).c_str());

  // Lower panel: stimulus and modelled hemodynamic response.
  const auto stim = scfg.stimulus.series(scfg.expected_scans);
  std::printf("\nstimulation   |%s|\n", sparkline(stim).c_str());
  std::printf("reference     |%s|  (stimulus x HRF, delay %.1f s, "
              "dispersion %.1f s)\n",
              sparkline(engine.reference()).c_str(), acfg.hrf.delay_s,
              acfg.hrf.dispersion_s);
  std::printf("\n");
}

}  // namespace

int main() {
  print_fig3();
  return 0;
}
