// F4 — Figure 4 of the paper: "A human head generated from MRI data using
// AVS.  The light areas are regions of the brain that are activated by
// moving the right hand."
// Non-graphical equivalent: run the analysis, merge the functional map onto
// the 256x256x128 anatomical head, report the activated regions, and show
// the workbench streaming budget for displaying the result remotely.
#include <cstdio>

#include "fire/analysis.hpp"
#include "scanner/phantom.hpp"
#include "viz/merge.hpp"
#include "viz/workbench.hpp"

namespace {

using namespace gtw;

void print_fig4() {
  std::printf("== Figure 4: 3-D head with activation overlay ==\n");

  // Functional run on the standard matrix (reduced scan count for speed).
  scanner::FmriConfig scfg;
  scfg.dims = {32, 32, 8};
  scfg.regions = {{9, 20, 4, 3.0, 0.06}};   // "right hand" motor area
  scfg.expected_scans = 32;
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

  // High-resolution anatomical head, as acquired before the measurement.
  const fire::Dims anat_dims{256, 256, 128};
  const fire::VolumeF anat = scanner::make_anatomical(anat_dims);
  const viz::MergeResult merged =
      viz::merge_functional(anat, engine.correlation_map(), 0.35f);

  std::printf("anatomical volume: %dx%dx%d (%.1f MByte)\n", anat_dims.nx,
              anat_dims.ny, anat_dims.nz,
              static_cast<double>(anat.size_bytes()) / 1e6);
  std::printf("activated voxels on the anatomical grid: %zu (peak r = "
              "%.2f)\n", merged.activated_voxels, merged.peak_correlation);

  // Maximum-intensity projection of the overlay, viewed from the front.
  std::printf("\nfrontal projection of the activation (64x32 downsample, "
              "'#' = active column):\n");
  for (int z = anat_dims.nz - 1; z >= 0; z -= 4) {
    for (int x = 0; x < anat_dims.nx; x += 4) {
      bool active = false;
      bool head = false;
      for (int y = 0; y < anat_dims.ny && !active; ++y) {
        if (merged.overlay.at(x, y, z)) active = true;
        if (anat.at(x, y, z) > 100.0f) head = true;
      }
      std::putchar(active ? '#' : (head ? '.' : ' '));
    }
    std::putchar('\n');
  }

  // Interactive manipulation budget (rotate/zoom/slice in realtime): frames
  // the Onyx2 must push to the workbench.
  viz::WorkbenchFormat fmt;
  viz::RenderModel render;
  std::printf("\nworkbench interaction: render %.1f ms/frame on 12-proc "
              "Onyx2; remote display caps at %.2f frames/s over 622 Mbit/s "
              "classical IP (paper: the AVS prototype was 'too slow for "
              "interactive manipulations')\n\n",
              render.frame_time(fmt).ms(),
              viz::classical_ip_fps(fmt, net::kOc12Line));
}

}  // namespace

int main() {
  print_fig4();
  return 0;
}
