// Reproduces Table 1 of the paper: "Time spent for processing a 64x64x16
// image on the Cray T3E for various number of PEs.  All times are given in
// seconds."  Columns: PEs | filter | motion corr. | RVO | total | speedup.
//
// The kernels' work estimates come from the actual implementations in
// src/fire (see fire/workload.cpp); the T3E-600 machine model is in
// exec::MachineProfile::t3e600().
#include <cstdio>

#include "exec/machine.hpp"
#include "fire/workload.hpp"

namespace {

void print_table1() {
  using namespace gtw;
  const exec::MachineProfile t3e = exec::MachineProfile::t3e600();
  const fire::FireWork w = fire::make_fire_work(fire::FireWorkParams{});

  struct PaperRow {
    int pes;
    double filter, motion, rvo, total, speedup;
  };
  const PaperRow paper[] = {
      {1, 0.18, 1.55, 109.27, 111.00, 1.0},  {2, 0.09, 0.91, 54.65, 55.65, 2.0},
      {4, 0.05, 0.56, 27.36, 27.97, 4.0},    {8, 0.03, 0.46, 13.74, 14.23, 7.8},
      {16, 0.02, 0.35, 6.93, 7.30, 15.2},    {32, 0.02, 0.33, 3.51, 3.86, 28.7},
      {64, 0.03, 0.35, 1.85, 2.22, 50.0},    {128, 0.03, 0.34, 1.00, 1.37, 81.1},
      {256, 0.04, 0.40, 0.59, 1.01, 110.5}};

  std::printf("== Table 1: FIRE module times on Cray T3E-600, 64x64x16 "
              "image ==\n");
  std::printf("%4s | %18s | %18s | %18s | %18s | %14s\n", "PEs",
              "filter (ours/paper)", "motion (ours/paper)",
              "RVO (ours/paper)", "total (ours/paper)", "speedup (o/p)");
  const double t1 = exec::time_on(t3e, w.filter, 1).sec() +
                    exec::time_on(t3e, w.motion, 1).sec() +
                    exec::time_on(t3e, w.rvo, 1).sec();
  for (const PaperRow& row : paper) {
    const double f = exec::time_on(t3e, w.filter, row.pes).sec();
    const double m = exec::time_on(t3e, w.motion, row.pes).sec();
    const double r = exec::time_on(t3e, w.rvo, row.pes).sec();
    const double tot = f + m + r;
    std::printf("%4d | %8.2f / %7.2f | %8.2f / %7.2f | %8.2f / %7.2f | "
                "%8.2f / %7.2f | %6.1f / %5.1f\n",
                row.pes, f, row.filter, m, row.motion, r, row.rvo, tot,
                row.total, t1 / tot, row.speedup);
  }
  std::printf("\n(paper note reproduced: larger images take more time but "
              "achieve better speedups)\n");
  const fire::FireWorkParams big{{128, 128, 32}, 128, 100, 8, 3};
  const fire::FireWork wb = fire::make_fire_work(big);
  auto total_at = [&](const fire::FireWork& ww, int pes) {
    return exec::time_on(t3e, ww.filter, pes).sec() +
           exec::time_on(t3e, ww.motion, pes).sec() +
           exec::time_on(t3e, ww.rvo, pes).sec();
  };
  std::printf("  64x64x16 : speedup@256 = %.1f\n",
              total_at(w, 1) / total_at(w, 256));
  std::printf("  128x128x32: speedup@256 = %.1f\n\n",
              total_at(wb, 1) / total_at(wb, 256));
}

}  // namespace

int main() {
  print_table1();
  return 0;
}
