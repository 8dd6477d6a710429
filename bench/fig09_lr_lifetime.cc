// Reproduces Figure 9(a): lifetimes of cached LabeledPoint objects in
// Logistic Regression. Spark's cached object count is flat and high for
// the whole run (full GCs repeatedly trace them in vain); Deca's points
// live as decomposed bytes, so the tracked count is (near) zero.

#include "bench_util.h"
#include "workloads/lr.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig09_lr_lifetime", argc, argv);
  PrintHeader("Figure 9(a): LR cached-object lifetimes",
              "Fig. 9(a) — live LabeledPoint count + GC time over run time",
              "Scaled: 480k 10-dim points, 15 iterations, 2 x 64MB heaps");
  MlParams p;
  p.dims = 10;
  p.num_points = 480'000;
  p.iterations = 15;
  p.spark = DefaultSpark(64, 0.9);
  p.profile = true;

  for (Mode mode : {Mode::kSpark, Mode::kDeca}) {
    p.mode = mode;
    PrintEffectiveConfig(p.spark);
    LrResult r = RunLogisticRegression(p);
    report.AddRun(ModeName(mode), r.run);
    std::printf("\n--- %s: exec=%.0fms gc=%.1fms (minor=%llu full=%llu)\n",
                ModeName(mode), r.run.exec_ms, r.run.gc_ms,
                static_cast<unsigned long long>(r.run.minor_gcs),
                static_cast<unsigned long long>(r.run.full_gcs));
    PrintSeries(std::string(ModeName(mode)) + "-LabeledPoint live objects",
                r.run.object_counts);
    PrintSeries(std::string(ModeName(mode)) + "-cumulative GC ms",
                r.run.gc_series);
  }
  std::printf(
      "\nExpected shape: Spark's LabeledPoint count is large and constant\n"
      "across iterations while GC time climbs; Deca tracks zero points.\n");
  return 0;
}
