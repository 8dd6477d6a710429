// Reproduces Figure 9(c): KMeans execution time and cached data size
// across dataset sizes for Spark, SparkSer and Deca. Same caching story as
// LR plus an aggregated shuffle per iteration.

#include "bench_util.h"
#include "workloads/kmeans.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig09_kmeans_exec", argc, argv);
  PrintHeader("Figure 9(c): KMeans execution time",
              "Fig. 9(c) — sizes {40..200}GB, Spark/SparkSer/Deca",
              "Scaled: 10-dim points {120k..600k}, k=10, 8 iters");
  TablePrinter t({"points", "mode", "exec(ms)", "gc(ms)", "gc%", "full GCs",
                  "cached(MB)", "swapped(MB)", "vs Spark"});
  for (uint64_t pts :
       {120'000ull, 240'000ull, 360'000ull, 480'000ull, 600'000ull}) {
    double spark_ms = 0;
    for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
      MlParams p;
      p.dims = 10;
      p.clusters = 10;
      p.num_points = pts;
      p.iterations = 8;
      p.mode = mode;
      p.spark = DefaultSpark(64, 0.8);
      LrResult dummy;  // (unused; kept for symmetry with fig09_lr_exec)
      (void)dummy;
      PrintEffectiveConfig(p.spark);
      KMeansResult r = RunKMeans(p);
      if (mode == Mode::kSpark) spark_ms = r.run.exec_ms;
      report.AddRun(std::to_string(pts) + "pts/" + ModeName(mode), r.run);
      t.AddRow({std::to_string(pts), ModeName(mode), Ms(r.run.exec_ms),
                Ms(r.run.gc_ms), Pct(100.0 * r.run.gc_ms / r.run.exec_ms),
                std::to_string(r.run.full_gcs), Mb(r.run.cached_mb),
                Mb(r.run.swapped_mb), Speedup(spark_ms, r.run.exec_ms)});
    }
  }
  t.Print();
  std::printf(
      "\nExpected shape: same crossover as LR — moderate Deca gains while\n"
      "the cache fits, large once Spark full-GC thrashes or swaps.\n");
  return 0;
}
