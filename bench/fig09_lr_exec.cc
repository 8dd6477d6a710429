// Reproduces Figure 9(b): LR execution time and cached data size across
// dataset sizes for Spark, SparkSer and Deca. Paper shape: moderate gains
// while the cache fits (full GC rare), 16-41.6x once the long-living
// cached objects saturate the old generation (frequent useless full GCs +
// cache swapping); SparkSer helps only in the GC-bound regime.

#include "bench_util.h"
#include "workloads/lr.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig09_lr_exec", argc, argv);
  PrintHeader("Figure 9(b): Logistic Regression execution time",
              "Fig. 9(b) — sizes {40..200}GB, Spark/SparkSer/Deca",
              "Scaled: 10-dim points {160k..800k}, 10 iters, 2 x 64MB heaps,"
              " storage fraction 0.9");
  TablePrinter t({"points", "mode", "exec(ms)", "gc(ms)", "gc%", "full GCs",
                  "cached(MB)", "swapped(MB)", "vs Spark"});
  for (uint64_t pts :
       {Scaled(160'000), Scaled(320'000), Scaled(480'000), Scaled(640'000),
        Scaled(800'000)}) {
    double spark_ms = 0;
    for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
      MlParams p;
      p.dims = 10;
      p.num_points = pts;
      p.iterations = 10;
      p.mode = mode;
      p.spark = DefaultSpark(64, 0.9);
      LrResult r = RunLogisticRegression(p);
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
      "\nExpected shape: Deca speedup is 2-4x while data fits, then jumps\n"
      "past 10x when Spark starts full-GC thrashing and swapping; Deca's\n"
      "cached footprint is ~45%% smaller and never swaps.\n");
  return 0;
}
