// Reproduces Figure 11: breakdown of the slowest task's execution time.
// LR small (minimal GC for all; SparkSer pays deserialization), LR large
// (Spark GC-bound; SparkSer still deserializes), PR (shuffle dominated;
// Deca avoids both GC and serialization).

#include "bench_util.h"
#include "workloads/graph.h"
#include "workloads/lr.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

namespace {

void AddBreakdown(TablePrinter* t, const char* app, const char* mode,
                  const spark::TaskMetrics& m) {
  double pool_peak_mb = static_cast<double>(m.exec_pool_peak_bytes +
                                            m.storage_pool_peak_bytes) /
                        (1 << 20);
  t->AddRow({app, mode, Ms(m.total_ms), Ms(m.compute_ms()), Ms(m.gc_ms),
             Ms(m.deser_ms + m.ser_ms), Ms(m.shuffle_read_ms),
             Ms(m.shuffle_write_ms), Ms(m.spill_ms), Ms(m.queue_ms),
             Mb(pool_peak_mb)});
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig11_breakdown", argc, argv);
  PrintHeader("Figure 11: slowest-task execution time breakdown",
              "Fig. 11 — compute / GC / (de)ser / shuffle per task",
              "LR-small (fits), LR-large (GC + swap), PR (shuffle-heavy)");
  FaultTotals faults;
  std::vector<RunResult> pr_runs;
  TablePrinter t({"job", "mode", "total(ms)", "compute", "gc", "(de)ser",
                  "shuf read", "shuf write", "disk", "queue", "mem(MB)"});
  for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
    MlParams p;
    p.num_points = Scaled(240'000);
    p.iterations = 10;
    p.mode = mode;
    p.spark = DefaultSpark(64, 0.9);
    LrResult r = RunLogisticRegression(p);
    faults.Add(r.run);
    AddBreakdown(&t, "LR-small", ModeName(mode), r.run.slowest_task);
    report.AddRun(std::string("LR-small/") + ModeName(mode), r.run);
  }
  for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
    MlParams p;
    p.num_points = Scaled(800'000);
    p.iterations = 10;
    p.mode = mode;
    p.spark = DefaultSpark(64, 0.9);
    LrResult r = RunLogisticRegression(p);
    faults.Add(r.run);
    AddBreakdown(&t, "LR-large", ModeName(mode), r.run.slowest_task);
    report.AddRun(std::string("LR-large/") + ModeName(mode), r.run);
  }
  for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
    GraphParams p;
    p.num_vertices = static_cast<uint32_t>(Scaled(1u << 17));
    p.num_edges = static_cast<uint32_t>(Scaled(1u << 21));
    p.iterations = 4;
    p.mode = mode;
    p.spark = DefaultSpark(64, 0.4);
    p.spark.partitions_per_executor = 4;
    PageRankResult r = RunPageRank(p);
    faults.Add(r.run);
    AddBreakdown(&t, "PR", ModeName(mode), r.run.slowest_task);
    report.AddRun(std::string("PR/") + ModeName(mode), r.run);
    pr_runs.push_back(r.run);
  }
  t.Print();
  for (const RunResult& r : pr_runs) PrintExecutorMemory(r);
  faults.PrintIfAny();
  std::printf(
      "\nExpected shape (paper Fig. 11): LR-small — SparkSer's bar is\n"
      "dominated by deserialization; LR-large — Spark's bar is dominated\n"
      "by GC; PR — Spark/SparkSer pay shuffle (de)serialization that Deca\n"
      "avoids by emitting raw decomposed bytes.\n");
  return 0;
}
