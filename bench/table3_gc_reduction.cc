// Reproduces Table 3: GC time, its share of execution time, and Deca's GC
// reduction for the five applications, each at its largest configuration
// without data swapping/spilling (as in the paper).

#include "bench_util.h"
#include "workloads/graph.h"
#include "workloads/kmeans.h"
#include "workloads/lr.h"
#include "workloads/wordcount.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("table3_gc_reduction", argc, argv);
  PrintHeader("Table 3: GC time reduction",
              "Table 3 — Spark exec/gc/ratio vs Deca gc + reduction",
              "Largest non-spilling configuration per application");
  TablePrinter t({"app", "Spark exec(ms)", "Spark gc(ms)", "gc ratio",
                  "Deca exec(ms)", "Deca gc(ms)", "gc reduction"});

  auto add_row = [&](const char* app, const RunResult& spark,
                     const RunResult& deca) {
    double reduction = spark.gc_ms > 0
                           ? 100.0 * (spark.gc_ms - deca.gc_ms) / spark.gc_ms
                           : 0.0;
    report.AddRun(std::string(app) + "/Spark", spark);
    report.AddRun(std::string(app) + "/Deca", deca);
    t.AddRow({app, Ms(spark.exec_ms), Ms(spark.gc_ms),
              Pct(100.0 * spark.gc_ms / spark.exec_ms), Ms(deca.exec_ms),
              Ms(deca.gc_ms), Pct(reduction)});
  };

  {
    WordCountParams p;
    p.total_words = 3'000'000;
    p.distinct_keys = 200'000;
    p.spark = DefaultSpark();
    p.mode = Mode::kSpark;
    WordCountResult s = RunWordCount(p);
    p.mode = Mode::kDeca;
    WordCountResult d = RunWordCount(p);
    add_row("WC: 3M/200k", s.run, d.run);
  }
  {
    MlParams p;
    p.num_points = 640'000;
    p.iterations = 10;
    p.spark = DefaultSpark(64, 0.9);
    p.mode = Mode::kSpark;
    LrResult s = RunLogisticRegression(p);
    p.mode = Mode::kDeca;
    LrResult d = RunLogisticRegression(p);
    add_row("LR: 640k", s.run, d.run);
  }
  {
    MlParams p;
    p.num_points = 480'000;
    p.iterations = 8;
    p.spark = DefaultSpark(64, 0.8);
    p.mode = Mode::kSpark;
    KMeansResult s = RunKMeans(p);
    p.mode = Mode::kDeca;
    KMeansResult d = RunKMeans(p);
    add_row("KMeans: 480k", s.run, d.run);
  }
  {
    GraphParams p;
    p.num_vertices = 1u << 17;
    p.num_edges = 1u << 20;
    p.iterations = 5;
    p.spark = DefaultSpark(64, 0.4);
    p.spark.partitions_per_executor = 4;
    p.mode = Mode::kSpark;
    PageRankResult s = RunPageRank(p);
    p.mode = Mode::kDeca;
    PageRankResult d = RunPageRank(p);
    add_row("PR: 1M edges", s.run, d.run);
  }
  {
    GraphParams p;
    p.num_vertices = 1u << 17;
    p.num_edges = 1u << 20;
    p.iterations = 6;
    p.spark = DefaultSpark(64, 0.4);
    p.spark.partitions_per_executor = 4;
    p.mode = Mode::kSpark;
    ConnectedComponentsResult s = RunConnectedComponents(p);
    p.mode = Mode::kDeca;
    ConnectedComponentsResult d = RunConnectedComponents(p);
    add_row("CC: 1M edges", s.run, d.run);
  }
  t.Print();
  std::printf(
      "\nExpected shape (paper): GC ratios 40-79%% for Spark; Deca removes\n"
      ">=97%% of GC time in every application.\n");
  return 0;
}
