// Reproduces Figure 10(a): PageRank on three graphs (the paper's
// LiveJournal 2GB / WebBase 30GB / HiBench 60GB become three RMAT graphs of
// increasing size). Mixed caching (adjacency lists, built via groupByKey —
// the partially decomposable scenario) and per-iteration contribution
// shuffles. Paper: Deca 1.1-6.4x; SparkSer has little impact because
// (de)serialization offsets its GC savings.

#include "bench_util.h"
#include "workloads/graph.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig10_pagerank", argc, argv);
  PrintHeader("Figure 10(a): PageRank",
              "Fig. 10(a) — LJ(2GB) / WB(30GB) / HB(60GB) graphs",
              "Scaled: RMAT graphs {64k/512k, 128k/1M, 256k/2M} (V/E), "
              "5 iterations");
  struct GraphSpec {
    const char* name;
    uint64_t v, e;
  } graphs[] = {{"LJ", 1u << 16, 1u << 19},
                {"WB", 1u << 17, 1u << 20},
                {"HB", 1u << 18, 1u << 21}};
  TablePrinter t({"graph", "mode", "exec(ms)", "gc(ms)", "gc%",
                  "cached(MB)", "load(ms)", "vs Spark"});
  for (const auto& g : graphs) {
    double spark_ms = 0;
    for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
      GraphParams p;
      p.num_vertices = g.v;
      p.num_edges = g.e;
      p.iterations = 5;
      p.mode = mode;
      p.spark = DefaultSpark(64, 0.4);  // paper: 40% caching, rest shuffle
      p.spark.partitions_per_executor = 4;
      PrintEffectiveConfig(p.spark);
      PageRankResult r = RunPageRank(p);
      if (mode == Mode::kSpark) spark_ms = r.run.exec_ms;
      report.AddRun(std::string(g.name) + "/" + ModeName(mode), r.run);
      t.AddRow({g.name, ModeName(mode), Ms(r.run.exec_ms), Ms(r.run.gc_ms),
                Pct(100.0 * r.run.gc_ms / r.run.exec_ms), Mb(r.run.cached_mb),
                Ms(r.run.load_ms), Speedup(spark_ms, r.run.exec_ms)});
    }
  }
  t.Print();
  std::printf(
      "\nExpected shape: Deca 1.1-6.4x; SparkSer ~= Spark (deserialization\n"
      "offsets its GC savings).\n");
  return 0;
}
