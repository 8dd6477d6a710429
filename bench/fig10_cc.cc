// Reproduces Figure 10(b): ConnectedComponents on the same three graphs as
// Figure 10(a), via min-label propagation over the cached adjacency lists.

#include "bench_util.h"
#include "workloads/graph.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig10_cc", argc, argv);
  PrintHeader("Figure 10(b): ConnectedComponents",
              "Fig. 10(b) — LJ(2GB) / WB(30GB) / HB(60GB) graphs",
              "Scaled: RMAT graphs {64k/512k, 128k/1M, 256k/2M} (V/E), "
              "up to 6 label-propagation rounds");
  struct GraphSpec {
    const char* name;
    uint64_t v, e;
  } graphs[] = {{"LJ", 1u << 16, 1u << 19},
                {"WB", 1u << 17, 1u << 20},
                {"HB", 1u << 18, 1u << 21}};
  TablePrinter t({"graph", "mode", "exec(ms)", "gc(ms)", "gc%", "cached(MB)",
                  "components", "vs Spark"});
  for (const auto& g : graphs) {
    double spark_ms = 0;
    for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
      GraphParams p;
      p.num_vertices = g.v;
      p.num_edges = g.e;
      p.iterations = 6;
      p.mode = mode;
      p.spark = DefaultSpark(64, 0.4);
      p.spark.partitions_per_executor = 4;
      PrintEffectiveConfig(p.spark);
      ConnectedComponentsResult r = RunConnectedComponents(p);
      if (mode == Mode::kSpark) spark_ms = r.run.exec_ms;
      report.AddRun(std::string(g.name) + "/" + ModeName(mode), r.run);
      t.AddRow({g.name, ModeName(mode), Ms(r.run.exec_ms), Ms(r.run.gc_ms),
                Pct(100.0 * r.run.gc_ms / r.run.exec_ms), Mb(r.run.cached_mb),
                std::to_string(r.components),
                Speedup(spark_ms, r.run.exec_ms)});
    }
  }
  t.Print();
  std::printf("\nExpected shape: as Fig 10(a); component counts identical\n"
              "across modes (exact cross-mode agreement).\n");
  return 0;
}
