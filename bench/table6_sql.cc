// Reproduces Table 6: the two exploratory SQL queries over cached tables,
// comparing the hand-written RDD program (Spark), a columnar in-memory
// store with serialized aggregation (Spark SQL + Tungsten), and Deca.
// Paper: all three tie on the small filter query; on the GroupBy
// aggregation Deca and Spark SQL cut >50% of Spark's time and ~2x its
// cache footprint, and Deca ~= Spark SQL while keeping Spark's general
// programming model.

#include "bench_util.h"
#include "workloads/sql.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("table6_sql", argc, argv);
  PrintHeader("Table 6: exploratory SQL queries",
              "Table 6 — Q1 (filter) and Q2 (GroupBy-SUM) x 3 systems",
              "Scaled: rankings 400k rows, uservisits 1.2M rows");
  TablePrinter t({"query", "system", "exec(ms)", "gc(ms)", "cache(MB)",
                  "result"});
  for (SqlEngine engine :
       {SqlEngine::kSparkRdd, SqlEngine::kSparkSql, SqlEngine::kDeca}) {
    SqlParams p;
    p.rankings_rows = 400'000;
    p.uservisits_rows = 1'200'000;
    p.engine = engine;
    // Sized so even the object-form tables fully fit in memory, as in the
    // paper ("input tables are entirely cached in memory").
    p.spark = DefaultSpark(128, 0.9);
    SqlResult r = RunSqlQueries(p);
    report.AddRun(SqlEngineName(engine), r.run);
    t.AddRow({"Q1", SqlEngineName(engine), Ms(r.q1_exec_ms), Ms(r.q1_gc_ms),
              Mb(r.cached_mb),
              std::to_string(r.q1_matches) + " rows"});
    t.AddRow({"Q2", SqlEngineName(engine), Ms(r.q2_exec_ms), Ms(r.q2_gc_ms),
              Mb(r.cached_mb),
              std::to_string(r.q2_groups) + " groups"});
  }
  t.Print();
  std::printf(
      "\nExpected shape (paper Table 6): Q1 roughly ties; on Q2 Deca and\n"
      "Spark SQL beat Spark by >2x with ~half the cache footprint, and\n"
      "Deca ~= Spark SQL.\n");
  return 0;
}
