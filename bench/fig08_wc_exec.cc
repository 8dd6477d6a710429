// Reproduces Figure 8(b): WordCount execution times across dataset sizes
// and distinct-key counts, Spark vs Deca. Paper: Deca reduces execution
// time by 10-58%, with larger gains at higher key cardinality because the
// eagerly-combining hash buffer's size (and GC load) scales with the
// number of keys.

#include "bench_util.h"
#include "workloads/wordcount.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig08_wc_exec", argc, argv);
  PrintHeader("Figure 8(b): WordCount execution time",
              "Fig. 8(b) — sizes {50,100,150}GB x keys {10M,100M}",
              "Scaled: words {1M,2M,3M} x distinct keys {20k,200k}");
  FaultTotals faults;
  RunResult last_spark, last_deca;
  TablePrinter t({"keys", "words", "Spark exec(ms)", "Spark gc(ms)",
                  "Deca exec(ms)", "Deca gc(ms)", "reduction", "speedup"});
  // Wire-codec ablation (network transport only): the same Deca payload
  // shipped as zero-copy pages vs per-record serialized frames.
  bool net = DefaultSpark().shuffle_transport != spark::ShuffleTransport::kLocal;
  TablePrinter wire({"keys", "words", "page wire(KB)", "record wire(KB)",
                     "page rec enc", "record rec enc", "page enc(ms)",
                     "record enc(ms)"});
  for (uint64_t keys : {Scaled(20'000), Scaled(200'000)}) {
    for (uint64_t words :
         {Scaled(1'000'000), Scaled(2'000'000), Scaled(3'000'000)}) {
      WordCountParams p;
      p.total_words = words;
      p.distinct_keys = keys;
      p.spark = DefaultSpark();
      p.mode = Mode::kSpark;
      PrintEffectiveConfig(p.spark);
      WordCountResult spark = RunWordCount(p);
      p.mode = Mode::kDeca;
      WordCountResult deca = RunWordCount(p);
      faults.Add(spark.run);
      faults.Add(deca.run);
      last_spark = spark.run;
      last_deca = deca.run;
      std::string cell =
          std::to_string(keys) + "k/" + std::to_string(words) + "w";
      report.AddRun(cell + "/Spark", spark.run);
      report.AddRun(cell + "/Deca", deca.run);
      if (net) {
        // Same workload, same payload bytes — only the wire codec
        // changes. Page mode must ship fewer bytes and encode zero
        // records (the paper's serialization-elimination claim).
        p.spark.shuffle_wire_codec = spark::ShuffleWireCodec::kRecord;
        WordCountResult rec = RunWordCount(p);
        p.spark.shuffle_wire_codec = spark::ShuffleWireCodec::kAuto;
        faults.Add(rec.run);
        report.AddRun(cell + "/Deca-wire-record", rec.run);
        wire.AddRow(
            {std::to_string(keys), std::to_string(words),
             Mb(static_cast<double>(deca.run.net.wire_bytes) / 1024.0),
             Mb(static_cast<double>(rec.run.net.wire_bytes) / 1024.0),
             std::to_string(deca.run.net.records_encoded),
             std::to_string(rec.run.net.records_encoded),
             Ms(deca.run.net.encode_ms), Ms(rec.run.net.encode_ms)});
      }
      t.AddRow({std::to_string(keys), std::to_string(words),
                Ms(spark.run.exec_ms), Ms(spark.run.gc_ms),
                Ms(deca.run.exec_ms), Ms(deca.run.gc_ms),
                Pct(100.0 * (spark.run.exec_ms - deca.run.exec_ms) /
                    spark.run.exec_ms),
                Speedup(spark.run.exec_ms, deca.run.exec_ms)});
    }
  }
  t.Print();
  if (net) {
    std::printf("\nWire codec ablation (Deca payload, page vs record):\n");
    wire.Print();
  }
  PrintExecutorMemory(last_spark);
  PrintExecutorMemory(last_deca);
  faults.PrintIfAny();
  std::printf(
      "\nExpected shape: Deca wins everywhere; Spark's GC share (and the\n"
      "absolute gap) grows with the number of distinct keys.\n");
  return 0;
}
