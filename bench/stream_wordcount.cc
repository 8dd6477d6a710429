// Steady-state micro-batch streaming: hundreds of tumbling-window
// wordcount epochs under Deca epoch regions vs the three GC collectors.
// The paper's lifetime argument, applied to streaming: every allocation
// of an epoch dies with the window that reads it, so the region reclaims
// the whole epoch as one unit. The collectors instead rediscover each
// dead object per cycle, so their per-epoch pause (and its p99 tail)
// scales with live data while Deca's stays flat — and the end-of-run
// data-plane footprint must sit at zero, not drift.

#include <cstdlib>

#include "bench_util.h"
#include "workloads/stream.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

namespace {

struct Variant {
  const char* name;
  Mode mode;
  jvm::GcAlgorithm algo;
};

std::string DriftKb(const RunResult& r) {
  double kb = (static_cast<double>(r.footprint_end_bytes) -
               static_cast<double>(r.footprint_base_bytes)) /
              1024.0;
  return TablePrinter::Num(kb, 1);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("stream_wordcount", argc, argv);
  PrintHeader("Streaming wordcount: epoch regions vs GC",
              "Sec. 3.4/4 lifetimes applied to micro-batching",
              "240 tumbling epochs x window 4; DECA_STREAM_* overrides");
  StreamParams p;
  p.stream = DefaultStreamOptions(/*epochs_def=*/240, /*window_def=*/4);
  p.records_per_epoch = Scaled(20'000);
  p.distinct_keys = Scaled(4'096);
  p.spark = DefaultSpark();

  const Variant variants[] = {
      {"Deca", Mode::kDeca, jvm::GcAlgorithm::kParallelScavenge},
      {"Spark-PS", Mode::kSpark, jvm::GcAlgorithm::kParallelScavenge},
      {"Spark-CMS", Mode::kSpark, jvm::GcAlgorithm::kConcurrentMarkSweep},
      {"Spark-G1", Mode::kSpark, jvm::GcAlgorithm::kG1},
  };

  FaultTotals faults;
  TablePrinter t({"variant", "krec/s", "pause p50(ms)", "pause p99(ms)",
                  "reclaim p99(ms)", "gc(ms)", "full GCs", "drift(KB)"});
  uint64_t digest = 0;
  bool digests_agree = true;
  RunResult last;
  for (const Variant& v : variants) {
    p.mode = v.mode;
    p.spark.heap.algorithm = v.algo;
    PrintEffectiveConfig(p.spark);
    StreamResult r = RunStreamWordCount(p);
    faults.Add(r.run);
    last = r.run;
    if (digest == 0) digest = r.digest;
    digests_agree = digests_agree && r.digest == digest;
    report.AddRun(std::string("stream-wc/") + v.name, r.run);
    report.AddMetric("throughput_rps", r.throughput_rps, /*exact=*/false);
    // The 64-bit window digest in exact halves (a double carries 53
    // bits), so budgeted and unbudgeted reports can be digest-compared.
    report.AddMetric("stream.digest_lo",
                     static_cast<double>(static_cast<uint32_t>(r.digest)),
                     /*exact=*/true);
    report.AddMetric("stream.digest_hi",
                     static_cast<double>(static_cast<uint32_t>(r.digest >> 32)),
                     /*exact=*/true);
    t.AddRow({v.name, TablePrinter::Num(r.throughput_rps / 1000.0, 1),
              Ms(r.run.epoch_pause_p50_ms), Ms(r.run.epoch_pause_p99_ms),
              Ms(r.run.epoch_reclaim_p99_ms), Ms(r.run.gc_ms),
              std::to_string(r.run.full_gcs), DriftKb(r.run)});
  }
  t.Print();
  PrintExecutorMemory(last);
  faults.PrintIfAny();
  std::printf("\nwindow digests agree across variants: %s\n",
              digests_agree ? "yes" : "NO — BUG");
  std::printf(
      "\nExpected shape: identical digests everywhere (the collector is\n"
      "not allowed to change answers); Deca's p99 pause stays flat while\n"
      "the collectors' tails track live data; every variant ends with the\n"
      "data plane empty (drift <= 0: the end sample, after the last\n"
      "window retires, is at or below the epoch-10 base).\n");
  return digests_agree ? 0 : 1;
}
