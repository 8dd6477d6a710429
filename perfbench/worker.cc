// Benchmark worker: one process runs one workload entry point (or the
// host calibration loop) and prints its measurements as a single JSON
// line on stdout. run.py starts a fresh worker per sample, so every
// number below belongs to exactly one process.
//
//   perfbench_worker spin
//   perfbench_worker run <workload> --seed=N --spill-dir=DIR
//                    [--trace] [--reference] [--<size>=N ...]
//
// --trace turns the engine's existing trace on, derives the per-layer
// numbers from it and the entry's returned counters, then runs the
// workload's layer probes. --reference runs the same seed in the
// configuration the output check compares against.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/page_allocator.h"
#include "common/bytes.h"
#include "common/random.h"
#include "jvm/class_registry.h"
#include "jvm/heap.h"
#include "net/wire.h"
#include "spark/record_ops.h"
#include "spark/shuffle.h"
#include "workloads/lr.h"
#include "workloads/serve_entry.h"
#include "workloads/stream.h"
#include "workloads/wordcount.h"

namespace {

using namespace deca;
using workloads::Mode;

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_worker: %s\n", msg.c_str());
  std::exit(2);
}

struct Args {
  std::string cmd;
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  bool reference = false;
  std::string spill_dir;
  std::map<std::string, uint64_t> sizes;

  uint64_t Size(const char* name) const {
    auto it = sizes.find(name);
    if (it == sizes.end()) Die(std::string("missing --") + name);
    return it->second;
  }
};

Args Parse(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: perfbench_worker spin | run <workload> ...");
  a.cmd = argv[1];
  int i = 2;
  if (a.cmd == "run") {
    if (argc < 3) Die("run needs a workload name");
    a.workload = argv[i++];
  }
  bool have_seed = false;
  for (; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--trace") {
      a.trace = true;
    } else if (s == "--reference") {
      a.reference = true;
    } else if (s.rfind("--spill-dir=", 0) == 0) {
      a.spill_dir = s.substr(12);
    } else if (s.rfind("--", 0) == 0 && s.find('=') != std::string::npos) {
      size_t eq = s.find('=');
      char* end = nullptr;
      uint64_t v = std::strtoull(s.c_str() + eq + 1, &end, 10);
      if (end == s.c_str() + eq + 1 || *end != '\0') Die("bad value: " + s);
      std::string key = s.substr(2, eq - 2);
      if (key == "seed") {
        a.seed = v;
        have_seed = true;
      } else {
        a.sizes[key] = v;
      }
    } else {
      Die("unknown argument: " + s);
    }
  }
  if (a.cmd == "run" && (!have_seed || a.spill_dir.empty())) {
    Die("run needs --seed and --spill-dir");
  }
  return a;
}

/// One flat JSON object built in key order; doubles keep all 17 digits.
class Json {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(k, buf);
  }
  void Str(const std::string& k, const std::string& v) {
    Raw(k, "\"" + v + "\"");
  }
  void Raw(const std::string& k, const std::string& v) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"" + k + "\": " + v;
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// -- Host calibration ---------------------------------------------------------

/// A fixed, allocation-free CPU loop. Its wall time only tells how fast
/// the host ran this process; it never adjusts another number.
int Spin() {
  double t0 = NowSec();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 10'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double ms = (NowSec() - t0) * 1e3;
  Json j;
  j.Num("spin_ms", ms);
  j.Str("sink", Hex(x));
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// -- Engine configuration -----------------------------------------------------

/// 2 executors x 2 partitions on 2 worker threads, 64 MB heaps under
/// ParallelScavenge, shuffle over the in-process loopback wire.
spark::SparkConfig BaseConfig(const Args& a) {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.num_worker_threads = 2;
  cfg.heap.heap_bytes = 64u << 20;
  cfg.memory_fraction = 0.75;
  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  cfg.spill_dir = a.spill_dir;
  cfg.trace_enabled = a.trace;
  return cfg;
}

// -- Per-layer numbers from the trace and the returned counters ---------------

struct TraceSums {
  uint64_t tasks = 0;
  double task_ms = 0;
  double max_queue_ms = 0;
  double gc_ms = 0;
  uint64_t minor_gcs = 0;
  uint64_t full_gcs = 0;
};

/// Sums task spans and stop-the-world GC spans over the measured phase:
/// every stage except the untimed "load" stage that lr and serve run
/// before their exec clock starts.
TraceSums SumTrace(const obs::TraceLog& log) {
  std::set<int32_t> load_stages;
  for (const auto& ev : log.events) {
    if (ev.cat == obs::Cat::kStage && std::strcmp(ev.name, "load") == 0) {
      load_stages.insert(ev.stage);
    }
  }
  TraceSums s;
  for (const auto& ev : log.events) {
    if (ev.instant() || load_stages.count(ev.stage) != 0) continue;
    double ms = static_cast<double>(ev.dur_ns) / 1e6;
    if (ev.cat == obs::Cat::kTask && std::strcmp(ev.name, "task") == 0) {
      ++s.tasks;
      s.task_ms += ms;
      s.max_queue_ms = std::max(s.max_queue_ms, ev.time_arg);
    } else if (ev.cat == obs::Cat::kGc) {
      if (std::strcmp(ev.name, "minor_pause") == 0) {
        ++s.minor_gcs;
        s.gc_ms += ms;
      } else if (std::strcmp(ev.name, "full_pause") == 0 ||
                 std::strcmp(ev.name, "mixed_pause") == 0 ||
                 std::strcmp(ev.name, "concurrent_mode_failure") == 0) {
        ++s.full_gcs;
        s.gc_ms += ms;
      }
    }
  }
  return s;
}

void AddLayers(const workloads::RunResult& r, Json* j) {
  if (r.trace == nullptr) Die("traced run returned no trace");
  TraceSums t = SumTrace(*r.trace);
  constexpr double kMb = 1 << 20;
  j->Num("jvm.gc_pause_ms", t.gc_ms);
  j->Num("jvm.gc_share", t.task_ms > 0 ? t.gc_ms / t.task_ms : 0);
  j->Num("jvm.full_gcs", static_cast<double>(t.full_gcs));
  j->Num("jvm.minor_gcs", static_cast<double>(t.minor_gcs));
  j->Num("jvm.pause_p99_ms", r.pauses.pause_p99_ms);
  j->Num("shuffle.write_ms", r.shuffle_write_ms);
  j->Num("shuffle.read_ms", r.shuffle_read_ms);
  j->Num("layers.compute_ms", r.compute_ms);
  // The buckets nest (a GC inside a deser scope counts in both), so the
  // residual is signed: negative when buckets double-count.
  j->Num("layers.residual_ms",
         t.task_ms - (r.compute_ms + t.gc_ms + r.shuffle_read_ms +
                      r.shuffle_write_ms + r.ser_ms + r.deser_ms +
                      r.spill_ms));
  const spark::TierCounters& tc = r.tier;
  uint64_t lookups = tc.t0_hits + tc.t1_hits + tc.t2_hits + tc.misses;
  j->Num("tier.t0_hits", static_cast<double>(tc.t0_hits));
  j->Num("tier.t1_hits", static_cast<double>(tc.t1_hits));
  j->Num("tier.t2_hits", static_cast<double>(tc.t2_hits));
  j->Num("tier.t0_hit_ratio",
         lookups > 0 ? static_cast<double>(tc.t0_hits) /
                           static_cast<double>(lookups)
                     : 0);
  j->Num("tier.demotes_to_t1", static_cast<double>(tc.demotes_to_t1));
  j->Num("tier.demotes_to_t2", static_cast<double>(tc.demotes_to_t2));
  j->Num("tier.promotes", static_cast<double>(tc.promotes));
  j->Num("tier.admit_rejects", static_cast<double>(tc.admit_rejects));
  j->Num("tier.promote_p99_ms", tc.promote_p99_ms);
  j->Num("tier.spill_ms", r.spill_ms);
  j->Num("tier.swapped_mb", r.swapped_mb);
  j->Num("serde.ser_ms", r.ser_ms);
  j->Num("serde.deser_ms", r.deser_ms);
  j->Num("alloc.allocs", static_cast<double>(r.alloc.alloc_calls));
  j->Num("alloc.bytes_requested", static_cast<double>(r.alloc.bytes_requested));
  double exec_peak = 0, storage_peak = 0;
  for (const auto& m : r.executor_memory) {
    exec_peak += static_cast<double>(m.exec_peak);
    storage_peak += static_cast<double>(m.storage_peak);
  }
  j->Num("memory.exec_peak_mb", exec_peak / kMb);
  j->Num("memory.storage_peak_mb", storage_peak / kMb);
  j->Num("memory.denied_reservations",
         static_cast<double>(r.denied_reservations));
  j->Num("net.wire_bytes", static_cast<double>(r.net.wire_bytes));
  j->Num("net.messages", static_cast<double>(r.net.messages));
  j->Num("net.encode_ms", r.net.encode_ms);
  j->Num("net.decode_ms", r.net.decode_ms);
  j->Num("stream.pause_p99_ms", r.epoch_pause_p99_ms);
  j->Num("stream.reclaim_p99_ms", r.epoch_reclaim_p99_ms);
  j->Num("stream.reclaimed_mb",
         static_cast<double>(r.epoch_reclaimed_bytes) / kMb);
  j->Num("stream.drift_kb", (static_cast<double>(r.footprint_end_bytes) -
                             static_cast<double>(r.footprint_base_bytes)) /
                                1024);
  j->Num("exec.tasks", static_cast<double>(t.tasks));
  j->Num("exec.task_ms", t.task_ms);
  j->Num("exec.slowest_queue_ms", t.max_queue_ms);
  j->Num("exec.task_retries", static_cast<double>(r.task_retries));
  j->Num("trace.dropped_events", static_cast<double>(r.trace->dropped_events));
}

// -- Layer probes ---------------------------------------------------------------
//
// Each probe times public functions of one layer in isolation, shaped by
// the workload's own parameters, and reports time per operation plus the
// operation count. A probe that can check its own result does, and a
// wrong result fails the process.

/// Seconds of one probe's timed loop, so every probe costs about the same.
constexpr double kProbeSeconds = 0.3;

struct ProbeResult {
  double per_op = 0;  // in the probe's unit
  uint64_t ops = 0;
};

/// Repeats `batch` (which performs `ops_per_batch` operations) until
/// kProbeSeconds have passed; returns ns per operation.
ProbeResult TimeBatches(uint64_t ops_per_batch,
                        const std::function<void()>& batch) {
  batch();  // warm-up, untimed
  ProbeResult r;
  double t0 = NowSec();
  double elapsed = 0;
  do {
    batch();
    r.ops += ops_per_batch;
    elapsed = NowSec() - t0;
  } while (elapsed < kProbeSeconds);
  r.per_op = elapsed * 1e9 / static_cast<double>(r.ops);
  return r;
}

/// Full collections over lr-spark's cached live set: one partition's
/// LabeledPoints, rooted in 1024-point arrays the way cache blocks are.
ProbeResult ProbeFullGc(uint64_t points, int dims, uint64_t seed) {
  jvm::ClassRegistry registry;
  jvm::HeapConfig hc;
  hc.heap_bytes = 64u << 20;
  jvm::Heap heap(hc, &registry);
  workloads::LrTypes types(&registry, dims);
  jvm::VectorRootProvider roots;
  heap.AddRootProvider(&roots);
  Rng rng(seed);
  std::vector<double> feats(static_cast<size_t>(dims));
  for (uint64_t done = 0; done < points;) {
    uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(1024, points - done));
    roots.refs().push_back(
        heap.AllocateArray(registry.ref_array_class(), n));
    for (uint32_t i = 0; i < n; ++i) {
      for (auto& f : feats) f = rng.NextGaussian();
      jvm::ObjRef lp = types.NewLabeledPoint(&heap, 1.0, feats.data());
      heap.SetRefElem(roots.refs().back(), i, lp);
    }
    done += n;
  }
  ProbeResult r = TimeBatches(1, [&heap] { heap.CollectFull(); });
  r.per_op /= 1e3;  // us per collection
  heap.RemoveRootProvider(&roots);
  return r;
}

/// LrTypes::ops().deserialize over Kryo rows of lr-spark's shape.
ProbeResult ProbeDecode(int dims, uint64_t seed) {
  jvm::ClassRegistry registry;
  jvm::HeapConfig hc;
  hc.heap_bytes = 64u << 20;
  jvm::Heap heap(hc, &registry);
  workloads::LrTypes types(&registry, dims);
  constexpr uint32_t kRows = 16384;
  ByteWriter w;
  Rng rng(seed);
  std::vector<double> feats(static_cast<size_t>(dims));
  double label_sum = 0;
  for (uint32_t i = 0; i < kRows; ++i) {
    jvm::HandleScope scope(&heap);
    for (auto& f : feats) f = rng.NextGaussian();
    double label = static_cast<double>(i % 7);
    label_sum += label;
    jvm::ObjRef lp = types.NewLabeledPoint(&heap, label, feats.data());
    types.ops().serialize(&heap, lp, &w);
  }
  std::vector<uint8_t> rows(w.data(), w.data() + w.size());
  return TimeBatches(kRows, [&] {
    ByteReader rd(rows.data(), rows.size());
    double sum = 0;
    for (uint32_t i = 0; i < kRows; ++i) {
      jvm::HandleScope scope(&heap);
      jvm::ObjRef lp = types.ops().deserialize(&heap, &rd);
      sum += heap.GetField<double>(lp, types.lp_label_off());
    }
    if (sum != label_sum) Die("decode probe read wrong labels");
  });
}

/// DecaHashShuffleBuffer::Insert of uniform words over `keys` distinct
/// keys, combining (word, 1) pairs in place as the map stage does.
ProbeResult ProbeHashInsert(uint64_t keys, uint64_t seed) {
  jvm::ClassRegistry registry;
  jvm::HeapConfig hc;
  hc.heap_bytes = 64u << 20;
  jvm::Heap heap(hc, &registry);
  spark::ShuffleOps ops;
  ops.deca_key_bytes = 8;
  ops.deca_value_bytes = 8;
  ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
    return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
  };
  ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
    StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
  };
  constexpr uint64_t kInserts = 1u << 20;
  Rng rng(seed);
  std::vector<int64_t> words(kInserts);
  for (auto& wd : words) wd = static_cast<int64_t>(rng.NextBounded(keys));
  return TimeBatches(kInserts, [&] {
    spark::DecaHashShuffleBuffer buf(&heap, &ops, 64u << 10);
    const int64_t one = 1;
    for (int64_t wd : words) {
      buf.Insert(reinterpret_cast<const uint8_t*>(&wd),
                 reinterpret_cast<const uint8_t*>(&one));
    }
    int64_t total = 0;
    buf.ForEach([&](const uint8_t* e) { total += LoadRaw<int64_t>(e + 8); });
    if (total != static_cast<int64_t>(kInserts)) {
      Die("hash-insert probe lost counts");
    }
  });
}

/// EncodeFrame/DecodeFrame round trips of one map task's chunk for one
/// reducer: `keys`/4 combined 16-byte (word, count) entries, page codec.
ProbeResult ProbeFrame(uint64_t keys, uint64_t seed) {
  ByteWriter w;
  Rng rng(seed);
  for (uint64_t i = 0; i < std::max<uint64_t>(1, keys / 4); ++i) {
    w.Write<uint64_t>(rng.Next());
    w.Write<int64_t>(1);
  }
  std::vector<uint8_t> payload(w.data(), w.data() + w.size());
  net::ChunkMeta meta;
  meta.fixed_record_bytes = 16;
  net::NetStats stats;
  std::vector<uint8_t> out;
  return TimeBatches(1, [&] {
    std::vector<uint8_t> frame =
        net::EncodeFrame(net::WireCodec::kPage, payload, meta, &stats);
    if (!net::DecodeFrame(frame, &out, &stats) || out != payload) {
      Die("frame probe round trip changed the payload");
    }
  });
}

/// PageAllocator Allocate/Free pairs rotating through the T1 packed
/// payload sizes serve-deca produces (48 KB to 1 MB), arena off as in
/// the measured runs.
ProbeResult ProbeAllocPair() {
  alloc::PageAllocator pa(alloc::ArenaOptions{}, 1);
  const size_t sizes[] = {48u << 10,  64u << 10,  96u << 10, 128u << 10,
                          192u << 10, 256u << 10, 384u << 10, 512u << 10,
                          768u << 10, 1u << 20};
  constexpr uint64_t kPairs = 1000;
  return TimeBatches(kPairs, [&] {
    for (uint64_t i = 0; i < kPairs; ++i) {
      alloc::Block b = pa.Allocate(sizes[i % std::size(sizes)]);
      b.data[0] = static_cast<uint8_t>(i);
      pa.Free(&b);
    }
  });
}

void AddProbe(const char* metric, const char* ops_metric,
              const ProbeResult& r, Json* j) {
  j->Num(metric, r.per_op);
  j->Num(ops_metric, static_cast<double>(r.ops));
}

/// The probes of the layers this workload is heavy in; the others report
/// zero so every traced run prints the same metric set.
void AddProbes(const Args& a, Json* j) {
  ProbeResult gc, decode, insert, frame, pair;
  if (a.workload == "lr-spark") {
    gc = ProbeFullGc(a.Size("points") / 4, 10, a.seed);
    decode = ProbeDecode(10, a.seed);
  } else if (a.workload == "wc-deca" || a.workload == "stream-deca") {
    insert = ProbeHashInsert(a.Size("keys"), a.seed);
    frame = ProbeFrame(a.Size("keys"), a.seed);
  } else if (a.workload == "serve-deca") {
    pair = ProbeAllocPair();
  }
  AddProbe("jvm.full_gc_us", "jvm.full_gc_ops", gc, j);
  AddProbe("core.hash_insert_ns", "core.hash_insert_ops", insert, j);
  AddProbe("common.decode_ns", "common.decode_ops", decode, j);
  AddProbe("alloc.pair_ns", "alloc.pair_ops", pair, j);
  AddProbe("net.frame_roundtrip_ns", "net.frame_roundtrip_ops", frame, j);
}

// -- Workloads ------------------------------------------------------------------

/// What one entry call returned: the run record, the input record count
/// behind records_per_s, and the fields the output check compares.
struct Outcome {
  workloads::RunResult run;
  double records = 0;
  double query_p50_ms = 0;  // serve-deca only
  double query_p99_ms = 0;
  Json check;
};

Outcome RunWc(const Args& a) {
  workloads::WordCountParams p;
  p.total_words = a.Size("words");
  p.distinct_keys = a.Size("keys");
  p.mode = Mode::kDeca;
  p.spark = BaseConfig(a);
  p.seed = a.seed;
  workloads::WordCountResult r = workloads::RunWordCount(p);
  Outcome o;
  o.run = std::move(r.run);
  o.records = static_cast<double>(p.total_words);
  o.check.Num("total", static_cast<double>(r.total_count));
  o.check.Num("distinct", static_cast<double>(r.distinct_found));
  return o;
}

Outcome RunLr(const Args& a) {
  workloads::MlParams p;
  p.dims = 10;
  p.num_points = a.Size("points");
  p.iterations = static_cast<int>(a.Size("iters"));
  // The reference is a Deca-mode run: LR weights are bit-identical
  // across modes.
  p.mode = a.reference ? Mode::kDeca : Mode::kSpark;
  p.spark = BaseConfig(a);
  p.spark.storage_fraction = 0.9;
  p.seed = a.seed;
  workloads::LrResult r = workloads::RunLogisticRegression(p);
  Outcome o;
  o.run = std::move(r.run);
  o.records = static_cast<double>(p.num_points) * p.iterations;
  std::string weights;
  for (double w : r.weights) {
    uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    weights += (weights.empty() ? "" : ",") + Hex(bits);
  }
  o.check.Str("weights", weights);
  return o;
}

Outcome RunServe(const Args& a) {
  workloads::ServeParams p;
  p.num_records = a.Size("records");
  p.record_doubles = 16;
  p.queries_per_task = static_cast<int>(a.Size("queries"));
  p.serve_stages = static_cast<int>(a.Size("stages"));
  p.mode = Mode::kDeca;
  p.seed = a.seed;
  p.spark = BaseConfig(a);
  p.spark.storage_tiers = 3;
  // Working set ~2x the unified budget: each executor gets half of the
  // raw table bytes it holds.
  uint64_t per_exec = p.num_records / 2;
  p.spark.executor_memory_bytes =
      static_cast<size_t>(per_exec * (8 + 8 * 16) / 2);
  // The reference runs the same queries sequentially (threads=0); the
  // digest is bit-identical across thread counts.
  if (a.reference) p.spark.num_worker_threads = 0;
  workloads::ServeResult r = workloads::RunServeCache(p);
  Outcome o;
  o.run = std::move(r.run);
  o.records = static_cast<double>(r.queries);
  o.check.Str("digest", Hex(r.digest));
  o.check.Num("queries", static_cast<double>(r.queries));
  o.query_p50_ms = r.latency_p50_ms;
  o.query_p99_ms = r.latency_p99_ms;
  return o;
}

Outcome RunStream(const Args& a) {
  workloads::StreamParams p;
  p.stream.epochs = static_cast<int>(a.Size("epochs"));
  p.stream.window = 4;
  p.records_per_epoch = a.Size("records");
  p.distinct_keys = a.Size("keys");
  p.mode = Mode::kDeca;
  p.spark = BaseConfig(a);
  p.seed = a.seed;
  // The reference runs the same epochs sequentially (threads=0); window
  // digests are bit-identical across thread counts.
  if (a.reference) p.spark.num_worker_threads = 0;
  workloads::StreamResult r = workloads::RunStreamWordCount(p);
  Outcome o;
  o.run = std::move(r.run);
  o.records = static_cast<double>(p.stream.epochs) *
              static_cast<double>(p.records_per_epoch);
  o.check.Str("digest", Hex(r.digest));
  o.check.Num("windows", static_cast<double>(r.windows));
  o.check.Num("records", static_cast<double>(r.records_processed));
  return o;
}

int Run(const Args& a) {
  std::function<Outcome(const Args&)> entry;
  if (a.workload == "wc-deca") {
    entry = RunWc;
  } else if (a.workload == "lr-spark") {
    entry = RunLr;
  } else if (a.workload == "serve-deca") {
    entry = RunServe;
  } else if (a.workload == "stream-deca") {
    entry = RunStream;
  } else {
    Die("unknown workload: " + a.workload);
  }
  double t0 = NowSec();
  Outcome o = entry(a);
  double entry_s = NowSec() - t0;
  double job_s = o.run.exec_ms / 1e3;

  Json j;
  j.Num("entry_s", entry_s);
  j.Num("job_s", job_s);
  j.Num("records", o.records);
  j.Num("query_p50_ms", o.query_p50_ms);
  j.Num("query_p99_ms", o.query_p99_ms);
  j.Raw("check", o.check.Done());
  if (a.trace) {
    Json layers;
    AddLayers(o.run, &layers);
    AddProbes(a, &layers);
    j.Raw("layers", layers.Done());
  }
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = Parse(argc, argv);
  if (a.cmd == "spin") return Spin();
  if (a.cmd == "run") return Run(a);
  Die("unknown command: " + a.cmd);
}
