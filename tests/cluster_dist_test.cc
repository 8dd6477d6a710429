// Distributed control-plane equivalence matrix: every workload digest,
// GC count, and fault counter must be bit-identical between the
// in-process backend and the one-daemon-per-executor backend — across
// seeds, worker-thread counts, and fault scripts, including a real
// SIGKILL-and-respawn recovery per seed.
//
// The injection seed can be varied from the outside (the CI fault matrix
// sets DECA_FAULT_SEED); every test here must hold for any seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "cluster/job_spec.h"
#include "common/bytes.h"
#include "fault/fault_config.h"
#include "spark/config.h"
#include "spark/dist.h"
#include "workloads/dist_entry.h"
#include "workloads/lr.h"
#include "workloads/wordcount.h"

namespace deca {
namespace {

uint64_t TestSeed() {
  const char* s = std::getenv("DECA_FAULT_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1337;
}

// Small control-plane timings so death detection (missed pings + failed
// probes) completes in tens of milliseconds instead of seconds.
spark::ClusterKnobs FastKnobs() {
  spark::ClusterKnobs k;
  k.heartbeat_interval_ms = 20;
  k.heartbeat_miss_threshold = 2;
  k.reconnect_probes = 2;
  k.retry_backoff_base_ms = 5;
  return k;
}

spark::SparkConfig Config(spark::DistMode mode, int threads) {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = 32u << 20;
  cfg.num_worker_threads = threads;
  cfg.dist_mode = mode;
  cfg.cluster = FastKnobs();
  return cfg;
}

workloads::WordCountResult Wc(spark::DistMode mode, int threads,
                              const fault::FaultConfig& fc) {
  workloads::WordCountParams p;
  p.total_words = 1u << 15;
  p.distinct_keys = 500;
  p.mode = workloads::Mode::kSpark;
  p.spark = Config(mode, threads);
  p.spark.fault = fc;
  return workloads::RunWordCount(p);
}

/// `tiered` turns on the serialized off-heap tier (T1) under a budget the
/// cached points overflow, so blocks demote to T1, cascade past its cap to
/// disk and are re-admitted on access.
workloads::LrResult Lr(spark::DistMode mode, int threads,
                       const fault::FaultConfig& fc, bool tiered = false) {
  workloads::MlParams p;
  p.dims = 10;
  p.num_points = 10000;
  p.iterations = 2;
  p.mode = workloads::Mode::kSpark;
  p.spark = Config(mode, threads);
  p.spark.fault = fc;
  if (tiered) {
    p.spark.executor_memory_bytes = 512u << 10;
    p.spark.storage_tiers = 3;
    p.spark.t1_fraction = 0.25;
    p.spark.admit_policy = spark::AdmitPolicy::kAlways;
  }
  return workloads::RunLogisticRegression(p);
}

void ExpectSameRun(const workloads::RunResult& a,
                   const workloads::RunResult& b) {
  EXPECT_EQ(a.minor_gcs, b.minor_gcs);
  EXPECT_EQ(a.full_gcs, b.full_gcs);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.executor_wipes, b.executor_wipes);
  EXPECT_EQ(a.recomputed_blocks, b.recomputed_blocks);
  EXPECT_EQ(a.oom_recoveries, b.oom_recoveries);
  // The allocator's counters are part of the determinism contract too.
  EXPECT_EQ(a.alloc.alloc_calls, b.alloc.alloc_calls);
  EXPECT_EQ(a.alloc.free_calls, b.alloc.free_calls);
  EXPECT_EQ(a.alloc.bytes_requested, b.alloc.bytes_requested);
  // Every other counter folded from the per-executor snapshots.
  EXPECT_EQ(a.cached_mb, b.cached_mb);
  EXPECT_EQ(a.swapped_mb, b.swapped_mb);
  EXPECT_EQ(a.pressure_evictions, b.pressure_evictions);
  EXPECT_EQ(a.denied_reservations, b.denied_reservations);
  ASSERT_EQ(a.executor_memory.size(), b.executor_memory.size());
  for (size_t e = 0; e < a.executor_memory.size(); ++e) {
    SCOPED_TRACE(testing::Message() << "executor " << e);
    EXPECT_EQ(a.executor_memory[e].exec_peak, b.executor_memory[e].exec_peak);
    EXPECT_EQ(a.executor_memory[e].storage_peak,
              b.executor_memory[e].storage_peak);
    EXPECT_EQ(a.executor_memory[e].borrowed_peak,
              b.executor_memory[e].borrowed_peak);
  }
  EXPECT_EQ(a.pauses.mark_slices, b.pauses.mark_slices);
  EXPECT_EQ(a.pauses.pause_events, b.pauses.pause_events);
  EXPECT_EQ(a.tier.t0_resident_bytes, b.tier.t0_resident_bytes);
  EXPECT_EQ(a.tier.t1_resident_bytes, b.tier.t1_resident_bytes);
  EXPECT_EQ(a.tier.t2_resident_bytes, b.tier.t2_resident_bytes);
  EXPECT_EQ(a.tier.t1_peak_bytes, b.tier.t1_peak_bytes);
  EXPECT_EQ(a.tier.t0_hits, b.tier.t0_hits);
  EXPECT_EQ(a.tier.t1_hits, b.tier.t1_hits);
  EXPECT_EQ(a.tier.t2_hits, b.tier.t2_hits);
  EXPECT_EQ(a.tier.misses, b.tier.misses);
  EXPECT_EQ(a.tier.demotes_to_t1, b.tier.demotes_to_t1);
  EXPECT_EQ(a.tier.demotes_to_t2, b.tier.demotes_to_t2);
  EXPECT_EQ(a.tier.promotes, b.tier.promotes);
  EXPECT_EQ(a.tier.admit_rejects, b.tier.admit_rejects);
}

TEST(ClusterDistTest, WordCountMatrixLocalEqualsProcess) {
  for (uint64_t seed : {TestSeed(), TestSeed() + 1}) {
    for (bool inject : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " inject=" << inject);
      fault::FaultConfig fc;
      fc.seed = seed;
      if (inject) {
        fc.task_failure_prob = 0.5;
        fc.fetch_failure_prob = 0.25;
      }
      workloads::WordCountResult base = Wc(spark::DistMode::kInProcess, 0, fc);
      EXPECT_FALSE(base.run.dist_active);
      if (inject) {
        EXPECT_GT(base.run.task_retries, 0u);
      }

      workloads::WordCountResult par = Wc(spark::DistMode::kInProcess, 2, fc);
      EXPECT_EQ(par.total_count, base.total_count);
      EXPECT_EQ(par.distinct_found, base.distinct_found);
      EXPECT_EQ(par.shuffle_bytes, base.shuffle_bytes);
      ExpectSameRun(par.run, base.run);

      workloads::WordCountResult proc = Wc(spark::DistMode::kProcess, 0, fc);
      EXPECT_EQ(proc.total_count, base.total_count);
      EXPECT_EQ(proc.distinct_found, base.distinct_found);
      EXPECT_EQ(proc.shuffle_bytes, base.shuffle_bytes);
      ExpectSameRun(proc.run, base.run);
      ASSERT_TRUE(proc.run.dist_active);
      EXPECT_EQ(proc.run.cluster.executors_spawned, 2u);
      EXPECT_EQ(proc.run.cluster.executors_killed, 0u);
      EXPECT_EQ(proc.run.cluster.executors_declared_dead, 0u);
      EXPECT_EQ(proc.run.cluster.stage_quarantines, 0u);
      EXPECT_GT(proc.run.cluster.rpc_messages, 0u);
    }
  }
}

TEST(ClusterDistTest, LrWeightsBitIdenticalAcrossBackends) {
  for (uint64_t seed : {TestSeed(), TestSeed() + 1}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    fault::FaultConfig fc;
    fc.seed = seed;
    workloads::LrResult base = Lr(spark::DistMode::kInProcess, 0, fc);
    ASSERT_EQ(base.weights.size(), 10u);

    fc.task_failure_prob = 0.3;
    workloads::LrResult flaky = Lr(spark::DistMode::kInProcess, 0, fc);
    EXPECT_GT(flaky.run.task_retries, 0u);

    for (int threads : {0, 2}) {
      SCOPED_TRACE(threads);
      workloads::LrResult proc = Lr(spark::DistMode::kProcess, threads, fc);
      ASSERT_EQ(proc.weights.size(), base.weights.size());
      for (size_t j = 0; j < base.weights.size(); ++j) {
        EXPECT_EQ(proc.weights[j], base.weights[j]) << "dim " << j;
      }
      ExpectSameRun(proc.run, flaky.run);
      ASSERT_TRUE(proc.run.dist_active);
      EXPECT_EQ(proc.run.cluster.executors_spawned, 2u);
      EXPECT_EQ(proc.run.cluster.executors_killed, 0u);
    }
  }
}

// Tier settings travel in the job spec: every daemon runs the same
// three-tier store, with the same T1 cap and admission policy, as the
// in-process executors.
TEST(ClusterDistTest, TieredStoreMatchesAcrossBackends) {
  fault::FaultConfig fc;
  fc.seed = TestSeed();
  workloads::LrResult base = Lr(spark::DistMode::kInProcess, 0, fc, true);
  EXPECT_TRUE(base.run.tier_active);
  EXPECT_GT(base.run.tier.demotes_to_t1, 0u);
  EXPECT_GT(base.run.tier.promotes, 0u);

  workloads::LrResult proc = Lr(spark::DistMode::kProcess, 0, fc, true);
  ASSERT_EQ(proc.weights.size(), base.weights.size());
  for (size_t j = 0; j < base.weights.size(); ++j) {
    EXPECT_EQ(proc.weights[j], base.weights[j]) << "dim " << j;
  }
  ExpectSameRun(proc.run, base.run);
  ASSERT_TRUE(proc.run.dist_active);
}

// The tentpole recovery claim: in process mode a scripted crash-wipe is a
// real SIGKILL of the daemon. The driver must detect the death through
// missed heartbeats + failed reconnect probes, respawn the next
// generation, fast-forward it through the program log, replay lineage
// over RPC — and land on bit-identical weights, GC counts, and fault
// counters as the in-process wipe.
TEST(ClusterDistTest, CrashWipeIsARealSigkillAndRespawnPerSeed) {
  for (uint64_t seed : {TestSeed(), TestSeed() + 1}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    fault::FaultConfig fc;
    fc.seed = seed;
    fc.crash_wipe_stage = 1;  // stage 0 = load, 1 = first gradient stage
    fc.crash_wipe_executor = 1;

    workloads::LrResult base = Lr(spark::DistMode::kInProcess, 0, fc);
    EXPECT_EQ(base.run.executor_wipes, 1u);

    workloads::LrResult proc = Lr(spark::DistMode::kProcess, 0, fc);
    ASSERT_EQ(proc.weights.size(), base.weights.size());
    for (size_t j = 0; j < base.weights.size(); ++j) {
      EXPECT_EQ(proc.weights[j], base.weights[j]) << "dim " << j;
    }
    ExpectSameRun(proc.run, base.run);
    ASSERT_TRUE(proc.run.dist_active);
    EXPECT_EQ(proc.run.cluster.executors_killed, 1u);
    EXPECT_EQ(proc.run.cluster.executors_declared_dead, 1u);
    EXPECT_EQ(proc.run.cluster.executors_respawned, 1u);
    EXPECT_EQ(proc.run.cluster.executors_spawned, 3u);  // 2 + 1 respawn
    // The kill lands between stages; no partial stage results existed.
    EXPECT_EQ(proc.run.cluster.stage_quarantines, 0u);
    // Death was established the honest way: probes ran and failed.
    EXPECT_GT(proc.run.cluster.heartbeat_misses, 0u);
    EXPECT_GT(proc.run.cluster.reconnect_probes, 0u);
  }
}

// Every serialized SparkConfig field set to a value other than its default.
spark::SparkConfig FullConfig() {
  spark::SparkConfig c;
  c.num_executors = 3;
  c.partitions_per_executor = 5;
  c.num_worker_threads = 2;
  c.heap.heap_bytes = 48u << 20;
  c.heap.young_fraction = 0.3;
  c.heap.survivor_fraction = 0.2;
  c.heap.tenure_threshold = 7;
  c.heap.large_object_bytes = 64u << 10;
  c.heap.algorithm = jvm::GcAlgorithm::kG1;
  c.heap.g1_region_bytes = 1u << 20;
  c.heap.g1_ihop = 0.5;
  c.heap.g1_live_threshold = 0.75;
  c.heap.concurrent_pause_share = 0.2;
  c.heap.pause_budget_ms = 1.5;
  c.executor_memory_bytes = 12u << 20;
  c.memory_fraction = 0.6;
  c.storage_fraction = 0.35;
  c.cache_level = spark::StorageLevel::kDecaPages;
  c.deca_shuffle = true;
  c.deca_page_bytes = 32u << 10;
  c.storage_tiers = 3;
  c.t1_fraction = 0.3;
  c.admit_policy = spark::AdmitPolicy::kNever;
  c.shuffle_transport = spark::ShuffleTransport::kTcp;
  c.shuffle_wire_codec = spark::ShuffleWireCodec::kRecord;
  c.net_fetch_chunk_bytes = 32u << 10;
  c.net_max_inflight_bytes = 128u << 10;
  c.net_fetch_retries = 5;
  c.net_latency_us = 7;
  c.net_bandwidth_mbps = 100;
  c.spill_dir = "/tmp/deca_spec_test";
  c.max_task_failures = 6;
  c.fault.seed = 99;
  c.fault.task_failure_prob = 0.1;
  c.fault.fetch_failure_prob = 0.2;
  c.fault.oom_failure_prob = 0.3;
  c.fault.crash_wipe_stage = 2;
  c.fault.crash_wipe_executor = 1;
  c.dist_mode = spark::DistMode::kProcess;
  c.cluster.heartbeat_interval_ms = 50;
  c.cluster.heartbeat_miss_threshold = 4;
  c.cluster.reconnect_probes = 5;
  c.cluster.retry_backoff_base_ms = 7;
  c.cluster.rpc_deadline_ms = 900;
  c.cluster.connect_attempts = 9;
  c.cluster.executord_path = "/opt/deca/executord";
  c.cluster.test_suppress_heartbeats_executor = 1;
  c.cluster.test_suppress_heartbeats_count = 3;
  c.trace_enabled = true;
  c.trace_ring_capacity = 1024;
  return c;
}

spark::SparkConfig RoundTrip(const spark::SparkConfig& c) {
  ByteWriter w;
  cluster::EncodeSparkConfig(c, &w);
  ByteReader r(w.data(), w.size());
  spark::SparkConfig back = cluster::DecodeSparkConfig(&r);
  EXPECT_TRUE(r.AtEnd());
  return back;
}

TEST(JobSpecCodecTest, SparkConfigRoundTripsEveryField) {
  const spark::SparkConfig c = FullConfig();
  const spark::SparkConfig b = RoundTrip(c);
  EXPECT_EQ(b.num_executors, c.num_executors);
  EXPECT_EQ(b.partitions_per_executor, c.partitions_per_executor);
  EXPECT_EQ(b.num_worker_threads, c.num_worker_threads);
  EXPECT_EQ(b.heap.heap_bytes, c.heap.heap_bytes);
  EXPECT_EQ(b.heap.young_fraction, c.heap.young_fraction);
  EXPECT_EQ(b.heap.survivor_fraction, c.heap.survivor_fraction);
  EXPECT_EQ(b.heap.tenure_threshold, c.heap.tenure_threshold);
  EXPECT_EQ(b.heap.large_object_bytes, c.heap.large_object_bytes);
  EXPECT_EQ(b.heap.algorithm, c.heap.algorithm);
  EXPECT_EQ(b.heap.g1_region_bytes, c.heap.g1_region_bytes);
  EXPECT_EQ(b.heap.g1_ihop, c.heap.g1_ihop);
  EXPECT_EQ(b.heap.g1_live_threshold, c.heap.g1_live_threshold);
  EXPECT_EQ(b.heap.concurrent_pause_share, c.heap.concurrent_pause_share);
  EXPECT_EQ(b.heap.pause_budget_ms, c.heap.pause_budget_ms);
  EXPECT_EQ(b.executor_memory_bytes, c.executor_memory_bytes);
  EXPECT_EQ(b.memory_fraction, c.memory_fraction);
  EXPECT_EQ(b.storage_fraction, c.storage_fraction);
  EXPECT_EQ(b.cache_level, c.cache_level);
  EXPECT_EQ(b.deca_shuffle, c.deca_shuffle);
  EXPECT_EQ(b.deca_page_bytes, c.deca_page_bytes);
  EXPECT_EQ(b.storage_tiers, c.storage_tiers);
  EXPECT_EQ(b.t1_fraction, c.t1_fraction);
  EXPECT_EQ(b.admit_policy, c.admit_policy);
  EXPECT_EQ(b.shuffle_transport, c.shuffle_transport);
  EXPECT_EQ(b.shuffle_wire_codec, c.shuffle_wire_codec);
  EXPECT_EQ(b.net_fetch_chunk_bytes, c.net_fetch_chunk_bytes);
  EXPECT_EQ(b.net_max_inflight_bytes, c.net_max_inflight_bytes);
  EXPECT_EQ(b.net_fetch_retries, c.net_fetch_retries);
  EXPECT_EQ(b.net_latency_us, c.net_latency_us);
  EXPECT_EQ(b.net_bandwidth_mbps, c.net_bandwidth_mbps);
  EXPECT_EQ(b.spill_dir, c.spill_dir);
  EXPECT_EQ(b.max_task_failures, c.max_task_failures);
  EXPECT_EQ(b.fault.seed, c.fault.seed);
  EXPECT_EQ(b.fault.task_failure_prob, c.fault.task_failure_prob);
  EXPECT_EQ(b.fault.fetch_failure_prob, c.fault.fetch_failure_prob);
  EXPECT_EQ(b.fault.oom_failure_prob, c.fault.oom_failure_prob);
  EXPECT_EQ(b.fault.crash_wipe_stage, c.fault.crash_wipe_stage);
  EXPECT_EQ(b.fault.crash_wipe_executor, c.fault.crash_wipe_executor);
  EXPECT_EQ(b.dist_mode, c.dist_mode);
  EXPECT_EQ(b.cluster.heartbeat_interval_ms, c.cluster.heartbeat_interval_ms);
  EXPECT_EQ(b.cluster.heartbeat_miss_threshold,
            c.cluster.heartbeat_miss_threshold);
  EXPECT_EQ(b.cluster.reconnect_probes, c.cluster.reconnect_probes);
  EXPECT_EQ(b.cluster.retry_backoff_base_ms, c.cluster.retry_backoff_base_ms);
  EXPECT_EQ(b.cluster.rpc_deadline_ms, c.cluster.rpc_deadline_ms);
  EXPECT_EQ(b.cluster.connect_attempts, c.cluster.connect_attempts);
  EXPECT_EQ(b.cluster.executord_path, c.cluster.executord_path);
  EXPECT_EQ(b.cluster.test_suppress_heartbeats_executor,
            c.cluster.test_suppress_heartbeats_executor);
  EXPECT_EQ(b.cluster.test_suppress_heartbeats_count,
            c.cluster.test_suppress_heartbeats_count);
  EXPECT_EQ(b.trace_enabled, c.trace_enabled);
  EXPECT_EQ(b.trace_ring_capacity, c.trace_ring_capacity);
}

// A byte past an enum's last enumerator (what a corrupt spec would carry)
// is fatal on decode rather than cast into a value that does not exist.
TEST(JobSpecCodecDeathTest, OutOfRangeEnumByteIsFatal) {
  using Corrupt = void (*)(spark::SparkConfig*);
  for (Corrupt corrupt : std::initializer_list<Corrupt>{
           [](spark::SparkConfig* c) {
             c->heap.algorithm = static_cast<jvm::GcAlgorithm>(3);
           },
           [](spark::SparkConfig* c) {
             c->cache_level = static_cast<spark::StorageLevel>(3);
           },
           [](spark::SparkConfig* c) {
             c->admit_policy = static_cast<spark::AdmitPolicy>(3);
           },
           [](spark::SparkConfig* c) {
             c->shuffle_transport = static_cast<spark::ShuffleTransport>(3);
           },
           [](spark::SparkConfig* c) {
             c->shuffle_wire_codec = static_cast<spark::ShuffleWireCodec>(3);
           },
           [](spark::SparkConfig* c) {
             c->dist_mode = static_cast<spark::DistMode>(2);
           }}) {
    spark::SparkConfig c;
    corrupt(&c);
    EXPECT_DEATH(RoundTrip(c), "enum byte out of range");
  }
}

// Every field of the stage-ack snapshot set to a distinct value.
spark::ExecutorSnapshot FullSnapshot() {
  uint64_t n = 1;
  auto u = [&n] { return n++ * 1000003; };
  auto d = [&n] { return static_cast<double>(n++) + 0.25; };
  spark::ExecutorSnapshot s;
  s.gc_pause_ms = d();
  s.concurrent_gc_ms = d();
  s.minor_gcs = u();
  s.full_gcs = u();
  s.oom_recoveries = u();
  s.cached_bytes = u();
  s.peak_cached_bytes = u();
  s.swapped_bytes = u();
  s.pressure_evictions = u();
  spark::TierCounters& t = s.tier;
  for (uint64_t* f :
       {&t.t0_resident_bytes, &t.t1_resident_bytes, &t.t2_resident_bytes,
        &t.t1_peak_bytes, &t.t0_hits, &t.t1_hits, &t.t2_hits, &t.misses,
        &t.demotes_to_t1, &t.demotes_to_t2, &t.promotes, &t.admit_rejects}) {
    *f = u();
  }
  t.promote_p50_ms = d();
  t.promote_p99_ms = d();
  memory::MemoryStats& m = s.memory;
  for (uint64_t* f :
       {&m.total_bytes, &m.storage_floor_bytes, &m.exec_used, &m.exec_peak,
        &m.storage_used, &m.storage_peak, &m.borrowed_peak,
        &m.denied_reservations, &m.storage_reserved, &m.demoted_blocks,
        &m.spilled_blocks, &m.page_bytes, &m.heap_capacity, &m.heap_used,
        &m.heap_old_used}) {
    *f = u();
  }
  s.pauses.mark_slices = u();
  s.pauses.pause_events = u();
  for (double* f : {&s.pauses.pause_p50_ms, &s.pauses.pause_p99_ms,
                    &s.pauses.pause_max_ms, &s.pauses.slice_p50_ms,
                    &s.pauses.slice_p99_ms, &s.pauses.slice_max_ms}) {
    *f = d();
  }
  s.alloc.alloc_calls = u();
  s.alloc.free_calls = u();
  s.alloc.bytes_requested = u();
  s.shuffle_bytes = {u(), 0, u()};
  return s;
}

// The plane sub-structs hold only 8-byte fields (no padding), so byte
// equality is field equality.
template <typename T>
bool SameBytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(ExecutorSnapshotCodecTest, EncodeDecodeRoundTripsEveryField) {
  const spark::ExecutorSnapshot s = FullSnapshot();
  ByteWriter w;
  s.Encode(&w);
  ByteReader r(w.data(), w.size());
  const spark::ExecutorSnapshot back = spark::ExecutorSnapshot::Decode(&r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.gc_pause_ms, s.gc_pause_ms);
  EXPECT_EQ(back.concurrent_gc_ms, s.concurrent_gc_ms);
  EXPECT_EQ(back.minor_gcs, s.minor_gcs);
  EXPECT_EQ(back.full_gcs, s.full_gcs);
  EXPECT_EQ(back.oom_recoveries, s.oom_recoveries);
  EXPECT_EQ(back.cached_bytes, s.cached_bytes);
  EXPECT_EQ(back.peak_cached_bytes, s.peak_cached_bytes);
  EXPECT_EQ(back.swapped_bytes, s.swapped_bytes);
  EXPECT_EQ(back.pressure_evictions, s.pressure_evictions);
  EXPECT_TRUE(SameBytes(back.tier, s.tier));
  EXPECT_TRUE(SameBytes(back.memory, s.memory));
  EXPECT_TRUE(SameBytes(back.pauses, s.pauses));
  EXPECT_TRUE(SameBytes(back.alloc, s.alloc));
  EXPECT_EQ(back.shuffle_bytes, s.shuffle_bytes);
}

TEST(ExecutorSnapshotCodecTest, AddSumsCountersAndMaxesPercentiles) {
  const spark::ExecutorSnapshot a = FullSnapshot();
  spark::ExecutorSnapshot b;
  b.minor_gcs = 5;
  b.memory.exec_peak = 7;
  b.pauses.pause_events = 2;
  b.pauses.pause_p99_ms = 1e9;  // larger than a's
  b.tier.promote_p50_ms = 0;    // smaller than a's
  b.shuffle_bytes = {1, 2, 3, 4};
  spark::ExecutorSnapshot sum = a;
  sum.Add(b);
  EXPECT_EQ(sum.minor_gcs, a.minor_gcs + 5);
  EXPECT_EQ(sum.full_gcs, a.full_gcs);
  EXPECT_EQ(sum.memory.exec_peak, a.memory.exec_peak + 7);
  EXPECT_EQ(sum.pauses.pause_events, a.pauses.pause_events + 2);
  EXPECT_EQ(sum.pauses.pause_p99_ms, 1e9);
  EXPECT_EQ(sum.pauses.pause_p50_ms, a.pauses.pause_p50_ms);
  EXPECT_EQ(sum.tier.promote_p50_ms, a.tier.promote_p50_ms);
  EXPECT_EQ(sum.shuffle_bytes,
            (std::vector<uint64_t>{a.shuffle_bytes[0] + 1, 2,
                                   a.shuffle_bytes[2] + 3, 4}));
}

TEST(ExecutorSnapshotCodecDeathTest, CorruptShuffleCountIsFatal) {
  spark::ExecutorSnapshot s = FullSnapshot();
  s.shuffle_bytes.clear();
  ByteWriter w;
  s.Encode(&w);
  // The empty shuffle list encodes as one trailing count byte (0); patch
  // it to the varint of 2^40.
  std::vector<uint8_t> bytes(w.data(), w.data() + w.size());
  ASSERT_EQ(bytes.back(), 0u);
  bytes.pop_back();
  ByteWriter count;
  count.WriteVarU64(uint64_t{1} << 40);
  bytes.insert(bytes.end(), count.data(), count.data() + count.size());
  EXPECT_DEATH(
      {
        ByteReader r(bytes.data(), bytes.size());
        spark::ExecutorSnapshot::Decode(&r);
      },
      "shuffle count");
}

}  // namespace
}  // namespace deca
