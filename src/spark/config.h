#ifndef DECA_SPARK_CONFIG_H_
#define DECA_SPARK_CONFIG_H_

#include <string>

#include "fault/fault_config.h"
#include "jvm/heap_config.h"
#include "spark/dist.h"

namespace deca::spark {

/// How cached RDD blocks are stored in an executor.
enum class StorageLevel {
  /// Deserialized managed objects (Spark's MEMORY_AND_DISK): fastest to
  /// access, most GC load.
  kMemoryObjects,
  /// One managed byte array per block holding Kryo-style serialized
  /// records (Spark's MEMORY_AND_DISK_SER — the paper's "SparkSer").
  kMemorySerialized,
  /// Deca page groups of decomposed records.
  kDecaPages,
};

const char* StorageLevelName(StorageLevel s);

/// Re-admission policy for blocks served from the serialized off-heap
/// tier (T1) or disk (T2). Decisions are driven purely by per-block
/// access counts, so they are deterministic.
enum class AdmitPolicy {
  /// Every access promotes the block back up one tier.
  kAlways,
  /// Promote on the second access after demotion: a one-shot scan cannot
  /// thrash the resident working set, a re-used block earns its way back.
  kOnSecondAccess,
  /// Never promote; demoted blocks are served as temporary views forever.
  kNever,
};

const char* AdmitPolicyName(AdmitPolicy p);

/// How shuffle chunks travel from map tasks to reducers.
enum class ShuffleTransport {
  /// Direct in-memory deposit/fetch (the original single-process path).
  kLocal,
  /// Framed wire messages over in-process loopback channels: real
  /// encode/frame/fetch protocol, deterministic, optional simulated
  /// latency/bandwidth. The default for network-mode tests and benches.
  kLoopback,
  /// Real TCP sockets on 127.0.0.1 (manual runs; timing not
  /// deterministic, bytes and results still are).
  kTcp,
};

const char* ShuffleTransportName(ShuffleTransport t);

/// Wire codec for network shuffle chunks (see net::WireCodec).
enum class ShuffleWireCodec {
  /// Follow the workload mode: Deca runs ship pages, JVM runs ship
  /// per-record serialized frames.
  kAuto,
  kPage,    // force zero-copy page transfer
  kRecord,  // force Kryo-like per-record serialization
};

/// Engine configuration: one simulated application (driver + executors).
struct SparkConfig {
  /// Number of simulated executors, each with its own managed heap.
  int num_executors = 2;
  /// Tasks per stage = num_executors * partitions_per_executor.
  int partitions_per_executor = 2;
  /// Worker threads for the parallel task-execution runtime (src/exec).
  /// 0 keeps the legacy sequential driver loop (the default, so benchmark
  /// measurements stay deterministic); N > 0 spawns min(N, num_executors)
  /// executor threads, each the sole mutator of the heaps striped onto
  /// it. Results are bit-identical across the two modes.
  int num_worker_threads = 0;
  /// Per-executor heap sizing and GC algorithm.
  jvm::HeapConfig heap;

  /// Single per-executor byte budget arbitrated by the
  /// memory::ExecutorMemoryManager (execution + storage pools, Spark
  /// 1.6's spark.memory.* region). 0 (the default) derives it as
  /// heap_bytes * memory_fraction.
  size_t executor_memory_bytes = 0;
  /// Fraction of the heap available to storage + shuffle (Spark's
  /// spark.memory.fraction). Only consulted when executor_memory_bytes is
  /// left 0.
  double memory_fraction = 0.65;
  /// Share of executor_memory() reserved as the storage-pool floor —
  /// cached blocks below it are safe from execution-pool borrowing
  /// (Spark's spark.memory.storageFraction; the knob the paper's Table 4
  /// tunes).
  double storage_fraction = 0.5;

  /// Cached-RDD storage level.
  StorageLevel cache_level = StorageLevel::kMemoryObjects;
  /// When true, shuffle buffers with decomposable key/value types use Deca
  /// page groups with in-place aggregation instead of managed objects.
  bool deca_shuffle = false;

  /// Size of Deca's logical memory pages.
  uint32_t deca_page_bytes = 64u << 10;

  /// Depth of the block-store tier ladder. 2 (default) is the legacy
  /// heap <-> disk store, bit-identical to every prior release. 3 enables
  /// the serialized off-heap middle tier (T1): eviction demotes
  /// T0 heap blocks into compact contiguous buffers — charged to the
  /// storage pool but invisible to GC root scans — before anything is
  /// spilled to disk, and Gets re-admit under `admit_policy`.
  int storage_tiers = 2;
  /// Share of the unified executor budget the T1 tier may occupy. When a
  /// demotion would push T1 residency past the cap, LRU T1 blocks cascade
  /// to disk first (the T1 -> T2 edge of the state machine).
  double t1_fraction = 0.5;
  /// Re-admission policy for Gets that land on T1/T2 blocks.
  AdmitPolicy admit_policy = AdmitPolicy::kOnSecondAccess;

  /// True when the serialized off-heap tier is active.
  bool t1_enabled() const { return storage_tiers >= 3; }

  /// Shuffle transport seam (src/net). kLocal preserves the original
  /// in-memory path bit for bit; kLoopback/kTcp route every chunk through
  /// the framed wire protocol. Results, GC counts, and fault counters are
  /// identical across all three.
  ShuffleTransport shuffle_transport = ShuffleTransport::kLocal;
  /// Chunk wire codec (network transports only).
  ShuffleWireCodec shuffle_wire_codec = ShuffleWireCodec::kAuto;
  /// Max bytes per fetch slice request.
  uint32_t net_fetch_chunk_bytes = 64u << 10;
  /// Per-reducer in-flight byte window (flow control): a fetch slice is
  /// clamped so outstanding-but-undecoded bytes never exceed this.
  uint32_t net_max_inflight_bytes = 256u << 10;
  /// Transport-level retries of a failed fetch before the failure
  /// surfaces to the task layer.
  int net_fetch_retries = 3;
  /// Simulated per-message wire latency (loopback only; virtual time).
  uint64_t net_latency_us = 0;
  /// Simulated wire bandwidth in Mbit/s, 0 = infinite (loopback only).
  uint64_t net_bandwidth_mbps = 0;

  /// Directory for cache swap and shuffle spill files. Each SparkContext
  /// appends a unique per-context suffix (pid + counter) and removes its
  /// directory on destruction, so concurrent contexts never collide.
  std::string spill_dir = "/tmp/deca_spill";

  /// Maximum attempts per task (Spark's spark.task.maxFailures). A task
  /// that throws a retryable failure is re-run on the same executor, in
  /// the same per-executor FIFO slot, up to this many times.
  int max_task_failures = 4;

  /// Deterministic fault injection (disabled by default).
  fault::FaultConfig fault;

  /// Execution backend: every executor in this process (default) or one
  /// daemon process per executor driven over the control-plane RPC
  /// protocol. Workload digests, GC counts, and fault counters are
  /// bit-identical across the two (enforced by the equivalence matrix in
  /// tests/cluster_dist_test.cc).
  DistMode dist_mode = DistMode::kInProcess;
  /// Control-plane tuning (process mode only).
  ClusterKnobs cluster;
  /// Internal per-process wiring (role, driver/worker seams). Filled in
  /// by cluster::ScopedJob / the daemon main — never set it by hand, and
  /// it is not serialized into job specs.
  ClusterRuntime runtime;

  /// Structured tracing (src/obs). Disabled by default: no recorders are
  /// created and every hook is one thread-local load + branch. When
  /// enabled, each executor (and the driver) gets a preallocated ring of
  /// `trace_ring_capacity` events, drained at stage barriers; a full ring
  /// overwrites the oldest event and counts it as dropped.
  bool trace_enabled = false;
  uint32_t trace_ring_capacity = 1u << 15;

  /// The unified per-executor memory budget (see executor_memory_bytes).
  size_t executor_memory() const {
    if (executor_memory_bytes != 0) return executor_memory_bytes;
    return static_cast<size_t>(static_cast<double>(heap.heap_bytes) *
                               memory_fraction);
  }
};

}  // namespace deca::spark

#endif  // DECA_SPARK_CONFIG_H_
