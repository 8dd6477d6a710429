#include "cluster/job_spec.h"

#include "common/logging.h"

namespace deca::cluster {

namespace {

// Reads a one-byte enum and dies on a value past `last`, the enum's final
// enumerator: a cast alone would let a corrupt spec pick an enumerator
// that does not exist.
template <typename E>
E ReadEnum(ByteReader* r, E last) {
  uint8_t v = r->Read<uint8_t>();
  DECA_CHECK_LE(v, static_cast<uint8_t>(last))
      << "job spec enum byte out of range";
  return static_cast<E>(v);
}

}  // namespace

void EncodeSparkConfig(const spark::SparkConfig& c, ByteWriter* w) {
  w->WriteVarI64(c.num_executors);
  w->WriteVarI64(c.partitions_per_executor);
  w->WriteVarI64(c.num_worker_threads);

  w->WriteVarU64(c.heap.heap_bytes);
  w->Write<double>(c.heap.young_fraction);
  w->Write<double>(c.heap.survivor_fraction);
  w->WriteVarU64(c.heap.tenure_threshold);
  w->WriteVarU64(c.heap.large_object_bytes);
  w->Write<uint8_t>(static_cast<uint8_t>(c.heap.algorithm));
  w->WriteVarU64(c.heap.g1_region_bytes);
  w->Write<double>(c.heap.g1_ihop);
  w->Write<double>(c.heap.g1_live_threshold);
  w->Write<double>(c.heap.concurrent_pause_share);
  w->Write<double>(c.heap.pause_budget_ms);

  w->WriteVarU64(c.executor_memory_bytes);
  w->Write<double>(c.memory_fraction);
  w->Write<double>(c.storage_fraction);

  w->Write<uint8_t>(static_cast<uint8_t>(c.cache_level));
  w->Write<uint8_t>(c.deca_shuffle ? 1 : 0);
  w->WriteVarU64(c.deca_page_bytes);

  w->WriteVarI64(c.storage_tiers);
  w->Write<double>(c.t1_fraction);
  w->Write<uint8_t>(static_cast<uint8_t>(c.admit_policy));

  w->Write<uint8_t>(static_cast<uint8_t>(c.shuffle_transport));
  w->Write<uint8_t>(static_cast<uint8_t>(c.shuffle_wire_codec));
  w->WriteVarU64(c.net_fetch_chunk_bytes);
  w->WriteVarU64(c.net_max_inflight_bytes);
  w->WriteVarI64(c.net_fetch_retries);
  w->WriteVarU64(c.net_latency_us);
  w->WriteVarU64(c.net_bandwidth_mbps);

  w->WriteString(c.spill_dir);
  w->WriteVarI64(c.max_task_failures);

  w->WriteVarU64(c.fault.seed);
  w->Write<double>(c.fault.task_failure_prob);
  w->Write<double>(c.fault.fetch_failure_prob);
  w->Write<double>(c.fault.oom_failure_prob);
  w->WriteVarI64(c.fault.crash_wipe_stage);
  w->WriteVarI64(c.fault.crash_wipe_executor);

  w->Write<uint8_t>(static_cast<uint8_t>(c.dist_mode));
  w->WriteVarU64(c.cluster.heartbeat_interval_ms);
  w->WriteVarI64(c.cluster.heartbeat_miss_threshold);
  w->WriteVarI64(c.cluster.reconnect_probes);
  w->WriteVarU64(c.cluster.retry_backoff_base_ms);
  w->WriteVarU64(c.cluster.rpc_deadline_ms);
  w->WriteVarI64(c.cluster.connect_attempts);
  w->WriteString(c.cluster.executord_path);
  w->WriteVarI64(c.cluster.test_suppress_heartbeats_executor);
  w->WriteVarI64(c.cluster.test_suppress_heartbeats_count);

  w->Write<uint8_t>(c.trace_enabled ? 1 : 0);
  w->WriteVarU64(c.trace_ring_capacity);
}

spark::SparkConfig DecodeSparkConfig(ByteReader* r) {
  spark::SparkConfig c;
  c.num_executors = static_cast<int>(r->ReadVarI64());
  c.partitions_per_executor = static_cast<int>(r->ReadVarI64());
  c.num_worker_threads = static_cast<int>(r->ReadVarI64());

  c.heap.heap_bytes = static_cast<size_t>(r->ReadVarU64());
  c.heap.young_fraction = r->Read<double>();
  c.heap.survivor_fraction = r->Read<double>();
  c.heap.tenure_threshold = static_cast<uint32_t>(r->ReadVarU64());
  c.heap.large_object_bytes = static_cast<size_t>(r->ReadVarU64());
  c.heap.algorithm = ReadEnum(r, jvm::GcAlgorithm::kG1);
  c.heap.g1_region_bytes = static_cast<size_t>(r->ReadVarU64());
  c.heap.g1_ihop = r->Read<double>();
  c.heap.g1_live_threshold = r->Read<double>();
  c.heap.concurrent_pause_share = r->Read<double>();
  c.heap.pause_budget_ms = r->Read<double>();

  c.executor_memory_bytes = static_cast<size_t>(r->ReadVarU64());
  c.memory_fraction = r->Read<double>();
  c.storage_fraction = r->Read<double>();

  c.cache_level = ReadEnum(r, spark::StorageLevel::kDecaPages);
  c.deca_shuffle = r->Read<uint8_t>() != 0;
  c.deca_page_bytes = static_cast<uint32_t>(r->ReadVarU64());

  c.storage_tiers = static_cast<int>(r->ReadVarI64());
  c.t1_fraction = r->Read<double>();
  c.admit_policy = ReadEnum(r, spark::AdmitPolicy::kNever);

  c.shuffle_transport = ReadEnum(r, spark::ShuffleTransport::kTcp);
  c.shuffle_wire_codec = ReadEnum(r, spark::ShuffleWireCodec::kRecord);
  c.net_fetch_chunk_bytes = static_cast<uint32_t>(r->ReadVarU64());
  c.net_max_inflight_bytes = static_cast<uint32_t>(r->ReadVarU64());
  c.net_fetch_retries = static_cast<int>(r->ReadVarI64());
  c.net_latency_us = r->ReadVarU64();
  c.net_bandwidth_mbps = r->ReadVarU64();

  c.spill_dir = r->ReadString();
  c.max_task_failures = static_cast<int>(r->ReadVarI64());

  c.fault.seed = r->ReadVarU64();
  c.fault.task_failure_prob = r->Read<double>();
  c.fault.fetch_failure_prob = r->Read<double>();
  c.fault.oom_failure_prob = r->Read<double>();
  c.fault.crash_wipe_stage = static_cast<int>(r->ReadVarI64());
  c.fault.crash_wipe_executor = static_cast<int>(r->ReadVarI64());

  c.dist_mode = ReadEnum(r, spark::DistMode::kProcess);
  c.cluster.heartbeat_interval_ms = static_cast<int>(r->ReadVarU64());
  c.cluster.heartbeat_miss_threshold = static_cast<int>(r->ReadVarI64());
  c.cluster.reconnect_probes = static_cast<int>(r->ReadVarI64());
  c.cluster.retry_backoff_base_ms = static_cast<int>(r->ReadVarU64());
  c.cluster.rpc_deadline_ms = static_cast<int>(r->ReadVarU64());
  c.cluster.connect_attempts = static_cast<int>(r->ReadVarI64());
  c.cluster.executord_path = r->ReadString();
  c.cluster.test_suppress_heartbeats_executor =
      static_cast<int>(r->ReadVarI64());
  c.cluster.test_suppress_heartbeats_count = static_cast<int>(r->ReadVarI64());

  c.trace_enabled = r->Read<uint8_t>() != 0;
  c.trace_ring_capacity = static_cast<uint32_t>(r->ReadVarU64());
  return c;
}

void EncodeJobSpec(const JobSpec& spec, ByteWriter* w) {
  EncodeSparkConfig(spec.config, w);
  w->WriteString(spec.workload);
  w->WriteVarU64(spec.params.size());
  w->WriteBytes(spec.params.data(), spec.params.size());
}

JobSpec DecodeJobSpec(ByteReader* r) {
  JobSpec spec;
  spec.config = DecodeSparkConfig(r);
  spec.workload = r->ReadString();
  uint64_t n = r->ReadVarU64();
  spec.params.resize(static_cast<size_t>(n));
  r->ReadBytes(spec.params.data(), spec.params.size());
  return spec;
}

void EncodeHello(const HelloMsg& msg, ByteWriter* w) {
  w->WriteVarI64(msg.executor);
  w->WriteVarI64(msg.generation);
  w->WriteVarI64(msg.pid);
  w->WriteVarU64(msg.control_port);
}

HelloMsg DecodeHello(ByteReader* r) {
  HelloMsg msg;
  msg.executor = static_cast<int32_t>(r->ReadVarI64());
  msg.generation = static_cast<int32_t>(r->ReadVarI64());
  msg.pid = r->ReadVarI64();
  msg.control_port = static_cast<uint16_t>(r->ReadVarU64());
  return msg;
}

void EncodeReady(const ReadyMsg& msg, ByteWriter* w) {
  w->WriteVarI64(msg.executor);
  w->WriteVarI64(msg.generation);
  w->WriteVarU64(msg.data_port);
}

ReadyMsg DecodeReady(ByteReader* r) {
  ReadyMsg msg;
  msg.executor = static_cast<int32_t>(r->ReadVarI64());
  msg.generation = static_cast<int32_t>(r->ReadVarI64());
  msg.data_port = static_cast<uint16_t>(r->ReadVarU64());
  return msg;
}

}  // namespace deca::cluster
