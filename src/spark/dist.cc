#include "spark/dist.h"

#include <algorithm>

#include "common/logging.h"

namespace deca::spark {

const char* DistModeName(DistMode m) {
  switch (m) {
    case DistMode::kInProcess:
      return "in-process";
    case DistMode::kProcess:
      return "process";
  }
  return "?";
}

namespace {

// Wire order of each plane's fields. Encode, Decode and the Add merges
// walk the same tables, so a field listed here is carried and merged.
using memory::MemoryStats;
constexpr uint64_t ExecutorSnapshot::*kCounters[] = {
    &ExecutorSnapshot::minor_gcs,          &ExecutorSnapshot::full_gcs,
    &ExecutorSnapshot::oom_recoveries,     &ExecutorSnapshot::cached_bytes,
    &ExecutorSnapshot::peak_cached_bytes,  &ExecutorSnapshot::swapped_bytes,
    &ExecutorSnapshot::pressure_evictions};
constexpr uint64_t TierCounters::*kTierCounters[] = {
    &TierCounters::t0_resident_bytes, &TierCounters::t1_resident_bytes,
    &TierCounters::t2_resident_bytes, &TierCounters::t1_peak_bytes,
    &TierCounters::t0_hits,           &TierCounters::t1_hits,
    &TierCounters::t2_hits,           &TierCounters::misses,
    &TierCounters::demotes_to_t1,     &TierCounters::demotes_to_t2,
    &TierCounters::promotes,          &TierCounters::admit_rejects};
constexpr uint64_t MemoryStats::*kMemoryFields[] = {
    &MemoryStats::total_bytes,         &MemoryStats::storage_floor_bytes,
    &MemoryStats::exec_used,           &MemoryStats::exec_peak,
    &MemoryStats::storage_used,        &MemoryStats::storage_peak,
    &MemoryStats::borrowed_peak,       &MemoryStats::denied_reservations,
    &MemoryStats::storage_reserved,    &MemoryStats::demoted_blocks,
    &MemoryStats::spilled_blocks,      &MemoryStats::page_bytes,
    &MemoryStats::heap_capacity,       &MemoryStats::heap_used,
    &MemoryStats::heap_old_used};
constexpr double GcPauseAggregate::*kPercentiles[] = {
    &GcPauseAggregate::pause_p50_ms, &GcPauseAggregate::pause_p99_ms,
    &GcPauseAggregate::pause_max_ms, &GcPauseAggregate::slice_p50_ms,
    &GcPauseAggregate::slice_p99_ms, &GcPauseAggregate::slice_max_ms};

}  // namespace

void GcPauseAggregate::Add(const GcPauseAggregate& o) {
  mark_slices += o.mark_slices;
  pause_events += o.pause_events;
  for (auto f : kPercentiles) this->*f = std::max(this->*f, o.*f);
}

void ExecutorSnapshot::Add(const ExecutorSnapshot& o) {
  gc_pause_ms += o.gc_pause_ms;
  concurrent_gc_ms += o.concurrent_gc_ms;
  for (auto f : kCounters) this->*f += o.*f;
  tier.Add(o.tier);
  for (auto f : kMemoryFields) memory.*f += o.memory.*f;
  pauses.Add(o.pauses);
  alloc.Add(o.alloc);
  if (shuffle_bytes.size() < o.shuffle_bytes.size()) {
    shuffle_bytes.resize(o.shuffle_bytes.size());
  }
  for (size_t i = 0; i < o.shuffle_bytes.size(); ++i) {
    shuffle_bytes[i] += o.shuffle_bytes[i];
  }
}

void ExecutorSnapshot::Encode(ByteWriter* w) const {
  w->Write<double>(gc_pause_ms);
  w->Write<double>(concurrent_gc_ms);
  for (auto f : kCounters) w->WriteVarU64(this->*f);
  for (auto f : kTierCounters) w->WriteVarU64(tier.*f);
  w->Write<double>(tier.promote_p50_ms);
  w->Write<double>(tier.promote_p99_ms);
  for (auto f : kMemoryFields) w->WriteVarU64(memory.*f);
  w->WriteVarU64(pauses.mark_slices);
  w->WriteVarU64(pauses.pause_events);
  for (auto f : kPercentiles) w->Write<double>(pauses.*f);
  w->WriteVarU64(alloc.alloc_calls);
  w->WriteVarU64(alloc.free_calls);
  w->WriteVarU64(alloc.bytes_requested);
  w->WriteVarU64(shuffle_bytes.size());
  for (uint64_t b : shuffle_bytes) w->WriteVarU64(b);
}

ExecutorSnapshot ExecutorSnapshot::Decode(ByteReader* r) {
  ExecutorSnapshot s;
  s.gc_pause_ms = r->Read<double>();
  s.concurrent_gc_ms = r->Read<double>();
  for (auto f : kCounters) s.*f = r->ReadVarU64();
  for (auto f : kTierCounters) s.tier.*f = r->ReadVarU64();
  s.tier.promote_p50_ms = r->Read<double>();
  s.tier.promote_p99_ms = r->Read<double>();
  for (auto f : kMemoryFields) s.memory.*f = r->ReadVarU64();
  s.pauses.mark_slices = r->ReadVarU64();
  s.pauses.pause_events = r->ReadVarU64();
  for (auto f : kPercentiles) s.pauses.*f = r->Read<double>();
  s.alloc.alloc_calls = r->ReadVarU64();
  s.alloc.free_calls = r->ReadVarU64();
  s.alloc.bytes_requested = r->ReadVarU64();
  // Each count is at least one varint byte, so a count past the bytes
  // left is corrupt — never let it size an allocation.
  const uint64_t n = r->ReadVarU64();
  DECA_CHECK(n <= r->remaining())
      << "snapshot shuffle count " << n << " exceeds the " << r->remaining()
      << " bytes left";
  s.shuffle_bytes.resize(n);
  for (auto& b : s.shuffle_bytes) b = r->ReadVarU64();
  return s;
}

}  // namespace deca::spark
