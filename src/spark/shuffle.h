#ifndef DECA_SPARK_SHUFFLE_H_
#define DECA_SPARK_SHUFFLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/page.h"
#include "jvm/heap.h"
#include "net/wire.h"
#include "spark/config.h"
#include "spark/metrics.h"
#include "spark/record_ops.h"

namespace deca::spark {

/// The shuffle seam: map tasks deposit per-reducer byte chunks; reduce
/// tasks fetch all chunks for their partition. Two implementations share
/// this interface — LocalShuffleService (direct in-memory, the original
/// path) and NetworkShuffleService (framed wire protocol over a src/net
/// Transport). Fetched chunks are byte-identical across implementations,
/// so downstream results, GC histories, and fault counters never depend
/// on which one is plugged in.
///
/// Concurrency contract (the src/exec runtime): PutChunk may be called
/// from any worker thread; implementations must keep each reducer's
/// chunk list sorted by map partition id so reduce-side iteration order
/// (and hence the reducer's allocation/GC history) is identical no
/// matter which map task finished first. DropMapOutput and Release are
/// stage-barrier side only. GetChunks runs from worker threads during
/// reduce tasks but only after the map stage's barrier.
class ShuffleService {
 public:
  virtual ~ShuffleService() = default;

  /// Registers a shuffle with `num_reducers` output partitions; returns
  /// its id.
  virtual int RegisterShuffle(int num_reducers) = 0;

  /// Deposits the bytes `map_partition` produced for `reducer`. Thread
  /// safe; empty chunks are dropped. A second deposit from the same map
  /// partition (a retried task) replaces the first. `meta` describes
  /// record boundaries for the record-serialized wire codec; the local
  /// service ignores it.
  virtual void PutChunk(int shuffle_id, int reducer, int map_partition,
                        std::vector<uint8_t> bytes,
                        const net::ChunkMeta& meta) = 0;

  /// Convenience overload for callers with no record metadata.
  void PutChunk(int shuffle_id, int reducer, int map_partition,
                std::vector<uint8_t> bytes) {
    PutChunk(shuffle_id, reducer, map_partition, std::move(bytes),
             net::ChunkMeta{});
  }

  /// Drops every chunk `map_partition` deposited (simulating map-output
  /// loss when its executor crashes). Stage-barrier side only.
  virtual void DropMapOutput(int shuffle_id, int map_partition) = 0;

  /// All chunks destined for `reducer`, ordered by map partition id.
  /// The reference stays valid until the next DropMapOutput/Release of
  /// this shuffle.
  virtual const std::vector<std::vector<uint8_t>>& GetChunks(
      int shuffle_id, int reducer) const = 0;

  virtual int num_reducers(int shuffle_id) const = 0;
  virtual uint64_t total_bytes(int shuffle_id) const = 0;
  /// Shuffles registered so far (ids are 0..num_shuffles()-1). Worker
  /// daemons size their per-shuffle byte snapshots from it.
  virtual int num_shuffles() const = 0;

  /// Frees a completed shuffle's chunks. Stage-barrier side only.
  virtual void Release(int shuffle_id) = 0;
};

/// In-process stand-in for Spark's shuffle files + block transfer service.
/// Chunks live in native memory (like OS page cache / disk in a real
/// deployment), outside any executor heap; fetch hands back references to
/// the deposited bytes with no wire protocol in between.
class LocalShuffleService final : public ShuffleService {
 public:
  using ShuffleService::PutChunk;

  int RegisterShuffle(int num_reducers) override;
  void PutChunk(int shuffle_id, int reducer, int map_partition,
                std::vector<uint8_t> bytes,
                const net::ChunkMeta& meta) override;
  void DropMapOutput(int shuffle_id, int map_partition) override;
  const std::vector<std::vector<uint8_t>>& GetChunks(int shuffle_id,
                                                     int reducer) const
      override;
  int num_reducers(int shuffle_id) const override;
  uint64_t total_bytes(int shuffle_id) const override;
  int num_shuffles() const override;
  void Release(int shuffle_id) override;

 private:
  struct ReducerBucket {
    std::mutex mu;                 // serializes map-side PutChunk writers
    std::vector<int> mappers;      // sorted map partition ids, parallel to
    std::vector<std::vector<uint8_t>> chunks;  // ...the chunk list
  };
  struct ShuffleData {
    int num_reducers = 0;
    std::vector<std::unique_ptr<ReducerBucket>> buckets;
  };
  ShuffleData* Find(int shuffle_id) const;

  mutable std::mutex mu_;  // guards shuffles_ registration/lookup
  // deque: references to elements stay valid as shuffles register.
  mutable std::deque<ShuffleData> shuffles_;
};

/// Map-side hash shuffle buffer with eager combining, object mode: an
/// open-addressing table whose key and aggregate-value entries are managed
/// objects (Spark's AppendOnlyMap). Every combine allocates a fresh value
/// object — the temporary-object churn of paper Section 4.2 case (2).
class ObjectHashShuffleBuffer {
 public:
  ObjectHashShuffleBuffer(jvm::Heap* heap, const ShuffleOps* ops,
                          uint32_t initial_capacity = 64);
  ~ObjectHashShuffleBuffer();

  /// Inserts (key, value), combining with the existing aggregate for the
  /// key if present. Both refs must be rooted by the caller (handles).
  void Insert(jvm::ObjRef key, jvm::ObjRef value);

  /// Iterates all (key, aggregate) entries. `fn` must not allocate.
  void ForEach(
      const std::function<void(jvm::ObjRef key, jvm::ObjRef value)>& fn) const;

  uint32_t size() const { return size_; }
  uint64_t estimated_bytes() const { return estimated_bytes_; }

  /// Drops all entries (spill flush): the table is reset to empty.
  void Clear();

 private:
  void Grow();

  jvm::Heap* heap_;
  const ShuffleOps* ops_;
  jvm::VectorRootProvider table_root_;  // holds the single table array ref
  uint32_t capacity_;
  uint32_t size_ = 0;
  uint64_t estimated_bytes_ = 0;

  jvm::ObjRef table() const { return table_root_.refs()[0]; }
};

/// Map-side hash shuffle buffer, Deca mode: decomposed SFST keys and
/// values live as fixed-size segments in a page group; a native pointer
/// array indexes them (paper Figure 6b). Combining reuses the aggregate's
/// page segment in place — no allocation, no dead value objects.
///
/// Each slot carries the key's full 64-bit hash next to its segment
/// pointer, so a probe resolves the segment and compares key bytes only
/// when the hashes match, and Grow rehashes from the stored hash alone.
/// Slot placement (index `hash & mask`, linear probing, the same growth
/// rule and rehash order) is exactly ObjectHashShuffleBuffer's, so given
/// equal key hashes both buffers iterate their keys in the same order.
class DecaHashShuffleBuffer {
 public:
  DecaHashShuffleBuffer(jvm::Heap* heap, const ShuffleOps* ops,
                        uint32_t page_bytes, uint32_t initial_capacity = 64);

  /// Inserts a decomposed (key, value) pair, combining in place when the
  /// key exists.
  void Insert(const uint8_t* key, const uint8_t* value);

  /// Iterates entries as raw segment bytes (key immediately followed by
  /// value). `fn` must not allocate.
  void ForEach(const std::function<void(const uint8_t* entry)>& fn) const;

  uint32_t size() const { return size_; }
  const core::PageGroup& pages() const { return *pages_; }
  uint64_t estimated_bytes() const { return pages_->footprint_bytes(); }

  void Clear();

 private:
  static constexpr core::SegPtr kEmpty{UINT32_MAX, UINT32_MAX};
  struct Slot {
    uint64_t hash = 0;
    core::SegPtr seg = kEmpty;
  };
  void Grow();

  jvm::Heap* heap_;
  const ShuffleOps* ops_;
  std::shared_ptr<core::PageGroup> pages_;
  std::vector<Slot> slots_;  // native pointer array, power-of-two size
  uint32_t size_ = 0;
  uint32_t entry_bytes_;
};

/// Map-side grouping buffer (groupByKey): keys map to managed ArrayBuffer
/// values (an Object[] grown geometrically). The combining function only
/// appends (paper Section 4.2 case (3)); the buffer itself is a VST and
/// stays in object form even under Deca (partially decomposable scenario).
class ObjectGroupByBuffer {
 public:
  ObjectGroupByBuffer(jvm::Heap* heap, const ShuffleOps* ops,
                      uint32_t initial_capacity = 64);
  ~ObjectGroupByBuffer();

  void Insert(jvm::ObjRef key, jvm::ObjRef value);

  /// Iterates groups: `values` is a managed Object[] whose first
  /// `count` elements are the group's values.
  void ForEach(const std::function<void(jvm::ObjRef key, jvm::ObjRef values,
                                        uint32_t count)>& fn) const;

  uint32_t size() const { return size_; }
  uint64_t estimated_bytes() const { return estimated_bytes_; }

 private:
  void Grow();

  jvm::Heap* heap_;
  const ShuffleOps* ops_;
  // refs[0] = key table (Object[]), refs[1] = value-array table (Object[]),
  // per-slot value arrays have their length in counts_.
  jvm::VectorRootProvider roots_;
  std::vector<uint32_t> counts_;
  uint32_t capacity_;
  uint32_t size_ = 0;
  uint64_t estimated_bytes_ = 0;

  jvm::ObjRef keys() const { return roots_.refs()[0]; }
  jvm::ObjRef vals() const { return roots_.refs()[1]; }
};

}  // namespace deca::spark

#endif  // DECA_SPARK_SHUFFLE_H_
