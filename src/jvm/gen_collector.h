#ifndef DECA_JVM_GEN_COLLECTOR_H_
#define DECA_JVM_GEN_COLLECTOR_H_

#include <cstdint>
#include <vector>

#include "jvm/collector.h"
#include "jvm/heap_config.h"
#include "jvm/incremental_mark.h"

namespace deca::jvm {

class Heap;

/// Shared machinery for the two classic generational collectors
/// (ParallelScavenge and CMS): contiguous space layout
/// `[old | eden | survivor0 | survivor1]`, copying minor collections with
/// an object-level old-to-young remembered set, promotion guarantees, and
/// a global sliding mark-compact used as the PS full collection and the
/// CMS "concurrent mode failure" fallback.
class GenCollectorBase : public Collector {
 public:
  GenCollectorBase(Heap* heap, const HeapConfig& config);

  uint8_t* AllocateRaw(size_t bytes, bool large) override;
  void CollectMinor() override;
  void WriteBarrier(ObjRef holder, ObjRef value) override;
  bool IsYoung(ObjRef obj) const override;

  size_t used_bytes() const override;
  size_t capacity_bytes() const override;
  void ForEachObject(const std::function<void(ObjRef)>& fn) const override;
  bool TakeAllocSlack() override {
    bool s = pending_slack8_;
    pending_slack8_ = false;
    return s;
  }

  /// Capacity of the dense-prefix run list (see CompactAll). Exposed for
  /// tests.
  static constexpr size_t kPrefixRunCapacity = 4096;

  // Exposed for tests.
  size_t eden_capacity() const {
    return static_cast<size_t>(eden_end_ - eden_alloc_begin_);
  }
  size_t remset_size() const { return remset_.size(); }

 protected:
  /// Allocates `bytes` from the old generation without triggering GC;
  /// returns nullptr when it cannot. Sets `slack8` when the grant includes
  /// 8 bytes of trailing slack (free-list splits only).
  virtual uint8_t* AllocateOldRaw(size_t bytes, bool* slack8) = 0;

  /// Total reclaimable free bytes in the old generation.
  virtual size_t OldFreeBytes() const = 0;

  /// Last-resort hook after a failed post-full-GC allocation. Returns true
  /// if the collector freed additional space (CMS compaction fallback).
  virtual bool OnAllocationFailureAfterFull() { return false; }

  /// Called at the end of a global compaction so the subclass can rebuild
  /// its old-generation bookkeeping (`old_top_` is already updated).
  virtual void PostCompact() {}

  /// Called after every minor collection (occupancy-triggered concurrent
  /// cycles hook here).
  virtual void PostMinor() {}

  // -- shared algorithms ----------------------------------------------------

  /// Marks all reachable objects; returns total live bytes. `epoch` is the
  /// fresh mark epoch. With a pause budget configured the mark runs as
  /// back-to-back budget-bounded slices (identical marked set, bounded
  /// per-slice pause samples); otherwise the historical monolithic pass,
  /// recorded as a single slice.
  size_t MarkAll(uint64_t epoch);

  /// Global sliding compaction of all spaces into the start of the old
  /// generation (Lisp-2). Requires MarkAll(epoch) to have run. After the
  /// call the heap is dense in [old_begin, old_top_) and young is empty.
  /// The leading run of live old objects (the dense prefix) slides onto
  /// itself: one sweep resets it, and the three Lisp-2 passes start at its
  /// end. Pass 2 reaches back into the prefix only for the runs that may
  /// point past it.
  void CompactAll(uint64_t epoch);

  /// Copying collection of the young generation. `guarantee_checked` must
  /// be true (callers verify the promotion guarantee first).
  void MinorGcImpl();

  /// True when the promotion guarantee holds; minor collections are only
  /// attempted under the guarantee. The base (PS) uses the worst case (old
  /// free >= young used): with a cache-saturated old generation every eden
  /// fill escalates to a full collection — the thrash the paper measures.
  /// CMS overrides this with a promotion-rate estimate, which is why it
  /// keeps scavenging where PS stops the world.
  virtual bool PromotionGuaranteeHolds() const;

  bool InYoungPtr(const uint8_t* p) const {
    return (p >= eden_alloc_begin_ && p < eden_end_) ||
           (p >= sur_begin_[0] && p < sur_end_[1]);
  }

  size_t young_used_bytes() const;

  /// Calls `fn(ObjRef)` for every object in [begin, top) in address
  /// order, skipping free chunks. The step is read before `fn` runs, so
  /// `fn` may slide the object to a lower address.
  template <typename F>
  void WalkRange(uint8_t* begin, uint8_t* top, F&& fn) const;

  /// WalkRange over the old generation from `old_from`, then eden and both
  /// survivors.
  template <typename F>
  void WalkSpaces(uint8_t* old_from, F&& fn) const;

  Heap* heap_;
  HeapConfig cfg_;

  // Space boundaries (fixed at construction); layout: old, eden, s0, s1.
  uint8_t* old_begin_ = nullptr;
  uint8_t* old_end_ = nullptr;
  uint8_t* eden_begin_ = nullptr;
  uint8_t* eden_end_ = nullptr;
  uint8_t* sur_begin_[2] = {nullptr, nullptr};
  uint8_t* sur_end_[2] = {nullptr, nullptr};

  // Allocation state.
  uint8_t* old_top_ = nullptr;        // PS bump top / dense prefix end (CMS
                                      // tracks its free list separately)
  uint8_t* eden_alloc_begin_ = nullptr;  // > eden_begin_ after compaction
                                         // spill into eden
  uint8_t* eden_top_ = nullptr;
  uint8_t* sur_top_[2] = {nullptr, nullptr};
  int from_ = 0;

  std::vector<ObjRef> remset_;     // old objects that may hold young refs
  std::vector<ObjRef> worklist_;   // evacuation scan queue (reused)
  std::vector<ObjRef> mark_stack_; // marking stack (reused)
  IncrementalMarker marker_;       // resumable mark state (budgeted mode)
  bool pending_slack8_ = false;    // slack of the most recent allocation
  size_t promoted_bytes_last_minor_ = 0;
  size_t promoted_bytes_cur_minor_ = 0;
  bool minor_promo_failed_ = false;

 private:
  struct EvacuationState;
  void EvacuateSlot(ObjRef* slot, EvacuationState* st);
  void ScanObject(ObjRef owner, EvacuationState* st);
  void RecomputeEdenAfterCompact();

  /// Prefix objects [begin, end) whose ref slots may point past
  /// themselves, and the farthest such target. A run starts as one object;
  /// runs merge when the list is crowded.
  struct PrefixRun {
    ObjRef begin;
    ObjRef end;
    ObjRef farthest;
  };

  /// Sweeps the dense prefix of a compaction at `epoch` and returns its
  /// end. Resets each prefix object's header as the slide would, adds its
  /// size to `*bytes`, and leaves in prefix_runs_ every prefix object that
  /// may point past the prefix.
  uint8_t* SweepDensePrefix(uint64_t epoch, uint64_t* bytes);

  /// Makes room in the full run list while the sweep stands at `swept`:
  /// drops runs whose targets all lie below it, then, if more than half
  /// are left, merges neighbouring runs pairwise.
  void ShrinkPrefixRuns(ObjRef swept);

  std::vector<PrefixRun> prefix_runs_;  // bounded by kPrefixRunCapacity
};

/// Hotspot's default throughput collector: bump-pointer old generation,
/// stop-the-world copying minor GCs, and sliding mark-compact full GCs.
class PsCollector : public GenCollectorBase {
 public:
  PsCollector(Heap* heap, const HeapConfig& config);

  void CollectFull() override;
  size_t old_used_bytes() const override;
  const char* name() const override { return "ParallelScavenge"; }

 protected:
  uint8_t* AllocateOldRaw(size_t bytes, bool* slack8) override;
  size_t OldFreeBytes() const override;
};

/// CMS-style collector: free-list old generation, mark-sweep major
/// collections whose mark/sweep work is mostly charged as concurrent time,
/// with a stop-the-world compaction fallback on fragmentation
/// ("concurrent mode failure").
class CmsCollector : public GenCollectorBase {
 public:
  CmsCollector(Heap* heap, const HeapConfig& config);

  /// Force-completes any active incremental cycle (evacuation would
  /// invalidate its mark state), then delegates to the base.
  void CollectMinor() override;
  void CollectFull() override;
  /// Advances the background cycle by one budgeted slice; on completion
  /// runs the consuming sweep.
  void IncrementalMarkTick() override;
  size_t old_used_bytes() const override;
  const char* name() const override { return "CMS"; }

  /// Promotion-rate-based guarantee (vs PS's worst case): minor
  /// collections proceed as long as the old free list can absorb a few
  /// times the recent promotion volume plus a survivor's worth of slack.
  bool PromotionGuaranteeHolds() const override;

  size_t FreeListBytes() const;
  size_t FreeListChunks() const { return free_list_.size(); }

 protected:
  uint8_t* AllocateOldRaw(size_t bytes, bool* slack8) override;
  size_t OldFreeBytes() const override;
  bool OnAllocationFailureAfterFull() override;
  void PostCompact() override;
  /// CMS background cycle trigger: start a (mostly concurrent) mark-sweep
  /// once old occupancy crosses the initiating threshold.
  void PostMinor() override;

 private:
  struct FreeChunk {
    uint8_t* begin;
    size_t bytes;
  };

  /// Writes a class-0 filler object over [begin, begin+bytes).
  void WriteFreeChunk(uint8_t* begin, size_t bytes);
  void SweepOld(uint64_t epoch);

  /// Consumes a completed incremental mark: sweeps the old generation and
  /// filters the remembered set, charging the sweep like the monolithic
  /// cycle (mostly concurrent). The marker must be inactive.
  void FinishIncrementalCycle();
  /// Forced completion: drains the remaining gray set in budget-bounded
  /// back-to-back slices, then consumes the cycle.
  void CompleteActiveCycle();

  static constexpr int kMinorsPerCmsCycle = 8;

  std::vector<FreeChunk> free_list_;  // address-ordered
  bool in_full_gc_ = false;
  int minors_since_cycle_ = 0;
};

}  // namespace deca::jvm

#endif  // DECA_JVM_GEN_COLLECTOR_H_
