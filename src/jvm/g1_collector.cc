#include "jvm/g1_collector.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "jvm/heap.h"
#include "obs/trace.h"

namespace deca::jvm {

namespace {
constexpr size_t kMinRegionBytes = 64u << 10;
constexpr size_t kMaxRegionBytes = 1u << 20;
// Fraction of post-reclaim free space a mixed collection may fill with
// evacuated old data (the rest is reserved for the young evacuation).
constexpr double kMixedEvacBudget = 0.8;
// Backoff (in young GCs) applied when a mixed collection reclaims < 2% of
// the heap, to avoid back-to-back useless marking cycles.
constexpr int kMixedBackoffGcs = 4;
}  // namespace

G1Collector::G1Collector(Heap* heap, const HeapConfig& config)
    : heap_(heap), cfg_(config), marker_(heap) {
  region_bytes_ = config.g1_region_bytes;
  if (region_bytes_ == 0) {
    region_bytes_ = AlignUp(config.heap_bytes / 128, kMinRegionBytes);
    region_bytes_ = std::clamp(region_bytes_, kMinRegionBytes,
                               kMaxRegionBytes);
  }
  DECA_CHECK_EQ(region_bytes_ % kWordSize, 0u);
  region_base_ = heap->base() + 2 * kWordSize;
  size_t num = config.heap_bytes / region_bytes_;
  DECA_CHECK_GE(num, 8u) << "G1 heap too small for region size";
  regions_.resize(num);
  for (size_t i = 0; i < num; ++i) regions_[i].top = RegionBegin(i);
  max_young_regions_ = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num) *
                             config.young_fraction));
}

size_t G1Collector::free_region_count() const {
  size_t n = 0;
  for (const auto& r : regions_) {
    if (r.type == RegionType::kFree) ++n;
  }
  return n;
}

int G1Collector::TakeFreeRegion(RegionType type) {
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].type == RegionType::kFree) {
      regions_[i].type = type;
      regions_[i].top = RegionBegin(i);
      regions_[i].live_bytes = 0;
      regions_[i].in_cset = false;
      return static_cast<int>(i);
    }
  }
  return -1;
}

void G1Collector::FreeRegion(size_t idx) {
  Region& r = regions_[idx];
  r.type = RegionType::kFree;
  r.top = RegionBegin(idx);
  r.live_bytes = 0;
  r.in_cset = false;
  r.evac_failed = false;
}

uint8_t* G1Collector::BumpIn(int region_idx, size_t bytes) {
  Region& r = regions_[static_cast<size_t>(region_idx)];
  if (r.top + bytes > RegionEnd(static_cast<size_t>(region_idx))) {
    return nullptr;
  }
  uint8_t* p = r.top;
  r.top += bytes;
  return p;
}

uint8_t* G1Collector::AllocateRaw(size_t bytes, bool large) {
  DECA_DCHECK(bytes % kWordSize == 0);
  if (bytes >= region_bytes_ / 2) return AllocateHumongous(bytes);
  if (large) return AllocateOldDirect(bytes);
  return AllocateSmall(bytes);
}

uint8_t* G1Collector::AllocateSmall(size_t bytes) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (cur_eden_ >= 0) {
      if (uint8_t* p = BumpIn(cur_eden_, bytes)) return p;
    }
    // The young target caps *eden*; survivor regions hold live data and
    // must not starve allocation (survivor overflow tenures early below).
    if (eden_regions_.size() < max_young_regions_) {
      int idx = TakeFreeRegion(RegionType::kEden);
      if (idx >= 0) {
        eden_regions_.push_back(static_cast<size_t>(idx));
        cur_eden_ = idx;
        if (uint8_t* p = BumpIn(cur_eden_, bytes)) return p;
      }
    }
    if (attempt == 0) {
      if (ShouldStartMixed() && cfg_.pause_budget_ms <= 0) {
        MixedGc(/*aggressive=*/false);
      } else {
        YoungGc();
        // Budgeted mode: an IHOP crossing starts a concurrent cycle
        // drained by allocation ticks instead of marking in this pause.
        if (cfg_.pause_budget_ms > 0 && !marker_.active() &&
            ShouldStartMixed()) {
          StartConcurrentCycle();
        }
      }
    } else if (attempt == 1) {
      MixedGc(/*aggressive=*/true);
    }
  }
  return nullptr;
}

uint8_t* G1Collector::AllocateOldDirect(size_t bytes) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (cur_old_ >= 0) {
      if (uint8_t* p = BumpIn(cur_old_, bytes)) return p;
    }
    int idx = TakeFreeRegion(RegionType::kOld);
    if (idx >= 0) {
      cur_old_ = idx;
      if (uint8_t* p = BumpIn(cur_old_, bytes)) return p;
    }
    if (attempt == 0) MixedGc(/*aggressive=*/true);
  }
  return nullptr;
}

uint8_t* G1Collector::AllocateHumongous(size_t bytes) {
  size_t need = (bytes + region_bytes_ - 1) / region_bytes_;
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t run = 0;
    for (size_t i = 0; i < regions_.size(); ++i) {
      run = regions_[i].type == RegionType::kFree ? run + 1 : 0;
      if (run < need) continue;
      size_t first = i + 1 - need;
      size_t remaining = bytes;
      for (size_t k = 0; k < need; ++k) {
        Region& r = regions_[first + k];
        r.type = k == 0 ? RegionType::kHumStart : RegionType::kHumCont;
        r.live_bytes = 0;
        r.in_cset = false;
        size_t portion = std::min(remaining, region_bytes_);
        r.top = RegionBegin(first + k) + portion;
        remaining -= portion;
      }
      return RegionBegin(first);
    }
    if (attempt == 0) MixedGc(/*aggressive=*/true);
  }
  return nullptr;
}

void G1Collector::WriteBarrier(ObjRef holder, ObjRef value) {
  const Region& hr = RegionOf(heap_->Addr(holder));
  if (hr.type == RegionType::kEden || hr.type == RegionType::kSurvivor) {
    return;
  }
  const Region& vr = RegionOf(heap_->Addr(value));
  if (vr.type != RegionType::kEden && vr.type != RegionType::kSurvivor) {
    return;
  }
  uint32_t& meta = heap_->MetaOf(holder);
  if ((meta & kInRemsetBit) != 0) return;
  meta |= kInRemsetBit;
  remset_.push_back(holder);
}

bool G1Collector::IsYoung(ObjRef obj) const {
  RegionType t = RegionOf(heap_->Addr(obj)).type;
  return t == RegionType::kEden || t == RegionType::kSurvivor;
}

size_t G1Collector::young_used_bytes() const {
  size_t total = 0;
  for (size_t idx : eden_regions_) {
    total += static_cast<size_t>(regions_[idx].top - RegionBegin(idx));
  }
  for (size_t idx : survivor_regions_) {
    total += static_cast<size_t>(regions_[idx].top - RegionBegin(idx));
  }
  return total;
}

size_t G1Collector::used_bytes() const {
  size_t total = 0;
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].type == RegionType::kFree) continue;
    total += static_cast<size_t>(regions_[i].top - RegionBegin(i));
  }
  return total;
}

size_t G1Collector::old_used_bytes() const {
  size_t total = 0;
  for (size_t i = 0; i < regions_.size(); ++i) {
    RegionType t = regions_[i].type;
    if (t != RegionType::kOld && t != RegionType::kHumStart &&
        t != RegionType::kHumCont) {
      continue;
    }
    total += static_cast<size_t>(regions_[i].top - RegionBegin(i));
  }
  return total;
}

size_t G1Collector::capacity_bytes() const {
  return regions_.size() * region_bytes_;
}

void G1Collector::WalkRegion(size_t idx,
                             const std::function<void(ObjRef)>& fn) const {
  uint8_t* p = RegionBegin(idx);
  uint8_t* top = regions_[idx].top;
  while (p < top) {
    ObjRef r = heap_->RefOf(p);
    uint32_t walk = heap_->WalkBytes(r);
    if (heap_->ClassIdOf(r) != 0) fn(r);
    p += walk;
  }
}

void G1Collector::ForEachObject(
    const std::function<void(ObjRef)>& fn) const {
  for (size_t i = 0; i < regions_.size(); ++i) {
    switch (regions_[i].type) {
      case RegionType::kEden:
      case RegionType::kSurvivor:
      case RegionType::kOld:
        WalkRegion(i, fn);
        break;
      case RegionType::kHumStart:
        fn(heap_->RefOf(RegionBegin(i)));
        break;
      case RegionType::kFree:
      case RegionType::kHumCont:
        break;
    }
  }
}

std::string G1Collector::DebugString() const {
  size_t counts[6] = {0, 0, 0, 0, 0, 0};
  size_t used[6] = {0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < regions_.size(); ++i) {
    size_t t = static_cast<size_t>(regions_[i].type);
    counts[t] += 1;
    used[t] += static_cast<size_t>(regions_[i].top - RegionBegin(i));
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "G1 regions free=%zu eden=%zu(%zuKB) sur=%zu(%zuKB) "
                "old=%zu(%zuKB) hum=%zu backoff=%d",
                counts[0], counts[1], used[1] >> 10, counts[2],
                used[2] >> 10, counts[3], used[3] >> 10, counts[4] + counts[5],
                mixed_backoff_);
  return buf;
}

bool G1Collector::ShouldStartMixed() const {
  if (mixed_backoff_ > 0) return false;
  return static_cast<double>(old_used_bytes()) >
         cfg_.g1_ihop * static_cast<double>(capacity_bytes());
}

void G1Collector::CollectMinor() { YoungGc(); }

void G1Collector::CollectFull() { MixedGc(/*aggressive=*/true); }

void G1Collector::YoungGc() {
  if (marker_.active()) {
    // Evacuation would invalidate the in-flight mark state: finish the
    // cycle; its consuming mixed collection empties the young gen too.
    MixedGc(/*aggressive=*/false);
    return;
  }
  if (young_region_count() == 0) return;
  if (free_region_count() * region_bytes_ < young_used_bytes()) {
    // Not enough target space for a guaranteed evacuation: reclaim old
    // space first.
    MixedGc(/*aggressive=*/true);
    return;
  }
  Stopwatch sw;
  for (size_t idx : eden_regions_) regions_[idx].in_cset = true;
  for (size_t idx : survivor_regions_) regions_[idx].in_cset = true;
  EvacuateCollectionSet(/*is_mixed=*/false);
  GcStats& st = heap_->mutable_stats();
  st.minor_count += 1;
  double pause_ms = sw.ElapsedMillis();
  st.minor_pause_ms += pause_ms;
  heap_->RecordPauseMs(pause_ms);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "minor_pause", pause_ms,
                        static_cast<double>(st.minor_count));
  }
  if (mixed_backoff_ > 0) --mixed_backoff_;
}

void G1Collector::MixedGc(bool aggressive) {
  Stopwatch mark_sw;
  if (marker_.active()) {
    // Force-complete the in-flight concurrent cycle in budget-bounded
    // slices; the marked set equals a fresh monolithic mark modulo SATB
    // floating garbage.
    marker_.FinishAll(cfg_.pause_budget_ms);
  } else {
    uint64_t epoch = heap_->NextGcEpoch();
    for (auto& r : regions_) r.live_bytes = 0;
    auto on_mark = [this](ObjRef o) {
      RegionOf(heap_->Addr(o)).live_bytes += heap_->ObjectBytes(o);
    };
    if (cfg_.pause_budget_ms > 0) {
      marker_.Begin(epoch, on_mark);
      marker_.FinishAll(cfg_.pause_budget_ms);
    } else {
      MarkAllReachable(heap_, epoch, &mark_stack_, on_mark);
      heap_->RecordMarkSlice(mark_sw.ElapsedMillis(), /*standalone=*/false);
    }
  }
  MixedFinish(aggressive, mark_sw.ElapsedMillis());
}

void G1Collector::StartConcurrentCycle() {
  uint64_t epoch = heap_->NextGcEpoch();
  for (auto& r : regions_) r.live_bytes = 0;
  marker_.Begin(epoch, [this](ObjRef o) {
    RegionOf(heap_->Addr(o)).live_bytes += heap_->ObjectBytes(o);
  });
}

void G1Collector::IncrementalMarkTick() {
  if (!marker_.active()) return;
  if (marker_.Step(cfg_.pause_budget_ms, /*standalone=*/true)) {
    // Consume the mark immediately: promotions would dilute the region
    // liveness table if the mixed collection were deferred. The tick fires
    // before the triggering allocation, so no raw refs are live. The mark
    // time was already charged per-slice.
    MixedFinish(/*aggressive=*/false, /*mark_ms=*/0.0);
  }
}

void G1Collector::MixedFinish(bool aggressive, double mark_ms) {
  GcStats& st = heap_->mutable_stats();
  uint64_t epoch = heap_->gc_epoch();

  Stopwatch evac_sw;
  size_t regions_reclaimed = 0;
  // Free dead humongous objects (their start region is unmarked).
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].type != RegionType::kHumStart) continue;
    ObjRef h = heap_->RefOf(RegionBegin(i));
    if (regions_[i].live_bytes > 0 &&
        GcIsMarkedIn(heap_->GcWordOf(h), epoch)) {
      continue;
    }
    size_t k = i;
    FreeRegion(k++);
    ++regions_reclaimed;
    while (k < regions_.size() && regions_[k].type == RegionType::kHumCont) {
      FreeRegion(k++);
      ++regions_reclaimed;
    }
  }
  // Free wholly dead old regions in place (G1's cheap reclaim).
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].type == RegionType::kOld &&
        regions_[i].live_bytes == 0) {
      FreeRegion(i);
      ++regions_reclaimed;
      if (cur_old_ == static_cast<int>(i)) cur_old_ = -1;
    }
  }

  // Select evacuation candidates among the surviving old regions.
  double threshold = aggressive ? 0.999 : cfg_.g1_live_threshold;
  std::vector<std::pair<size_t, size_t>> candidates;  // (live, idx)
  for (size_t i = 0; i < regions_.size(); ++i) {
    const Region& r = regions_[i];
    if (r.type != RegionType::kOld) continue;
    double ratio = static_cast<double>(r.live_bytes) /
                   static_cast<double>(region_bytes_);
    if (ratio < threshold) candidates.emplace_back(r.live_bytes, i);
  }
  std::sort(candidates.begin(), candidates.end());
  size_t free_bytes = free_region_count() * region_bytes_;
  size_t young_used = young_used_bytes();
  size_t budget =
      free_bytes > young_used
          ? static_cast<size_t>(
                static_cast<double>(free_bytes - young_used) *
                kMixedEvacBudget)
          : 0;
  size_t selected_live = 0;
  for (const auto& [live, idx] : candidates) {
    if (selected_live + live > budget) break;
    regions_[idx].in_cset = true;
    selected_live += live;
    ++regions_reclaimed;
    if (cur_old_ == static_cast<int>(idx)) cur_old_ = -1;
  }
  for (size_t idx : eden_regions_) regions_[idx].in_cset = true;
  for (size_t idx : survivor_regions_) regions_[idx].in_cset = true;

  EvacuateCollectionSet(/*is_mixed=*/true);

  double evac_ms = evac_sw.ElapsedMillis();
  st.full_count += 1;
  double pause_ms = mark_ms * cfg_.concurrent_pause_share + evac_ms;
  st.full_pause_ms += pause_ms;
  st.concurrent_ms += mark_ms * (1.0 - cfg_.concurrent_pause_share);
  heap_->RecordPauseMs(pause_ms);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "mixed_pause", pause_ms,
                        static_cast<double>(st.full_count),
                        static_cast<double>(regions_reclaimed));
    rec->CompleteSpanMs(obs::Cat::kGc, "concurrent_mark",
                        mark_ms * (1.0 - cfg_.concurrent_pause_share),
                        static_cast<double>(st.full_count));
  }

  if (regions_reclaimed * region_bytes_ <
      static_cast<size_t>(0.02 * static_cast<double>(capacity_bytes()))) {
    mixed_backoff_ = kMixedBackoffGcs;
  }
}

void G1Collector::EvacuateCollectionSet(bool is_mixed) {
  EvacTargets t;
  worklist_.clear();

  std::vector<size_t> cset;
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].in_cset) cset.push_back(i);
  }
  // Snapshot of non-cset old/humongous regions to scan (mixed only): the
  // ranges existing *before* any evacuation target allocation.
  struct ScanRange {
    size_t idx;
    uint8_t* top;
    bool humongous;
  };
  std::vector<ScanRange> scan;
  if (is_mixed) {
    for (size_t i = 0; i < regions_.size(); ++i) {
      const Region& r = regions_[i];
      if (r.in_cset) continue;
      if (r.type == RegionType::kOld) {
        scan.push_back({i, r.top, false});
      } else if (r.type == RegionType::kHumStart) {
        scan.push_back({i, r.top, true});
      }
    }
  }

  std::vector<ObjRef> old_remset;
  old_remset.swap(remset_);
  for (ObjRef o : old_remset) heap_->MetaOf(o) &= ~kInRemsetBit;

  heap_->VisitRoots([&](ObjRef* slot) { EvacuateSlot(slot, &t); });

  if (is_mixed) {
    // Fix incoming references by linearly scanning all live (marked) old
    // objects outside the collection set. This also rebuilds the
    // old-to-young remembered set.
    uint64_t epoch = heap_->gc_epoch();
    for (const ScanRange& sr : scan) {
      if (sr.humongous) {
        ObjRef h = heap_->RefOf(RegionBegin(sr.idx));
        if (GcIsMarkedIn(heap_->GcWordOf(h), epoch)) ScanObject(h, &t);
        continue;
      }
      uint8_t* p = RegionBegin(sr.idx);
      while (p < sr.top) {
        ObjRef r = heap_->RefOf(p);
        uint32_t walk = heap_->WalkBytes(r);
        if (GcIsMarkedIn(heap_->GcWordOf(r), epoch)) ScanObject(r, &t);
        p += walk;
      }
    }
  } else {
    for (ObjRef o : old_remset) ScanObject(o, &t);
  }

  while (!worklist_.empty()) {
    ObjRef o = worklist_.back();
    worklist_.pop_back();
    ScanObject(o, &t);
  }

  for (size_t idx : cset) {
    Region& r = regions_[idx];
    if (!r.evac_failed) {
      FreeRegion(idx);
      continue;
    }
    // Promote the region in place: live objects are self-forwarded. Clear
    // their gcwords and record any old-to-young edges they now carry in
    // the remembered set.
    uint8_t* p = RegionBegin(idx);
    while (p < r.top) {
      jvm::ObjRef obj = heap_->RefOf(p);
      uint32_t walk = heap_->WalkBytes(obj);
      uint64_t& gw = heap_->GcWordOf(obj);
      if (GcIsForwarded(gw)) {
        gw = 0;
        bool has_young = false;
        heap_->VisitRefSlots(obj, [&](ObjRef* s) {
          if (*s == kNullRef) return;
          RegionType rt = RegionOf(heap_->Addr(*s)).type;
          if (rt == RegionType::kEden || rt == RegionType::kSurvivor) {
            has_young = true;
          }
        });
        if (has_young) {
          uint32_t& m = heap_->MetaOf(obj);
          if ((m & kInRemsetBit) == 0) {
            m |= kInRemsetBit;
            remset_.push_back(obj);
          }
        }
      } else {
        gw = 0;
      }
      p += walk;
    }
    r.type = RegionType::kOld;
    r.in_cset = false;
    r.evac_failed = false;
    r.live_bytes = static_cast<size_t>(r.top - RegionBegin(idx));
  }
  eden_regions_.clear();
  cur_eden_ = -1;
  survivor_regions_ = std::move(t.new_survivors);
}

void G1Collector::EvacuateSlot(ObjRef* slot, EvacTargets* t) {
  ObjRef r = *slot;
  uint8_t* p = heap_->Addr(r);
  Region& reg = RegionOf(p);
  if (!reg.in_cset) return;
  uint64_t gw = heap_->GcWordOf(r);
  if (GcIsForwarded(gw)) {
    *slot = GcForwardRef(gw);
    return;
  }
  GcStats& st = heap_->mutable_stats();
  uint32_t size = heap_->ObjectBytes(r);
  uint32_t meta = heap_->MetaOf(r);
  uint32_t age = MetaAge(meta) + 1;
  bool from_young = reg.type == RegionType::kEden ||
                    reg.type == RegionType::kSurvivor;
  uint8_t* dst = nullptr;
  bool promoted = !from_young;
  // Survivor overflow: once this GC has filled a quarter of the young
  // target with survivors, tenure everything else immediately (Hotspot's
  // adaptive tenuring under survivor pressure).
  bool survivor_full =
      t->new_survivors.size() >= std::max<size_t>(1, max_young_regions_ / 4);
  if (from_young && age < cfg_.tenure_threshold && !survivor_full) {
    if (t->survivor_region >= 0) dst = BumpIn(t->survivor_region, size);
    if (dst == nullptr) {
      int idx = TakeFreeRegion(RegionType::kSurvivor);
      if (idx >= 0) {
        t->survivor_region = idx;
        t->new_survivors.push_back(static_cast<size_t>(idx));
        dst = BumpIn(idx, size);
      }
    }
  }
  if (dst == nullptr) {
    if (from_young) promoted = true;
    // Promotions share the persistent old allocation region (cur_old_) so
    // successive collections fill regions densely instead of abandoning a
    // nearly-empty region per GC.
    if (cur_old_ >= 0) dst = BumpIn(cur_old_, size);
    if (dst == nullptr) {
      int idx = TakeFreeRegion(RegionType::kOld);
      if (idx >= 0) {
        cur_old_ = idx;
        dst = BumpIn(idx, size);
      }
    }
  }
  if (dst == nullptr) {
    // Evacuation failure: promote the object in place by self-forwarding
    // (real G1's handling); the region is retyped old after the GC.
    heap_->GcWordOf(r) = GcMakeForward(r, /*keep_mark=*/false);
    reg.evac_failed = true;
    *slot = r;
    worklist_.push_back(r);
    st.objects_traced += 1;
    return;
  }
  std::memcpy(dst, p, size);
  ObjRef nr = heap_->RefOf(dst);
  uint32_t nmeta = MetaWithAge(meta & ~(kInRemsetBit | kSlack8Bit),
                               promoted ? 0 : age);
  heap_->MetaOf(nr) = nmeta;
  heap_->GcWordOf(nr) = 0;
  heap_->GcWordOf(r) = GcMakeForward(nr, /*keep_mark=*/false);
  *slot = nr;
  worklist_.push_back(nr);

  st.objects_traced += 1;
  st.bytes_copied += size;
  if (promoted && from_young) st.objects_promoted += 1;
}

void G1Collector::ScanObject(ObjRef owner, EvacTargets* t) {
  bool has_young = false;
  heap_->VisitRefSlots(owner, [&](ObjRef* s) {
    if (*s == kNullRef) return;
    EvacuateSlot(s, t);
    RegionType rt = RegionOf(heap_->Addr(*s)).type;
    if (rt == RegionType::kEden || rt == RegionType::kSurvivor) {
      has_young = true;
    }
  });
  if (!has_young) return;
  RegionType ot = RegionOf(heap_->Addr(owner)).type;
  if (ot == RegionType::kEden || ot == RegionType::kSurvivor) return;
  uint32_t& m = heap_->MetaOf(owner);
  if ((m & kInRemsetBit) == 0) {
    m |= kInRemsetBit;
    remset_.push_back(owner);
  }
}

}  // namespace deca::jvm
