#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "jvm/class_registry.h"
#include "jvm/g1_collector.h"
#include "jvm/gen_collector.h"
#include "jvm/heap.h"

namespace deca::jvm {
namespace {

/// Stress and invariant tests run against all three collectors.
class CollectorTest : public ::testing::TestWithParam<GcAlgorithm> {
 protected:
  CollectorTest() {
    node_class_ = registry_.RegisterClass(
        "Node", {{"value", FieldKind::kDouble}, {"next", FieldKind::kRef}});
    pair_class_ = registry_.RegisterClass(
        "Pair", {{"a", FieldKind::kRef}, {"b", FieldKind::kRef}});
  }

  std::unique_ptr<Heap> MakeHeap(size_t bytes = 8u << 20) {
    HeapConfig cfg;
    cfg.heap_bytes = bytes;
    cfg.algorithm = GetParam();
    return std::make_unique<Heap>(cfg, &registry_);
  }

  /// Builds a managed linked list of `n` nodes with values seed, seed+1, ...
  ObjRef BuildList(Heap* heap, int n, double seed) {
    HandleScope scope(heap);
    Handle head = scope.Make(kNullRef);
    for (int i = n - 1; i >= 0; --i) {
      ObjRef node = heap->AllocateInstance(node_class_);
      heap->SetField<double>(node, 0, seed + i);
      heap->SetRefField(node, 8, head.get());
      head.set(node);
    }
    return head.get();
  }

  void CheckList(Heap* heap, ObjRef head, int n, double seed) {
    ObjRef cur = head;
    for (int i = 0; i < n; ++i) {
      ASSERT_NE(cur, kNullRef) << "list truncated at " << i;
      ASSERT_EQ(heap->GetField<double>(cur, 0), seed + i);
      cur = heap->GetRefField(cur, 8);
    }
    ASSERT_EQ(cur, kNullRef);
  }

  ClassRegistry registry_;
  uint32_t node_class_;
  uint32_t pair_class_;
};

TEST_P(CollectorTest, SurvivesRepeatedMinorGcs) {
  auto heap = MakeHeap();
  HandleScope scope(heap.get());
  Handle list = scope.Make(BuildList(heap.get(), 500, 1.0));
  for (int i = 0; i < 10; ++i) {
    BuildList(heap.get(), 200, 999.0);  // garbage
    heap->CollectMinor();
    CheckList(heap.get(), list.get(), 500, 1.0);
  }
  heap->Verify();
}

TEST_P(CollectorTest, SurvivesRepeatedFullGcs) {
  auto heap = MakeHeap();
  HandleScope scope(heap.get());
  Handle list = scope.Make(BuildList(heap.get(), 500, 5.0));
  for (int i = 0; i < 5; ++i) {
    BuildList(heap.get(), 300, 999.0);
    heap->CollectFull();
    CheckList(heap.get(), list.get(), 500, 5.0);
  }
  heap->Verify();
}

TEST_P(CollectorTest, AgingPromotesLongLivedObjects) {
  auto heap = MakeHeap();
  HandleScope scope(heap.get());
  Handle list = scope.Make(BuildList(heap.get(), 100, 0.0));
  uint32_t thr = heap->config().tenure_threshold;
  for (uint32_t i = 0; i <= thr; ++i) heap->CollectMinor();
  EXPECT_FALSE(heap->collector()->IsYoung(list.get()));
  EXPECT_GT(heap->stats().objects_promoted, 0u);
  CheckList(heap.get(), list.get(), 100, 0.0);
}

TEST_P(CollectorTest, GarbageIsActuallyReclaimed) {
  auto heap = MakeHeap();
  // Large transient arrays would exhaust the heap if not reclaimed.
  for (int i = 0; i < 2000; ++i) {
    heap->AllocateArray(registry_.byte_array_class(), 16 << 10);
  }
  SUCCEED();
}

TEST_P(CollectorTest, LargeObjectChurn) {
  auto heap = MakeHeap();
  HandleScope scope(heap.get());
  std::vector<Handle> pins;
  // Keep every 5th large array alive; the rest are garbage.
  for (int i = 0; i < 200; ++i) {
    ObjRef a = heap->AllocateArray(registry_.byte_array_class(), 100 << 10);
    heap->ArrayData(a)[0] = static_cast<uint8_t>(i);
    if (i % 5 == 0) pins.push_back(scope.Make(a));
  }
  for (size_t k = 0; k < pins.size(); ++k) {
    EXPECT_EQ(heap->ArrayData(pins[k].get())[0],
              static_cast<uint8_t>(k * 5));
  }
  heap->Verify();
}

TEST_P(CollectorTest, RandomGraphChurnKeepsHeapConsistent) {
  auto heap = MakeHeap();
  Rng rng(2024);
  VectorRootProvider roots;
  heap->AddRootProvider(&roots);
  auto& pinned = roots.refs();
  for (int round = 0; round < 30; ++round) {
    // Allocate pairs linking random pinned nodes.
    for (int i = 0; i < 300; ++i) {
      HandleScope scope(heap.get());
      ObjRef p = heap->AllocateInstance(pair_class_);
      Handle hp = scope.Make(p);
      if (!pinned.empty()) {
        ObjRef a = pinned[rng.NextBounded(pinned.size())];
        heap->SetRefField(hp.get(), 0, a);
      }
      ObjRef n = heap->AllocateInstance(node_class_);
      heap->SetField<double>(n, 0, round);
      heap->SetRefField(hp.get(), 4, n);  // Pair.b
      if (rng.NextBounded(10) == 0) pinned.push_back(hp.get());
    }
    // Randomly unpin some.
    if (pinned.size() > 200) pinned.resize(100);
    if (round % 7 == 0) heap->CollectFull();
    heap->Verify();
  }
  heap->RemoveRootProvider(&roots);
}

TEST_P(CollectorTest, WriteBarrierCatchesAllOldToYoungEdges) {
  auto heap = MakeHeap();
  Rng rng(7);
  HandleScope scope(heap.get());
  // Create an array of refs and age it into the old generation.
  Handle arr =
      scope.Make(heap->AllocateArray(registry_.ref_array_class(), 64));
  for (uint32_t i = 0; i <= heap->config().tenure_threshold; ++i) {
    heap->CollectMinor();
  }
  EXPECT_FALSE(heap->collector()->IsYoung(arr.get()));
  // Store fresh young nodes into it, then minor-collect repeatedly.
  for (int round = 0; round < 5; ++round) {
    for (uint32_t i = 0; i < 64; ++i) {
      ObjRef n = heap->AllocateInstance(node_class_);
      heap->SetField<double>(n, 0, round * 100.0 + i);
      heap->SetRefElem(arr.get(), i, n);
    }
    BuildList(heap.get(), 500, -1);  // garbage to provoke movement
    heap->CollectMinor();
    for (uint32_t i = 0; i < 64; ++i) {
      ObjRef n = heap->GetRefElem(arr.get(), i);
      ASSERT_NE(n, kNullRef);
      ASSERT_EQ(heap->GetField<double>(n, 0), round * 100.0 + i);
    }
  }
  heap->Verify();
}

TEST_P(CollectorTest, UsedBytesShrinksAfterFullGc) {
  auto heap = MakeHeap();
  HandleScope scope(heap.get());
  Handle keep = scope.Make(BuildList(heap.get(), 100, 0.0));
  (void)keep;
  for (int i = 0; i < 50; ++i) {
    heap->AllocateArray(registry_.byte_array_class(), 8 << 10);
  }
  size_t before = heap->used_bytes();
  heap->CollectFull();
  size_t after = heap->used_bytes();
  EXPECT_LT(after, before);
  // The 100 kept nodes are ~3.2 KB; allow generous slack for roots.
  EXPECT_LT(after, 256u << 10);
}

TEST_P(CollectorTest, StatsCountCollections) {
  auto heap = MakeHeap();
  HandleScope scope(heap.get());
  Handle h = scope.Make(BuildList(heap.get(), 10, 0.0));
  (void)h;
  uint64_t minor0 = heap->stats().minor_count;
  heap->CollectMinor();
  EXPECT_EQ(heap->stats().minor_count, minor0 + 1);
  uint64_t full0 = heap->stats().full_count;
  heap->CollectFull();
  EXPECT_EQ(heap->stats().full_count, full0 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllCollectors, CollectorTest,
    ::testing::Values(GcAlgorithm::kParallelScavenge,
                      GcAlgorithm::kConcurrentMarkSweep, GcAlgorithm::kG1),
    [](const ::testing::TestParamInfo<GcAlgorithm>& info) {
      return std::string(GcAlgorithmName(info.param));
    });

// -- collector-specific behaviours -------------------------------------------

TEST(CmsSpecificTest, FreeListCoalescesAfterSweep) {
  ClassRegistry registry;
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kConcurrentMarkSweep;
  Heap heap(cfg, &registry);
  HandleScope scope(&heap);
  // Alternate pinned / garbage large arrays to fragment the old gen.
  std::vector<Handle> pins;
  for (int i = 0; i < 20; ++i) {
    ObjRef a = heap.AllocateArray(registry.byte_array_class(), 64 << 10);
    if (i % 2 == 0) pins.push_back(scope.Make(a));
  }
  heap.CollectFull();
  auto* cms = static_cast<CmsCollector*>(heap.collector());
  EXPECT_GT(cms->FreeListChunks(), 1u);
  // Release everything; a full GC should coalesce into few chunks.
  pins.clear();
  // (handles still hold slots; emulate release by overwriting)
  heap.CollectFull();
  heap.Verify();
}

TEST(CmsSpecificTest, ConcurrentTimeAccounted) {
  ClassRegistry registry;
  uint32_t node = registry.RegisterClass(
      "Node", {{"value", FieldKind::kDouble}, {"next", FieldKind::kRef}});
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kConcurrentMarkSweep;
  Heap heap(cfg, &registry);
  HandleScope scope(&heap);
  Handle keep = scope.Make(heap.AllocateInstance(node));
  (void)keep;
  heap.CollectFull();
  EXPECT_GT(heap.stats().concurrent_ms, 0.0);
}

TEST(G1SpecificTest, HumongousObjectsUseContiguousRegions) {
  ClassRegistry registry;
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kG1;
  Heap heap(cfg, &registry);
  auto* g1 = static_cast<G1Collector*>(heap.collector());
  size_t region = g1->region_bytes();
  HandleScope scope(&heap);
  // Allocate an object spanning ~3 regions.
  Handle big = scope.Make(heap.AllocateArray(
      registry.byte_array_class(), static_cast<uint32_t>(3 * region - 64)));
  heap.ArrayData(big.get())[0] = 0xAB;
  size_t free_before = g1->free_region_count();
  heap.CollectFull();
  EXPECT_EQ(heap.ArrayData(big.get())[0], 0xAB);
  // Humongous objects are never moved by mixed collections.
  heap.Verify();
  // Release and collect: regions return to the free list.
  big.set(kNullRef);
  heap.CollectFull();
  EXPECT_GT(g1->free_region_count(), free_before);
}

TEST(G1SpecificTest, WhollyDeadOldRegionsFreedWithoutCopying) {
  ClassRegistry registry;
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kG1;
  Heap heap(cfg, &registry);
  auto* g1 = static_cast<G1Collector*>(heap.collector());
  {
    HandleScope scope(&heap);
    std::vector<Handle> pins;
    for (int i = 0; i < 30; ++i) {
      pins.push_back(scope.Make(
          heap.AllocateArray(registry.byte_array_class(), 48 << 10)));
    }
    heap.CollectFull();  // everything old & live
  }
  // Handles are released: all those regions are now garbage.
  uint64_t copied_before = heap.stats().bytes_copied;
  heap.CollectFull();
  uint64_t copied = heap.stats().bytes_copied - copied_before;
  // Dead regions are freed in place: almost nothing is copied.
  EXPECT_LT(copied, 64u << 10);
  EXPECT_GT(g1->free_region_count(), g1->num_regions() / 2);
}

TEST(PsSpecificTest, FullGcCompactsOldGen) {
  ClassRegistry registry;
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kParallelScavenge;
  Heap heap(cfg, &registry);
  HandleScope scope(&heap);
  std::vector<Handle> pins;
  for (int i = 0; i < 40; ++i) {
    ObjRef a = heap.AllocateArray(registry.byte_array_class(), 64 << 10);
    heap.ArrayData(a)[7] = static_cast<uint8_t>(i);
    if (i % 2 == 0) pins.push_back(scope.Make(a));
  }
  size_t old_before = heap.old_used_bytes();
  heap.CollectFull();
  EXPECT_LT(heap.old_used_bytes(), old_before);
  for (size_t k = 0; k < pins.size(); ++k) {
    EXPECT_EQ(heap.ArrayData(pins[k].get())[7], static_cast<uint8_t>(2 * k));
  }
}


// -- compaction layout oracle -------------------------------------------------

/// Words 0/1 are reserved (null); the old generation starts at word 2.
constexpr ObjRef kOldBegin = 2;

/// One object as it was before a compaction.
struct ObjSnap {
  ObjRef ref;
  uint32_t meta;
  uint32_t length;
  uint32_t bytes;
  std::vector<uint8_t> payload;            // ref slots included
  std::vector<uint32_t> ref_offsets;       // payload offsets of ref slots
  std::vector<ObjRef> ref_targets;         // their values
};

/// The heap before a compaction, plus the classic sliding layout computed
/// from it: live objects (the test's own reachability pass) in address
/// order, packed from the start of the old generation.
struct LayoutOracle {
  explicit LayoutOracle(Heap* heap) : heap_(heap) {
    heap->ForEachObject([&](ObjRef r) {
      ObjSnap o;
      o.ref = r;
      o.meta = heap->MetaOf(r);
      o.length = heap->LengthOf(r);
      o.bytes = heap->ObjectBytes(r);
      const uint8_t* payload = heap->Addr(r) + kHeaderBytes;
      o.payload.assign(payload, payload + (o.bytes - kHeaderBytes));
      heap->VisitRefSlots(r, [&](ObjRef* s) {
        o.ref_offsets.push_back(static_cast<uint32_t>(
            reinterpret_cast<const uint8_t*>(s) - payload));
        o.ref_targets.push_back(*s);
      });
      index_[r] = objs_.size();
      objs_.push_back(std::move(o));
    });
    heap->VisitRoots([&](ObjRef* s) { roots_.push_back(*s); });

    std::vector<bool> live(objs_.size(), false);
    std::vector<size_t> stack;
    auto push = [&](ObjRef r) {
      auto it = index_.find(r);
      ASSERT_NE(it, index_.end()) << "ref " << r << " is not an object";
      if (!live[it->second]) {
        live[it->second] = true;
        stack.push_back(it->second);
      }
    };
    for (ObjRef r : roots_) push(r);
    while (!stack.empty()) {
      size_t i = stack.back();
      stack.pop_back();
      for (ObjRef t : objs_[i].ref_targets) {
        if (t != kNullRef) push(t);
      }
    }
    ObjRef cursor = kOldBegin;
    for (size_t i = 0; i < objs_.size(); ++i) {
      if (!live[i]) continue;
      live_.push_back(i);
      new_ref_[objs_[i].ref] = cursor;
      cursor += objs_[i].bytes / kWordSize;
      live_bytes_ += objs_[i].bytes;
    }
  }

  /// Asserts the heap now holds exactly the sliding layout, followed by
  /// `extra` objects allocated after the compaction.
  void ExpectMatches(size_t extra = 0) const {
    std::vector<ObjRef> now;
    heap_->ForEachObject([&](ObjRef r) { now.push_back(r); });
    ASSERT_EQ(now.size(), live_.size() + extra);
    for (size_t k = 0; k < live_.size(); ++k) {
      const ObjSnap& o = objs_[live_[k]];
      ObjRef r = now[k];
      ASSERT_EQ(r, new_ref_.at(o.ref)) << "object " << k << " misplaced";
      EXPECT_EQ(heap_->MetaOf(r), o.meta & ~(kInRemsetBit | kSlack8Bit));
      EXPECT_EQ(heap_->LengthOf(r), o.length);
      EXPECT_EQ(heap_->GcWordOf(r), 0u);
      ASSERT_EQ(heap_->ObjectBytes(r), o.bytes);
      std::vector<uint8_t> want = o.payload;
      for (size_t j = 0; j < o.ref_offsets.size(); ++j) {
        ObjRef t = o.ref_targets[j];
        ObjRef nt = t == kNullRef ? kNullRef : new_ref_.at(t);
        std::memcpy(want.data() + o.ref_offsets[j], &nt, sizeof(nt));
      }
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             heap_->Addr(r) + kHeaderBytes))
          << "object " << k << " payload differs";
    }
    size_t i = 0;
    heap_->VisitRoots([&](ObjRef* s) {
      ASSERT_LT(i, roots_.size());
      EXPECT_EQ(*s, new_ref_.at(roots_[i])) << "root " << i;
      ++i;
    });
    EXPECT_EQ(i, roots_.size());
    heap_->Verify();
  }

  size_t live_bytes() const { return live_bytes_; }
  size_t live_count() const { return live_.size(); }

 private:
  Heap* heap_;
  std::vector<ObjSnap> objs_;
  std::unordered_map<ObjRef, size_t> index_;
  std::vector<ObjRef> roots_;
  std::vector<size_t> live_;
  std::unordered_map<ObjRef, ObjRef> new_ref_;
  size_t live_bytes_ = 0;
};

/// Sliding-layout oracle over the compactions of PS (its full GC) and CMS
/// (the concurrent-mode-failure fallback).
class CompactionOracleTest : public ::testing::TestWithParam<GcAlgorithm> {
 protected:
  CompactionOracleTest() {
    node_class_ = registry_.RegisterClass(
        "Node", {{"value", FieldKind::kDouble}, {"next", FieldKind::kRef}});
    pair_class_ = registry_.RegisterClass(
        "Pair", {{"a", FieldKind::kRef}, {"b", FieldKind::kRef}});
  }

  bool cms() const { return GetParam() == GcAlgorithm::kConcurrentMarkSweep; }

  /// A heap where every minor collection promotes its survivors, so a
  /// minor GC leaves the young generation empty and the old generation
  /// in a known order under both collectors.
  void MakeHeap(double pause_budget_ms = 0.0) {
    HeapConfig cfg;
    cfg.heap_bytes = 8u << 20;
    cfg.algorithm = GetParam();
    cfg.tenure_threshold = 1;
    cfg.pause_budget_ms = pause_budget_ms;
    heap_ = std::make_unique<Heap>(cfg, &registry_);
    heap_->AddRootProvider(&roots_);
  }

  void TearDown() override {
    if (heap_ != nullptr) heap_->RemoveRootProvider(&roots_);
  }

  /// Allocates an object (rooted) and returns its root index.
  size_t New(uint32_t class_id, uint32_t length = 0) {
    ObjRef r = length == 0 && !registry_.Get(class_id).is_array()
                   ? heap_->AllocateInstance(class_id)
                   : heap_->AllocateArray(class_id, length);
    roots_.refs().push_back(r);
    return roots_.refs().size() - 1;
  }
  ObjRef At(size_t i) const { return roots_.refs()[i]; }

  /// Moves everything into the old generation, in address order.
  void Promote() {
    heap_->CollectMinor();
    ASSERT_EQ(heap_->used_bytes(), heap_->old_used_bytes());
  }

  /// Snapshots the heap, runs one compaction and checks the result
  /// against the sliding layout. PS compacts on every full GC. CMS
  /// compacts only when an allocation still fails after its mark-sweep:
  /// an array of all the old generation's post-compaction free bytes
  /// fits no swept free chunk (the heap needs a gap for that), so it
  /// forces the fallback and lands right after the live data.
  void CompactAndCheck() {
    LayoutOracle oracle(heap_.get());
    uint64_t full0 = heap_->stats().full_count;
    if (!cms()) {
      heap_->CollectFull();
      EXPECT_EQ(heap_->stats().full_count, full0 + 1);
      oracle.ExpectMatches();
      return;
    }
    ASSERT_EQ(heap_->used_bytes(), heap_->old_used_bytes());
    auto* c = static_cast<CmsCollector*>(heap_->collector());
    size_t old_capacity = c->old_used_bytes() + c->FreeListBytes();
    size_t fill = old_capacity - oracle.live_bytes();
    ASSERT_GE(fill, heap_->config().large_object_bytes);
    ObjRef a = heap_->AllocateArray(registry_.byte_array_class(),
                                    static_cast<uint32_t>(fill - kHeaderBytes));
    // The mark-sweep and the compaction each count as one full GC.
    EXPECT_EQ(heap_->stats().full_count, full0 + 2);
    oracle.ExpectMatches(/*extra=*/1);
    EXPECT_EQ(a, static_cast<ObjRef>(kOldBegin +
                                     oracle.live_bytes() / kWordSize));
    EXPECT_EQ(c->FreeListBytes(), 0u);
  }

  ClassRegistry registry_;
  uint32_t node_class_;
  uint32_t pair_class_;
  VectorRootProvider roots_;
  std::unique_ptr<Heap> heap_;
};

/// Seeded random object graph: mixed instances and arrays with refs in
/// both address directions, promoted over several minor GCs, then a
/// random third of the roots dropped.
void BuildRandomGraph(Heap* heap, VectorRootProvider* roots, uint32_t node,
                      uint32_t pair, uint64_t seed) {
  ClassRegistry* reg = heap->registry();
  Rng rng(seed);
  auto& refs = roots->refs();
  size_t base = refs.size();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1500; ++i) {
      ObjRef r = kNullRef;
      switch (rng.NextBounded(4)) {
        case 0:
          r = heap->AllocateInstance(node);
          heap->SetField<double>(r, 0, rng.NextDouble());
          break;
        case 1:
          r = heap->AllocateInstance(pair);
          break;
        case 2:
          r = heap->AllocateArray(reg->ref_array_class(),
                                  1 + static_cast<uint32_t>(rng.NextBounded(40)));
          break;
        default:
          r = heap->AllocateArray(reg->double_array_class(),
                                  static_cast<uint32_t>(rng.NextBounded(12)));
          for (uint32_t k = 0; k < heap->ArrayLength(r); ++k) {
            heap->SetElem<double>(r, k, rng.NextDouble());
          }
          break;
      }
      refs.push_back(r);
    }
    // Random edges among everything built so far (old and young alike).
    size_t n = refs.size() - base;
    for (size_t i = base; i < refs.size(); ++i) {
      ObjRef r = refs[i];
      auto pick = [&] { return refs[base + rng.NextBounded(n)]; };
      const ClassInfo& ci = heap->ClassOf(r);
      if (ci.is_array() && heap->ClassIdOf(r) == reg->ref_array_class()) {
        for (uint32_t k = 0; k < heap->ArrayLength(r); ++k) {
          if (rng.NextBounded(3) != 0) heap->SetRefElem(r, k, pick());
        }
      } else if (heap->ClassIdOf(r) == node) {
        heap->SetRefField(r, 8, pick());
      } else if (heap->ClassIdOf(r) == pair) {
        heap->SetRefField(r, 0, pick());
        heap->SetRefField(r, 4, pick());
      }
    }
    heap->CollectMinor();
  }
  for (size_t i = base; i < refs.size(); ++i) {
    if (rng.NextBounded(3) == 0) refs[i] = kNullRef;
  }
}

/// CMS compacts only when an allocation finds no free chunk, which needs a
/// gap, so the all-live case runs under PS alone.
class PsCompactionOracleTest : public CompactionOracleTest {};

TEST_P(PsCompactionOracleTest, AllLiveHeap) {
  MakeHeap();
  // A forward chain longer than the prefix run list: every node's target
  // is its neighbour, so the list keeps dropping passed runs.
  const size_t n = 3 * GenCollectorBase::kPrefixRunCapacity;
  size_t first = roots_.refs().size();
  for (size_t i = 0; i < n; ++i) {
    size_t k = New(node_class_);
    heap_->SetField<double>(At(k), 0, static_cast<double>(i));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    heap_->SetRefField(At(first + i), 8, At(first + i + 1));
  }
  BuildRandomGraph(heap_.get(), &roots_, node_class_, pair_class_, 11);
  heap_->CollectFull();  // drops the random garbage: the heap is all live
  uint64_t copied = heap_->stats().bytes_copied;
  CompactAndCheck();
  // The whole heap is its own dense prefix; it still counts as compacted.
  EXPECT_EQ(heap_->stats().bytes_copied - copied, heap_->old_used_bytes());
}

TEST_P(CompactionOracleTest, DeadFirstObjectEmptiesThePrefix) {
  MakeHeap();
  size_t dead = New(node_class_);
  for (int i = 0; i < 200; ++i) New(pair_class_);
  Promote();
  roots_.refs()[dead] = kNullRef;
  CompactAndCheck();
}

TEST_P(CompactionOracleTest, PrefixHolderPointsAtAMovingObject) {
  MakeHeap();
  size_t holder = New(pair_class_);
  size_t spacer = New(node_class_);
  size_t target = New(node_class_);
  heap_->SetField<double>(At(target), 0, 42.0);
  heap_->SetRefField(At(holder), 4, At(target));
  Promote();
  roots_.refs()[spacer] = kNullRef;
  roots_.refs()[target] = kNullRef;  // reachable only through the holder
  CompactAndCheck();
  ObjRef t = heap_->GetRefField(At(holder), 4);
  EXPECT_EQ(heap_->GetField<double>(t, 0), 42.0);
}

TEST_P(CompactionOracleTest, RunListOverflowMergesRuns) {
  MakeHeap();
  // Three times more far-forward holders than the list holds, none of
  // whose targets the prefix sweep reaches before the list fills: the
  // list merges neighbouring runs again and again, and pass 2 must walk
  // every merged run whole. Holders alternate between a target at the
  // end of the prefix and one past it, so a merged run is only as far as
  // its farthest member.
  const size_t n = 3 * GenCollectorBase::kPrefixRunCapacity;
  size_t first = roots_.refs().size();
  for (size_t i = 0; i < n; ++i) New(pair_class_);
  size_t last_in_prefix = New(node_class_);
  size_t spacer = New(node_class_);
  size_t target = New(node_class_);
  for (size_t i = 0; i < n; ++i) {
    heap_->SetRefField(At(first + i), 0,
                       At(i % 2 == 0 ? last_in_prefix : target));
  }
  Promote();
  roots_.refs()[spacer] = kNullRef;
  CompactAndCheck();
}

TEST_P(CompactionOracleTest, RunListDropKeepsPendingRuns) {
  MakeHeap();
  // One far holder ahead of a forward chain that fills the list several
  // times over: each time the list is full the chain's passed runs drop,
  // and the far holder's run must survive every drop.
  size_t far = New(pair_class_);
  const size_t n = 2 * GenCollectorBase::kPrefixRunCapacity;
  size_t first = roots_.refs().size();
  for (size_t i = 0; i < n; ++i) New(node_class_);
  for (size_t i = 0; i + 1 < n; ++i) {
    heap_->SetRefField(At(first + i), 8, At(first + i + 1));
  }
  size_t spacer = New(node_class_);
  size_t target = New(node_class_);
  heap_->SetRefField(At(far), 4, At(target));
  Promote();
  roots_.refs()[spacer] = kNullRef;
  CompactAndCheck();
}

TEST_P(CompactionOracleTest, RandomGraph) {
  MakeHeap();
  BuildRandomGraph(heap_.get(), &roots_, node_class_, pair_class_, 2026);
  CompactAndCheck();
}

TEST_P(CompactionOracleTest, RandomGraphWithPauseBudget) {
  MakeHeap(/*pause_budget_ms=*/1.0);
  BuildRandomGraph(heap_.get(), &roots_, node_class_, pair_class_, 77);
  CompactAndCheck();
}

INSTANTIATE_TEST_SUITE_P(
    PsAndCms, CompactionOracleTest,
    ::testing::Values(GcAlgorithm::kParallelScavenge,
                      GcAlgorithm::kConcurrentMarkSweep),
    [](const ::testing::TestParamInfo<GcAlgorithm>& info) {
      return std::string(GcAlgorithmName(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Ps, PsCompactionOracleTest,
    ::testing::Values(GcAlgorithm::kParallelScavenge),
    [](const ::testing::TestParamInfo<GcAlgorithm>& info) {
      return std::string(GcAlgorithmName(info.param));
    });

TEST(CmsSpecificTest, FreeChunkEndsTheDensePrefix) {
  ClassRegistry registry;
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kConcurrentMarkSweep;
  Heap heap(cfg, &registry);
  auto* cms = static_cast<CmsCollector*>(heap.collector());
  VectorRootProvider roots;
  heap.AddRootProvider(&roots);
  auto& refs = roots.refs();
  // Large arrays are allocated in the old generation in address order.
  for (int i = 0; i < 30; ++i) {
    ObjRef a = heap.AllocateArray(registry.ref_array_class(), 32u << 10);
    refs.push_back(a);
  }
  // Forward refs across the whole run, so prefix holders point both
  // inside and past the prefix.
  for (size_t i = 0; i + 1 < refs.size(); ++i) {
    heap.SetRefElem(refs[i], 0, refs[i + 1]);
    heap.SetRefElem(refs[i], 1, refs.back());
  }
  refs[3] = kNullRef;
  refs[4] = kNullRef;
  heap.SetRefElem(refs[2], 0, kNullRef);
  heap.CollectFull();  // mark-sweep: a free chunk where 3 and 4 lived
  ASSERT_GE(cms->FreeListChunks(), 2u);
  LayoutOracle oracle(&heap);
  size_t fill = cms->old_used_bytes() + cms->FreeListBytes() -
                oracle.live_bytes();
  heap.AllocateArray(registry.byte_array_class(),
                     static_cast<uint32_t>(fill - kHeaderBytes));
  oracle.ExpectMatches(/*extra=*/1);
  heap.RemoveRootProvider(&roots);
}

TEST(CmsSpecificTest, SlackObjectEndsTheDensePrefix) {
  ClassRegistry registry;
  HeapConfig cfg;
  cfg.heap_bytes = 8u << 20;
  cfg.algorithm = GcAlgorithm::kConcurrentMarkSweep;
  Heap heap(cfg, &registry);
  auto* cms = static_cast<CmsCollector*>(heap.collector());
  VectorRootProvider roots;
  heap.AddRootProvider(&roots);
  auto& refs = roots.refs();
  const uint32_t bytes = registry.byte_array_class();
  // Large arrays are allocated in the old generation in address order.
  refs.push_back(heap.AllocateArray(bytes, 64u << 10));
  refs.push_back(heap.AllocateArray(bytes, 64u << 10));  // freed below
  refs.push_back(heap.AllocateArray(bytes, 64u << 10));
  for (size_t i = 0; i < refs.size(); ++i) {
    heap.ArrayData(refs[i])[9] = static_cast<uint8_t>(i + 1);
  }
  refs[1] = kNullRef;
  heap.CollectFull();  // mark-sweep: a free chunk where array 1 lived
  // 8 bytes smaller than the chunk: the split grants the 8-byte remainder
  // to the object as slack.
  refs[1] = heap.AllocateArray(bytes, (64u << 10) - kWordSize);
  ASSERT_NE(heap.MetaOf(refs[1]) & kSlack8Bit, 0u);
  heap.ArrayData(refs[1])[9] = 0xEE;
  LayoutOracle oracle(&heap);
  size_t fill = cms->old_used_bytes() + cms->FreeListBytes() -
                oracle.live_bytes();
  heap.AllocateArray(bytes, static_cast<uint32_t>(fill - kHeaderBytes));
  // The slack object keeps its address but loses its slack; the object
  // behind it slides down by those 8 bytes.
  oracle.ExpectMatches(/*extra=*/1);
  heap.RemoveRootProvider(&roots);
}

}  // namespace
}  // namespace deca::jvm
