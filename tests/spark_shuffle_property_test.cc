#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "spark/context.h"

namespace deca::spark {
namespace {

/// Shuffle ops over (i64 key, i64 value) with sum combining, usable in
/// both object and decomposed modes.
ShuffleOps SumOps() {
  ShuffleOps ops;
  ops.key_hash = [](jvm::Heap* h, jvm::ObjRef k) -> uint64_t {
    return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
           0x9e3779b97f4a7c15ULL;
  };
  ops.key_equals = [](jvm::Heap* h, jvm::ObjRef a, jvm::ObjRef b) {
    return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
  };
  ops.combine = [](jvm::Heap* h, jvm::ObjRef agg, jvm::ObjRef v) {
    int64_t sum = h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
    jvm::ObjRef fresh =
        h->AllocateInstance(h->registry()->boxed_long_class());
    h->SetField<int64_t>(fresh, 0, sum);
    return fresh;
  };
  ops.entry_bytes = [](jvm::Heap*, jvm::ObjRef, jvm::ObjRef) -> uint64_t {
    return 56;
  };
  ops.deca_key_bytes = 8;
  ops.deca_value_bytes = 8;
  ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
    return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
  };
  ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
    StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
  };
  return ops;
}

using Entries = std::vector<std::pair<int64_t, int64_t>>;

void InsertBoxed(jvm::Heap* h, ObjectHashShuffleBuffer* buf, int64_t key,
                 int64_t value) {
  jvm::HandleScope scope(h);
  jvm::Handle k =
      scope.Make(h->AllocateInstance(h->registry()->boxed_long_class()));
  h->SetField<int64_t>(k.get(), 0, key);
  jvm::Handle v =
      scope.Make(h->AllocateInstance(h->registry()->boxed_long_class()));
  h->SetField<int64_t>(v.get(), 0, value);
  buf->Insert(k.get(), v.get());
}

void InsertRaw(DecaHashShuffleBuffer* buf, int64_t key, int64_t value) {
  buf->Insert(reinterpret_cast<const uint8_t*>(&key),
              reinterpret_cast<const uint8_t*>(&value));
}

/// (key, aggregate) pairs in ForEach order.
Entries EntriesOf(jvm::Heap* h, const ObjectHashShuffleBuffer& buf) {
  Entries out;
  buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef v) {
    out.emplace_back(h->GetField<int64_t>(k, 0), h->GetField<int64_t>(v, 0));
  });
  return out;
}

Entries EntriesOf(const DecaHashShuffleBuffer& buf) {
  Entries out;
  buf.ForEach([&](const uint8_t* e) {
    out.emplace_back(LoadRaw<int64_t>(e), LoadRaw<int64_t>(e + 8));
  });
  return out;
}

std::map<int64_t, int64_t> AsMap(const Entries& entries) {
  return {entries.begin(), entries.end()};
}

/// Property: for any random insert sequence, the object-mode buffer, the
/// Deca buffer, and a reference std::map agree exactly — and the two
/// buffers iterate their entries in the same order, element by element
/// (cross-mode results are bit-identical only because of this).
class BufferEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferEquivalenceTest, ObjectAndDecaBuffersMatchReference) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 24u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();

  Rng rng(GetParam());
  uint64_t key_space = 1 + rng.NextBounded(3000);
  int inserts = 1000 + static_cast<int>(rng.NextBounded(9000));

  std::map<int64_t, int64_t> reference;
  ObjectHashShuffleBuffer obj_buf(h, &ops);
  DecaHashShuffleBuffer deca_buf(h, &ops, 16 << 10);

  Rng data_rng(GetParam() * 97 + 1);
  for (int i = 0; i < inserts; ++i) {
    int64_t key = static_cast<int64_t>(data_rng.NextBounded(key_space));
    int64_t value = static_cast<int64_t>(data_rng.NextBounded(100)) - 50;
    reference[key] += value;
    InsertBoxed(h, &obj_buf, key, value);
    InsertRaw(&deca_buf, key, value);
  }

  Entries from_obj = EntriesOf(h, obj_buf);
  Entries from_deca = EntriesOf(deca_buf);
  EXPECT_EQ(AsMap(from_obj), reference);
  EXPECT_EQ(AsMap(from_deca), reference);
  EXPECT_EQ(from_deca, from_obj);  // same order, not just the same set
  EXPECT_EQ(obj_buf.size(), reference.size());
  EXPECT_EQ(deca_buf.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(GroupByBufferStressTest, ManyGroupsManyValues) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 32u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();
  ObjectGroupByBuffer buf(h, &ops);
  Rng rng(42);
  std::map<int64_t, std::multiset<int64_t>> reference;
  for (int i = 0; i < 20000; ++i) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(700));
    int64_t value = static_cast<int64_t>(rng.NextBounded(1'000'000));
    reference[key].insert(value);
    jvm::HandleScope scope(h);
    jvm::Handle k = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(k.get(), 0, key);
    jvm::Handle v = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(v.get(), 0, value);
    buf.Insert(k.get(), v.get());
  }
  ASSERT_EQ(buf.size(), reference.size());
  buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef values, uint32_t count) {
    std::multiset<int64_t> got;
    for (uint32_t j = 0; j < count; ++j) {
      got.insert(h->GetField<int64_t>(h->GetRefElem(values, j), 0));
    }
    EXPECT_EQ(got, reference[h->GetField<int64_t>(k, 0)]);
  });
}

TEST(ShuffleBufferClearTest, ClearedBufferReusable) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 16u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();
  DecaHashShuffleBuffer buf(h, &ops, 8 << 10);
  ObjectHashShuffleBuffer obj_buf(h, &ops);
  for (int round = 0; round < 5; ++round) {
    // 500 keys take the table from 64 to 1024 slots (four Grows); each
    // round uses a different key range, so the reused table sees fresh
    // placements after Clear().
    for (int64_t k = 0; k < 500; ++k) {
      int64_t key = k * (round + 1) + round;
      InsertRaw(&buf, key, 1);
      InsertBoxed(h, &obj_buf, key, 1);
    }
    EXPECT_EQ(buf.size(), 500u);
    Entries deca = EntriesOf(buf);
    ASSERT_EQ(deca.size(), 500u);
    EXPECT_EQ(deca, EntriesOf(h, obj_buf)) << "round " << round;
    buf.Clear();
    obj_buf.Clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_TRUE(EntriesOf(buf).empty());
  }
}

/// Masked probing is only equivalent to `hash % capacity` for power-of-two
/// capacities, so every hash buffer refuses any other initial capacity.
TEST(HashBufferCapacityDeathTest, NonPowerOfTwoCapacityIsFatal) {
  jvm::ClassRegistry registry;
  jvm::HeapConfig hc;
  hc.heap_bytes = 8u << 20;
  jvm::Heap heap(hc, &registry);
  ShuffleOps ops = SumOps();
  auto deca = [&] { DecaHashShuffleBuffer b(&heap, &ops, 8 << 10, 48); };
  auto object = [&] { ObjectHashShuffleBuffer b(&heap, &ops, 0); };
  auto group_by = [&] { ObjectGroupByBuffer b(&heap, &ops, 96); };
  EXPECT_DEATH(deca(), "power of two");
  EXPECT_DEATH(object(), "power of two");
  EXPECT_DEATH(group_by(), "power of two");
}

/// Tag collisions: every group of eight consecutive keys shares one
/// 64-bit hash, so the Deca buffer's stored hash matches for keys whose
/// bytes differ (the probe must compare the key and move on), and probes
/// also run through slots of other groups (hash mismatch, no key compare).
/// Results and iteration order must still match a std::map reference and
/// the object buffer built with the same hash.
class TagCollisionTest : public ::testing::TestWithParam<uint64_t> {};

uint64_t GroupHash(int64_t key) {
  return static_cast<uint64_t>(key / 8) * 0x9e3779b97f4a7c15ULL;
}

TEST_P(TagCollisionTest, SharedHashesMatchReferenceAndObjectOrder) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 24u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();
  ops.key_hash = [](jvm::Heap* heap, jvm::ObjRef k) {
    return GroupHash(heap->GetField<int64_t>(k, 0));
  };
  ops.deca_key_hash = [](const uint8_t* k) {
    return GroupHash(LoadRaw<int64_t>(k));
  };

  std::map<int64_t, int64_t> reference;
  ObjectHashShuffleBuffer obj_buf(h, &ops);
  DecaHashShuffleBuffer deca_buf(h, &ops, 16 << 10);

  // A model of the slot table (home slot hash & (capacity - 1), linear
  // probing, the buffers' growth rule and rehash order) counts which probe
  // outcomes the insert sequence reaches, so the test shows it exercised
  // both collision paths.
  std::vector<int64_t> model(64, -1);
  uint64_t tag_hit_other_key = 0;
  uint64_t tag_miss = 0;
  auto place = [](std::vector<int64_t>* table, int64_t key) {
    size_t mask = table->size() - 1;
    size_t i = GroupHash(key) & mask;
    while ((*table)[i] != -1) i = (i + 1) & mask;
    (*table)[i] = key;
  };

  Rng rng(GetParam() * 31 + 7);
  uint64_t key_space = 200 + rng.NextBounded(3000);
  for (int n = 0; n < 12000; ++n) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(key_space));
    int64_t value = static_cast<int64_t>(rng.NextBounded(100)) - 50;
    bool fresh = reference.find(key) == reference.end();
    reference[key] += value;
    InsertBoxed(h, &obj_buf, key, value);
    InsertRaw(&deca_buf, key, value);

    if (fresh && (reference.size() * 10 > model.size() * 7)) {
      std::vector<int64_t> bigger(model.size() * 2, -1);
      for (int64_t k : model) {
        if (k != -1) place(&bigger, k);
      }
      model.swap(bigger);
    }
    size_t mask = model.size() - 1;
    for (size_t i = GroupHash(key) & mask;; i = (i + 1) & mask) {
      if (model[i] == key) break;
      if (model[i] == -1) {
        model[i] = key;
        break;
      }
      if (GroupHash(model[i]) == GroupHash(key)) {
        ++tag_hit_other_key;
      } else {
        ++tag_miss;
      }
    }
  }
  EXPECT_GT(tag_hit_other_key, 0u);
  EXPECT_GT(tag_miss, 0u);

  Entries from_obj = EntriesOf(h, obj_buf);
  Entries from_deca = EntriesOf(deca_buf);
  EXPECT_EQ(AsMap(from_deca), reference);
  EXPECT_EQ(from_deca, from_obj);
  std::vector<int64_t> model_order;
  for (int64_t k : model) {
    if (k != -1) model_order.push_back(k);
  }
  ASSERT_EQ(model_order.size(), from_deca.size());
  for (size_t i = 0; i < model_order.size(); ++i) {
    EXPECT_EQ(from_deca[i].first, model_order[i]) << "slot order at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TagCollisionTest,
                         ::testing::Range<uint64_t>(1, 6));

/// Cache eviction property: with a random mixture of block sizes and a
/// tight budget, every block remains readable and byte-identical.
class CacheEvictionPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CacheEvictionPropertyTest, AllBlocksSurviveEvictionChurn) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  cfg.heap.heap_bytes = 24u << 20;
  cfg.memory_fraction = 0.1;  // tiny budget: most blocks must swap
  cfg.cache_level = StorageLevel::kDecaPages;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  Rng rng(GetParam() * 3 + 1);
  const int blocks = 12;
  std::vector<uint32_t> counts(blocks);
  ctx.RunStage("build", [&](TaskContext& tc) {
    for (int b = 0; b < blocks; ++b) {
      uint32_t n = 100 + static_cast<uint32_t>(rng.NextBounded(3000));
      counts[static_cast<size_t>(b)] = n;
      auto pages = std::make_shared<core::PageGroup>(tc.heap(), 16 << 10);
      for (uint32_t i = 0; i < n; ++i) {
        core::SegPtr s = pages->Append(16);
        uint8_t* p = pages->Resolve(s);
        StoreRaw<uint64_t>(p, static_cast<uint64_t>(b) << 32 | i);
        StoreRaw<uint64_t>(p + 8, i * 3);
      }
      tc.cache()->PutPages({50, b}, pages, n, &tc.metrics());
    }
  });
  // Read back in random order multiple times.
  ctx.RunStage("read", [&](TaskContext& tc) {
    for (int round = 0; round < 3; ++round) {
      for (int b = 0; b < blocks; ++b) {
        int pick = static_cast<int>(rng.NextBounded(blocks));
        LoadedBlock block = tc.cache()->Get({50, pick}, &tc.metrics());
        ASSERT_TRUE(block.valid());
        ASSERT_EQ(block.count, counts[static_cast<size_t>(pick)]);
        core::PageScanner scan(block.pages.get());
        uint32_t i = 0;
        while (!scan.AtEnd()) {
          uint8_t* p = scan.Cur();
          ASSERT_EQ(LoadRaw<uint64_t>(p),
                    static_cast<uint64_t>(pick) << 32 | i);
          ASSERT_EQ(LoadRaw<uint64_t>(p + 8), i * 3);
          scan.Advance(16);
          ++i;
        }
        ASSERT_EQ(i, counts[static_cast<size_t>(pick)]);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEvictionPropertyTest,
                         ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace deca::spark
