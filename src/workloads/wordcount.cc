#include "workloads/wordcount.h"

#include <cstring>

#include "analysis/global_classifier.h"
#include "cluster/scoped_job.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "jvm/heap_profiler.h"
#include "memory/memory_manager.h"
#include "spark/shuffle.h"
#include "workloads/dist_entry.h"

namespace deca::workloads {

using analysis::SizeType;
using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

/// Managed Tuple2 plus the (word, count) shuffle operations.
struct WcTypes {
  explicit WcTypes(jvm::ClassRegistry* registry) {
    tuple2_cls = registry->RegisterClass(
        "scala.Tuple2", {{"_1", FieldKind::kRef}, {"_2", FieldKind::kRef}});
    ops.key_hash = [](jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    ops.combine = [](jvm::Heap* h, ObjRef agg, ObjRef v) -> ObjRef {
      int64_t sum =
          h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
      ObjRef fresh =
          h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(fresh, 0, sum);
      return fresh;
    };
    ops.entry_bytes = [](jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      // Tuple2 + two boxed longs + table slot.
      return 3 * (jvm::kHeaderBytes + 8) + 8;
    };
    ops.serialize_key = [](jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = ops.serialize_key;
    ops.deserialize_key = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef k = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(k, 0, r->ReadVarI64());
      return k;
    };
    ops.deserialize_value = ops.deserialize_key;
    ops.deca_key_bytes = 8;
    ops.deca_value_bytes = 8;
    ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
      StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
    };
  }

  uint32_t tuple2_cls;
  spark::ShuffleOps ops;
};

// GCC at -O3 flags the aggregate Statement initializers below as
// maybe-uninitialized through the inlined std::string members of FieldRef
// — a known reachability false positive (every string is constructed
// before use).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
/// Static size-type of the map UDF's (word, 1) record: Tuple2's `_1`/`_2`
/// are Scala vals (final) referencing boxed longs whose payload is one
/// final primitive, so the classification proves SFST; the call graph
/// records the UDF's allocation sites for the points-to inference.
SizeType StaticTupleSizeType() {
  analysis::TypeUniverse u;
  auto* lng = u.DefineClass("java.lang.Long");
  u.AddField(lng, "value", /*is_final=*/true,
             {u.Primitive(FieldKind::kLong)});
  auto* t2 = u.DefineClass("scala.Tuple2");
  u.AddField(t2, "_1", /*is_final=*/true, {lng});
  u.AddField(t2, "_2", /*is_final=*/true, {lng});
  analysis::MethodInfo map_udf;
  map_udf.name = "WC.map";
  map_udf.statements.push_back({analysis::Statement::Kind::kNewObjectAssign,
                                {t2, "_1"},
                                lng,
                                {},
                                ""});
  map_udf.statements.push_back({analysis::Statement::Kind::kNewObjectAssign,
                                {t2, "_2"},
                                lng,
                                {},
                                ""});
  analysis::CallGraph cg;
  cg.AddMethod(map_udf);
  cg.SetEntry("WC.map");
  return analysis::GlobalClassifier(&cg).Classify(t2);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

WordCountResult RunWordCount(const WordCountParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  // SPMD seam: a no-op in-process; spawns/joins the executor daemons in
  // process mode. Must outlive the context.
  cluster::ScopedJob job(&cfg, "wordcount", EncodeWordCountParams(params));
  spark::SparkContext ctx(cfg);
  WcTypes types(ctx.registry());

  bool deca = params.mode == Mode::kDeca;
  if (deca) {
    // The optimizer's static verdict gates the decomposed path.
    DECA_CHECK(StaticTupleSizeType() == SizeType::kStaticFixed)
        << "WordCount Tuple2 must classify as SFST";
  }
  // Heap profiling needs the mutating heap in this process; in process
  // mode executor 0's mutator lives in a daemon, so the profile is off.
  bool profile = params.profile && ctx.role() == spark::DistRole::kLocal;
  WordCountResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();
  uint64_t per_part = params.total_words / static_cast<uint64_t>(parts);
  int shuffle_id = ctx.shuffle()->RegisterShuffle(parts);
  size_t shuffle_budget = memory::ExecutorMemoryManager::ExecutionRegionBytes(
      cfg.executor_memory(), cfg.storage_fraction);

  std::unique_ptr<jvm::HeapProfiler> profiler;
  if (profile) {
    profiler = std::make_unique<jvm::HeapProfiler>(
        ctx.executor(0)->heap(), types.tuple2_cls);
  }
  Stopwatch run_sw;

  // -- map stage: count words with eager combining, spill-flushing when
  // the buffer exceeds the shuffle memory budget. A map stage: if an
  // executor crash-wipes later, its deposited chunks are dropped and the
  // lost partitions deterministically re-executed.
  ctx.RunMapStage("map", shuffle_id, [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    bool profiled = profile && tc.executor()->id() == 0;
    std::unique_ptr<Rng> word_rng;
    std::unique_ptr<ZipfSampler> zipf;
    uint64_t task_seed = params.seed + static_cast<uint64_t>(tc.partition());
    if (params.zipf_s > 0) {
      zipf = std::make_unique<ZipfSampler>(params.distinct_keys,
                                           params.zipf_s, task_seed);
    } else {
      word_rng = std::make_unique<Rng>(task_seed);
    }
    auto next_word = [&]() -> int64_t {
      return static_cast<int64_t>(
          zipf ? zipf->Next() : word_rng->NextBounded(params.distinct_keys));
    };
    std::vector<ByteWriter> outs(static_cast<size_t>(parts));
    // Record boundaries for the network shuffle's record-serialized wire
    // codec: Deca chunks are a uniform 16-byte stride, object chunks log
    // each serialized pair's length. Unused under the local shuffle.
    std::vector<net::ChunkMeta> metas(static_cast<size_t>(parts));
    if (deca) {
      for (auto& meta : metas) meta.fixed_record_bytes = 16;
    }
    auto flush_deca = [&](spark::DecaHashShuffleBuffer& buf) {
      buf.ForEach([&](const uint8_t* entry) {
        uint64_t hash = types.ops.deca_key_hash(entry);
        outs[hash % static_cast<uint64_t>(parts)].WriteBytes(entry, 16);
      });
      buf.Clear();
    };
    auto flush_object = [&](spark::ObjectHashShuffleBuffer& buf) {
      buf.ForEach([&](ObjRef k, ObjRef v) {
        uint64_t hash = types.ops.key_hash(h, k);
        size_t r = hash % static_cast<uint64_t>(parts);
        ByteWriter& w = outs[r];
        size_t before = w.size();
        {
          ScopedTimerMs t(&tc.metrics().ser_ms);
          types.ops.serialize_key(h, k, &w);
          types.ops.serialize_value(h, v, &w);
        }
        metas[r].record_lens.push_back(
            static_cast<uint32_t>(w.size() - before));
      });
      buf.Clear();
    };
    if (deca) {
      spark::DecaHashShuffleBuffer buf(h, &types.ops, cfg.deca_page_bytes);
      for (uint64_t i = 0; i < per_part; ++i) {
        int64_t word = next_word();
        int64_t one = 1;
        buf.Insert(reinterpret_cast<const uint8_t*>(&word),
                   reinterpret_cast<const uint8_t*>(&one));
        if (buf.estimated_bytes() > shuffle_budget) flush_deca(buf);
        if (profiled && (i + 1) % params.profile_every == 0) {
          profiler->Sample(run_sw.ElapsedMillis());
        }
      }
      flush_deca(buf);
    } else {
      spark::ObjectHashShuffleBuffer buf(h, &types.ops);
      for (uint64_t i = 0; i < per_part; ++i) {
        int64_t word = next_word();
        HandleScope scope(h);
        // The map UDF emits a Tuple2 per word (paper Figure 8a tracks
        // these); the buffer then keeps only key/value.
        jvm::Handle key = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(key.get(), 0, word);
        jvm::Handle one = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(one.get(), 0, 1);
        jvm::Handle tuple = scope.Make(h->AllocateInstance(types.tuple2_cls));
        h->SetRefField(tuple.get(), 0, key.get());
        h->SetRefField(tuple.get(), 4, one.get());
        buf.Insert(h->GetRefField(tuple.get(), 0),
                   h->GetRefField(tuple.get(), 4));
        if (buf.estimated_bytes() > shuffle_budget) flush_object(buf);
        if (profiled && (i + 1) % params.profile_every == 0) {
          profiler->Sample(run_sw.ElapsedMillis());
        }
      }
      flush_object(buf);
    }
    ScopedTimerMs t(&tc.metrics().shuffle_write_ms);
    for (int r = 0; r < parts; ++r) {
      ctx.shuffle()->PutChunk(shuffle_id, r, tc.partition(),
                              outs[static_cast<size_t>(r)].TakeBuffer(),
                              metas[static_cast<size_t>(r)]);
    }
  });

  result.shuffle_bytes = ctx.ShuffleTotalBytes(shuffle_id);

  // -- reduce stage: merge per-reducer chunks. A collect stage: each
  // task's (total, distinct) blob is gathered in partition order (and
  // broadcast to every process in distributed mode), then folded below.
  auto blobs = ctx.RunCollectStage("reduce", [&](spark::TaskContext& tc)
                                                 -> std::vector<uint8_t> {
    // Accumulate locally and emit at task end, so a retried attempt
    // that failed mid-merge cannot double-count.
    uint64_t total = 0;
    uint64_t distinct = 0;
    jvm::Heap* h = tc.heap();
    const auto& chunks = ctx.shuffle()->GetChunks(shuffle_id, tc.partition());
    if (deca) {
      spark::DecaHashShuffleBuffer buf(h, &types.ops, cfg.deca_page_bytes);
      for (const auto& chunk : chunks) {
        ScopedTimerMs t(&tc.metrics().shuffle_read_ms);
        for (size_t off = 0; off < chunk.size(); off += 16) {
          buf.Insert(chunk.data() + off, chunk.data() + off + 8);
        }
      }
      buf.ForEach([&](const uint8_t* entry) {
        total += static_cast<uint64_t>(LoadRaw<int64_t>(entry + 8));
        ++distinct;
      });
    } else {
      spark::ObjectHashShuffleBuffer buf(h, &types.ops);
      for (const auto& chunk : chunks) {
        ByteReader r(chunk.data(), chunk.size());
        while (!r.AtEnd()) {
          HandleScope scope(h);
          jvm::Handle k, v;
          {
            ScopedTimerMs t(&tc.metrics().deser_ms);
            k = scope.Make(types.ops.deserialize_key(h, &r));
            v = scope.Make(types.ops.deserialize_value(h, &r));
          }
          buf.Insert(k.get(), v.get());
        }
      }
      buf.ForEach([&](ObjRef, ObjRef v) {
        total += static_cast<uint64_t>(h->GetField<int64_t>(v, 0));
        ++distinct;
      });
    }
    ByteWriter w;
    w.WriteVarU64(total);
    w.WriteVarU64(distinct);
    return w.TakeBuffer();
  });
  ctx.shuffle()->Release(shuffle_id);

  uint64_t total = 0;
  uint64_t distinct = 0;
  for (const auto& blob : blobs) {
    ByteReader r(blob.data(), blob.size());
    total += r.ReadVarU64();
    distinct += r.ReadVarU64();
  }

  result.run.exec_ms = run_sw.ElapsedMillis();
  result.total_count = total;
  result.distinct_found = distinct;
  FinalizeResult(&ctx, &result.run);
  if (profiler != nullptr) {
    result.run.object_counts = profiler->object_counts();
    result.run.gc_series = profiler->gc_time_ms();
  }
  return result;
}

}  // namespace deca::workloads
