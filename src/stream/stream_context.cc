#include "stream/stream_context.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace deca::stream {

StreamContext::StreamContext(spark::SparkContext* ctx,
                             const StreamOptions& opts)
    : ctx_(ctx), opts_(opts) {
  DECA_CHECK_GT(opts_.epochs, 0);
  DECA_CHECK_GT(opts_.window, 0);
  DECA_CHECK_GE(opts_.slide, 0);
  DECA_CHECK_LE(opts_.effective_slide(), opts_.window)
      << "slide > window would leave epochs no window ever reads";
  ctx_->AddWipeListener(this);
}

StreamContext::~StreamContext() {
  // An aborted run (exception mid-stream) may leave live regions; their
  // page groups must release before the executors go away.
  for (auto& [epoch, region] : regions_) {
    reclaimed_bytes_ += region->Reclaim(ctx_);
  }
  regions_.clear();
  ctx_->RemoveWipeListener(this);
}

EpochRegion* StreamContext::region(int epoch) const {
  auto it = regions_.find(epoch);
  return it == regions_.end() ? nullptr : it->second.get();
}

void StreamContext::OnExecutorWipe(int executor_id) {
  // Stale-reference drop: every live epoch loses the dying heap's page
  // groups and block keys now; lineage replay re-adopts what it rebuilds.
  for (auto& [epoch, region] : regions_) {
    region->DropExecutorState(executor_id);
  }
}

obs::TraceRecorder* StreamContext::EpochTraceWindow(int e, int phase) {
  obs::TraceRecorder* d = ctx_->tracer()->driver();
  if (d != nullptr) {
    d->BeginWindow(/*stage=*/-2, /*partition=*/-1, /*attempt=*/e * 2 + phase);
  }
  return d;
}

uint64_t StreamContext::SampleFootprint() const {
  uint64_t total = 0;
  for (int i = 0; i < ctx_->num_executors(); ++i) {
    spark::Executor* e = ctx_->executor(i);
    total += e->memory()->page_bytes();
    total += e->cache()->memory_bytes() + e->cache()->disk_bytes();
  }
  return total;
}

void StreamContext::OpenEpoch(int e) {
  auto region = std::make_unique<EpochRegion>(e, ctx_->num_executors());
  // One pin per window that overlaps this epoch and completes within the
  // stream; epochs only incomplete windows would cover start unpinned and
  // reclaim at their own close.
  const int s = opts_.effective_slide();
  int pins = 0;
  for (int k = 0; k * s <= e; ++k) {
    if (e < k * s + opts_.window && k * s + opts_.window <= opts_.epochs) {
      ++pins;
    }
  }
  for (int i = 0; i < pins; ++i) region->Pin();
  obs::TraceRecorder* d = EpochTraceWindow(e, /*phase=*/0);
  obs::ScopedRecorder scope(d);
  obs::Instant(obs::Cat::kEpoch, "epoch_open", e, pins);
  regions_.emplace(e, std::move(region));
}

double StreamContext::ReclaimRegion(int epoch) {
  auto it = regions_.find(epoch);
  if (it == regions_.end()) return 0;
  Stopwatch sw;
  uint64_t freed = it->second->Reclaim(ctx_);
  reclaimed_bytes_ += freed;
  regions_.erase(it);
  double ms = sw.ElapsedMillis();
  if (obs::TraceRecorder* r = obs::Current()) {
    r->CompleteSpanMs(obs::Cat::kEpoch, "epoch_reclaim", ms, epoch,
                      static_cast<double>(freed));
  }
  return ms;
}

void StreamContext::CloseEpoch(int e, const WindowFn& on_window,
                               double* reclaim_ms_out) {
  const int s = opts_.effective_slide();
  const int rel = e + 1 - opts_.window;
  const bool fires = rel >= 0 && rel % s == 0;
  StreamWindow w;
  if (fires) {
    w.index = rel / s;
    w.start = rel;
    w.end = e + 1;
    on_window(w);
    ++windows_emitted_;
  }
  // Window stages rebound the driver lane; reclaim events need the epoch
  // close window back.
  obs::TraceRecorder* d = EpochTraceWindow(e, /*phase=*/1);
  obs::ScopedRecorder scope(d);
  double reclaim_total = 0;
  if (fires) {
    for (int ep = w.start; ep < w.end; ++ep) {
      EpochRegion* r = region(ep);
      if (r != nullptr && r->Unpin() == 0) reclaim_total += ReclaimRegion(ep);
    }
  }
  // A tail epoch no complete window covers retires at its own boundary.
  if (EpochRegion* own = region(e); own != nullptr && own->pins() == 0) {
    reclaim_total += ReclaimRegion(e);
  }
  obs::Instant(obs::Cat::kEpoch, "epoch_close", e,
               static_cast<double>(regions_.size()));
  *reclaim_ms_out = reclaim_total;
}

void StreamContext::RunEpochs(const EpochFn& per_epoch,
                              const WindowFn& on_window) {
  const int base_epoch = std::min(9, opts_.epochs - 1);
  for (int e = 0; e < opts_.epochs; ++e) {
    OpenEpoch(e);
    double gc0 = ctx_->Totals().gc_pause_ms;
    per_epoch(e, *regions_.at(e));
    double reclaim_ms = 0;
    CloseEpoch(e, on_window, &reclaim_ms);
    pause_ms_.Add((ctx_->Totals().gc_pause_ms - gc0) + reclaim_ms);
    reclaim_ms_.Add(reclaim_ms);
    // The accounting identity must hold with all planes settled at every
    // epoch boundary — region charge/release is atomic as far as any
    // observer of the manager can tell.
    for (int i = 0; i < ctx_->num_executors(); ++i) {
      ctx_->executor(i)->VerifyMemoryAccounting();
    }
    uint64_t fp = SampleFootprint();
    footprint_end_ = fp;
    footprint_peak_ = std::max(footprint_peak_, fp);
    if (e == base_epoch) {
      footprint_base_ = fp;
      base_sampled_ = true;
    }
    ++epochs_run_;
  }
}

}  // namespace deca::stream
