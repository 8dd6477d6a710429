#include "jvm/heap_profiler.h"

#include "jvm/heap.h"

namespace deca::jvm {

HeapProfiler::HeapProfiler(Heap* heap, uint32_t class_id)
    : heap_(heap), class_id_(class_id) {}

void HeapProfiler::Sample(double t_ms) {
  object_counts_.Add(t_ms,
                     static_cast<double>(heap_->CountInstances(class_id_)));
  gc_time_ms_.Add(t_ms, heap_->stats().TotalPauseMs());
}

}  // namespace deca::jvm
