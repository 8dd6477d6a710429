#include "alloc/page_allocator.h"

#include <cstring>
#include <utility>

#include "common/logging.h"

namespace deca::alloc {

void AllocStats::Add(const AllocStats& o) {
  alloc_calls += o.alloc_calls;
  free_calls += o.free_calls;
  bytes_requested += o.bytes_requested;
}

Block PageAllocator::Allocate(size_t bytes) {
  DECA_CHECK_GT(bytes, 0u);
  NoteAlloc(bytes);
  return Block{new uint8_t[bytes], bytes};
}

void PageAllocator::Free(Block* block) {
  if (block == nullptr || !block->valid()) return;
  NoteFree();
  delete[] block->data;
  *block = Block{};
}

void PageAllocator::NoteAlloc(size_t bytes) {
  alloc_calls_.fetch_add(1, std::memory_order_relaxed);
  bytes_requested_.fetch_add(bytes, std::memory_order_relaxed);
}

void PageAllocator::NoteFree() {
  free_calls_.fetch_add(1, std::memory_order_relaxed);
}

AllocStats PageAllocator::Stats() const {
  AllocStats s;
  s.alloc_calls = alloc_calls_.load(std::memory_order_relaxed);
  s.free_calls = free_calls_.load(std::memory_order_relaxed);
  s.bytes_requested = bytes_requested_.load(std::memory_order_relaxed);
  return s;
}

std::shared_ptr<Bytes> Bytes::New(PageAllocator* pa, size_t n) {
  auto b = std::shared_ptr<Bytes>(new Bytes());
  if (n > 0) {
    b->raw_.reset(new uint8_t[n]);
    b->data_ = b->raw_.get();
    b->size_ = n;
    if (pa != nullptr) {
      pa->NoteAlloc(n);
      b->pa_ = pa;
    }
  }
  return b;
}

std::shared_ptr<const Bytes> Bytes::Copy(PageAllocator* pa,
                                         const uint8_t* src, size_t n) {
  auto b = New(pa, n);
  if (n > 0) std::memcpy(b->mutable_data(), src, n);
  return b;
}

std::shared_ptr<const Bytes> Bytes::FromWriter(PageAllocator* pa,
                                               std::vector<uint8_t> buf) {
  auto b = std::shared_ptr<Bytes>(new Bytes());
  b->adopted_ = std::move(buf);
  b->data_ = b->adopted_.data();
  b->size_ = b->adopted_.size();
  if (pa != nullptr) {
    pa->NoteAlloc(b->size_);
    b->pa_ = pa;
  }
  return b;
}

Bytes::~Bytes() {
  if (pa_ != nullptr) pa_->NoteFree();
}

ScratchBuffer::ScratchBuffer(ScratchBuffer&& o) noexcept
    : pa_(o.pa_), buf_(std::move(o.buf_)), cap_(std::exchange(o.cap_, 0)) {}

ScratchBuffer& ScratchBuffer::operator=(ScratchBuffer&& o) noexcept {
  if (this != &o) {
    Release();
    pa_ = o.pa_;
    buf_ = std::move(o.buf_);
    cap_ = std::exchange(o.cap_, 0);
  }
  return *this;
}

void ScratchBuffer::Reserve(size_t n) {
  if (n <= cap_) return;
  Release();
  buf_.reset(new uint8_t[n]);
  cap_ = n;
  if (pa_ != nullptr) pa_->NoteAlloc(n);
}

void ScratchBuffer::Release() {
  if (buf_ == nullptr) return;
  if (pa_ != nullptr) pa_->NoteFree();
  buf_.reset();
  cap_ = 0;
}

}  // namespace deca::alloc
