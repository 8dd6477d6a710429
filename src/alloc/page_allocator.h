#ifndef DECA_ALLOC_PAGE_ALLOCATOR_H_
#define DECA_ALLOC_PAGE_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace deca::alloc {

/// Point-in-time allocator counters. One struct serves three scopes —
/// per-PageAllocator handles, per-executor snapshots, and the run-level
/// aggregate — so `Add` must stay a plain field-wise sum. All three are
/// driven purely by engine call sites, so they are bit-identical across
/// thread counts and local vs process runs, and report_diff exact-compares
/// them.
struct AllocStats {
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t bytes_requested = 0;

  void Add(const AllocStats& o);
};

/// Empty; kept only so the `PageAllocator(ArenaOptions{}, shards)` callers
/// in perfbench/ keep compiling.
struct ArenaOptions {};

/// One allocation handed out by PageAllocator::Allocate. Plain value type:
/// the caller owns it until Free.
struct Block {
  uint8_t* data = nullptr;
  size_t size = 0;

  bool valid() const { return data != nullptr; }
};

/// Per-executor counting allocator: plain `new[]`/`delete[]` with every
/// call and requested byte counted, so a run reports the native buffers
/// behind its heap, T1 payloads and spill/tier I/O. Thread-safe; the
/// counters are relaxed atomics.
class PageAllocator {
 public:
  PageAllocator() = default;
  /// Same as the default constructor; exists only for perfbench/.
  PageAllocator(const ArenaOptions&, int /*shards*/) {}

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  Block Allocate(size_t bytes);
  void Free(Block* block);

  /// Counts an allocation made elsewhere (a buffer owned by Bytes or the
  /// heap) and its release.
  void NoteAlloc(size_t bytes);
  void NoteFree();

  AllocStats Stats() const;

 private:
  std::atomic<uint64_t> alloc_calls_{0};
  std::atomic<uint64_t> free_calls_{0};
  std::atomic<uint64_t> bytes_requested_{0};
};

/// Immutable shared byte buffer, counted on a PageAllocator when one is
/// given (the count is released by the destructor, from whichever thread
/// drops the last reference). Same data()/size() shape as a vector.
class Bytes {
 public:
  /// Uninitialized buffer of `n` bytes; fill via mutable_data() before
  /// sharing.
  static std::shared_ptr<Bytes> New(PageAllocator* pa, size_t n);

  /// Copy of `[src, src+n)`.
  static std::shared_ptr<const Bytes> Copy(PageAllocator* pa,
                                           const uint8_t* src, size_t n);

  /// Zero-copy adoption of serializer output.
  static std::shared_ptr<const Bytes> FromWriter(PageAllocator* pa,
                                                 std::vector<uint8_t> buf);

  ~Bytes();

  Bytes(const Bytes&) = delete;
  Bytes& operator=(const Bytes&) = delete;

  const uint8_t* data() const { return data_; }
  uint8_t* mutable_data() { return data_; }
  size_t size() const { return size_; }

 private:
  Bytes() = default;

  PageAllocator* pa_ = nullptr;  // set when this buffer is counted
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  // Owner of data_: a fresh new[] buffer (New/Copy) or the adopted
  // serializer vector (FromWriter).
  std::unique_ptr<uint8_t[]> raw_;
  std::vector<uint8_t> adopted_;
};

using BytesPtr = std::shared_ptr<const Bytes>;

}  // namespace deca::alloc

#endif  // DECA_ALLOC_PAGE_ALLOCATOR_H_
