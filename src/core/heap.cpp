#include "core/heap.h"

#include <cstring>
#include <mutex>

#include "util/logging.h"

namespace crpm {

namespace {
constexpr uint64_t kHeapMagic = 0x6372706d68656170ull;  // "crpmheap"
constexpr uint64_t kSmallStep = 16;
constexpr uint64_t kSmallMax = 256;   // classes 0..15: 16,32,...,256
constexpr uint64_t kLargeMin = 512;   // classes 16..: 512,1024,... (pow2)
}  // namespace

struct Heap::HeapHeader {
  uint64_t magic;
  uint64_t capacity;
  uint64_t bump;        // offset of the next never-allocated byte
  uint64_t allocated;   // live bytes (for accounting)
  uint64_t free_heads[kNumClasses];  // 0 = empty list
};

Heap::HeapHeader* Heap::header() const {
  return reinterpret_cast<HeapHeader*>(base_);
}

Heap::Heap(uint8_t* base, uint64_t capacity, bool fresh, AnnotateFn annotate,
           void* ctx)
    : base_(base), capacity_(capacity), annotate_(annotate), ctx_(ctx) {
  CRPM_CHECK(capacity_ > sizeof(HeapHeader) + 64, "heap window too small: %llu",
             (unsigned long long)capacity_);
  HeapHeader* h = header();
  if (fresh || h->magic != kHeapMagic) {
    format();
  } else {
    CRPM_CHECK(h->capacity == capacity_,
               "heap capacity mismatch: %llu vs window %llu",
               (unsigned long long)h->capacity,
               (unsigned long long)capacity_);
  }
}

void Heap::format() {
  HeapHeader* h = header();
  annotate(h, sizeof(HeapHeader));
  std::memset(h, 0, sizeof(HeapHeader));
  h->magic = kHeapMagic;
  h->capacity = capacity_;
  h->bump = (sizeof(HeapHeader) + 63) & ~uint64_t{63};
  h->allocated = 0;
  formatted_ = true;
}

uint32_t Heap::class_of(size_t size, size_t* rounded) {
  if (size == 0) size = 1;
  if (size <= kSmallMax) {
    size_t r = (size + kSmallStep - 1) / kSmallStep * kSmallStep;
    *rounded = r;
    return static_cast<uint32_t>(r / kSmallStep - 1);
  }
  uint64_t r = kLargeMin;
  uint32_t c = 16;
  while (r < size) {
    r <<= 1;
    ++c;
    CRPM_CHECK(c < kNumClasses, "allocation of %zu bytes exceeds heap limit",
               size);
  }
  *rounded = r;
  return c;
}

void* Heap::allocate(size_t size) {
  size_t rounded = 0;
  uint32_t c = class_of(size, &rounded);
  std::lock_guard<SpinLock> lk(lock_);
  HeapHeader* h = header();

  uint64_t off = h->free_heads[c];
  if (off != 0) {
    // Pop from the free list. The next-pointer lives in the object itself.
    uint64_t* obj = static_cast<uint64_t*>(pointer_to(off));
    uint64_t next = *obj;
    annotate(&h->free_heads[c], sizeof(uint64_t));
    h->free_heads[c] = next;
  } else {
    CRPM_CHECK(h->bump + rounded <= h->capacity,
               "heap out of memory: capacity=%llu bump=%llu need=%zu",
               (unsigned long long)h->capacity, (unsigned long long)h->bump,
               rounded);
    off = h->bump;
    annotate(&h->bump, sizeof(uint64_t));
    h->bump += rounded;
  }
  annotate(&h->allocated, sizeof(uint64_t));
  h->allocated += rounded;
  return pointer_to(off);
}

void Heap::deallocate(void* p, size_t size) {
  if (p == nullptr) return;
  size_t rounded = 0;
  uint32_t c = class_of(size, &rounded);
  std::lock_guard<SpinLock> lk(lock_);
  HeapHeader* h = header();
  uint64_t off = offset_of(p);
  CRPM_CHECK(off >= sizeof(HeapHeader) && off + rounded <= h->capacity,
             "deallocate of foreign pointer (offset %llu)",
             (unsigned long long)off);
  auto* obj = static_cast<uint64_t*>(p);
  annotate(obj, sizeof(uint64_t));
  *obj = h->free_heads[c];
  annotate(&h->free_heads[c], sizeof(uint64_t));
  h->free_heads[c] = off;
  annotate(&h->allocated, sizeof(uint64_t));
  h->allocated -= rounded;
}

uint64_t Heap::bytes_in_use() const { return header()->allocated; }

}  // namespace crpm
