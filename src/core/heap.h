// Recoverable memory allocator for program state objects (Section 4).
//
// The one persistent allocator of the tree: it manages the flat working
// window of any checkpoint protocol — the Container, the baselines in
// src/baselines — and its bookkeeping (bump pointer, segregated free
// lists) lives inside that window. Every bookkeeping store is announced
// through the protocol's annotate hook first, so the heap is checkpointed
// and rolled back with the data it manages — the paper instruments the
// allocator when building libcrpm for the same reason. No internal failure
// atomicity is needed: a crash mid-allocation rolls the whole heap back to
// the last checkpoint.
//
// Free objects store the offset of the next free object in their first
// 8 bytes. All references are window offsets, so the backing file can be
// remapped at a different virtual address across restarts.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/sync.h"

namespace crpm {

class Heap {
 public:
  // Write hook run before every bookkeeping store (null: none needed, as
  // for protocols whose tracing is OS-driven).
  using AnnotateFn = void (*)(void* ctx, const void* addr, size_t len);

  // Attaches to the window [base, base + capacity). Formats when `fresh`
  // (the protocol just formatted the region) or when the window holds no
  // valid heap header — a region rolled back to before the heap's format,
  // e.g. by a crash ahead of the first checkpoint. Otherwise validates the
  // recovered bookkeeping. Callers should checkpoint a formatted heap
  // before relying on it surviving a crash.
  Heap(uint8_t* base, uint64_t capacity, bool fresh, AnnotateFn annotate,
       void* ctx);

  // Attaches to a protocol's working window: data(), capacity(), fresh()
  // and annotate(addr, len) — Container, the src/baselines protocols.
  template <typename Window>
  explicit Heap(Window& w)
      : Heap(w.data(), w.capacity(), w.fresh(),
             [](void* ctx, const void* addr, size_t len) {
               static_cast<Window*>(ctx)->annotate(addr, len);
             },
             &w) {}

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // Allocates `size` bytes of program state; never returns nullptr
  // (aborts when the window is full). Thread-safe.
  void* allocate(size_t size);
  void deallocate(void* p, size_t size);

  uint64_t offset_of(const void* p) const {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p) - base_);
  }
  void* pointer_to(uint64_t off) const { return base_ + off; }

  // True if attaching formatted the heap: no program state survived.
  bool fresh() const { return formatted_; }

  // Bytes handed out minus bytes freed (free-list contents count as used
  // from the bump allocator's perspective).
  uint64_t bytes_in_use() const;

  // Number of size classes (16 B .. 1 GiB).
  static constexpr uint32_t kNumClasses = 16 + 27;

 private:
  struct HeapHeader;

  HeapHeader* header() const;
  void annotate(const void* addr, size_t len) {
    if (annotate_ != nullptr) annotate_(ctx_, addr, len);
  }

  // Rounded allocation size and its class index; sizes above the largest
  // class abort.
  static uint32_t class_of(size_t size, size_t* rounded);

  void format();

  uint8_t* base_;
  uint64_t capacity_;
  AnnotateFn annotate_;
  void* ctx_;
  bool formatted_ = false;
  SpinLock lock_;
};

}  // namespace crpm
