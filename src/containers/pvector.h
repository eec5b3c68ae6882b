// Persistent fixed-capacity vector.
//
// Array-of-state helper used by the parallel-computing mini-apps: capacity
// is reserved at creation (like the paper's applications, whose array sizes
// are fixed by the input deck), elements are trivially copyable, and bulk
// mutations are annotated with one hook call per touched range.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "baselines/policy.h"
#include "util/logging.h"

namespace crpm {

template <typename T, PersistencePolicy P>
class PVector {
  static_assert(std::is_trivially_copyable_v<T>);

  struct Meta {
    uint64_t data_off;
    uint64_t size;
    uint64_t capacity;
  };

 public:
  PVector(P& p, uint64_t capacity, uint32_t root_slot) : p_(p) {
    uint64_t meta_off = p_.fresh() ? 0 : p_.get_root(root_slot);
    if (meta_off == 0) {
      auto* meta = static_cast<Meta*>(p_.allocate(sizeof(Meta)));
      void* data = p_.allocate(capacity * sizeof(T));
      p_.on_write(meta, sizeof(Meta));
      meta->data_off = p_.to_offset(data);
      meta->size = 0;
      meta->capacity = capacity;
      p_.set_root(root_slot, p_.to_offset(meta));
      meta_ = meta;
    } else {
      meta_ = static_cast<Meta*>(p_.from_offset(meta_off));
      CRPM_CHECK(meta_->capacity >= capacity,
                 "recovered vector smaller than requested");
    }
  }

  uint64_t size() const { return meta_->size; }
  uint64_t capacity() const { return meta_->capacity; }

  const T& operator[](uint64_t i) const { return data()[i]; }

  // Read-write element access; annotates the element.
  void set(uint64_t i, const T& v) {
    CRPM_CHECK(i < meta_->size, "index %llu out of range",
               (unsigned long long)i);
    T* d = data();
    p_.on_write(&d[i], sizeof(T));
    d[i] = v;
  }

  void push_back(const T& v) {
    CRPM_CHECK(meta_->size < meta_->capacity, "vector capacity exhausted");
    T* d = data();
    p_.on_write(&d[meta_->size], sizeof(T));
    d[meta_->size] = v;
    p_.on_write(&meta_->size, 8);
    meta_->size += 1;
  }

  void resize(uint64_t n) {
    CRPM_CHECK(n <= meta_->capacity, "resize beyond capacity");
    if (n > meta_->size) {
      T* d = data();
      p_.on_write(&d[meta_->size], (n - meta_->size) * sizeof(T));
      std::memset(static_cast<void*>(&d[meta_->size]), 0,
                  (n - meta_->size) * sizeof(T));
    }
    p_.on_write(&meta_->size, 8);
    meta_->size = n;
  }

  // Mutable bulk access: annotates [first, first+n) and returns the raw
  // pointer. This is the pattern the mini-apps use per iteration.
  T* mutate(uint64_t first, uint64_t n) {
    CRPM_CHECK(first + n <= meta_->size, "mutate range out of bounds");
    T* d = data();
    p_.on_write(&d[first], n * sizeof(T));
    return &d[first];
  }

  const T* raw() const { return data(); }

 private:
  T* data() const { return static_cast<T*>(p_.from_offset(meta_->data_off)); }

  P& p_;
  Meta* meta_;
};

}  // namespace crpm
