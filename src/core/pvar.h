// crpm::p<T> — annotated persistent field wrapper.
//
// Stand-in for the paper's compiler instrumentation on user-defined structs:
// a p<T> field routes every assignment through the global write hook, so a
// struct whose mutable fields are p<T> needs no manual annotate() calls.
// Reads are direct (loads are never instrumented). T must be trivially
// copyable — persistent state cannot own DRAM resources.
//
//   struct Account {
//     crpm::p<uint64_t> balance;
//     crpm::p<uint32_t> flags;
//   };
//   acct->balance = acct->balance + 100;   // hooks automatically
#pragma once

#include <type_traits>
#include <utility>

#include "core/registry.h"

namespace crpm {

template <typename T>
class p {
  static_assert(std::is_trivially_copyable_v<T>,
                "persistent fields must be trivially copyable");

 public:
  p() = default;
  p(const T& v) : value_(v) {}  // NOLINT(google-explicit-constructor)

  p& operator=(const T& v) {
    crpm_annotate(&value_, sizeof(T));
    value_ = v;
    return *this;
  }

  p& operator=(const p& other) {
    crpm_annotate(&value_, sizeof(T));
    value_ = other.value_;
    return *this;
  }

  operator const T&() const { return value_; }  // NOLINT
  const T& get() const { return value_; }

  p& operator+=(const T& v) { return *this = value_ + v; }
  p& operator-=(const T& v) { return *this = value_ - v; }
  p& operator++() { return *this = value_ + 1; }
  p& operator--() { return *this = value_ - 1; }

 private:
  T value_;
};

}  // namespace crpm
