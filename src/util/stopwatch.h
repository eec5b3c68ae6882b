// Monotonic stopwatch used for epoch pacing and for the
// execution/trace/checkpoint time breakdown of Figure 1.
#pragma once

#include <chrono>
#include <cstdint>

namespace crpm {

class Stopwatch {
 public:
  using clock = std::chrono::steady_clock;

  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  double elapsed_sec() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  uint64_t elapsed_ns() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

 private:
  clock::time_point start_;
};

}  // namespace crpm
