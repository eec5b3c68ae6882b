// Arithmetic helpers of the benchmark driver, kept free of any library
// dependency so selftest.cpp can check them in isolation.
//
//   * percentile selection with the ten-beyond rule: a percentile is only
//     reported when at least ten samples lie beyond it; otherwise the
//     highest whole percentile that has ten is reported under its own name;
//   * window medians: a percentile per time window, then the median over
//     the windows;
//   * ladder selection: the highest fixed-rate step that met the latency
//     limit without a growing backlog, walking up from the lowest step;
//   * counter deltas and per-epoch averages;
//   * the failure share of attempted operations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0;      // in the samples' unit
  int pct = 0;           // the whole percentile actually reported
  uint64_t samples = 0;  // sample count it was taken over
  bool ok = false;       // false when no percentile has ten beyond it
};

// Nearest-rank percentile of `v` (sorted in place). `want` is a whole
// percentile (50, 90, 99). Samples beyond rank r = ceil(p n) are n - r;
// when fewer than ten, the percentile is lowered to the highest whole
// percentile that leaves ten.
inline Percentile percentile(std::vector<double>& v, int want) {
  Percentile out;
  out.samples = v.size();
  const uint64_t n = v.size();
  if (n == 0) return out;
  std::sort(v.begin(), v.end());
  auto beyond = [n](int pct) {
    uint64_t rank = (n * uint64_t(pct) + 99) / 100;  // ceil(pct n / 100)
    if (rank == 0) rank = 1;
    return n - rank;
  };
  int pct = want;
  while (pct > 0 && beyond(pct) < 10) --pct;
  if (pct <= 0) return out;
  uint64_t rank = (n * uint64_t(pct) + 99) / 100;
  if (rank == 0) rank = 1;
  out.value = v[rank - 1];
  out.pct = pct;
  out.ok = true;
  return out;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One step of the fixed rate ladder.
struct LadderStep {
  double rate = 0;          // offered ops/s
  double achieved = 0;      // completed ops/s
  double get_p99_us = 0;    // window median; misses count as infinite
  uint64_t backlog_end = 0; // requests due but not answered at step end
};

// A backlog of more than this many latency limits' worth of offered load
// at a step's end counts as growing. A stall shorter than that can leave
// a transient backlog behind; it already shows in the step's latencies.
inline constexpr double kBacklogLimits = 10;

// Highest step, walking up from the first, whose GET p99 is within
// `limit_us` and whose backlog did not grow. Returns the index of that
// step, or -1 when even the first step failed.
inline int ladder_max(const std::vector<LadderStep>& steps, double limit_us) {
  int best = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    const LadderStep& s = steps[i];
    double allowed = std::max(1.0, s.rate * kBacklogLimits * limit_us / 1e6);
    bool pass = s.get_p99_us <= limit_us && double(s.backlog_end) <= allowed;
    if (!pass) break;
    best = int(i);
  }
  return best;
}

// Difference of two cumulative counters; a counter that went backwards
// because its owner was reset yields the later value.
inline uint64_t delta(uint64_t before, uint64_t after) {
  return after >= before ? after - before : after;
}

inline double per_epoch(uint64_t total, uint64_t epochs) {
  return epochs == 0 ? 0.0 : double(total) / double(epochs);
}

inline double failure_share(uint64_t failed, uint64_t attempted) {
  return attempted == 0 ? 0.0 : double(failed) / double(attempted);
}

// A sample stamped with the time it was due, in seconds from the start
// of its step.
struct Timed {
  double t;
  double v;
};

struct Windowed {
  double value = 0;      // median over windows of the window percentile
  int pct = 0;           // the whole percentile every window reported
  uint64_t windows = 0;
  uint64_t samples = 0;  // total over all windows
  bool ok = false;
};

// Splits `s` into consecutive windows of `window_s` seconds by due time,
// takes percentile `want` of each window, and returns the median over the
// windows. A burst of stalls spoils the windows it falls in but not the
// median of them. When any window lacks ten samples beyond `want`, every
// window is taken at the highest percentile all of them support, so one
// name covers the whole figure. Windows with no samples are skipped.
inline Windowed window_median(const std::vector<Timed>& s, double window_s,
                              int want) {
  Windowed out;
  std::vector<std::vector<double>> win;
  for (const Timed& x : s) {
    size_t w = x.t <= 0 ? 0 : size_t(x.t / window_s);
    if (w >= win.size()) win.resize(w + 1);
    win[w].push_back(x.v);
  }
  int pct = want;
  for (auto& w : win) {
    if (w.empty()) continue;
    Percentile p = percentile(w, want);
    if (!p.ok) return out;
    pct = std::min(pct, p.pct);
  }
  std::vector<double> vals;
  for (auto& w : win) {
    if (w.empty()) continue;
    vals.push_back(percentile(w, pct).value);
    out.samples += w.size();
  }
  if (vals.empty()) return out;
  out.value = median(vals);
  out.pct = pct;
  out.windows = vals.size();
  out.ok = true;
  return out;
}

// Metric name for a percentile: "get_p99_us" with pct 98 becomes
// "get_p98_us". `stem` is the part before the percentile ("get").
inline std::string pct_name(const std::string& stem, int pct,
                            const std::string& unit_suffix) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "_p%d", pct);
  return stem + buf + unit_suffix;
}

}  // namespace perfbench
