// Self-test of the benchmark's own arithmetic (stats.h). Exits non-zero on
// the first failed expectation; run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(double(i));  // unsorted input
  return v;
}

void test_percentile() {
  // 1000 samples: p99 is rank 990 with exactly ten beyond it.
  auto v = iota(1000);
  perfbench::Percentile p = perfbench::percentile(v, 99);
  expect(p.ok && p.pct == 99 && near(p.value, 990) && p.samples == 1000,
         "p99 of 1..1000 is 990 with ten samples beyond");
  // 999 samples: rank ceil(989.01) = 990 leaves nine, so p98 is reported.
  v = iota(999);
  p = perfbench::percentile(v, 99);
  expect(p.ok && p.pct == 98, "p99 of 999 samples falls back to p98");
  expect(near(p.value, 980), "p98 of 1..999 is rank ceil(979.02) = 980");
  // 200 samples: p99 and p98 lack ten beyond; p95 has exactly ten.
  v = iota(200);
  p = perfbench::percentile(v, 99);
  expect(p.ok && p.pct == 95 && near(p.value, 190),
         "p99 of 200 samples falls back to p95 = 190");
  // The median of 1..100 by nearest rank is 50.
  v = iota(100);
  p = perfbench::percentile(v, 50);
  expect(p.ok && p.pct == 50 && near(p.value, 50), "p50 of 1..100 is 50");
  // Too few samples for any percentile.
  v = iota(10);
  p = perfbench::percentile(v, 50);
  expect(!p.ok, "ten samples give no percentile with ten beyond");
  v.clear();
  p = perfbench::percentile(v, 50);
  expect(!p.ok && p.samples == 0, "empty input gives no percentile");
  expect(perfbench::pct_name("get", 98, "_us") ==
             "get_p98_us",
         "percentile names follow the percentile reported");
}

void test_window_median() {
  using perfbench::Timed;
  // Three 1 s windows of 1000 samples each; the middle one stalled.
  std::vector<Timed> s;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      double v = w == 1 ? 1e6 + i : double(i) * (w + 1);
      s.push_back({w + i / 1001.0, v});
    }
  }
  perfbench::Windowed m = perfbench::window_median(s, 1.0, 99);
  expect(m.ok && m.pct == 99 && m.windows == 3 && m.samples == 3000,
         "three windows at p99");
  // Window p99s are 990, 1000990 and 2970: the median ignores the stall.
  expect(near(m.value, 2970), "window median skips the stalled window");
  // A 999-sample window forces p98 on every window.
  s.pop_back();
  m = perfbench::window_median(s, 1.0, 99);
  expect(m.ok && m.pct == 98, "the sparsest window sets the percentile");
  // Too few samples anywhere: no figure.
  std::vector<Timed> few = {{0.1, 1}, {0.2, 2}};
  expect(!perfbench::window_median(few, 1.0, 50).ok, "too few samples");
}

void test_ladder() {
  using perfbench::LadderStep;
  std::vector<LadderStep> s = {
      {10000, 10000, 100, 1},
      {20000, 20000, 400, 3},
      {40000, 39000, 1500, 2},   // misses the limit
      {80000, 60000, 200, 1},    // passes, but above a failed step
  };
  expect(perfbench::ladder_max(s, 1000) == 1,
         "ladder stops at the first step over the limit");
  s[2].get_p99_us = 900;
  s[2].backlog_end = 401;  // 40000 ops/s x 10 x 1 ms = 400 may be queued
  expect(perfbench::ladder_max(s, 1000) == 1,
         "a backlog beyond ten limits of offered load fails the step");
  s[2].backlog_end = 400;
  expect(perfbench::ladder_max(s, 1000) == 3,
         "a backlog within ten limits of offered load passes");
  s[0].get_p99_us = 1000.5;
  expect(perfbench::ladder_max(s, 1000) == -1,
         "no passing step when the first misses the limit");
  expect(perfbench::ladder_max({}, 1000) == -1, "empty ladder");
}

void test_counters() {
  expect(perfbench::delta(10, 25) == 15, "delta of a growing counter");
  expect(perfbench::delta(30, 7) == 7, "a counter that reset yields its value");
  expect(near(perfbench::per_epoch(1010, 200), 5.05), "1010 over 200 epochs");
  expect(near(perfbench::per_epoch(5, 0), 0), "no epochs gives zero");
  expect(near(perfbench::median({3, 1, 2}), 2), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
}

void test_failure_share() {
  expect(near(perfbench::failure_share(0, 100), 0), "no failures");
  expect(near(perfbench::failure_share(3, 1000), 0.003), "3 of 1000");
  expect(near(perfbench::failure_share(0, 0), 0), "nothing attempted");
}

}  // namespace

int main() {
  test_percentile();
  test_window_median();
  test_ladder();
  test_counters();
  test_failure_share();
  if (failures != 0) {
    std::printf("%d self-test expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all expectations hold\n");
  return 0;
}
