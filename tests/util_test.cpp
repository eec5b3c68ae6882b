#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "util/bitmap.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/sync.h"
#include "util/table.h"
#include "util/zipfian.h"

namespace crpm {
namespace {

TEST(AtomicBitmap, SetTestClear) {
  AtomicBitmap bm(200);
  EXPECT_EQ(bm.size_bits(), 200u);
  EXPECT_FALSE(bm.test(5));
  EXPECT_TRUE(bm.set(5));
  EXPECT_FALSE(bm.set(5));  // already set
  EXPECT_TRUE(bm.test(5));
  EXPECT_TRUE(bm.clear(5));
  EXPECT_FALSE(bm.clear(5));
  EXPECT_FALSE(bm.test(5));
}

TEST(AtomicBitmap, BoundaryBits) {
  AtomicBitmap bm(256);
  for (size_t i : {0u, 63u, 64u, 127u, 128u, 255u}) bm.set(i);
  EXPECT_EQ(bm.count(), 6u);
  EXPECT_TRUE(bm.test(63));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(255));
}

TEST(AtomicBitmap, CountRange) {
  AtomicBitmap bm(512);
  for (size_t i = 10; i < 100; ++i) bm.set(i);
  EXPECT_EQ(bm.count_range(0, 512), 90u);
  EXPECT_EQ(bm.count_range(10, 90), 90u);
  EXPECT_EQ(bm.count_range(0, 10), 0u);
  EXPECT_EQ(bm.count_range(50, 10), 10u);
  EXPECT_EQ(bm.count_range(95, 100), 5u);
}

TEST(AtomicBitmap, ClearRangeWithinWord) {
  AtomicBitmap bm(128);
  for (size_t i = 0; i < 64; ++i) bm.set(i);
  bm.clear_range(10, 20);  // bits 10..29
  EXPECT_EQ(bm.count(), 44u);
  EXPECT_TRUE(bm.test(9));
  EXPECT_FALSE(bm.test(10));
  EXPECT_FALSE(bm.test(29));
  EXPECT_TRUE(bm.test(30));
}

TEST(AtomicBitmap, ClearRangeAcrossWords) {
  AtomicBitmap bm(512);
  for (size_t i = 0; i < 512; ++i) bm.set(i);
  bm.clear_range(60, 200);  // bits 60..259
  EXPECT_EQ(bm.count(), 512u - 200u);
  EXPECT_TRUE(bm.test(59));
  EXPECT_FALSE(bm.test(60));
  EXPECT_FALSE(bm.test(259));
  EXPECT_TRUE(bm.test(260));
}

TEST(AtomicBitmap, ClearRangeAlignedEnd) {
  AtomicBitmap bm(256);
  for (size_t i = 0; i < 256; ++i) bm.set(i);
  bm.clear_range(64, 128);  // exactly words 1 and 2
  EXPECT_EQ(bm.count(), 128u);
  EXPECT_TRUE(bm.test(63));
  EXPECT_FALSE(bm.test(64));
  EXPECT_FALSE(bm.test(191));
  EXPECT_TRUE(bm.test(192));
}

TEST(AtomicBitmap, ForEachSet) {
  AtomicBitmap bm(300);
  std::set<size_t> expect{1, 63, 64, 65, 130, 299};
  for (size_t i : expect) bm.set(i);
  std::set<size_t> got;
  bm.for_each_set([&](size_t i) { got.insert(i); });
  EXPECT_EQ(got, expect);
}

TEST(AtomicBitmap, ForEachSetSubrange) {
  AtomicBitmap bm(300);
  for (size_t i = 0; i < 300; i += 3) bm.set(i);
  std::vector<size_t> got;
  bm.for_each_set(100, 50, [&](size_t i) { got.push_back(i); });
  for (size_t i : got) {
    EXPECT_GE(i, 100u);
    EXPECT_LT(i, 150u);
    EXPECT_EQ(i % 3, 0u);
  }
  EXPECT_EQ(got.size(), 16u);  // 102, 105, ..., 147
}

TEST(AtomicBitmap, AnyInRange) {
  AtomicBitmap bm(512);
  bm.set(200);
  EXPECT_TRUE(bm.any_in_range(0, 512));
  EXPECT_TRUE(bm.any_in_range(200, 1));
  EXPECT_TRUE(bm.any_in_range(128, 128));
  EXPECT_FALSE(bm.any_in_range(0, 200));
  EXPECT_FALSE(bm.any_in_range(201, 311));
}

TEST(AtomicBitmap, UnionIteration) {
  AtomicBitmap a(256), b(256);
  a.set(3);
  a.set(100);
  b.set(100);
  b.set(200);
  std::set<size_t> got;
  AtomicBitmap::for_each_set_union(a, b, 0, 256,
                                   [&](size_t i) { got.insert(i); });
  EXPECT_EQ(got, (std::set<size_t>{3, 100, 200}));
  EXPECT_EQ(AtomicBitmap::count_union(a, b, 0, 256), 3u);
  EXPECT_EQ(AtomicBitmap::count_union(a, b, 4, 196), 1u);
}

TEST(AtomicBitmap, AssignAndClear) {
  AtomicBitmap a(128), b(128);
  b.set(5);
  b.set(77);
  a.set(1);
  a.assign_and_clear(b);
  EXPECT_TRUE(a.test(5));
  EXPECT_TRUE(a.test(77));
  EXPECT_FALSE(a.test(1));  // overwritten
  EXPECT_EQ(b.count(), 0u);
}

TEST(AtomicBitmap, ConcurrentSets) {
  AtomicBitmap bm(4096);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < 4096; i += 4) bm.set(i);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(bm.count(), 4096u);
}

TEST(Crc32, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(detail::crc32_portable(nullptr, 0), 0u);
}

// Random bytes with 16 spare at the front, so every misalignment of every
// length fits.
std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> v(n + 16);
  for (auto& b : v) b = static_cast<uint8_t>(rng.next());
  return v;
}

TEST(Crc32, MatchesPortableAtEveryLengthAndAlignment) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {4096, 65536, 1 << 20});
  const std::vector<uint8_t> buf = random_bytes(1 << 20, 17);
  Xoshiro256 rng(18);
  for (size_t n : lengths) {
    for (size_t off = 0; off < 16; ++off) {
      const uint32_t seed = static_cast<uint32_t>(rng.next());
      const uint8_t* p = buf.data() + off;
      ASSERT_EQ(crc32(p, n, seed), detail::crc32_portable(p, n, seed))
          << "len " << n << " offset " << off << " seed " << seed;
    }
  }
}

TEST(Crc32, ChainsAcrossTheFoldThreshold) {
  const std::vector<uint8_t> buf = random_bytes(300, 19);
  const uint8_t* p = buf.data();
  for (size_t total : {63, 64, 65, 79, 80, 127, 128, 129, 200, 300}) {
    const uint32_t whole = crc32(p, total);
    for (size_t m = 0; m <= total; ++m) {
      ASSERT_EQ(crc32(p + m, total - m, crc32(p, m)), whole)
          << "split " << m << " of " << total;
    }
  }
}

TEST(Xoshiro, DeterministicAndSpread) {
  Xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  // next_below stays below the bound.
  for (int i = 0; i < 1000; ++i) EXPECT_LT(a.next_below(17), 17u);
  // next_double in [0,1).
  for (int i = 0; i < 1000; ++i) {
    double d = a.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, RangeAndSkew) {
  constexpr uint64_t kN = 1000;
  ZipfianGenerator gen(kN, 0.99);
  Xoshiro256 rng(7);
  std::vector<uint64_t> hist(kN, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = gen.next(rng);
    ASSERT_LT(v, kN);
    ++hist[v];
  }
  // Rank 0 should be far more popular than rank 500 under theta=0.99.
  EXPECT_GT(hist[0], hist[500] * 20);
  // Head concentration: top-10 ranks should cover a large share.
  uint64_t top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += hist[i];
  EXPECT_GT(double(top10) / kDraws, 0.3);
}

TEST(Zipfian, ScrambledSpreadsHotKeys) {
  constexpr uint64_t kN = 1000;
  ScrambledZipfianGenerator gen(kN, 0.99);
  Xoshiro256 rng(7);
  std::vector<uint64_t> hist(kN, 0);
  for (int i = 0; i < 100000; ++i) ++hist[gen.next(rng)];
  // The two hottest keys should not be adjacent (scrambling).
  size_t hottest = 0, second = 1;
  for (size_t i = 0; i < kN; ++i) {
    if (hist[i] > hist[hottest]) {
      second = hottest;
      hottest = i;
    } else if (hist[i] > hist[second]) {
      second = i;
    }
  }
  EXPECT_GT(hist[hottest], 0u);
  EXPECT_NE(hottest + 1, second);
}

TEST(SpinBarrier, SingleThreadLeader) {
  SpinBarrier b(1);
  EXPECT_TRUE(b.arrive_and_wait());
  EXPECT_TRUE(b.arrive_and_wait());  // reusable
}

TEST(SpinBarrier, MultiThreadExactlyOneLeader) {
  constexpr int kThreads = 4;
  SpinBarrier b(kThreads);
  std::atomic<int> leaders{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        if (b.arrive_and_wait()) leaders.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(leaders.load(), 50);
}

TEST(SpinLock, MutualExclusion) {
  SpinLock lk;
  int counter = 0;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        lk.lock();
        ++counter;
        lk.unlock();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(Table, FormatsAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.row().cell("a").cell(uint64_t{1234567});
  t.row().cell("longer-name").cell(3.14159, 2);
  std::string s = t.to_string();
  EXPECT_NE(s.find("1,234,567"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(2048), "2.00KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00MiB");
}

TEST(Env, ParsesWithSuffixAndFallback) {
  ::setenv("CRPM_TEST_ENV_U64", "4k", 1);
  EXPECT_EQ(env_u64("CRPM_TEST_ENV_U64", 7), 4096u);
  ::unsetenv("CRPM_TEST_ENV_U64");
  EXPECT_EQ(env_u64("CRPM_TEST_ENV_U64", 7), 7u);
  ::setenv("CRPM_TEST_ENV_B", "off", 1);
  EXPECT_FALSE(env_bool("CRPM_TEST_ENV_B", true));
  ::unsetenv("CRPM_TEST_ENV_B");
}

}  // namespace
}  // namespace crpm
