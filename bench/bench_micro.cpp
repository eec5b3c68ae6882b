// Microbenchmarks (google-benchmark) for the primitive costs the paper's
// Section 2.2 analysis rests on:
//   * flush+fence cost with the DCPMM cost model (vs. free, model off),
//     and with model off from 4 threads sharing one device
//   * random 256 B streaming copies with the model off (eager CoW's loop)
//   * the instrumented write hook's fast path (dirty bits already set)
//   * segment copy-on-write (full vs differential)
//   * mprotect page-fault tracing cost (paper: ~2us per 4 KB page)
//   * undo-log entry append (the 2-fence pattern of problem P2)
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "baselines/undolog.h"
#include "core/container.h"
#include "nvm/device.h"
#include "trace/page_tracer.h"
#include "util/rng.h"
#include "util/zipfian.h"

namespace {

using namespace crpm;

void BM_FlushFence_ModelOff(benchmark::State& state) {
  // One device shared by the ->Threads() runs, each on its own 64 KiB, so
  // only the stats counters are common to the threads.
  static HeapNvmDevice dev(1 << 20);
  uint8_t* mine = dev.base() + size_t(state.thread_index()) * (64 << 10);
  size_t i = 0;
  for (auto _ : state) {
    dev.persist(mine + (i % 1024) * 64, 64);
    ++i;
  }
}
BENCHMARK(BM_FlushFence_ModelOff);
BENCHMARK(BM_FlushFence_ModelOff)->Threads(4);

void BM_FlushFence_ModelOn(benchmark::State& state) {
  HeapNvmDevice dev(1 << 20);
  dev.set_cost_model(CostModel::realistic());
  size_t i = 0;
  for (auto _ : state) {
    dev.persist(dev.base() + (i % 1024) * 64, 64);
    ++i;
  }
}
BENCHMARK(BM_FlushFence_ModelOn);

void BM_NtCopy256B_ModelOn(benchmark::State& state) {
  HeapNvmDevice dev(1 << 20);
  dev.set_cost_model(CostModel::realistic());
  std::vector<uint8_t> src(256, 7);
  size_t i = 0;
  for (auto _ : state) {
    dev.nt_copy(dev.base() + (i % 2048) * 256, src.data(), 256);
    ++i;
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_NtCopy256B_ModelOn);

// Eager CoW's pattern: streaming copies of random 256 B blocks over a
// region far larger than the caches, so the previous block's stores are
// still in flight when the next copy's counters are bumped.
void BM_NtCopy256B_ModelOff(benchmark::State& state) {
  constexpr size_t kDevice = size_t{64} << 20;
  HeapNvmDevice dev(kDevice);
  std::vector<uint8_t> src(256, 7);
  Xoshiro256 rng(5);
  for (auto _ : state) {
    size_t block = rng.next() % (kDevice / 256);
    dev.nt_copy(dev.base() + block * 256, src.data(), 256);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * 256);
}
BENCHMARK(BM_NtCopy256B_ModelOff);

void BM_AnnotateFastPath(benchmark::State& state) {
  CrpmOptions opt;
  opt.main_region_size = 16 << 20;
  HeapNvmDevice dev(Container::required_device_size(opt));
  auto ctr = Container::open(&dev, opt);
  // Pre-dirty one block so annotate takes the all-bits-set fast path.
  ctr->annotate(ctr->data() + 4096, 8);
  for (auto _ : state) {
    ctr->annotate(ctr->data() + 4096, 8);
  }
}
BENCHMARK(BM_AnnotateFastPath);

void BM_AnnotateNewBlockSameSegment(benchmark::State& state) {
  CrpmOptions opt;
  opt.main_region_size = 64 << 20;
  HeapNvmDevice dev(Container::required_device_size(opt));
  auto ctr = Container::open(&dev, opt);
  uint64_t block = 0;
  uint64_t nblocks = opt.main_region_size / 256;
  for (auto _ : state) {
    ctr->annotate(ctr->data() + (block % nblocks) * 256, 8);
    ++block;
  }
}
BENCHMARK(BM_AnnotateNewBlockSameSegment);

void BM_SegmentCow_Full2MB(benchmark::State& state) {
  CrpmOptions opt;
  opt.main_region_size = 256 << 20;
  HeapNvmDevice dev(Container::required_device_size(opt));
  auto ctr = Container::open(&dev, opt);
  // Commit every segment once so each first write in the next epoch takes
  // a full-segment CoW (fresh pairing).
  for (uint64_t off = 0; off < opt.main_region_size;
       off += opt.segment_size) {
    ctr->annotate(ctr->data() + off, 8);
    ctr->data()[off] = 1;
  }
  ctr->checkpoint();
  uint64_t seg = 0;
  uint64_t nsegs = opt.main_region_size / opt.segment_size;
  for (auto _ : state) {
    if (seg >= nsegs) {
      state.PauseTiming();  // one pass is all the fresh segments we have
      break;
    }
    ctr->annotate(ctr->data() + seg * opt.segment_size, 8);
    ctr->data()[seg * opt.segment_size] = 2;
    ++seg;
  }
}
BENCHMARK(BM_SegmentCow_Full2MB)->Iterations(64);

void BM_MprotectFault(benchmark::State& state) {
  constexpr size_t kPages = 4096;
  void* mem = std::aligned_alloc(4096, kPages * 4096);
  std::memset(mem, 0, kPages * 4096);
  MprotectTracer tracer(static_cast<uint8_t*>(mem), kPages * 4096);
  size_t page = kPages;
  std::vector<uint64_t> scratch;
  for (auto _ : state) {
    if (page >= kPages) {
      state.PauseTiming();
      scratch.clear();
      tracer.collect(&scratch);
      tracer.epoch_begin();
      page = 0;
      state.ResumeTiming();
    }
    static_cast<uint8_t*>(mem)[page * 4096] = 1;  // first touch: faults
    ++page;
  }
  std::free(mem);
}
BENCHMARK(BM_MprotectFault);

void BM_UndoLogEntry(benchmark::State& state) {
  auto dev = std::make_unique<HeapNvmDevice>(
      UndoLog::required_device_size(64 << 20));
  dev->set_cost_model(CostModel::realistic());
  UndoLogPolicy policy(std::move(dev), 64 << 20);
  auto* arr = static_cast<uint8_t*>(policy.allocate(32 << 20));
  uint64_t block = 0;
  uint64_t nblocks = (32 << 20) / 256;
  for (auto _ : state) {
    if (block >= nblocks) {
      state.PauseTiming();
      policy.checkpoint();
      block = 0;
      state.ResumeTiming();
    }
    policy.on_write(arr + block * 256, 8);  // first touch: logs + 2 fences
    arr[block * 256] = 1;
    ++block;
  }
}
BENCHMARK(BM_UndoLogEntry);

void BM_ZipfianNext(benchmark::State& state) {
  ScrambledZipfianGenerator gen(1 << 20, 0.99);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

}  // namespace

BENCHMARK_MAIN();
