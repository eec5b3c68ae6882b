// heat_sim: a restartable 2-D heat-diffusion simulation in buffered mode.
//
//   ./heat_sim                 # runs 200 steps, checkpointing every 10
//   ./heat_sim --crash-at 87   # dies abruptly at step 87 (simulated crash)
//   ./heat_sim                 # resumes from step 80 and finishes
//
// Shows the buffered-mode workflow of Section 3.5: the grid lives in DRAM
// for full-speed stencil updates; each checkpoint differentially
// replicates dirty blocks into the main or backup NVM region by epoch
// parity. _Exit() models a power failure: no destructors, no flushes.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/container.h"
#include "core/heap.h"

using namespace crpm;

namespace {
constexpr int kN = 512;          // grid edge
constexpr int kSteps = 200;
constexpr int kCkptEvery = 10;
constexpr uint32_t kGridRoot = 0;
constexpr uint32_t kStepRoot = 1;
}  // namespace

int main(int argc, char** argv) {
  int crash_at = -1;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--crash-at") == 0) {
      crash_at = std::atoi(argv[i + 1]);
    }
  }

  CrpmOptions opt;
  opt.buffered = true;
  opt.main_region_size = uint64_t(2) * kN * kN * sizeof(double) + (4 << 20);
  auto ctr = Container::open_file("/tmp/crpm_heat_sim.ctr", opt);
  Heap heap(*ctr);

  double* grid;
  uint64_t* step_counter;
  if (ctr->fresh()) {
    grid = static_cast<double*>(heap.allocate(sizeof(double) * kN * kN));
    step_counter = static_cast<uint64_t*>(heap.allocate(8));
    ctr->annotate(grid, sizeof(double) * kN * kN);
    std::memset(grid, 0, sizeof(double) * kN * kN);
    // Hot disc in the centre.
    for (int y = kN / 2 - 20; y < kN / 2 + 20; ++y) {
      for (int x = kN / 2 - 20; x < kN / 2 + 20; ++x) {
        grid[y * kN + x] = 100.0;
      }
    }
    ctr->annotate(step_counter, 8);
    *step_counter = 0;
    ctr->set_root(kGridRoot, ctr->to_offset(grid));
    ctr->set_root(kStepRoot, ctr->to_offset(step_counter));
    ctr->checkpoint();
    std::printf("initialized %dx%d grid.\n", kN, kN);
  } else {
    grid = static_cast<double*>(ctr->from_offset(ctr->get_root(kGridRoot)));
    step_counter =
        static_cast<uint64_t*>(ctr->from_offset(ctr->get_root(kStepRoot)));
    std::printf("recovered at step %llu (epoch %llu, recovery took "
                "%.2f ms sync + %.2f ms DRAM load).\n",
                (unsigned long long)*step_counter,
                (unsigned long long)ctr->committed_epoch(),
                double(ctr->recovery_sync_ns()) * 1e-6,
                double(ctr->recovery_load_ns()) * 1e-6);
  }

  std::vector<double> next(size_t(kN) * kN);
  const bool had_work = *step_counter < kSteps;
  for (int step = int(*step_counter); step < kSteps; ++step) {
    if (step == crash_at) {
      std::printf("simulated power failure at step %d!\n", step);
      std::fflush(stdout);
      std::_Exit(1);  // no destructors, no data flushes — like a real crash
    }
    // Jacobi sweep.
    for (int y = 1; y < kN - 1; ++y) {
      for (int x = 1; x < kN - 1; ++x) {
        next[size_t(y) * kN + x] =
            0.25 * (grid[(y - 1) * kN + x] + grid[(y + 1) * kN + x] +
                    grid[y * kN + x - 1] + grid[y * kN + x + 1]);
      }
    }
    ctr->annotate(grid, sizeof(double) * kN * kN);
    std::memcpy(grid, next.data(), sizeof(double) * kN * kN);

    if ((step + 1) % kCkptEvery == 0) {
      ctr->annotate(step_counter, 8);
      *step_counter = uint64_t(step) + 1;
      ctr->checkpoint();
      double total = 0;
      for (int i = 0; i < kN * kN; ++i) total += grid[i];
      std::printf("step %4d checkpointed (epoch %llu), total heat %.1f\n",
                  step + 1, (unsigned long long)ctr->committed_epoch(),
                  total);
    }
  }
  if (!had_work) {
    std::printf("simulation already complete; delete "
                "/tmp/crpm_heat_sim.ctr to restart.\n");
  } else {
    std::printf("done. checkpoint data written this run: %llu bytes over "
                "%llu epochs.\n",
                (unsigned long long)ctr->stats().snapshot().checkpoint_bytes,
                (unsigned long long)ctr->stats().snapshot().epochs);
  }
  return 0;
}
