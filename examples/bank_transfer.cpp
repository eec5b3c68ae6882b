// bank_transfer: failure atomicity across multi-word updates.
//
//   ./bank_transfer                 # runs 50,000 random transfers
//   ./bank_transfer --crash-mid     # dies in the middle of a batch
//   ./bank_transfer                 # invariant still holds after recovery
//
// A transfer debits one account and credits another — two separate stores
// that must never be separated by a crash. With epoch-based checkpointing
// no logging per transfer is needed: either the whole batch (epoch) commits
// or none of it does, so the total balance is conserved across any crash.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/container.h"
#include "core/heap.h"
#include "util/rng.h"

using namespace crpm;

namespace {
constexpr uint64_t kAccounts = 10000;
constexpr int64_t kOpeningBalance = 1000;
constexpr int kBatches = 50;
constexpr int kTransfersPerBatch = 1000;
}  // namespace

int main(int argc, char** argv) {
  bool crash_mid = argc > 1 && std::strcmp(argv[1], "--crash-mid") == 0;

  CrpmOptions opt;
  opt.main_region_size = 8 << 20;
  auto ctr = Container::open_file("/tmp/crpm_bank.ctr", opt);
  Heap heap(*ctr);

  int64_t* balance;
  uint64_t* batches_done;
  if (ctr->fresh()) {
    balance = static_cast<int64_t*>(heap.allocate(kAccounts * 8));
    batches_done = static_cast<uint64_t*>(heap.allocate(8));
    ctr->annotate(balance, kAccounts * 8);
    for (uint64_t a = 0; a < kAccounts; ++a) balance[a] = kOpeningBalance;
    ctr->annotate(batches_done, 8);
    *batches_done = 0;
    ctr->set_root(0, ctr->to_offset(balance));
    ctr->set_root(1, ctr->to_offset(batches_done));
    ctr->checkpoint();
    std::printf("opened %llu accounts with %lld each.\n",
                (unsigned long long)kAccounts, (long long)kOpeningBalance);
  } else {
    balance = static_cast<int64_t*>(ctr->from_offset(ctr->get_root(0)));
    batches_done =
        static_cast<uint64_t*>(ctr->from_offset(ctr->get_root(1)));
  }

  // Audit: the invariant must hold on every open, crash or not.
  int64_t total = 0;
  for (uint64_t a = 0; a < kAccounts; ++a) total += balance[a];
  std::printf("audit at batch %llu: total = %lld (expected %lld) — %s\n",
              (unsigned long long)*batches_done, (long long)total,
              (long long)(kOpeningBalance * int64_t(kAccounts)),
              total == kOpeningBalance * int64_t(kAccounts) ? "OK"
                                                            : "VIOLATED");
  if (total != kOpeningBalance * int64_t(kAccounts)) return 1;

  Xoshiro256 rng(*batches_done + 1);
  const uint64_t start_batch = *batches_done;
  for (uint64_t b = start_batch; b < kBatches; ++b) {
    for (int t = 0; t < kTransfersPerBatch; ++t) {
      uint64_t from = rng.next_below(kAccounts);
      uint64_t to = rng.next_below(kAccounts);
      int64_t amount = int64_t(rng.next_below(100));
      ctr->annotate(&balance[from], 8);
      balance[from] -= amount;
      if (crash_mid && b == start_batch + 10 && t == 500) {
        // Power fails between the debit and the credit — the nightmare
        // case. The whole uncommitted epoch vanishes, so no money does.
        std::printf("crash between debit and credit at batch %llu!\n",
                    (unsigned long long)b);
        std::fflush(stdout);
        std::_Exit(1);
      }
      ctr->annotate(&balance[to], 8);
      balance[to] += amount;
    }
    ctr->annotate(batches_done, 8);
    *batches_done = b + 1;
    ctr->checkpoint();
  }
  std::printf("completed %d batches (%d transfers each); run me again to "
              "re-audit, or delete /tmp/crpm_bank.ctr to reset.\n",
              kBatches, kTransfersPerBatch);
  return 0;
}
