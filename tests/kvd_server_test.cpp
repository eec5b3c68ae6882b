// In-process integration tests for the crpm_kvd network stack (net/server.h
// + net/client.h over net/kv_service.h): protocol roundtrips, paged SCAN,
// durable group commit, protocol-error handling, repeated archive
// recovery of the service, and — under `ctest -L tsan` — the acceptance
// workload: 64 concurrent connections across 4 worker threads with
// checkpoints firing throughout.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "case_dir.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace crpm::net {
namespace {

// A KvService + Server on an ephemeral loopback port, in a fresh temp dir.
struct TestServer {
  explicit TestServer(const char* tag, uint32_t workers = 2,
                      double interval_ms = 0) {
    dir = std::filesystem::temp_directory_path() / tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    KvService::Config sc;
    sc.dir = dir.string();
    sc.capacity_bytes = 64 << 20;
    sc.buckets = 1 << 10;
    sc.interval_ms = interval_ms;
    svc = std::make_unique<KvService>(sc);
    ServerConfig nc;
    nc.workers = workers;
    srv = std::make_unique<Server>(*svc, nc);
    std::string err;
    ok = srv->start(&err);
    EXPECT_TRUE(ok) << err;
  }
  ~TestServer() {
    if (srv) srv->stop();
    svc.reset();
    std::filesystem::remove_all(dir);
  }
  uint16_t port() const { return srv->port(); }

  std::filesystem::path dir;
  std::unique_ptr<KvService> svc;
  std::unique_ptr<Server> srv;
  bool ok = false;
};

TEST(KvdServer, BasicRoundtrips) {
  TestServer ts("crpm_kvd_basic");
  ASSERT_TRUE(ts.ok);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", ts.port()));

  Status st;
  KvVal v;
  EXPECT_TRUE(cl.get(1, &v, &st));
  EXPECT_EQ(st, kNotFound);

  EXPECT_TRUE(cl.put(1, make_value(1, 7), /*durable=*/false, nullptr));
  EXPECT_TRUE(cl.get(1, &v, &st));
  EXPECT_EQ(st, kOk);
  uint64_t stamp = 0;
  EXPECT_TRUE(check_value(v, 1, &stamp));
  EXPECT_EQ(stamp, 7u);

  EXPECT_TRUE(cl.del(1, /*durable=*/false, &st));
  EXPECT_EQ(st, kOk);
  EXPECT_TRUE(cl.get(1, &v, &st));
  EXPECT_EQ(st, kNotFound);
  EXPECT_TRUE(cl.del(1, /*durable=*/false, &st));
  EXPECT_EQ(st, kNotFound);

  std::string text;
  uint64_t committed = 0, keys = ~0ull;
  EXPECT_TRUE(cl.stats(&text, &committed, &keys));
  EXPECT_EQ(keys, 0u);
  EXPECT_NE(text.find("epochs"), std::string::npos);
}

TEST(KvdServer, DurablePutIsCommittedWhenAcked) {
  TestServer ts("crpm_kvd_durable");
  ASSERT_TRUE(ts.ok);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", ts.port()));

  uint64_t tag = 0;
  ASSERT_TRUE(cl.put(9, make_value(9, 1), /*durable=*/true, &tag));
  EXPECT_GT(tag, 0u);
  // The response was withheld until the epoch landed: the tag must already
  // be committed by the time the client sees the ack.
  EXPECT_GE(ts.svc->committed_epoch(), tag);

  // Durable ckpt on a clean service: acked immediately at the current epoch.
  uint64_t epoch = 0;
  ASSERT_TRUE(cl.ckpt(/*durable=*/true, &epoch));
  EXPECT_EQ(epoch, ts.svc->committed_epoch());
}

TEST(KvdServer, ScanPagesTheWholeTable) {
  TestServer ts("crpm_kvd_scan");
  ASSERT_TRUE(ts.ok);
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", ts.port()));

  constexpr uint64_t kKeys = 500;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(cl.put(k, make_value(k, k + 1), false, nullptr));
  }
  std::set<uint64_t> seen;
  uint64_t cursor = 0;
  const uint64_t buckets = ts.svc->bucket_count();
  while (cursor < buckets) {
    std::vector<std::pair<uint64_t, KvVal>> page;
    uint64_t next = 0;
    ASSERT_TRUE(cl.scan(cursor, 64, &page, &next));
    ASSERT_GT(next, cursor);  // forward progress
    for (const auto& [k, v] : page) {
      uint64_t stamp = 0;
      EXPECT_TRUE(check_value(v, k, &stamp));
      EXPECT_EQ(stamp, k + 1);
      EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
    }
    cursor = next;
  }
  EXPECT_EQ(seen.size(), kKeys);
}

TEST(KvdServer, ProtocolErrorDropsOnlyThatConnection) {
  TestServer ts("crpm_kvd_badframe");
  ASSERT_TRUE(ts.ok);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // 48 bytes of garbage: bad magic, so the header never decodes and the
  // server must drop the connection instead of acting on it.
  uint8_t junk[sizeof(MsgHeader)];
  std::memset(junk, 0xA5, sizeof(junk));
  ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  uint8_t buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0) << "expected EOF";
  ::close(fd);

  // The server keeps serving well-formed connections.
  Client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", ts.port()));
  EXPECT_TRUE(cl.put(3, make_value(3, 1), true, nullptr));
  Status st;
  KvVal v;
  EXPECT_TRUE(cl.get(3, &v, &st));
  EXPECT_EQ(st, kOk);
}

// Acceptance workload: 64 connections across 4 epoll workers, mixed
// GET/PUT/durable-PUT/SCAN, with checkpoints ticking underneath. Runs
// tsan-clean under `ctest -L tsan`.
TEST(KvdServer, SixtyFourConnectionsAcrossFourWorkers) {
  TestServer ts("crpm_kvd_many", /*workers=*/4);
  ASSERT_TRUE(ts.ok);

  constexpr int kThreads = 8;
  constexpr int kConnsPerThread = 8;  // 64 total
  constexpr uint64_t kOpsPerThread = 1500;
  constexpr uint64_t kKeysPerThread = 400;

  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ts.svc->request_checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::atomic<uint64_t> failures{0};
  std::vector<uint64_t> distinct(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::unique_ptr<Client>> conns;
      for (int c = 0; c < kConnsPerThread; ++c) {
        auto cl = std::make_unique<Client>();
        if (!cl->connect("127.0.0.1", ts.port())) {
          failures.fetch_add(1);
          return;
        }
        conns.push_back(std::move(cl));
      }
      Xoshiro256 rng(31 + t);
      std::set<uint64_t> inserted;
      const uint64_t base = uint64_t(t) << 32;
      uint64_t stamp = 1;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        Client& cl = *conns[i % kConnsPerThread];
        uint64_t key = base + rng.next_below(kKeysPerThread);
        uint64_t dice = rng.next_below(100);
        bool ok;
        if (dice < 45) {
          Status st;
          KvVal v;
          ok = cl.get(key, &v, &st);
          if (ok && st == kOk) {
            uint64_t s = 0;
            ok = check_value(v, key, &s);
          }
        } else if (dice < 95) {
          ok = cl.put(key, make_value(key, stamp++),
                      /*durable=*/dice >= 90, nullptr);
          if (ok) inserted.insert(key);
        } else {
          std::vector<std::pair<uint64_t, KvVal>> page;
          uint64_t next = 0;
          ok = cl.scan(rng.next_below(64), 32, &page, &next);
        }
        if (!ok) {
          failures.fetch_add(1);
          break;
        }
      }
      distinct[size_t(t)] = inserted.size();
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  ticker.join();

  EXPECT_EQ(failures.load(), 0u);
  uint64_t expect_keys = 0;
  for (uint64_t d : distinct) expect_keys += d;
  EXPECT_EQ(ts.svc->key_count(), expect_keys);
  // The ticker plus the durable puts must have driven real epochs.
  EXPECT_GT(ts.svc->committed_epoch(), 0u);
}

// A service that recovers from its archive twice: restore, take new
// writes, lose the container again, restore again. The second restore
// must serve the newest writes, so the first one has to resume the
// archive's epoch timeline instead of restarting it at epoch 1 (which
// made the reattached archive writer drop every later frame).
void expect_second_restore_serves_newest_writes(bool lazy) {
  CaseDir dir;
  KvService::Config sc;
  sc.dir = dir.path().string();
  sc.capacity_bytes = 16 << 20;
  sc.buckets = 1 << 10;
  sc.archive = true;
  sc.archive_tier = true;
  constexpr uint64_t kKeys = 1000;
  std::vector<uint64_t> stamp(kKeys, 0);
  uint64_t next = 0;
  Xoshiro256 rng(1234);
  auto put = [&](KvService& svc, uint64_t k) {
    stamp[k] = ++next;
    svc.put(k, make_value(k, next));
  };
  auto update_epochs = [&](KvService& svc) {
    for (int e = 0; e < 3; ++e) {
      for (int i = 0; i < 300; ++i) put(svc, rng.next_below(kKeys));
      svc.request_checkpoint();
      svc.flush();
    }
  };
  auto restart = [&] {
    std::filesystem::remove(StateStore::container_path(sc.dir, 0));
    KvService::Config rc = sc;
    rc.lazy_restore = lazy;
    auto svc = std::make_unique<KvService>(rc);
    svc->wait_ready();
    EXPECT_EQ(svc->last_recovery(), RecoverySource::kArchive);
    return svc;
  };
  auto wrong_keys = [&](KvService& svc) {
    uint64_t wrong = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
      KvVal v;
      uint64_t s = 0;
      if (!svc.get(k, &v) || !check_value(v, k, &s) || s != stamp[k]) {
        ++wrong;
      }
    }
    return wrong;
  };

  {
    KvService svc(sc);
    for (uint64_t k = 0; k < kKeys; ++k) put(svc, k);
    svc.request_checkpoint();
    svc.flush();
    update_epochs(svc);
  }
  {
    auto svc = restart();
    EXPECT_EQ(wrong_keys(*svc), 0u) << "after the first restore";
    update_epochs(*svc);
  }
  auto svc = restart();
  EXPECT_EQ(wrong_keys(*svc), 0u) << "after the second restore";
}

TEST(KvdRestore, SecondArchiveRestoreServesWritesMadeAfterTheFirst) {
  expect_second_restore_serves_newest_writes(false);
}

TEST(KvdRestore, SecondLazyRestoreServesWritesMadeAfterTheFirst) {
  expect_second_restore_serves_newest_writes(true);
}

}  // namespace
}  // namespace crpm::net
