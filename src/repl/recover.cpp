#include "repl/recover.h"

#include <cstdio>

#include "core/crpm_stats.h"
#include "snapshot/restore.h"
#include "util/logging.h"

namespace crpm::repl {

std::vector<int> clients_of(int rank, int nranks, int replicas) {
  std::vector<int> c;
  for (int i = 1; i <= replicas && i < nranks; ++i) {
    c.push_back((rank - i + nranks) % nranks);
  }
  return c;
}

namespace {

// Rebuilds the lost rank's container on `dev` at the agreed epoch `e` by
// pulling the frame chain from `partner`.
std::unique_ptr<Container> restore_from_partner(ReplNode& node, int partner,
                                                int rank, uint64_t e,
                                                NvmDevice* dev,
                                                const CrpmOptions& opt,
                                                std::string* err) {
  const std::string pulled =
      node.store().dir() + "/recover_self.crpmsnap";
  if (!node.pull(partner, rank, e, pulled, err)) return nullptr;

  snapshot::RestoreResult r = snapshot::restore(pulled, e, dev, opt);
  std::remove(pulled.c_str());
  if (r.container == nullptr) {
    *err = "restore from pulled archive failed: " + r.error;
    return nullptr;
  }
  CRPM_CHECK(r.epoch == e, "pulled archive restored epoch %llu, wanted %llu",
             (unsigned long long)r.epoch, (unsigned long long)e);
  // restore() already resumed the container at epoch e.
  // Reopen with the caller's options (restore forced thread_count = 1).
  r.container.reset();
  return Container::open(dev, opt, Container::kLatestEpoch);
}

}  // namespace

PeerOpenResult coordinated_open_with_peers(SimComm& comm, ReplNode& node,
                                           int rank, NvmDevice* dev,
                                           const CrpmOptions& opt) {
  PeerOpenResult result;
  const uint64_t mine = Container::peek_committed_epoch(dev);
  const bool lost = mine == Container::kLatestEpoch;

  // Round 1: the healthy ranks' minimum. All-lost leaves e_h at
  // UINT64_MAX, which the votes below turn into a fresh start at 0.
  const uint64_t e_h =
      comm.allreduce_min(rank, lost ? Container::kLatestEpoch : mine);

  // Round 2: lost ranks find what their partners can actually serve. The
  // partners' service threads answer while their app threads already block
  // in the allreduce.
  uint64_t reachable = 0;
  int best_partner = -1;
  if (lost && e_h != Container::kLatestEpoch) {
    for (int p : node.partners()) {
      uint64_t newest = 0;
      if (!node.query_newest(p, rank, &newest)) continue;
      const uint64_t candidate = newest < e_h ? newest : e_h;
      if (best_partner < 0 || candidate > reachable) {
        reachable = candidate;
        best_partner = p;
      }
    }
  }
  uint64_t e = comm.allreduce_min(rank, lost ? reachable : e_h);
  if (e == Container::kLatestEpoch) e = 0;  // every rank lost: fresh start

  if (!lost) {
    CRPM_CHECK(mine <= e + 1,
               "rank %d committed epoch %llu but the cluster agreed on "
               "%llu — more than one epoch ahead, cannot roll back",
               rank, (unsigned long long)mine, (unsigned long long)e);
    result.container = Container::open(
        dev, opt, mine == e ? Container::kLatestEpoch : e);
    result.source = CrpmStatsSnapshot::kRecoveryLocal;
  } else if (e == 0) {
    // Nothing to recover (fresh cluster, or no partner holds anything and
    // the healthy ranks agreed to restart from scratch).
    result.container = Container::open(dev, opt, Container::kLatestEpoch);
    result.source = CrpmStatsSnapshot::kRecoveryNone;
  } else {
    std::string err;
    if (best_partner >= 0 && reachable >= e) {
      result.container = restore_from_partner(node, best_partner, rank, e,
                                              dev, opt, &err);
    } else {
      err = "no partner can serve the agreed epoch";
    }
    if (result.container != nullptr) {
      result.source = CrpmStatsSnapshot::kRecoveryPeer;
      // Refill this rank's replica store: pull each client's chain from
      // the client itself, so the next delta frame (epoch e+1) extends a
      // chain instead of gap-rejecting forever.
      for (int o : clients_of(rank, comm.nranks(),
                              node.config().replicas)) {
        std::string rerr;
        if (!node.pull(o, o, e, node.store().peer_path(o), &rerr)) {
          CRPM_LOG_WARN(
              "rank %d: refilling replica store for rank %d failed (%s); "
              "its future frames will be rejected until its next base",
              rank, o, rerr.c_str());
        }
      }
    } else {
      result.error = err;
      CRPM_LOG_WARN("rank %d: peer recovery failed: %s", rank, err.c_str());
    }
  }

  result.epoch = e;
  if (result.container != nullptr) {
    result.container->stats().note_recovery_source(result.source);
  }
  comm.barrier();
  return result;
}

}  // namespace crpm::repl
