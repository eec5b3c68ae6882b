// Multi-level coordinated recovery (the replication subsystem's payoff).
//
// coordinated_open() (src/comm/coordinated.h) recovers a cluster whose
// ranks all still hold their containers: committed epochs differ by at
// most one and the stragglers roll back (level 1, the paper's protocol).
// coordinated_open_with_peers() adds level 2: a rank whose local state is
// *gone* — device wiped, archive lost — rebuilds its container from the
// replicas its partners stored, then rejoins the agreed epoch as if
// nothing had happened.
//
// Protocol (every rank calls this collectively; `node`'s service thread
// answers partner queries throughout, so healthy ranks can block in the
// collectives while serving):
//
//   1. vote: healthy ranks vote their committed epoch, lost ranks vote
//      UINT64_MAX. E_h = allreduce_min. All-lost => E_h = UINT64_MAX and
//      the cluster starts fresh.
//   2. lost ranks ask each partner for the newest epoch of their state it
//      can serve; reachable = max over partners of min(answer, E_h).
//      E = allreduce_min(healthy ? E_h : reachable).
//   3. CHECK (healthy): committed <= E + 1 — anything further ahead cannot
//      roll back to E (one epoch of retained history) and the cluster is
//      unrecoverable; same invariant as coordinated_open.
//   4. healthy ranks open at E (rolling back one epoch if ahead). Lost
//      ranks pull the frame chain for epoch E from a partner, restore it
//      onto their (pristine) device (restore resumes the container at
//      epoch E — see snapshot::restore) and reopen with the caller's
//      options.
//   5. lost ranks refill their own replica store by pulling each client
//      rank's chain from that rank's local archive, so the next delta
//      frame (epoch E+1) extends a chain instead of gap-rejecting
//      forever.
//   6. barrier.
#pragma once

#include <cstdint>
#include <memory>

#include "comm/sim_comm.h"
#include "core/container.h"
#include "repl/replicator.h"

namespace crpm::repl {

struct PeerOpenResult {
  std::unique_ptr<Container> container;  // null only on (reported) failure
  uint64_t epoch = 0;      // the globally agreed recovered epoch
  uint64_t source = 0;     // CrpmStatsSnapshot::kRecovery{None,Local,Peer}
  std::string error;       // set when container is null
};

// Collective. `dev` is this rank's container device; a pristine/wiped
// device marks the rank as lost and triggers the peer pull. `node` must be
// constructed on the shared Channel before any rank enters (its service
// thread serves the others), with ReplConfig.local_archive pointing at
// this rank's archive file so it can serve refill pulls.
PeerOpenResult coordinated_open_with_peers(SimComm& comm, ReplNode& node,
                                           int rank, NvmDevice* dev,
                                           const CrpmOptions& opt);

// The ranks whose frames `rank` stores (inverse of partners_of): r-1..r-R.
std::vector<int> clients_of(int rank, int nranks, int replicas);

}  // namespace crpm::repl
