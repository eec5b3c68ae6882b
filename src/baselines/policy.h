// Persistence policies: one persistent heap over every checkpoint protocol.
//
// Every checkpoint-recovery system the paper compares (Section 5.1) runs
// the same persistent data-structure implementation (src/containers)
// unmodified — mirroring how the paper reuses one instrumented STL
// container across libraries. A PersistencePolicy gives the containers:
//
//   allocate/deallocate  program-state allocation
//   on_write(addr, len)  called BEFORE each store (the instrumentation hook;
//                        page-fault-based systems ignore it)
//   checkpoint()         epoch boundary: make the current state durable
//   set_root/get_root    named offsets surviving restart
//   to_offset/from_offset  position-independent references
//   fresh()              no program state survived the open
//
// HeapPolicy<Protocol> is the one implementation: it joins a checkpoint
// protocol's flat working window to the persistent Heap (core/heap.h). A
// protocol only exposes that window —
//
//   data(), capacity()   the flat working window
//   annotate(addr, len)  write instrumentation (a no-op when OS-traced)
//   checkpoint()         promote the working state to the new checkpoint
//   set_root/get_root    root slots
//   committed_epoch()    checkpoints committed since format
//   fresh()              the open formatted the region
//
// — and the policies are: CrpmPolicy (Container: libcrpm-Default and
// -Buffered), UndoLogPolicy, LmcPolicy, PageCkptPolicy (mprotect /
// soft-dirty incremental checkpointing) and NvmNpPolicy (no persistence).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/heap.h"

namespace crpm {

class Container;

template <typename P>
concept PersistencePolicy = requires(P p, const void* ca, void* a, size_t n,
                                     uint32_t slot, uint64_t off) {
  { p.allocate(n) } -> std::same_as<void*>;
  { p.deallocate(a, n) };
  { p.on_write(ca, n) };
  { p.checkpoint() };
  { p.set_root(slot, off) };
  { p.get_root(slot) } -> std::convertible_to<uint64_t>;
  { p.to_offset(ca) } -> std::convertible_to<uint64_t>;
  { p.from_offset(off) } -> std::same_as<void*>;
  { p.fresh() } -> std::convertible_to<bool>;
};

template <typename Protocol>
class HeapPolicy {
 public:
  // Owning form: opens the protocol from `args` (Protocol::open when it
  // has one, its constructor otherwise) and attaches a Heap to its window.
  template <typename... Args>
  explicit HeapPolicy(Args&&... args)
      : owned_protocol_(open_protocol(std::forward<Args>(args)...)),
        protocol_(*owned_protocol_),
        owned_heap_(std::make_unique<Heap>(protocol_)),
        heap_(*owned_heap_) {}

  // Non-owning form over an already-open protocol and the Heap on its
  // window (crpm_kvd layers its map over a StateStore this way). Both
  // must outlive the policy.
  HeapPolicy(Protocol& protocol, Heap& heap)
      : protocol_(protocol), heap_(heap) {}

  HeapPolicy(const HeapPolicy&) = delete;
  HeapPolicy& operator=(const HeapPolicy&) = delete;

  void* allocate(size_t n) { return heap_.allocate(n); }
  void deallocate(void* p, size_t n) { heap_.deallocate(p, n); }
  void on_write(const void* addr, size_t len) {
    protocol_.annotate(addr, len);
  }
  void checkpoint() { protocol_.checkpoint(); }
  void set_root(uint32_t slot, uint64_t off) { protocol_.set_root(slot, off); }
  uint64_t get_root(uint32_t slot) { return protocol_.get_root(slot); }
  uint64_t to_offset(const void* p) { return heap_.offset_of(p); }
  void* from_offset(uint64_t off) { return heap_.pointer_to(off); }
  // The heap formatted on this open — a fresh region, or one rolled back
  // to before the heap's format — so roots are stale and must be rebuilt.
  bool fresh() const { return heap_.fresh(); }

  Protocol& protocol() { return protocol_; }
  Container& container()
    requires std::same_as<Protocol, Container>
  {
    return protocol_;
  }

 private:
  template <typename... Args>
  static std::unique_ptr<Protocol> open_protocol(Args&&... args) {
    if constexpr (requires { Protocol::open(std::forward<Args>(args)...); }) {
      return Protocol::open(std::forward<Args>(args)...);
    } else {
      return std::make_unique<Protocol>(std::forward<Args>(args)...);
    }
  }

  std::unique_ptr<Protocol> owned_protocol_;
  Protocol& protocol_;
  std::unique_ptr<Heap> owned_heap_;
  Heap& heap_;
};

}  // namespace crpm
