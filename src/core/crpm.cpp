#include "core/crpm.h"

#include <memory>

#include "core/container.h"
#include "core/heap.h"
#include "core/registry.h"

struct crpm_t {
  std::unique_ptr<crpm::Container> ctr;
  std::unique_ptr<crpm::Heap> heap;
};

extern "C" {

crpm_t* crpm_open(const char* path, const crpm::CrpmOptions* opt) {
  crpm::CrpmOptions o = opt != nullptr ? *opt : crpm::CrpmOptions{};
  auto* h = new crpm_t;
  h->ctr = crpm::Container::open_file(path, o);
  h->heap = std::make_unique<crpm::Heap>(*h->ctr);
  crpm::register_container(h->ctr.get());
  return h;
}

void crpm_close(crpm_t* c) {
  if (c == nullptr) return;
  crpm::deregister_container(c->ctr.get());
  delete c;
}

int crpm_is_fresh(const crpm_t* c) { return c->ctr->fresh() ? 1 : 0; }

void crpm_checkpoint(crpm_t* c) { c->ctr->checkpoint(); }

void* crpm_malloc(crpm_t* c, size_t size) { return c->heap->allocate(size); }

void crpm_free(crpm_t* c, void* p, size_t size) {
  c->heap->deallocate(p, size);
}

void crpm_set_root(crpm_t* c, uint32_t slot, const void* p) {
  c->ctr->set_root(slot, p == nullptr ? 0 : c->ctr->to_offset(p));
}

void* crpm_get_root(crpm_t* c, uint32_t slot) {
  uint64_t off = c->ctr->get_root(slot);
  return off == 0 ? nullptr : c->ctr->from_offset(off);
}

void crpm_annotate_range(const void* addr, size_t len) {
  crpm::crpm_annotate(addr, len);
}

uint64_t crpm_committed_epoch(const crpm_t* c) {
  return c->ctr->committed_epoch();
}

void* crpm_base(crpm_t* c) { return c->ctr->data(); }

size_t crpm_capacity(const crpm_t* c) {
  return const_cast<crpm_t*>(c)->ctr->capacity();
}

crpm::Container* crpm_container(crpm_t* c) { return c->ctr.get(); }
crpm::Heap* crpm_heap(crpm_t* c) { return c->heap.get(); }

}  // extern "C"
