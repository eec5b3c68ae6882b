#include "nvm/device.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/logging.h"

namespace crpm {

namespace {

// Streaming (non-temporal) copy, the paper's Section 4 fast path: cache-
// bypassing stores avoid polluting the LLC with checkpoint traffic. Falls
// back to memcpy off x86 or for unaligned destinations.
void nt_memcpy(void* dst, const void* src, size_t len) {
#if defined(__SSE2__)
  if (reinterpret_cast<uintptr_t>(dst) % 16 == 0 && len >= 64) {
    auto* d = static_cast<uint8_t*>(dst);
    const auto* s = static_cast<const uint8_t*>(src);
    size_t vec = len / 16;
    for (size_t i = 0; i < vec; ++i) {
      __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i * 16));
      _mm_stream_si128(reinterpret_cast<__m128i*>(d + i * 16), v);
    }
    size_t done = vec * 16;
    if (done < len) std::memcpy(d + done, s + done, len - done);
    return;
  }
#endif
  std::memcpy(dst, src, len);
}

thread_local const char* t_persist_site = "untagged";

}  // namespace

PersistSiteScope::PersistSiteScope(const char* site) : prev_(t_persist_site) {
  t_persist_site = site;
}

PersistSiteScope::~PersistSiteScope() { t_persist_site = prev_; }

const char* PersistSiteScope::current() { return t_persist_site; }

void NvmDevice::flush(const void* addr, size_t len) {
  if (len == 0) return;
  CRPM_CHECK(contains(addr, len), "flush outside device: off=%llu len=%zu",
             (unsigned long long)offset_of(addr), len);
  uint64_t off = offset_of(addr);
  uint64_t first = off / kCacheLineSize;
  uint64_t last = (off + len - 1) / kCacheLineSize;
  uint64_t lines = last - first + 1;

  PersistStats::Shard& st = stats_.local();
  if (cost_.eadr) {
    // eADR: the cache is persistent; clwb is elided entirely. Media-effect
    // callbacks still run so the crash simulator stays conservative.
    st.add_media_write(media_bytes_for_range(off, len));
  } else {
    st.add_clwb(lines);
    st.add_media_write(media_bytes_for_range(off, len));
    st.add_pending_lines(lines);
    if (cost_.enabled) spin_for_ns(cost_.clwb_ns * double(lines));
  }

  if (__builtin_expect(hook_ != nullptr, 0)) {
    for (uint64_t l = first; l <= last; ++l) {
      emit(PersistEventKind::kFlush, l * kCacheLineSize);
      media_flush_line(l * kCacheLineSize);
    }
  } else {
    for (uint64_t l = first; l <= last; ++l) {
      media_flush_line(l * kCacheLineSize);
    }
  }
}

void NvmDevice::fence() {
  // The counters are plain stores, so nothing else orders nt_copy's
  // streaming stores before what follows the fence.
#if defined(__SSE2__)
  _mm_sfence();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  // Like sfence, drains only the calling thread's pending lines.
  PersistStats::Shard& st = stats_.local();
  uint64_t pending = st.take_pending_lines();
  st.add_sfence();
  if (cost_.enabled) {
    // eADR fences only order stores — no write-pending-queue drain.
    spin_for_ns(cost_.eadr ? cost_.sfence_base_ns
                           : cost_.sfence_base_ns +
                                 cost_.sfence_per_pending_line_ns *
                                     double(pending));
  }
  emit(PersistEventKind::kFence, 0);
  media_fence();
}

void NvmDevice::nt_copy(void* dst, const void* src, size_t len) {
  if (len == 0) return;
  CRPM_CHECK(contains(dst, len), "nt_copy outside device: off=%llu len=%zu",
             (unsigned long long)offset_of(dst), len);
  uint64_t off = offset_of(dst);
  uint64_t first = off / kCacheLineSize;
  uint64_t last = (off + len - 1) / kCacheLineSize;
  uint64_t lines = last - first + 1;

  PersistStats::Shard& st = stats_.local();
  st.add_nt_store_bytes(len);
  uint64_t media = media_bytes_for_range(off, len);
  st.add_media_write(media);
  st.add_pending_lines(lines);
  // Streaming stores are charged at the DIMM's 256 B media granularity: a
  // sub-media-line burst still costs a full XPLine internally.
  if (cost_.enabled) {
    spin_for_ns(cost_.nt_store_ns_per_line *
                double(media / kCacheLineSize));
  }

  if (__builtin_expect(hook_ != nullptr, 0)) {
    // Copy line by line so a crash injected mid-copy leaves a torn copy,
    // exactly as interrupted streaming stores would on hardware.
    auto* d = static_cast<uint8_t*>(dst);
    auto* s = static_cast<const uint8_t*>(src);
    size_t copied = 0;
    for (uint64_t l = first; l <= last; ++l) {
      emit(PersistEventKind::kNtStore, l * kCacheLineSize);
      uint64_t line_begin = l * kCacheLineSize;
      uint64_t line_end = line_begin + kCacheLineSize;
      uint64_t cb = std::max<uint64_t>(line_begin, off);
      uint64_t ce = std::min<uint64_t>(line_end, off + len);
      std::memcpy(base_ + cb, s + (cb - off), ce - cb);
      copied += ce - cb;
      media_nt_line(line_begin);
    }
    CRPM_CHECK(copied == len, "torn accounting bug");
    (void)d;
  } else {
    nt_memcpy(dst, src, len);
    for (uint64_t l = first; l <= last; ++l) {
      media_nt_line(l * kCacheLineSize);
    }
  }
}

void NvmDevice::wbinvd_flush() {
  stats_.local().add_wbinvd();
  if (cost_.enabled) spin_for_ns(cost_.wbinvd_ns);
  emit(PersistEventKind::kWbinvd, 0);
  media_wbinvd();
}

HeapNvmDevice::HeapNvmDevice(size_t size) : NvmDevice(nullptr, 0) {
  size_t aligned = (size + 4095) & ~size_t{4095};
  mem_ = static_cast<uint8_t*>(std::aligned_alloc(4096, aligned));
  CRPM_CHECK(mem_ != nullptr, "aligned_alloc(%zu) failed", aligned);
  std::memset(mem_, 0, aligned);
  set_base(mem_, aligned);
}

HeapNvmDevice::~HeapNvmDevice() { std::free(mem_); }

FileNvmDevice::FileNvmDevice(const std::string& path, size_t size)
    : NvmDevice(nullptr, 0), path_(path) {
  size_t aligned = (size + 4095) & ~size_t{4095};
  struct stat st;
  existed_ = (::stat(path.c_str(), &st) == 0);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  CRPM_CHECK(fd_ >= 0, "open(%s) failed: %s", path.c_str(),
             std::strerror(errno));
  CRPM_CHECK(::ftruncate(fd_, static_cast<off_t>(aligned)) == 0,
             "ftruncate(%s, %zu) failed: %s", path.c_str(), aligned,
             std::strerror(errno));
  void* mem = ::mmap(nullptr, aligned, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
  CRPM_CHECK(mem != MAP_FAILED, "mmap(%s) failed: %s", path.c_str(),
             std::strerror(errno));
  set_base(static_cast<uint8_t*>(mem), aligned);
}

FileNvmDevice::~FileNvmDevice() {
  if (base() != nullptr) ::munmap(base(), size());
  if (fd_ >= 0) ::close(fd_);
}

}  // namespace crpm
