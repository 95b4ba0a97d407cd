#include "src/serve/shm_arena.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "src/support/failpoint.h"
#include "src/support/logging.h"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tvmcpp {
namespace serve {

namespace {

std::string NormalizeShmName(const std::string& name) {
  std::string n = name.empty() ? std::string("/tvmcpp_serve") : name;
  if (n[0] != '/') n.insert(n.begin(), '/');
  return n;
}

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

[[noreturn]] void Fail(const std::string& what) { throw std::runtime_error(what); }

}  // namespace

#ifndef _WIN32

void ShmArena::MapAndInit(size_t bytes, int ring_slots) {
  size_t slots_off = AlignUp(sizeof(ShmArenaHeader), kShmAlign);
  size_t heap_off =
      AlignUp(slots_off + static_cast<size_t>(ring_slots) * sizeof(ShmRequestSlot), kShmAlign);
  if (bytes < heap_off + kShmMinClass * 4) Fail("shm arena size too small for ring + heap");
  if (ftruncate(fd_, static_cast<off_t>(bytes)) != 0) Fail("shm arena ftruncate failed");
  void* m = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (m == MAP_FAILED) Fail("shm arena mmap failed");
  base_ = static_cast<char*>(m);
  mapped_bytes_ = bytes;
  slots_ = reinterpret_cast<ShmRequestSlot*>(base_ + slots_off);

  // Pages from ftruncate are zero-filled; construct the non-zero header fields
  // on top and publish with the ready flag last.
  ShmArenaHeader* hdr = header();
  hdr->version = kShmVersion;
  hdr->total_bytes = bytes;
  hdr->heap_offset = heap_off;
  hdr->heap_bytes = bytes - heap_off;
  hdr->num_slots = static_cast<uint32_t>(ring_slots);
  for (int i = 0; i < kShmNumClasses; ++i) {
    hdr->free_heads[i].store(ShmPackHead(0, static_cast<uint32_t>(kShmFreeListNil)),
                             std::memory_order_relaxed);
  }
  hdr->magic = kShmMagic;
  hdr->ready.store(1, std::memory_order_release);
}

std::shared_ptr<ShmArena> ShmArena::Create(const std::string& name, Options opts) {
  FAILPOINT("serve.shm_attach");
  CHECK_GT(opts.bytes, 0u) << "ShmArena::Options::bytes";
  CHECK_GT(opts.ring_slots, 0) << "ShmArena::Options::ring_slots";
  auto arena = std::shared_ptr<ShmArena>(new ShmArena());
  arena->name_ = NormalizeShmName(name);
  arena->owner_ = true;
  // Replace any stale object left by a crashed server: existing mappings in
  // other processes stay valid but are detached from the new name.
  shm_unlink(arena->name_.c_str());
  arena->fd_ = shm_open(arena->name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (arena->fd_ < 0) Fail("shm_open(create " + arena->name_ + ") failed: " + strerror(errno));
  arena->MapAndInit(opts.bytes, opts.ring_slots);
  return arena;
}

std::shared_ptr<ShmArena> ShmArena::Attach(const std::string& name, double timeout_ms) {
  FAILPOINT("serve.shm_attach");
  auto arena = std::shared_ptr<ShmArena>(new ShmArena());
  arena->name_ = NormalizeShmName(name);
  int64_t give_up = ShmMonotonicMs() + static_cast<int64_t>(timeout_ms);
  // The creator's shm_open / ftruncate / header init are not atomic as a
  // whole, so attach retries until the object exists, has its final size, and
  // carries the ready flag — or the timeout lapses.
  while (true) {
    if (arena->fd_ < 0) arena->fd_ = shm_open(arena->name_.c_str(), O_RDWR, 0600);
    if (arena->fd_ >= 0) {
      struct stat st;
      if (fstat(arena->fd_, &st) != 0) Fail("shm arena fstat failed");
      if (static_cast<size_t>(st.st_size) >= sizeof(ShmArenaHeader)) {
        void* m = mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ | PROT_WRITE,
                       MAP_SHARED, arena->fd_, 0);
        if (m == MAP_FAILED) Fail("shm arena mmap failed");
        arena->base_ = static_cast<char*>(m);
        arena->mapped_bytes_ = static_cast<size_t>(st.st_size);
        while (arena->header()->ready.load(std::memory_order_acquire) != 1) {
          if (ShmMonotonicMs() > give_up) Fail("shm arena " + arena->name_ + " never became ready");
          usleep(200);
        }
        ShmArenaHeader* hdr = arena->header();
        if (hdr->magic != kShmMagic) Fail("shm arena " + arena->name_ + ": bad magic");
        if (hdr->version != kShmVersion) {
          Fail("shm arena " + arena->name_ + ": version " + std::to_string(hdr->version) +
               " != expected " + std::to_string(kShmVersion));
        }
        if (hdr->total_bytes != arena->mapped_bytes_) {
          Fail("shm arena " + arena->name_ + ": header size disagrees with mapping");
        }
        size_t slots_off = AlignUp(sizeof(ShmArenaHeader), kShmAlign);
        arena->slots_ = reinterpret_cast<ShmRequestSlot*>(arena->base_ + slots_off);
        return arena;
      }
    }
    if (ShmMonotonicMs() > give_up) {
      Fail("shm arena " + arena->name_ + " not found (is the server running?)");
    }
    usleep(1000);
  }
}

ShmArena::~ShmArena() {
  if (base_ != nullptr) munmap(base_, mapped_bytes_);
  if (fd_ >= 0) close(fd_);
  if (owner_) shm_unlink(name_.c_str());
}

void ShmArena::Unlink() { shm_unlink(name_.c_str()); }

#else  // _WIN32: the shm transport is POSIX-only; fail loudly if reached.

void ShmArena::MapAndInit(size_t, int) { Fail("shm transport is not supported on this platform"); }
std::shared_ptr<ShmArena> ShmArena::Create(const std::string&, Options) {
  Fail("shm transport is not supported on this platform");
}
std::shared_ptr<ShmArena> ShmArena::Attach(const std::string&, double) {
  Fail("shm transport is not supported on this platform");
}
ShmArena::~ShmArena() = default;
void ShmArena::Unlink() {}

#endif

int64_t ShmArena::AllocOffset(size_t bytes) {
  ShmArenaHeader* hdr = header();
  size_t need = bytes + kShmAlign;  // block header + payload alignment pad
  int cls = 0;
  while (cls < kShmNumClasses && (kShmMinClass << cls) < need) ++cls;
  if (cls >= kShmNumClasses) {
    hdr->failed_allocs.fetch_add(1, std::memory_order_relaxed);
    return kShmNoOffset;
  }
  size_t block_bytes = kShmMinClass << cls;
  char* heap = base_ + hdr->heap_offset;
  char* block = nullptr;

  // Fast path: pop this class's Treiber free list. The head packs a
  // generation with the offset so a concurrent pop/push cycle (ABA) makes the
  // CAS fail instead of corrupting the chain.
  std::atomic<uint64_t>& head = hdr->free_heads[cls];
  uint64_t h = head.load(std::memory_order_acquire);
  while (ShmHeadOff(h) != static_cast<uint32_t>(kShmFreeListNil)) {
    char* cand = heap + static_cast<uint64_t>(ShmHeadOff(h)) * kShmAlign;
    uint32_t next_units = static_cast<uint32_t>(
        reinterpret_cast<std::atomic<uint64_t>*>(cand + sizeof(ShmBlockHeader))
            ->load(std::memory_order_relaxed));
    uint64_t new_head = ShmPackHead(ShmHeadGen(h) + 1, next_units);
    if (head.compare_exchange_weak(h, new_head, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      block = cand;
      break;
    }
  }

  // Slow path: carve a fresh block off the bump frontier.
  if (block == nullptr) {
    uint64_t cur = hdr->bump.load(std::memory_order_relaxed);
    while (true) {
      if (cur + block_bytes > hdr->heap_bytes) {
        hdr->failed_allocs.fetch_add(1, std::memory_order_relaxed);
        return kShmNoOffset;
      }
      if (hdr->bump.compare_exchange_weak(cur, cur + block_bytes, std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
        block = heap + cur;
        break;
      }
    }
  }

  ShmBlockHeader* bh = reinterpret_cast<ShmBlockHeader*>(block);
  bh->magic = kShmBlockMagic;
  bh->cls = static_cast<uint32_t>(cls);
  std::memset(block + kShmAlign, 0, bytes);  // match NDArray::Empty's zero-fill
  hdr->live_blocks.fetch_add(1, std::memory_order_relaxed);
  hdr->total_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int64_t>(hdr->heap_offset) + (block - heap) + kShmAlign;
}

bool ShmArena::FreeOffset(int64_t offset) {
  ShmArenaHeader* hdr = header();
  int64_t block_off = offset - static_cast<int64_t>(kShmAlign);
  int64_t heap_lo = static_cast<int64_t>(hdr->heap_offset);
  int64_t frontier = heap_lo + static_cast<int64_t>(hdr->bump.load(std::memory_order_acquire));
  if (block_off < heap_lo || block_off >= frontier || block_off % kShmAlign != 0) return false;
  char* block = base_ + block_off;
  ShmBlockHeader* bh = reinterpret_cast<ShmBlockHeader*>(block);
  if (bh->magic != kShmBlockMagic || bh->cls >= kShmNumClasses) return false;
  bh->magic = kShmBlockFreeMagic;
  uint32_t units =
      static_cast<uint32_t>((block_off - heap_lo) / static_cast<int64_t>(kShmAlign));
  std::atomic<uint64_t>& head = hdr->free_heads[bh->cls];
  auto* next_slot = reinterpret_cast<std::atomic<uint64_t>*>(block + sizeof(ShmBlockHeader));
  uint64_t h = head.load(std::memory_order_acquire);
  while (true) {
    next_slot->store(ShmHeadOff(h), std::memory_order_relaxed);
    uint64_t new_head = ShmPackHead(ShmHeadGen(h) + 1, units);
    if (head.compare_exchange_weak(h, new_head, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      break;
    }
  }
  hdr->live_blocks.fetch_add(-1, std::memory_order_relaxed);
  hdr->total_frees.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShmArena::Contains(const void* ptr, size_t bytes) const {
  const char* p = static_cast<const char*>(ptr);
  const char* heap = base_ + header()->heap_offset;
  return p >= heap && p + bytes <= base_ + header()->total_bytes;
}

bool ShmArena::ValidPayload(int64_t offset, size_t bytes) const {
  const ShmArenaHeader* hdr = header();
  int64_t lo = static_cast<int64_t>(hdr->heap_offset + kShmAlign);
  return offset >= lo &&
         static_cast<uint64_t>(offset) + bytes <= hdr->heap_offset + hdr->heap_bytes;
}

std::shared_ptr<NDStorage> ShmStoragePool::Allocate(size_t bytes) {
  int64_t off = arena_->AllocOffset(bytes > 0 ? bytes : 1);
  if (off == kShmNoOffset) return nullptr;  // caller falls back to the heap
  std::shared_ptr<ShmArena> arena = arena_;
  std::shared_ptr<void> keeper(static_cast<void*>(arena->At(off)),
                               [arena, off](void*) { arena->FreeOffset(off); });
  return std::make_shared<NDStorage>(arena_->At(off), bytes, std::move(keeper));
}

}  // namespace serve
}  // namespace tvmcpp
